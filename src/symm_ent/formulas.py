"""Closed-form pair states and concurrences produced by the protocols.

These expressions are the analytic ground truth the simulators are compared
against. Conventions:

* a = sin(theta/2), b = cos(theta/2); two-angle families take the second
  angle as ``theta2``.
* Pair density matrices are written in the basis |left qubit, right qubit>
  of the chain, and |outer, central> for the star.
* Every star pair state comes from one parity count. The central qubit holds
  the parity of the m outer qubits; the k outer qubits outside the pair have
  even and odd parity with weights E+- = (1 +- (a^2 - b^2)^k) / 2, summed one
  qubit at a time over positive terms, so the small one keeps its relative
  accuracy where a ring divides by it near a dead branch. ``star_central``
  (k = m - 1) is X(a^2 E+, a^2 E-, b^2 E-, b^2 E+; u = a b E+, d = a b E-).
  The ring after outcome o (k = m - 2, o' = 1 - o) is X(a^4 E_o, a^2 b^2 E_o',
  a^2 b^2 E_o', b^4 E_o; u = a^2 b^2 E_o, d = a^2 b^2 E_o') over its trace,
  the branch probability.
* Rings reach the Koashi-Buzek-Imoto bound 2/m (PRA 62, 050302(R), 2000)
  as their branch dies and the ring tends to a W state: at theta = pi for
  o = 1, at theta = 0 when o differs from m's parity. Elsewhere they stay
  below it; even m stays well below on o = 0 (0.207 at m = 4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .concurrence import xstate_concurrence
from .linalg import as_index

FAMILIES = ("star_central", "star_ring_0", "star_ring_1", "linear_bulk", "linear_edge",
            "periodic_even", "periodic_odd", "end_pair_case13", "case13_zero")

_TWO_ANGLE = {"periodic_even", "periodic_odd"}


@dataclass(frozen=True)
class AngleParams:
    """Rotation angle(s), with the half-angle sine and cosine of ``theta``."""

    theta: float
    theta2: float | None = None

    @property
    def a(self) -> float:
        return math.sin(self.theta / 2.0)

    @property
    def b(self) -> float:
        return math.cos(self.theta / 2.0)


def unitary_params(theta: float, theta2: float | None = None) -> AngleParams:
    if not math.isfinite(theta) or (theta2 is not None and not math.isfinite(theta2)):
        raise ValueError("angles must be finite")
    return AngleParams(theta, theta2)


def _check_family(family: str, angles: AngleParams) -> None:
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; valid: {', '.join(FAMILIES)}")
    if family in _TWO_ANGLE and angles.theta2 is None:
        raise ValueError(f"family {family!r} needs two angles")


def _x_matrix(x: float, y: float, z: float, w: float, u: float, delta: float) -> np.ndarray:
    return np.array(
        [
            [x, 0.0, 0.0, u],
            [0.0, y, delta, 0.0],
            [0.0, delta, z, 0.0],
            [u, 0.0, 0.0, w],
        ]
    )


def _parity_weights(a2: float, b2: float, k: int) -> tuple[float, float]:
    """(E+, E-): the weights of even and odd parity among k outer qubits."""
    even, odd = 1.0, 0.0
    for _ in range(k):
        even, odd = a2 * even + b2 * odd, b2 * even + a2 * odd
    return even, odd


def _chain_bulk_entries(theta_left: float, theta_right: float) -> tuple[float, ...]:
    """Bulk pair state of the staircase chain, in |left, right> basis.

    The right qubit's angle enters at fourth order, the left qubit's at
    second; with equal angles this reduces to the uniform-chain bulk state
    diag(a^6 + b^6, a^2 b^2, a^2 b^2, a^2 b^2) with corners a b (a^4 + b^4)
    and inner off-diagonal 2 a^3 b^3.
    """
    al, bl = math.sin(theta_left / 2.0), math.cos(theta_left / 2.0)
    ar, br = math.sin(theta_right / 2.0), math.cos(theta_right / 2.0)
    x = ar**4 * al**2 + br**4 * bl**2
    y = ar**2 * br**2
    w = ar**4 * bl**2 + br**4 * al**2
    u = al * bl * (ar**4 + br**4)
    delta = 2.0 * ar**2 * br**2 * al * bl
    return (x, y, y, w, u, delta)


def analytic_pair_rdm(family: str, angles: AngleParams, n_outer: int = 3) -> np.ndarray:
    """Closed-form 4x4 pair density matrix for the given family.

    ``n_outer`` sizes every star family; a ring needs n_outer >= 2 and is
    undefined where its branch probability vanishes.
    """
    _check_family(family, angles)
    a, b, n_outer = angles.a, angles.b, as_index(n_outer, "n_outer")
    if family.startswith("star"):
        k = n_outer - 1 if family == "star_central" else n_outer - 2
        if k < 0:
            raise ValueError(f"{family} needs n_outer >= {n_outer - k}, got n_outer={n_outer}")
        x, y = a * a, b * b
        even, odd = _parity_weights(x, y, k)
        if family == "star_central":
            return _x_matrix(x * even, x * odd, y * odd, y * even, a * b * even, a * b * odd)
        same, flip = (even, odd) if family == "star_ring_0" else (odd, even)
        xy = x * y
        rho = _x_matrix(x * x * same, xy * flip, xy * flip, y * y * same, xy * same, xy * flip)
        probability = np.trace(rho)
        if probability < 1e-14:
            raise ValueError(f"ring state {family[-1]} is undefined: branch probability is zero")
        return rho / probability
    if family == "linear_bulk":
        return _x_matrix(*_chain_bulk_entries(angles.theta, angles.theta))
    if family == "periodic_even":
        # left qubit carries theta2, right qubit theta1
        return _x_matrix(*_chain_bulk_entries(angles.theta2, angles.theta))
    if family == "periodic_odd":
        # left qubit carries theta1, right qubit theta2
        return _x_matrix(*_chain_bulk_entries(angles.theta, angles.theta2))
    raise ValueError(f"family {family!r} has no closed-form density matrix")


def _chain_bulk_concurrence(theta_left: float, theta_right: float) -> float:
    """max(0, C+, C-) with C+- = (-1 + cos(2 tr) +- (3 + cos(2 tr)) sin(tl)) / 4."""
    base = -1.0 + math.cos(2.0 * theta_right)
    swing = (3.0 + math.cos(2.0 * theta_right)) * math.sin(theta_left)
    return max(0.0, 0.25 * (base + swing), 0.25 * (base - swing))


def analytic_concurrence(
    family: str, angles: AngleParams, n_outer: int = 3, chain_n: int = 3
) -> float:
    """Closed-form concurrence for the given family.

    ``n_outer`` sizes every star family; ``chain_n`` sizes the
    chain for ``end_pair_case13``, whose end-pair value decays with length as
    2 |a b| |a^2 - b^2|^(n-2); the three-qubit chain gives the familiar
    2 |c s (c^2 - s^2)| = |sin(theta) cos(theta)|; ``case13_zero``, every
    other adjacent pair of cases 1 and 3, is unentangled. The star states
    are evaluated through the exact X-state concurrence of their analytic
    entries.
    """
    _check_family(family, angles)
    a, b = angles.a, angles.b
    n_outer, chain_n = as_index(n_outer, "n_outer"), as_index(chain_n, "chain_n")
    if family.startswith("star"):
        return xstate_concurrence(analytic_pair_rdm(family, angles, n_outer))
    if family == "linear_bulk":
        theta = angles.theta
        base = 0.125 * (-2.0 + 2.0 * math.cos(2.0 * theta))
        swing = 0.125 * (5.0 * math.sin(theta) + math.sin(3.0 * theta))
        return max(0.0, base + swing, base - swing)
    if family == "linear_edge":
        return abs(math.sin(angles.theta) * math.cos(angles.theta))
    if family == "periodic_even":
        return _chain_bulk_concurrence(angles.theta2, angles.theta)
    if family == "periodic_odd":
        return _chain_bulk_concurrence(angles.theta, angles.theta2)
    if family == "end_pair_case13":
        if chain_n < 3:
            raise ValueError(f"end pair formula needs chain_n >= 3, got {chain_n}")
        return float(2.0 * abs(a * b) * abs(b * b - a * a) ** (chain_n - 2))
    if family == "case13_zero":
        return 0.0
    raise AssertionError("unreachable")


def linear_theta_opt() -> float:
    """Angle maximizing the chain bulk concurrence: arcsin((sqrt(7) - 1) / 3).

    The remaining peaks sit at pi - theta*, pi + theta*, and 2 pi - theta*.
    """
    return math.asin((math.sqrt(7.0) - 1.0) / 3.0)
