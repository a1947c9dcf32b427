"""Closed-form pair states and concurrences produced by the protocols.

These expressions are the analytic ground truth the simulators are compared
against. Conventions:

* a = sin(theta/2), b = cos(theta/2); two-angle families take the second
  angle as ``theta2``.
* Pair density matrices are written in the basis |left qubit, right qubit>
  of the chain, and |outer, central> for the star.
* ``star_central`` generalizes to any ring size: with m outer qubits the
  partial trace gives diagonal (a^2 E+, a^2 E-, b^2 E-, b^2 E+) and corners
  (a b E+, a b E-) where E+- = (1 +- (a^2 - b^2)^(m-1)) / 2; m = 3 recovers
  the familiar quartic entries.
* The post-selected ring states are normalized by the branch probabilities
  p0 = a^6 + 3 a^2 b^4 and p1 = 3 a^4 b^2 + b^6 (ring of three only).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .concurrence import xstate_concurrence

FAMILIES = (
    "star_central",
    "star_ring_0",
    "star_ring_1",
    "linear_bulk",
    "linear_edge",
    "periodic_even",
    "periodic_odd",
    "end_pair_case13",
    "case13_zero",
)

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


def _star_central_entries(angles: AngleParams, n_outer: int) -> tuple[float, ...]:
    if n_outer < 1:
        raise ValueError(f"n_outer must be >= 1, got {n_outer}")
    a, b = angles.a, angles.b
    parity = (a * a - b * b) ** (n_outer - 1)
    even = 0.5 * (1.0 + parity)
    odd = 0.5 * (1.0 - parity)
    return (a * a * even, a * a * odd, b * b * odd, b * b * even, a * b * even, a * b * odd)


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

    ``n_outer`` only affects ``star_central``. The ring families are defined
    for a three-qubit ring and are singular where their branch probability
    vanishes (theta = 0 mod 2 pi for ring 0, theta = pi for ring 1).
    """
    _check_family(family, angles)
    a, b = angles.a, angles.b
    if family == "star_central":
        return _x_matrix(*_star_central_entries(angles, n_outer))
    if family == "star_ring_0":
        p0 = a**6 + 3.0 * a**2 * b**4
        if p0 < 1e-14:
            raise ValueError("ring state 0 is undefined: branch probability is zero")
        n0 = 1.0 / p0
        return n0 * _x_matrix(a**6, a**2 * b**4, a**2 * b**4, a**2 * b**4, a**4 * b**2, a**2 * b**4)
    if family == "star_ring_1":
        p1 = 3.0 * a**4 * b**2 + b**6
        if p1 < 1e-14:
            raise ValueError("ring state 1 is undefined: branch probability is zero")
        n1 = 1.0 / p1
        return n1 * _x_matrix(a**4 * b**2, a**4 * b**2, a**4 * b**2, b**6, a**2 * b**4, a**4 * b**2)
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

    ``n_outer`` sizes the star (``star_central``); ``chain_n`` sizes the
    chain for ``end_pair_case13``, whose end-pair value decays with length as
    2 |a b| |a^2 - b^2|^(n-2); the three-qubit chain gives the familiar
    2 |c s (c^2 - s^2)| = |sin(theta) cos(theta)|; ``case13_zero``, every
    other adjacent pair of cases 1 and 3, is unentangled. The star states
    are evaluated through the exact X-state concurrence of their analytic
    entries.
    """
    _check_family(family, angles)
    a, b = angles.a, angles.b
    if family == "star_central":
        return xstate_concurrence(_x_matrix(*_star_central_entries(angles, n_outer)))
    if family in ("star_ring_0", "star_ring_1"):
        return xstate_concurrence(analytic_pair_rdm(family, angles))
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
