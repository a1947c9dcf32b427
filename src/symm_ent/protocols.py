"""Entangling-protocol circuits for star, chain, and alternating-chain layouts.

Sites are numbered 1..n_qubits throughout the package. A circuit is an
ordered list of gate applications; list order is application order. Three
families are provided:

* ``build_star``: outer qubits 1..n_outer each rotated and then used as the
  control of a CX onto the central qubit (site n_outer + 1).
* ``build_linear``: the four orderings of the staircase chain protocol, which
  differ in sweep direction and CX orientation.
* ``build_periodic``: the case-4 ordering with two rotation angles alternating
  along the chain, starting with theta1 on the first-acted site n - 1.

Every angle is either a float or a tuple of floats, one per point of an
angle grid. A circuit whose rotations carry tuples describes one circuit
per grid point; the MPS engine runs all of them in one call. Tuples keep
``Rotation`` hashable, so a gate engine can still validate each distinct
gate once. ``Circuit.causal_cone`` keeps only the ops that can reach a set
of sites: a run that reads a central chain pair needs about half the gates.

Sizes, cases and sites are integers, Python or numpy: the builders and
``Circuit`` reject anything else, a bool too, with a ValueError naming the
argument, so an engine never runs a gate on a site it was not given.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .linalg import as_index, as_site

Angle = Union[float, tuple[float, ...]]


@dataclass(frozen=True)
class Rotation:
    """Single-qubit gate [[a, b], [b, -a]] with a = sin(theta/2), b = cos(theta/2).

    ``theta`` is one angle, or a tuple holding one angle per grid point.
    """

    site: int
    theta: Angle


@dataclass(frozen=True)
class ControlledNot:
    control: int
    target: int


GateOp = Union[Rotation, ControlledNot]


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    ops: tuple[GateOp, ...]
    # grid points the angle tuples carry, None for a single-point circuit
    grid: int | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = as_index(self.n_qubits, "n_qubits")
        if n < 1:
            raise ValueError(f"circuit needs at least one qubit, got {n}")
        if not isinstance(self.ops, tuple):
            raise TypeError(f"ops must be a tuple, got {type(self.ops).__name__} {self.ops!r}")
        for op in self.ops:
            if isinstance(op, Rotation):
                as_site(op.site, n, "rotation site")
            elif not isinstance(op, ControlledNot):
                raise TypeError(f"ops entry {op!r} is neither a Rotation nor a ControlledNot")
            elif as_site(op.control, n, "CX control") == as_site(op.target, n, "CX target"):
                raise ValueError("CX control and target must differ")
        object.__setattr__(self, "grid", _grid_size(self.ops))

    def causal_cone(self, sites) -> Circuit:
        """The circuit pruned to the past causal cone of ``sites``, same grid: walking
        the ops backwards, an op is kept when it touches the growing set of sites, and its
        sites join the set. A dropped op touches no site of ``sites`` and commutes past every
        kept op after it, so the reduced state of ``sites`` is unchanged."""
        reach, kept = set(sites), []
        for op in reversed(self.ops):
            touched = {op.site} if isinstance(op, Rotation) else {op.control, op.target}
            if touched & reach:
                reach |= touched
                kept.append(op)
        cone = Circuit(self.n_qubits, tuple(reversed(kept)))
        object.__setattr__(cone, "grid", self.grid)
        return cone


def _grid_size(ops: tuple[GateOp, ...]) -> int | None:
    """Number of grid points the angle tuples of ``ops`` carry; None when
    every angle is a float."""
    sizes = {
        len(op.theta): op for op in ops if isinstance(op, Rotation) and isinstance(op.theta, tuple)
    }
    if len(sizes) > 1:
        first, second = sorted(sizes)[:2]
        raise ValueError(
            f"angle tuples differ in length: {sizes[first]!r} has {first} angles, "
            f"{sizes[second]!r} has {second}"
        )
    if 0 in sizes:
        raise ValueError(f"{sizes[0]!r} has an empty angle tuple")
    return next(iter(sizes), None)


def rotation_matrix(theta: Angle) -> np.ndarray:
    """The protocol's single-qubit rotation: real, symmetric, and unitary.

    theta = 0 gives X, theta = pi gives Z, theta = pi/2 gives the Hadamard.
    A tuple of angles gives the ``(len(theta), 2, 2)`` stack of rotations.
    """
    half = np.asarray(theta, dtype=float) / 2.0
    a = np.sin(half)
    b = np.cos(half)
    return np.stack([np.stack([a, b], -1), np.stack([b, -a], -1)], -2)


def cx_matrix(control_first: bool = True) -> np.ndarray:
    """4x4 controlled-NOT in the ordered two-site basis |q_left q_right>.

    ``control_first`` selects whether the left or the right site controls.
    """
    # a permutation of the basis states 00, 01, 10, 11 that is its own inverse
    return np.eye(4)[[0, 1, 3, 2] if control_first else [0, 3, 2, 1]]


def build_star(n_outer: int, theta: Angle) -> Circuit:
    """Star protocol: rotate each outer qubit, then CX it onto the central one.

    Qubits 1..n_outer are the outer ring, qubit n_outer + 1 is central. Gates
    are applied outer qubit n_outer first, qubit 1 last, 2 * n_outer ops total.
    """
    if as_index(n_outer, "n_outer") < 1:
        raise ValueError(f"star protocol needs n_outer >= 1, got {n_outer}")
    central = n_outer + 1
    ops: list[GateOp] = []
    for k in range(n_outer, 0, -1):
        ops.append(Rotation(k, theta))
        ops.append(ControlledNot(k, central))
    return Circuit(central, tuple(ops))


def build_linear(n: int, case: int, theta: Angle) -> Circuit:
    """Chain protocol, one of the four staircase orderings.

    case 1: i = n..2,   rotate i, CX(i -> i-1)
    case 2: i = 2..n,   rotate i, CX(i -> i-1)
    case 3: i = 1..n-1, rotate i, CX(i -> i+1)
    case 4: i = n-1..1, rotate i, CX(i -> i+1)

    Cases 2 and 4 entangle every nearest-neighbor pair; cases 1 and 3 leave
    only their final-acted end pair entangled.
    """
    if as_index(n, "n") < 3:
        raise ValueError(f"chain protocol needs n >= 3, got {n}")
    if as_index(case, "case") == 1:
        sequence = [(i, i - 1) for i in range(n, 1, -1)]
    elif case == 2:
        sequence = [(i, i - 1) for i in range(2, n + 1)]
    elif case == 3:
        sequence = [(i, i + 1) for i in range(1, n)]
    elif case == 4:
        sequence = [(i, i + 1) for i in range(n - 1, 0, -1)]
    else:
        raise ValueError(f"case must be 1, 2, 3, or 4, got {case}")
    ops: list[GateOp] = []
    for control, target in sequence:
        ops.append(Rotation(control, theta))
        ops.append(ControlledNot(control, target))
    return Circuit(n, tuple(ops))


def build_periodic(n: int, theta1: Angle, theta2: Angle) -> Circuit:
    """Case-4 chain ordering with two alternating rotation angles.

    Site i is rotated by ``periodic_site_angle(n, i, theta1, theta2)``, so
    the first-acted site n - 1 always carries theta1. With
    theta1 == theta2 the op list is identical to ``build_linear(n, 4, theta1)``.
    """
    if as_index(n, "n") < 4:
        raise ValueError(f"alternating chain protocol needs n >= 4, got {n}")
    ops: list[GateOp] = []
    for i in range(n - 1, 0, -1):
        ops.append(Rotation(i, periodic_site_angle(n, i, theta1, theta2)))
        ops.append(ControlledNot(i, i + 1))
    return Circuit(n, tuple(ops))


def periodic_site_angle(n: int, site: int, theta1: Angle, theta2: Angle) -> Angle:
    """Angle of ``site`` in the alternating protocol (sites 1..n-1 are rotated):
    theta1 when n - 1 - site is even, theta2 when it is odd."""
    if not 1 <= site <= n - 1:
        raise ValueError(f"site {site} is not rotated by the alternating protocol on {n} qubits")
    return theta1 if (n - 1 - site) % 2 == 0 else theta2
