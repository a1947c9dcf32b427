"""Matrix-product-state engine for the entangling protocols.

The state is kept in mixed-canonical form around an orthogonality center:
site tensors have index order (left bond, physical, right bond), tensors
strictly left of the center are left-isometric, tensors strictly right of it
are right-isometric, and the center tensor carries the full norm. Moving the
center across a bond is a pure QR basis change that leaves the represented
state untouched. A tensor between bonds of dimension 1 is a unit vector, left-
and right-isometric at once, so a run of such bonds is crossed in one step:
the center tensor is divided by its norm and the run's far tensor multiplied
by it. Every other bond is one QR, and a left move is the right move of the
mirrored chain, each tensor's bond axes swapped, (l, 2, r) -> (r, 2, l). The
QR's new center is rescaled to the old one's norm, which R's rounding would
otherwise drift by about eps per move, N eps over a walk of the chain.

Every gate runs through one executor as one matmul against ``linalg.lift(g,
r)``, the gate g lifted once per call to the right bond r of its right-hand
site, not as P l small products: ``(P l, 2r) @ lift(g, r)`` on a one-site
gate's tensor, and ``(P l, 4r) @ lift(g, r)`` on the two-site block at the
center in the one nearest-neighbor update, which splits the block back with
an SVD. A gate between distant sites (the star layout's controlled-NOTs) is
routed with adjacent SWAP gates (Stoudenmire & White, New J. Phys. 12,
055026, 2010): ``run_circuit`` keeps a qubit-to-site map, moves a CX target
one site at a time next to its control and leaves it there, so the star's
central qubit walks down the chain at one SWAP and one CX per outer qubit,
and every split stays at bond dimension 2 or less. After the last op
adjacent SWAPs return every qubit to its own site, so outside
``run_circuit`` qubit k is site k.

The public gate methods, ``apply_1q(gate, site)`` and ``apply_2q(gate, i,
j)``, check their gate with ``require_unitary`` on every call and hand it to
the executor that runs circuits; neither needs the center anywhere: the
engine places it. ``apply_2q`` takes any pair i < j, routes a distant one by
adjacent SWAPs, and leaves the center at ``i`` or ``i + 1``. ``run_circuit``
validates each distinct gate once per call (one check per rotation angle, one
per CX orientation on the sites it acts on; the fixed SWAP is never checked)
and then applies the ops through unchecked kernels. It places the center by
look-ahead: the split after a two-site gate, SWAPs included, leaves the
center on the side of the next two-site gate, so a staircase or a route
needs no center move between its gates.

There is no truncation policy: every split is a rank-revealing SVD that
drops only singular values below 1e-14, so the engine is exact. Every
protocol state needs bond dimension 2 at most, so ``discarded_weight_total``
stays at roundoff level (callers fail above 1e-14), and every split of a real
two-row or two-column block, single-point or stacked, takes ``svd_truncate``'s
closed form, one 2x2 rotation per point; routed 4x4 blocks stay on LAPACK.

A state can also hold one MPS per point of an angle grid. Running a circuit
whose rotations carry angle tuples (see ``protocols``) gives every site
tensor a leading grid axis, shape ``(P, l, 2, r)``; all P states share one
bond structure and one center, every split keeps the largest rank any of
them needs, and each operation handles all of them in one numpy call. A
single-point state keeps ``(l, 2, r)`` tensors and runs through the same
code. ``single_rdm`` and ``postselect`` return stacks for a stacked
state: a ``(P, 2, 2)`` array and one probability per point. ``pair_rdm``
contracts a row of pairs sharing a left site for the whole grid at once,
with the center there: an adjacent pair is the Gram matrix M M^dag of the
two-site block M, one environment sweep of transfer-matrix matmuls closes
every distant pair (Schollwoeck, Ann. Phys. 326, 96, 2011). A stacked row
reads as the ``(len(row), P, 4, 4)`` stack of ``StateVector.pair_rdm``, and
it is kept, so a read of one point (``point=k``) is a slice of it.
``discarded_weight`` holds each point's total, ``discarded_weight_total`` the largest.

Real in, real out: the product state starts as float64 and every protocol
gate is real, so a protocol run keeps float64 tensors throughout. The
public gate methods also take complex gates; the tensors a complex gate
touches are promoted to complex128 by numpy's own type promotion, and the
rest stay as they are.

The sweeps use ``run_circuit``, ``single_rdm``, ``keep_points``,
``postselect``, ``pair_rdm`` and ``discarded_weight_total``. The gate methods
and the other health readings, ``norm``, ``canonical_deviation`` and
``max_bond_dimension``, serve library callers and tests. Sizes and sites are
integers; anything else is a ValueError naming the argument.

Instances are mutated in place by gates and sweeps; distinct sweeps must own
distinct instances.
"""

from __future__ import annotations

import operator

import numpy as np

from .linalg import (
    as_index,
    as_points,
    as_site,
    first_flagged,
    lift,
    require_single_gate,
    require_unitary,
    svd_truncate,
)
from .protocols import Circuit, Rotation, cx_matrix, rotation_matrix
from .statevector import ZERO_PROBABILITY


def _dag(m: np.ndarray) -> np.ndarray:
    """Adjoint of each matrix of a stack."""
    return m.conj().swapaxes(-1, -2)


def _vector_norms(x: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(x, axis=-1, keepdims=True)``, bitwise, without its wrapper."""
    return np.sqrt(np.add.reduce((x.conj() * x).real, -1, keepdims=True))


def _norms(t: np.ndarray) -> np.ndarray:
    """Frobenius norm of each site tensor of a stack, shaped to broadcast
    against the stack."""
    return _vector_norms(t.reshape(t.shape[:-3] + (-1,)))[..., None, None]


def _mirror(t: np.ndarray) -> np.ndarray:
    """Each site tensor of a stack with its bond axes swapped, (l, 2, r) -> (r, 2, l),
    as a C-contiguous copy."""
    return np.ascontiguousarray(t.swapaxes(-3, -1))


def _regroup(g: np.ndarray, a: int, b: int) -> np.ndarray:
    """Each matrix [(r x), (s y)] of a stack, r, s < a and x, y < b, as [(r s), (x y)]."""
    return g.reshape(*g.shape[:-2], a, b, a, b).swapaxes(-3, -2).reshape(*g.shape[:-2], a * a, -1)


def _row_rdms(tensors: list[np.ndarray], i: int, sites: tuple[int, ...]) -> np.ndarray:
    """The RDMs of (i, j), j in ``sites``, as a ``(len(sites), ..., 4, 4)`` stack
    over the whole grid, from the tensors of i..sites[-1] with the center at i."""
    t, *rest = tensors
    *lead, l, _, r = t.shape
    rhos = []
    if sites[0] == i + 1:
        # rho = M M^dag of the block M[(p x), (l s)]; _dag of a real M is a view
        block = t.reshape(*lead, l * 2, r) @ rest[0].reshape(*lead, r, -1)
        block = block.reshape(*lead, l, 4, -1).swapaxes(-3, -2).reshape(*lead, 4, -1)
        rhos.append(block @ _dag(block))
    distant = sites[len(rhos) :]
    if distant:
        m = t.reshape(*lead, l, 2 * r).swapaxes(-1, -2)
        env = _regroup(m @ _dag(m), 2, r)  # env[(p q), (r s)]: site i's ket and bra, the bond's
        for site, tm in enumerate(rest, start=i + 1):
            a, _, b = tm.shape[-3:]
            if site in distant:  # close with W[(r s), (x y)] = (M M^dag)[(r x), (s y)]
                m = tm.reshape(*lead, a * 2, b)
                rhos.append(_regroup(env @ _regroup(m @ _dag(m), a, 2), 2, 2))
            if site < sites[-1]:  # step with T[(r s), (t u)] = sum_x A[r x t] A*[s x u]
                m = tm.swapaxes(-2, -1).reshape(*lead, a * b, 2)
                env = env @ _regroup(m @ _dag(m), a, b)
    return np.array(rhos)


# the two-site gate |ab> -> |ba> that routes a qubit one site along the chain
SWAP = np.eye(4)[[0, 2, 1, 3]]


def _route(ops, n_qubits: int) -> list[tuple[np.ndarray, int, bool]]:
    """The ops as gates on sites, ``(gate, site, two_site)``; a two-site gate
    acts on (site, site + 1).

    A CX whose qubits are not on adjacent sites first swaps its target one
    site at a time toward its control, and the target stays where it ends.
    After the last op adjacent swaps return every qubit to its own site. Each
    distinct gate is validated once; the CX orientation is read from the
    sites it acts on.
    """
    checked: dict[tuple, np.ndarray] = {}
    steps: list[tuple[np.ndarray, int, bool]] = []
    site_of = list(range(n_qubits + 1))  # site_of[q]: the site holding qubit q
    qubit_at = list(range(n_qubits + 1))  # its inverse

    def swap(lo: int) -> None:
        a, b = qubit_at[lo], qubit_at[lo + 1]
        qubit_at[lo], qubit_at[lo + 1] = b, a
        site_of[a], site_of[b] = lo + 1, lo
        steps.append((SWAP, lo, True))

    for op in ops:
        if isinstance(op, Rotation):
            key = ("rotation", op.theta)
            if key not in checked:
                checked[key] = require_unitary(rotation_matrix(op.theta), 2)
            steps.append((checked[key], site_of[op.site], False))
        else:
            control = site_of[op.control]
            while abs(site_of[op.target] - control) > 1:
                target = site_of[op.target]
                swap(target - 1 if target > control else target)
            target = site_of[op.target]
            key = ("cx", control < target)
            if key not in checked:
                checked[key] = require_unitary(cx_matrix(control_first=key[1]), 4)
            steps.append((checked[key], min(control, target), True))
    for qubit in range(1, n_qubits + 1):
        while site_of[qubit] > qubit:
            swap(site_of[qubit] - 1)
    return steps


class MatrixProductState:
    def __init__(self, n_qubits: int):
        """Product state |0...0> with all bonds of dimension 1, center at site 1."""
        n_qubits = as_index(n_qubits, "n_qubits")
        if n_qubits < 2:
            raise ValueError(f"MPS backend needs at least 2 qubits, got {n_qubits}")
        zero = np.zeros((1, 2, 1))
        zero[0, 0, 0] = 1.0
        self.n_qubits = n_qubits
        self.tensors = [zero.copy() for _ in range(n_qubits)]
        self.center = 1
        self.grid: int | None = None  # grid points stacked, None for one state
        self.discarded_weight = np.zeros(())  # per grid point: shape (), or (P,)
        self._row = (0, (), (), None)  # the last row read: i, sites, tensors, RDMs

    # ---------------------------------------------------------------- basics

    def _stack(self, grid: int | None) -> None:
        """Give every tensor a leading axis of ``grid`` copies; a no-op for
        None or the grid the state already has."""
        if grid is None or grid == self.grid:
            return
        if self.grid is not None:
            raise ValueError(f"gates carry {grid} grid points, the state stacks {self.grid}")
        self.tensors = [np.repeat(t[None], grid, axis=0) for t in self.tensors]
        self.discarded_weight = np.repeat(self.discarded_weight[None], grid)
        self.grid = grid

    def keep_points(self, points) -> "MatrixProductState":
        """Keep only the grid points at the indices ``points``, in that order; return the state."""
        if self.grid is None:
            raise ValueError("keep_points needs a grid-stacked state")
        points = as_points(points, self.grid)
        self.tensors = [t[points] for t in self.tensors]
        self.discarded_weight = self.discarded_weight[points]
        self.grid = points.size
        return self

    @property
    def discarded_weight_total(self) -> float:
        """Discarded weight of the state; the largest over a stack's grid points."""
        return float(self.discarded_weight.max())

    @property
    def max_bond_dimension(self) -> int:
        """Largest of the n - 1 internal bond dimensions."""
        return max(t.shape[-1] for t in self.tensors[:-1])

    def norm(self) -> float | np.ndarray:
        """Norm of the state; one per grid point for a stacked state."""
        norms = _norms(self.tensors[self.center - 1])[..., 0, 0, 0]
        return float(norms) if self.grid is None else norms

    def canonical_deviation(self) -> float:
        """Max deviation from the expected isometry conditions and unit norm,
        over all grid points of a stacked state."""
        worst = float(np.max(np.abs(self.norm() - 1.0)))
        for idx, t in enumerate(self.tensors, start=1):
            if idx != self.center:  # a right-isometric tensor is left-isometric mirrored
                t = t if idx < self.center else _mirror(t)
                m = t.reshape(*t.shape[:-3], -1, t.shape[-1])
                worst = max(worst, float(np.max(np.abs(_dag(m) @ m - np.eye(m.shape[-1])))))
        return worst

    # ------------------------------------------------------- center movement

    def _shift(self, step: int) -> None:
        """Move the center one site right (``step`` 1) or left (-1) by a QR; a
        left move is the right move of the mirrored pair of tensors."""
        c, to = self.center, self.center + step  # the center and the site it moves to
        flip = _mirror if step < 0 else np.asarray  # asarray returns an array as it is
        t, nxt = flip(self.tensors[c - 1]), flip(self.tensors[to - 1])
        *lead, l, _, r = t.shape
        q, carry = np.linalg.qr(t.reshape(*lead, l * 2, r))
        nxt = (carry @ nxt.reshape(*lead, r, -1)).reshape(*lead, -1, 2, nxt.shape[-1])
        nxt = nxt * (_norms(t) / _norms(nxt))  # the old center's norm, which R's rounding drifts
        self.tensors[c - 1], self.tensors[to - 1] = flip(q.reshape(*lead, l, 2, -1)), flip(nxt)
        self.center = to

    def _split(self, block: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rank-revealing SVD ``block = U diag(s) V^dag`` of one matrix or a
        stack, returned as ``(U, s, V^dag)``; ``s`` is rescaled to the norm of
        ``block`` and the discarded weight is added to each point's total."""
        res = svd_truncate(block, min(block.shape[-2:]))
        self.discarded_weight = self.discarded_weight + res.discarded_weight
        s = res.singular_values
        norm_s = _vector_norms(s)
        norm_block = _vector_norms(block.reshape(block.shape[:-2] + (-1,)))
        s = s * np.divide(norm_block, norm_s, out=np.ones_like(norm_s), where=norm_s > 0.0)
        return res.left_isometry, s, res.right_isometry_dag

    def _move_center_to(self, site: int) -> None:
        """Move the center to ``site``: across a run of bonds of dimension 1 in
        one step (see the module docstring), across any other bond by ``_shift``."""
        while self.center != site:
            c = to = self.center
            step, bond = (1, -1) if c < site else (-1, -3)  # the bond axis toward site
            while to != site and self.tensors[to - 1].shape[bond] == 1:
                to += step
            if to == c:
                self._shift(step)
            else:
                norm = _norms(self.tensors[c - 1])
                self.tensors[c - 1] = self.tensors[c - 1] / norm
                self.tensors[to - 1] = self.tensors[to - 1] * norm
                self.center = to

    # ------------------------------------------------------------ gate layer

    def apply_1q(self, gate, site: int) -> None:
        """Contract a 2x2 unitary into the physical leg of one site tensor; the
        canonical structure survives wherever the center is, and it does not move."""
        g = require_single_gate(gate, 2)
        self._run([(g, as_site(site, self.n_qubits), False)])

    def apply_2q(self, gate, i: int, j: int) -> None:
        """Apply a 4x4 unitary to the pair (i, j), i < j, in basis |q_i q_j>.

        An adjacent pair is one nearest-neighbor update. For a distant pair
        adjacent SWAPs move qubit ``i`` to site ``j - 1``, the gate acts on
        the adjacent pair there, and the SWAPs move it back. The center is
        placed as ``run_circuit`` places it and ends at ``i`` or ``i + 1``.
        """
        g = require_single_gate(gate, 4)
        i, j = as_site(i, self.n_qubits, "i"), as_site(j, self.n_qubits, "j")
        if not i < j:
            raise ValueError(f"need i < j, got ({i}, {j})")
        swaps = [(SWAP, lo, True) for lo in range(i, j - 1)]
        self._run([*swaps, (g, j - 1, True), *reversed(swaps)])

    def _apply_2q(self, lifted: np.ndarray, site: int, center_left: bool) -> None:
        """Two-site update at (site, site + 1) by a 4x4 gate g passed as ``lift(g, r)``,
        r site + 1's right bond; the center ends at ``site`` if ``center_left``, else right."""
        left, right = self.tensors[site - 1], self.tensors[site]
        *lead, l, _, _ = left.shape
        r = right.shape[-1]
        block = left.reshape(*lead, l * 2, -1) @ right.reshape(*lead, -1, 2 * r)
        block = block.reshape(-1, 4 * r) @ lifted  # (P l, 4r): one matmul for the whole stack
        u, s, vdag = self._split(block.reshape(*lead, l * 2, 2 * r))
        if center_left:
            u = u * s[..., None, :]
        else:
            vdag = s[..., :, None] * vdag
        self.tensors[site - 1] = u.reshape(*lead, l, 2, -1)
        self.tensors[site] = vdag.reshape(*lead, -1, 2, r)
        self.center = site if center_left else site + 1

    def _run(self, steps: list[tuple[np.ndarray, int, bool]]) -> None:
        """Apply ``(gate, site, two_site)`` steps (see ``_route``) in order.

        The split of a two-site gate leaves the center on the side of the
        next two-site gate; after the last one it stays where it was.
        """
        # left site of the first two-site gate after each step (None: no more)
        upcoming: list[int | None] = [None] * len(steps)
        following = None
        for k in range(len(steps) - 1, -1, -1):
            upcoming[k] = following
            if steps[k][2]:
                following = steps[k][1]
        lifts: dict[tuple[int, int], np.ndarray] = {}  # (id(g), r): g lifted to the bond r
        for (g, site, two_site), target in zip(steps, upcoming):
            if two_site and not site <= self.center <= site + 1:  # the least move onto the pair
                self._move_center_to(min(max(self.center, site), site + 1))
            r = self.tensors[site - 1 + two_site].shape[-1]  # read after a center move changes it
            if (lifted := lifts.get((id(g), r))) is None:
                lifted = lifts[id(g), r] = lift(g, r)
            if two_site:
                center_left = self.center == site if target is None else target <= site
                self._apply_2q(lifted, site, center_left)
            else:  # (..., l, 2r) @ lift(g, r): one matmul for the whole stack
                t = self.tensors[site - 1]
                self.tensors[site - 1] = (t.reshape(*t.shape[:-2], -1) @ lifted).reshape(t.shape)

    def run_circuit(self, circuit: Circuit) -> "MatrixProductState":
        """Apply all gates in listed order, routing distant CXs with adjacent
        SWAPs and shifting the center as needed.

        Each distinct gate is validated once per call. After a two-site gate
        the center is left on the side of the next one; after the last one it
        stays where it was. Every qubit is back on its own site on return. A
        circuit with angle tuples runs every grid point at once and leaves the
        state stacked.
        """
        if circuit.n_qubits != self.n_qubits:
            raise ValueError(
                f"circuit is for {circuit.n_qubits} qubits, state has {self.n_qubits}"
            )
        steps = _route(circuit.ops, self.n_qubits)
        self._stack(circuit.grid)
        self._run(steps)
        return self

    # ------------------------------------------------------------ read layer

    def single_rdm(self, site: int) -> np.ndarray:
        """2x2 reduced density matrix of one qubit, read at the center.

        Leaves the center on ``site``, where ``postselect`` needs it next.
        """
        site = as_site(site, self.n_qubits)
        self._move_center_to(site)
        t = self.tensors[site - 1]
        m = t.swapaxes(-3, -2).reshape(t.shape[:-3] + (2, -1))
        return m @ _dag(m)

    def pair_rdm(self, i: int, j, point: int | None = None) -> np.ndarray:
        """4x4 reduced density matrix of (i, j), i < j, in basis |q_i q_j>;
        a ``(P, 4, 4)`` stack for a stacked state, as ``StateVector.pair_rdm``.

        ``j`` may also be a row: an ascending tuple of sites right of ``i``,
        read as a ``(len(j), ..., 4, 4)`` stack. With the center moved to ``i``,
        the adjacent pair (i, i + 1) is the Gram matrix M M^dag of the
        two-site block M there; one sweep of transfer-matrix matmuls (env @ T
        past a site, env @ W to close a pair there) closes every distant pair,
        so each matrix of a row is bitwise the read of its pair alone.

        ``point=k`` reads grid point k of a stacked state, a slice of the
        stack. The row is contracted for every point at once and kept with
        the tensors it read, which alone fix it while the center is at ``i``;
        no operation writes into a tensor, so a call that finds the same row
        and tensor objects returns a read-only slice. The kept row is keyed by ``i``
        and its own tuple object, whose sites, once checked, cannot change.
        """
        i, row, memo = as_site(i, self.n_qubits, "i"), isinstance(j, tuple), self._row
        sites = j
        if j is not memo[1] or i != memo[0]:
            sites = tuple(as_index(site, "j") for site in j) if row else (as_index(j, "j"),)
            if not sites:
                raise ValueError(f"row of pairs from site {i} names no right site")
            for a, b in zip((i, *sites), sites):
                if b <= a:
                    raise ValueError(f"pair sites must ascend from i = {i}, got {b} after {a}")
            if sites[-1] > self.n_qubits:  # the last site; the others lie between i and it
                raise ValueError(f"site {sites[-1]} outside 1..{self.n_qubits}")
        if point is not None and self.grid is None:
            raise ValueError(f"point {point} given for a single-point state")
        if point is not None and not 0 <= as_index(point, "point") < self.grid:
            raise ValueError(f"a stacked state needs a point in 0..{self.grid - 1}, got {point}")
        self._move_center_to(i)
        tensors = self.tensors[i - 1 : sites[-1]]
        if memo[:2] != (i, sites) or not all(map(operator.is_, memo[2], tensors)):
            self._row = memo = (i, j if row else sites, tensors, _row_rdms(tensors, i, sites))
        rdms = memo[3] if point is None else memo[3][:, point]
        rdms = rdms if row else rdms[0]
        rdms.flags.writeable = False  # a view of the kept row
        return rdms

    def postselect(self, site: int, outcome: int) -> float:
        """Project ``site`` onto ``outcome``, renormalize, return the probability.

        The measured qubit is kept (collapsed); canonical structure survives
        because the projection happens at the center. A stacked state returns
        one probability per grid point; every point's branch must exist.
        """
        site = as_site(site, self.n_qubits)
        if as_index(outcome, "outcome") not in (0, 1):
            raise ValueError(f"outcome must be 0 or 1, got {outcome}")
        self._move_center_to(site)
        t = self.tensors[site - 1].copy()
        t[..., 1 - outcome, :] = 0.0
        norm = _norms(t)
        probability = norm[..., 0, 0, 0] ** 2
        if probability.min() < ZERO_PROBABILITY:
            _, where = first_flagged(probability.ravel() < ZERO_PROBABILITY, probability.shape)
            raise ValueError(f"outcome {outcome} at site {site} has zero probability{where}")
        self.tensors[site - 1] = t / norm
        return float(probability) if self.grid is None else probability
