"""Matrix-product-state engine for the entangling protocols.

The state is kept in mixed-canonical form around an orthogonality center:
site tensors have index order (left bond, physical, right bond), tensors
strictly left of the center are left-isometric, tensors strictly right of it
are right-isometric, and the center tensor carries the full norm. Moving the
center one site is a pure QR basis change that leaves the represented state
untouched; across a bond of dimension 1 the QR of the one-column matrix is
its normalisation, so that is what the move does.

Nearest-neighbor two-site gates follow the standard update: contract the
two-site block at the center, apply the gate, split back with an SVD. Gates
between distant sites (the star layout's controlled-NOTs) are applied
exactly as a product-operator chain threaded through the intervening sites,
followed by a recanonicalization pass over the touched window, so no swap
network is needed.

The public gate methods validate their gate with ``require_unitary`` on
every call, and ``apply_2q`` leaves the center on the side it occupied.
``run_circuit`` validates each distinct gate once per call (one check per
rotation angle, one per CX orientation) and then applies the ops through
unchecked kernels. It places the center by look-ahead: the split after a
nearest-neighbor gate leaves the center on the side of the circuit's next
two-site gate, so a staircase needs no center move between its gates.

There is no truncation policy: every split is a rank-revealing SVD that
drops only singular values below ``linalg.SINGULAR_VALUE_FLOOR`` (1e-14), so
the engine is exact by construction. Every protocol circuit in this package
is a single staircase sweep whose exact state never needs bond dimension
above 2, so ``discarded_weight_total`` stays at roundoff level; callers treat
anything above 1e-14 as a hard failure.

Instances are mutated in place by gates and sweeps; distinct sweeps must own
distinct instances.
"""

from __future__ import annotations

import numpy as np

from .linalg import require_unitary, svd_truncate
from .protocols import Circuit, ControlledNot, Rotation, cx_matrix, rotation_matrix
from .statevector import MAX_QUBITS, ZERO_PROBABILITY, StateVector


def _operator_schmidt(gate: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Split a two-site gate into sum_k A_k (x) B_k with at most four terms."""
    t = gate.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    u, s, vdag = np.linalg.svd(t)
    left_ops, right_ops = [], []
    for k, value in enumerate(s):
        if value < 1e-14:
            break
        root = np.sqrt(value)
        left_ops.append((u[:, k] * root).reshape(2, 2))
        right_ops.append((vdag[k, :] * root).reshape(2, 2))
    return left_ops, right_ops


class MatrixProductState:
    def __init__(self, n_qubits: int):
        """Product state |0...0> with all bonds of dimension 1, center at site 1."""
        if n_qubits < 2:
            raise ValueError(f"MPS backend needs at least 2 qubits, got {n_qubits}")
        zero = np.zeros((1, 2, 1), dtype=complex)
        zero[0, 0, 0] = 1.0
        self.n_qubits = n_qubits
        self.tensors = [zero.copy() for _ in range(n_qubits)]
        self.center = 1
        self.discarded_weight_total = 0.0

    # ---------------------------------------------------------------- basics

    def _check_site(self, site: int, label: str = "site") -> None:
        if not 1 <= site <= self.n_qubits:
            raise ValueError(f"{label} {site} outside 1..{self.n_qubits}")

    @property
    def bond_dimensions(self) -> list[int]:
        """Dimensions of the n - 1 internal bonds."""
        return [t.shape[2] for t in self.tensors[:-1]]

    @property
    def max_bond_dimension(self) -> int:
        return max(self.bond_dimensions)

    def copy(self) -> "MatrixProductState":
        dup = MatrixProductState(self.n_qubits)
        dup.tensors = [t.copy() for t in self.tensors]
        dup.center = self.center
        dup.discarded_weight_total = self.discarded_weight_total
        return dup

    def norm(self) -> float:
        return float(np.linalg.norm(self.tensors[self.center - 1]))

    def overlap(self, other: "MatrixProductState") -> complex:
        """Inner product <self|other>."""
        if other.n_qubits != self.n_qubits:
            raise ValueError("overlap needs equal qubit counts")
        env = np.ones((1, 1), dtype=complex)
        for mine, theirs in zip(self.tensors, other.tensors):
            env = np.einsum("ab,apr,bps->rs", env, mine.conj(), theirs)
        return complex(env[0, 0])

    def canonical_deviation(self) -> float:
        """Max deviation from the expected isometry conditions and unit norm."""
        worst = abs(self.norm() - 1.0)
        for idx, t in enumerate(self.tensors, start=1):
            l, _, r = t.shape
            if idx < self.center:
                m = t.reshape(l * 2, r)
                worst = max(worst, float(np.max(np.abs(m.conj().T @ m - np.eye(r)))))
            elif idx > self.center:
                m = t.reshape(l, 2 * r)
                worst = max(worst, float(np.max(np.abs(m @ m.conj().T - np.eye(l)))))
        return worst

    # ------------------------------------------------------- center movement

    def _shift_right(self) -> None:
        c = self.center
        t = self.tensors[c - 1]
        l, _, r = t.shape
        nxt = self.tensors[c]
        if r == 1:
            # the QR of a single column is its normalisation
            norm = np.linalg.norm(t)
            self.tensors[c - 1] = t / norm
            self.tensors[c] = nxt * norm
        else:
            q, carry = np.linalg.qr(t.reshape(l * 2, r))
            self.tensors[c - 1] = q.reshape(l, 2, -1)
            self.tensors[c] = (carry @ nxt.reshape(r, -1)).reshape(-1, 2, nxt.shape[2])
        self.center = c + 1

    def _shift_left(self) -> None:
        c = self.center
        t = self.tensors[c - 1]
        l, _, r = t.shape
        prev = self.tensors[c - 2]
        if l == 1:
            # the QR of a single row is its normalisation
            norm = np.linalg.norm(t)
            self.tensors[c - 1] = t / norm
            self.tensors[c - 2] = prev * norm
        else:
            # factor t = carry @ Q with Q row-orthonormal, via QR of the adjoint
            q, rmat = np.linalg.qr(t.reshape(l, 2 * r).conj().T)
            self.tensors[c - 1] = q.conj().T.reshape(-1, 2, r)
            lp = prev.shape[0]
            self.tensors[c - 2] = (prev.reshape(lp * 2, l) @ rmat.conj().T).reshape(lp, 2, -1)
        self.center = c - 1

    def _shift_left_truncated(self) -> None:
        """Move the center left through a rank-revealing SVD, which drops the
        zero Schmidt values a product-operator chain leaves on the bond."""
        c = self.center
        t = self.tensors[c - 1]
        l, _, r = t.shape
        u, s, vdag = self._split(t.reshape(l, 2 * r))
        self.tensors[c - 1] = vdag.reshape(-1, 2, r)
        prev = self.tensors[c - 2]
        lp = prev.shape[0]
        self.tensors[c - 2] = (prev.reshape(lp * 2, l) @ (u * s)).reshape(lp, 2, -1)
        self.center = c - 1

    def _split(self, block: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rank-revealing SVD ``block = U diag(s) V^dag``, returned as
        ``(U, s, V^dag)``; ``s`` is rescaled to the norm of ``block`` and the
        discarded weight is added to ``discarded_weight_total``."""
        res = svd_truncate(block, min(block.shape))
        self.discarded_weight_total += res.discarded_weight
        s = res.singular_values
        norm_s = float(np.linalg.norm(s))
        if norm_s > 0.0:
            s = s * (float(np.linalg.norm(block)) / norm_s)
        return res.left_isometry, s, res.right_isometry_dag

    def shift_center(self, direction: str) -> None:
        """Move the orthogonality center one site left or right.

        The represented state is unchanged; the vacated tensor becomes an
        isometry in the direction it was left behind.
        """
        if direction == "right":
            if self.center >= self.n_qubits:
                raise ValueError("center is already at the right boundary")
            self._shift_right()
        elif direction == "left":
            if self.center <= 1:
                raise ValueError("center is already at the left boundary")
            self._shift_left()
        else:
            raise ValueError(f"direction must be 'left' or 'right', got {direction!r}")

    def _move_center_to(self, site: int) -> None:
        while self.center < site:
            self._shift_right()
        while self.center > site:
            self._shift_left()

    def _move_center_next_to(self, lo: int) -> None:
        """Move the center the least distance that puts it on ``lo`` or ``lo + 1``."""
        if self.center < lo:
            self._move_center_to(lo)
        elif self.center > lo + 1:
            self._move_center_to(lo + 1)

    # ------------------------------------------------------------ gate layer

    def apply_1q(self, gate, site: int) -> None:
        """Contract a 2x2 unitary into the physical leg of one site tensor.

        Preserves canonical structure wherever the center is, so no shift is
        required first.
        """
        g = require_unitary(gate, 2)
        self._check_site(site)
        self._apply_1q(g, site)

    def _apply_1q(self, g: np.ndarray, site: int) -> None:
        self.tensors[site - 1] = g @ self.tensors[site - 1]

    def apply_2q(self, gate, site: int) -> None:
        """Apply a 4x4 unitary to sites (site, site + 1) at the center.

        The two-site block is contracted, the gate applied, and the block
        split by a rank-revealing SVD; the center stays on the side it occupied
        before the gate. The caller must have shifted the center to ``site``
        or ``site + 1`` first.
        """
        g = require_unitary(gate, 4)
        self._check_site(site)
        if site + 1 > self.n_qubits:
            raise ValueError(f"two-site gate at {site} exceeds the chain")
        if self.center not in (site, site + 1):
            raise ValueError(
                f"center is at {self.center}, must be at {site} or {site + 1}; shift first"
            )
        self._apply_2q(g, site, center_left=self.center == site)

    def _apply_2q(self, g: np.ndarray, site: int, center_left: bool) -> None:
        """Two-site update at (site, site + 1); the center ends at ``site``
        when ``center_left`` and at ``site + 1`` otherwise."""
        left, right = self.tensors[site - 1], self.tensors[site]
        l = left.shape[0]
        r = right.shape[2]
        block = (left.reshape(l * 2, -1) @ right.reshape(-1, 2 * r)).reshape(l, 4, r)
        u, s, vdag = self._split((g @ block).reshape(l * 2, 2 * r))
        if center_left:
            self.tensors[site - 1] = (u * s).reshape(l, 2, -1)
            self.tensors[site] = vdag.reshape(-1, 2, r)
            self.center = site
        else:
            self.tensors[site - 1] = u.reshape(l, 2, -1)
            self.tensors[site] = (s[:, None] * vdag).reshape(-1, 2, r)
            self.center = site + 1

    def apply_2q_long_range(self, gate, i: int, j: int) -> None:
        """Apply a 4x4 unitary to the distant pair (i, j), i < j, exactly.

        The gate is split into a sum of product operators, threaded through
        the window [i, j] as a block-diagonal bond enlargement, and the window
        is recanonicalized with rank-revealing SVDs. The center ends at ``i``.
        """
        g = require_unitary(gate, 4)
        self._check_site(i)
        self._check_site(j)
        if not i < j:
            raise ValueError(f"need i < j, got ({i}, {j})")
        if j == i + 1:
            self._move_center_next_to(i)
            self._apply_2q(g, i, center_left=self.center == i)
        else:
            self._apply_2q_long_range(g, i, j)

    def _apply_2q_long_range(self, g: np.ndarray, i: int, j: int) -> None:
        self._move_center_to(i)
        left_ops, right_ops = _operator_schmidt(g)
        k = len(left_ops)
        a_stack = np.stack(left_ops)
        b_stack = np.stack(right_ops)
        t = self.tensors[i - 1]
        l, _, r = t.shape
        self.tensors[i - 1] = np.einsum("kqp,lpr->lqrk", a_stack, t).reshape(l, 2, r * k)
        eye = np.eye(k)
        for m in range(i + 1, j):
            t = self.tensors[m - 1]
            lm, _, rm = t.shape
            self.tensors[m - 1] = np.einsum("lpr,kc->lkprc", t, eye).reshape(lm * k, 2, rm * k)
        t = self.tensors[j - 1]
        lj, _, rj = t.shape
        self.tensors[j - 1] = np.einsum("kqp,lpr->lkqr", b_stack, t).reshape(lj * k, 2, rj)
        # window is no longer canonical: rebuild left-to-right, compress back
        while self.center < j:
            self._shift_right()
        while self.center > i:
            self._shift_left_truncated()

    def run_circuit(self, circuit: Circuit) -> "MatrixProductState":
        """Apply all gates in listed order, shifting the center as needed.

        Each distinct gate is validated once per call. After a
        nearest-neighbor gate the center is left on the side of the next
        two-site gate; after the last one it stays where it was.
        """
        if circuit.n_qubits != self.n_qubits:
            raise ValueError(
                f"circuit is for {circuit.n_qubits} qubits, state has {self.n_qubits}"
            )
        ops = circuit.ops
        # left site of the first two-site gate after each op (None: no more)
        upcoming: list[int | None] = [None] * len(ops)
        following = None
        for k in range(len(ops) - 1, -1, -1):
            upcoming[k] = following
            if isinstance(ops[k], ControlledNot):
                following = min(ops[k].control, ops[k].target)
        checked: dict[tuple, np.ndarray] = {}
        for k, op in enumerate(ops):
            if isinstance(op, Rotation):
                key = ("rotation", op.theta)
                if key not in checked:
                    checked[key] = require_unitary(rotation_matrix(op.theta), 2)
                self._apply_1q(checked[key], op.site)
            elif isinstance(op, ControlledNot):
                lo, hi = sorted((op.control, op.target))
                key = ("cx", op.control < op.target)
                if key not in checked:
                    checked[key] = require_unitary(cx_matrix(control_first=key[1]), 4)
                if hi == lo + 1:
                    self._move_center_next_to(lo)
                    target = upcoming[k]
                    center_left = self.center == lo if target is None else target <= lo
                    self._apply_2q(checked[key], lo, center_left)
                else:
                    self._apply_2q_long_range(checked[key], lo, hi)
            else:
                raise TypeError(f"unknown gate op {op!r}")
        return self

    # ------------------------------------------------------------ read layer

    def schmidt_values(self, bond: int) -> np.ndarray:
        """Schmidt coefficients across the bond between sites ``bond`` and ``bond + 1``."""
        if not 1 <= bond <= self.n_qubits - 1:
            raise ValueError(f"bond {bond} outside 1..{self.n_qubits - 1}")
        self._move_center_to(bond)
        t = self.tensors[bond - 1]
        l, _, r = t.shape
        return np.linalg.svd(t.reshape(l * 2, r), compute_uv=False)

    def single_rdm(self, site: int) -> np.ndarray:
        """2x2 reduced density matrix of one qubit, read at the center.

        Leaves the center on ``site``, where ``postselect`` needs it next.
        """
        self._check_site(site)
        self._move_center_to(site)
        m = self.tensors[site - 1].transpose(1, 0, 2).reshape(2, -1)
        return m @ m.conj().T

    def pair_rdm(self, i: int, j: int) -> np.ndarray:
        """4x4 reduced density matrix of (i, j), i < j, in basis |q_i q_j>.

        Adjacent pairs reduce to the two-site block at the center; distant
        pairs contract the transfer network between them (cost O(distance)).
        """
        self._check_site(i)
        self._check_site(j)
        if not i < j:
            raise ValueError(f"pair must be ordered i < j, got ({i}, {j})")
        self._move_center_to(i)
        t = self.tensors[i - 1]
        env = np.einsum("lpr,lqs->pqrs", t, t.conj())
        for m in range(i + 1, j):
            tm = self.tensors[m - 1]
            env = np.einsum("pqrs,rxt,sxu->pqtu", env, tm, tm.conj())
        tj = self.tensors[j - 1]
        rho = np.einsum("pqrs,rxt,syt->pxqy", env, tj, tj.conj())
        return rho.reshape(4, 4)

    def to_statevector(self) -> StateVector:
        """Contract the full chain into an exact statevector (oracle bridge)."""
        if self.n_qubits > MAX_QUBITS:
            raise ValueError(
                f"full contraction is capped at {MAX_QUBITS} qubits, state has {self.n_qubits}"
            )
        vec = self.tensors[0][0]  # (2, r)
        for t in self.tensors[1:]:
            vec = np.tensordot(vec, t, axes=(vec.ndim - 1, 0))
        return StateVector(self.n_qubits, vec[..., 0].ravel())

    def postselect(self, site: int, outcome: int) -> float:
        """Project ``site`` onto ``outcome``, renormalize, return the probability.

        The measured qubit is kept (collapsed); canonical structure survives
        because the projection happens at the center.
        """
        self._check_site(site)
        if outcome not in (0, 1):
            raise ValueError(f"outcome must be 0 or 1, got {outcome}")
        self._move_center_to(site)
        t = self.tensors[site - 1].copy()
        t[:, 1 - outcome, :] = 0.0
        probability = float(np.linalg.norm(t) ** 2)
        if probability < ZERO_PROBABILITY:
            raise ValueError(f"outcome {outcome} at site {site} has zero probability")
        self.tensors[site - 1] = t / np.sqrt(probability)
        return probability
