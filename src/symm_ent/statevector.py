"""Exact amplitude-vector simulation of small qubit registers.

This is the brute-force reference backend: every gate acts on the full 2**n
amplitude vector, and reduced density matrices are obtained by tracing the
complete environment, so it is hard-capped at 12 qubits. Site 1 is the most
significant bit of the basis index (basis index = sum_i q_i * 2**(n - i)).
States are immutable; every operation returns a new instance.

A state can also hold one amplitude vector per point of an angle grid, like
``MatrixProductState``. Running a circuit whose rotations carry angle tuples
(see ``protocols``) gives the amplitudes a leading grid axis, shape
``(P, 2**n)``, and each gate acts on all P vectors in one numpy call: for a
site with T <= 8 amplitudes after each of its bits (the crossover measured on
three BLAS kernels), one ``(..., 2T) @ linalg.lift(g, T)`` matmul per point;
else 2x2 products. ``grid`` holds P (None for a single-point state, whose
amplitudes have shape ``(2**n,)``). Both run through the same code. On a
stacked state ``single_rdm`` and ``pair_rdm`` return ``(P, 2, 2)`` and
``(P, 4, 4)`` stacks and ``postselect`` one probability per point, each point
bitwise equal to its own single-point run. A stack costs P * 2**n amplitudes
of memory, so callers bound P (``sweep`` caps a block at 2**16 amplitudes).

``pair_rdm(i, j)`` also reads a row, ``j`` a tuple of sites, as one
``(len(j), ..., 4, 4)`` stack: one Gram per chunk of ``ROW_CHUNK`` sites, each
pair a partial trace of it, within roundoff of its one-pair read.

Real in, real out: ``zeros`` is float64 and real amplitudes stay real, so
the protocol circuits, whose gates are all real, run in float64 to the last
pair RDM. A complex gate or complex amplitudes make the state complex128
(the promotion rule is ``linalg.as_float``).
"""

from __future__ import annotations

import numpy as np

from .linalg import (
    as_float,
    as_index,
    as_points,
    as_site,
    first_flagged,
    lift,
    require_single_gate,
    require_unitary,
)
from .protocols import Circuit, Rotation, rotation_matrix

MAX_QUBITS = 12
ZERO_PROBABILITY = 1e-14
# right sites of a row read through one Gram; each chunk copies the block once,
# and its Gram and traces double with every site. At chunks of 3 / 4 / 5 / 6
# sites the star oracle-check (n_outer 11, 101 angles, post-selected, blocks of
# 16 points, each read as its 11-qubit branch) spent 18.8 / 19.7 / 23.4 / 46.6 ms
# in its statevector row reads and took 59.1 / 58.9 / 64.3 / 87.2 ms in all; a
# 10-qubit post-selected star sweep's reads took 4.5 / 5.8 / 9.3 / 28.9 ms. In-process,
# best of 12, 2-core x86 host; chunks of 3 beat 4 in only 8 of 10 alternating pairs.
ROW_CHUNK = 4


def _check_size(n_qubits: int) -> None:
    if not 1 <= as_index(n_qubits, "n_qubits") <= MAX_QUBITS:
        raise ValueError(f"statevector backend supports 1..{MAX_QUBITS} qubits, got {n_qubits}")


class StateVector:
    __slots__ = ("n_qubits", "amplitudes", "grid")

    def __init__(self, n_qubits: int, amplitudes):
        """``amplitudes`` is one vector of length 2**n_qubits, or a ``(P, 2**n_qubits)``
        stack of them, one per grid point."""
        _check_size(n_qubits)
        amps = as_float(amplitudes).copy()
        if amps.shape[-1:] != (2**n_qubits,) or amps.ndim > 2 or amps.size == 0:
            raise ValueError(
                f"amplitudes must have shape ({2**n_qubits},) or (P, {2**n_qubits}) with "
                f"P >= 1, got shape {amps.shape}"
            )
        self._own(n_qubits, amps)

    def _own(self, n_qubits: int, amps: np.ndarray) -> "StateVector":
        """Take ``amps``, a valid array no one else holds, as this state's amplitudes."""
        amps.setflags(write=False)
        self.n_qubits = n_qubits
        self.amplitudes = amps
        self.grid: int | None = amps.shape[0] if amps.ndim == 2 else None
        return self

    def _new(self, amps: np.ndarray) -> "StateVector":
        """A state of the same register holding ``amps``, freshly computed, uncopied."""
        return StateVector.__new__(StateVector)._own(self.n_qubits, amps)

    @classmethod
    def zeros(cls, n_qubits: int) -> "StateVector":
        """All qubits in |0>."""
        _check_size(n_qubits)
        amps = np.zeros(2**n_qubits)
        amps[0] = 1.0
        return cls(n_qubits, amps)

    def _lead(self) -> tuple[int, ...]:
        """The grid axis, ``(P,)``, or ``()`` for a single-point state."""
        return self.amplitudes.shape[:-1]

    def _grid(self) -> np.ndarray:
        return self.amplitudes.reshape(self._lead() + (2,) * self.n_qubits)

    def _stacked(self, grid: int | None) -> "StateVector":
        """This state repeated over ``grid`` points; itself for None or the
        grid it already has."""
        if grid is None or grid == self.grid:
            return self
        if self.grid is not None:
            raise ValueError(f"gates carry {grid} grid points, the state stacks {self.grid}")
        repeated = np.broadcast_to(self.amplitudes, (grid,) + self.amplitudes.shape)
        return StateVector(self.n_qubits, repeated)

    def norm(self) -> float | np.ndarray:
        """Norm of the state; one per grid point for a stacked state."""
        if self.grid is None:
            return float(np.linalg.norm(self.amplitudes))
        return np.linalg.norm(self.amplitudes, axis=-1)

    def apply_1q(self, gate, site: int) -> "StateVector":
        """Apply a 2x2 unitary to ``site``; only amplitudes differing in that bit mix.

        One gate acts on every grid point of a stacked state.
        """
        g = require_single_gate(gate, 2)
        return self._apply_1q(g, as_site(site, self.n_qubits))

    def _apply_1q(self, g: np.ndarray, site: int) -> "StateVector":
        """``g`` is one 2x2 gate or a ``(P, 2, 2)`` stack, one per grid point."""
        trail = 2 ** (self.n_qubits - site)  # T, the amplitudes after each of site's bits
        if trail <= 8:
            # one product per point, not 2**(site-1) 2x2 ones: 12 qubits, 16 points, T = 8 / 4 /
            # 2 took 167 / 298 / 644 -> 56 / 46 / 68 us (SkylakeX); T = 16 406 -> 628 (Nehalem)
            out = self.amplitudes.reshape(self._lead() + (-1, 2 * trail)) @ lift(g, trail)
        else:
            out = g[..., None, :, :] @ self.amplitudes.reshape(self._lead() + (-1, 2, trail))
        return self._new(out.reshape(self._lead() + (-1,)))

    def apply_cx(self, control: int, target: int) -> "StateVector":
        """Flip ``target`` on the branch where ``control`` is 1."""
        control = as_site(control, self.n_qubits, "control")
        target = as_site(target, self.n_qubits, "target")
        if control == target:
            raise ValueError("control and target must differ")
        psi = self._grid()
        lead = len(self._lead())
        c_ax, t_ax = lead + control - 1, lead + target - 1
        sel = (slice(None),) * c_ax + (1,)
        # after fixing the control axis, later axes shift down by one
        flip_ax = t_ax if t_ax < c_ax else t_ax - 1
        out = psi.copy()
        out[sel] = np.flip(psi[sel], axis=flip_ax)
        return self._new(out.reshape(self._lead() + (-1,)))

    def keep_points(self, points) -> "StateVector":
        """The state of the grid points at the indices ``points``, in that order."""
        if self.grid is None:
            raise ValueError("keep_points needs a grid-stacked state")
        return self._new(self.amplitudes[as_points(points, self.grid)])

    def run_circuit(self, circuit: Circuit) -> "StateVector":
        """Apply all gates in listed order; each distinct rotation is
        validated once per call.

        A circuit with angle tuples runs every grid point at once and returns
        a stacked state.
        """
        if circuit.n_qubits != self.n_qubits:
            raise ValueError(
                f"circuit is for {circuit.n_qubits} qubits, state has {self.n_qubits}"
            )
        state = self._stacked(circuit.grid)
        checked: dict[float | tuple[float, ...], np.ndarray] = {}
        for op in circuit.ops:
            if isinstance(op, Rotation):
                if op.theta not in checked:
                    checked[op.theta] = require_unitary(rotation_matrix(op.theta), 2)
                state = state._apply_1q(checked[op.theta], op.site)
            else:
                state = state.apply_cx(op.control, op.target)
        return state

    def _gram(self, sites: tuple[int, ...]) -> np.ndarray:
        """Reduced density matrix of ``sites`` in basis |q_sites...>, per grid point."""
        psi, lead = self._grid(), self._lead()
        back = [len(lead) + s - 1 for s in sites]
        rest = [ax for ax in range(len(lead), psi.ndim) if ax not in back]
        # the read sites last, so the copy's contiguous inner run is theirs
        m = psi.transpose([*range(len(lead)), *rest, *back]).reshape(lead + (-1, 2 ** len(sites)))
        return m.swapaxes(-1, -2) @ m.conj()

    def single_rdm(self, site: int) -> np.ndarray:
        """2x2 reduced density matrix of one qubit; a ``(P, 2, 2)`` stack for a stacked state."""
        return self._gram((as_site(site, self.n_qubits),))

    def pair_rdm(self, i: int, j) -> np.ndarray:
        """4x4 reduced density matrix of the ordered pair in basis |q_i q_j>;
        a ``(P, 4, 4)`` stack for a stacked state.

        ``j`` may also be a row, a tuple of distinct sites other than ``i``,
        read as a ``(len(j), ..., 4, 4)`` stack: each chunk of at most
        ``ROW_CHUNK`` sites is one Gram of ``i`` and its sites, and each of its
        pairs a partial trace of that; a chunk of one is the pair's own Gram.
        """
        i, row = as_site(i, self.n_qubits, "i"), isinstance(j, tuple)
        sites = tuple(as_site(site, self.n_qubits, "j") for site in (j if row else (j,)))
        if not sites:
            raise ValueError(f"row of pairs from site {i} names no site j")
        if i in sites or len(set(sites)) < len(sites):
            raise ValueError(f"pair sites must differ: i = {i}, j = {j}")
        lead, rdms = self._lead(), []
        for start in range(0, len(sites), ROW_CHUNK):
            k = len(chunk := sites[start : start + ROW_CHUNK])
            rho = self._gram((i, *chunk)).reshape(lead + (2,) * (2 * k + 2))
            # axes 0 and k + 1 are i's; a chunk site's row and column axes share
            # a label, so einsum traces them, except the pair's own (k + 2)
            rows = [*range(1, k + 1)]
            for m in range(k):
                cols = rows[:m] + [k + 2] + rows[m + 1 :]
                pair = np.einsum(rho, [..., 0, *rows, k + 1, *cols], [..., 0, m + 1, k + 1, k + 2])
                rdms.append(pair.reshape(lead + (4, 4)))
        return np.array(rdms) if row else rdms[0]

    def postselect(self, site: int, outcome: int) -> tuple["StateVector", float | np.ndarray]:
        """Project ``site`` onto ``outcome`` and renormalize.

        The measured qubit is kept (collapsed). Returns the new state and the
        branch probability, one per grid point for a stacked state; a branch
        below 1e-14 probability is an error naming its grid point.
        """
        site = as_site(site, self.n_qubits)
        if as_index(outcome, "outcome") not in (0, 1):
            raise ValueError(f"outcome must be 0 or 1, got {outcome}")
        lead = self._lead()
        psi = self._grid()
        sel = (slice(None),) * (len(lead) + site - 1) + (outcome, ...)
        branch = psi[sel]
        probability = np.sum(np.abs(branch) ** 2, axis=tuple(range(len(lead), branch.ndim)))
        if probability.min() < ZERO_PROBABILITY:
            _, where = first_flagged(probability.ravel() < ZERO_PROBABILITY, lead)
            raise ValueError(f"outcome {outcome} at site {site} has zero probability{where}")
        projected = np.zeros_like(psi)
        scale = np.sqrt(probability).reshape(lead + (1,) * (branch.ndim - len(lead)))
        np.divide(branch, scale, out=projected[sel])
        state = self._new(projected.reshape(lead + (-1,)))
        return state, float(probability) if self.grid is None else probability
