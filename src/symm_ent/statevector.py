"""Exact amplitude-vector simulation of small qubit registers.

This is the brute-force reference backend: every gate acts on the full 2**n
amplitude vector, and reduced density matrices are obtained by tracing the
complete environment, so it is hard-capped at 12 qubits. Site 1 is the most
significant bit of the basis index (basis index = sum_i q_i * 2**(n - i)).
States are immutable; every operation returns a new instance.
"""

from __future__ import annotations

import numpy as np

from .linalg import require_unitary
from .protocols import Circuit, ControlledNot, Rotation, rotation_matrix

MAX_QUBITS = 12
ZERO_PROBABILITY = 1e-14


class StateVector:
    __slots__ = ("n_qubits", "amplitudes")

    def __init__(self, n_qubits: int, amplitudes):
        if not 1 <= n_qubits <= MAX_QUBITS:
            raise ValueError(
                f"statevector backend supports 1..{MAX_QUBITS} qubits, got {n_qubits}"
            )
        amps = np.array(amplitudes, dtype=complex)
        if amps.shape != (2**n_qubits,):
            raise ValueError(
                f"amplitude vector must have length {2**n_qubits}, got shape {amps.shape}"
            )
        amps.setflags(write=False)
        self.n_qubits = n_qubits
        self.amplitudes = amps

    @classmethod
    def zeros(cls, n_qubits: int) -> "StateVector":
        """All qubits in |0>."""
        if not 1 <= n_qubits <= MAX_QUBITS:
            raise ValueError(
                f"statevector backend supports 1..{MAX_QUBITS} qubits, got {n_qubits}"
            )
        amps = np.zeros(2**n_qubits, dtype=complex)
        amps[0] = 1.0
        return cls(n_qubits, amps)

    def _check_site(self, site: int, label: str = "site") -> None:
        if not 1 <= site <= self.n_qubits:
            raise ValueError(f"{label} {site} outside 1..{self.n_qubits}")

    def _grid(self) -> np.ndarray:
        return self.amplitudes.reshape((2,) * self.n_qubits)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def apply_1q(self, gate, site: int) -> "StateVector":
        """Apply a 2x2 unitary to ``site``; only amplitudes differing in that bit mix."""
        g = require_unitary(gate, 2)
        self._check_site(site)
        return self._apply_1q(g, site)

    def _apply_1q(self, g: np.ndarray, site: int) -> "StateVector":
        axis = site - 1
        out = np.tensordot(g, self._grid(), axes=([1], [axis]))
        out = np.moveaxis(out, 0, axis)
        return StateVector(self.n_qubits, out.ravel())

    def apply_cx(self, control: int, target: int) -> "StateVector":
        """Flip ``target`` on the branch where ``control`` is 1."""
        self._check_site(control, "control")
        self._check_site(target, "target")
        if control == target:
            raise ValueError("control and target must differ")
        psi = self._grid().copy()
        c_ax, t_ax = control - 1, target - 1
        sel: list = [slice(None)] * self.n_qubits
        sel[c_ax] = 1
        sel = tuple(sel)
        # after fixing the control axis, later axes shift down by one
        flip_ax = t_ax if t_ax < c_ax else t_ax - 1
        psi[sel] = np.flip(psi[sel], axis=flip_ax)
        return StateVector(self.n_qubits, psi.ravel())

    def run_circuit(self, circuit: Circuit) -> "StateVector":
        """Apply all gates in listed order; each distinct rotation is
        validated once per call."""
        if circuit.n_qubits != self.n_qubits:
            raise ValueError(
                f"circuit is for {circuit.n_qubits} qubits, state has {self.n_qubits}"
            )
        state = self
        checked: dict[float, np.ndarray] = {}
        for op in circuit.ops:
            if isinstance(op, Rotation):
                if op.theta not in checked:
                    checked[op.theta] = require_unitary(rotation_matrix(op.theta), 2)
                state = state._apply_1q(checked[op.theta], op.site)
            elif isinstance(op, ControlledNot):
                state = state.apply_cx(op.control, op.target)
            else:
                raise TypeError(f"unknown gate op {op!r}")
        return state

    def single_rdm(self, site: int) -> np.ndarray:
        """2x2 reduced density matrix of one qubit."""
        self._check_site(site)
        m = np.moveaxis(self._grid(), site - 1, 0).reshape(2, -1)
        return m @ m.conj().T

    def pair_rdm(self, i: int, j: int) -> np.ndarray:
        """4x4 reduced density matrix of the ordered pair in basis |q_i q_j>."""
        self._check_site(i)
        self._check_site(j)
        if i == j:
            raise ValueError("pair sites must differ")
        m = np.moveaxis(self._grid(), (i - 1, j - 1), (0, 1)).reshape(4, -1)
        return m @ m.conj().T

    def postselect(self, site: int, outcome: int) -> tuple["StateVector", float]:
        """Project ``site`` onto ``outcome`` and renormalize.

        The measured qubit is kept (collapsed). Returns the new state and the
        branch probability; a branch below 1e-14 probability is an error.
        """
        self._check_site(site)
        if outcome not in (0, 1):
            raise ValueError(f"outcome must be 0 or 1, got {outcome}")
        psi = self._grid()
        sel: list = [slice(None)] * self.n_qubits
        sel[site - 1] = outcome
        sel = tuple(sel)
        branch = psi[sel]
        probability = float(np.sum(np.abs(branch) ** 2))
        if probability < ZERO_PROBABILITY:
            raise ValueError(f"outcome {outcome} at site {site} has zero probability")
        projected = np.zeros_like(psi)
        projected[sel] = branch / np.sqrt(probability)
        return StateVector(self.n_qubits, projected.ravel()), probability
