"""Property tests of the MPS gate engine against the exact statevector.

Random Rotation / ControlledNot circuits reach what the protocol circuits do
not: CX in both orientations, long-range CX between arbitrary sites, gates in
any site order, and center moves across bonds of dimension 1 mixed with
moves across entangled bonds.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symm_ent.mps
from symm_ent import (
    Circuit,
    ControlledNot,
    MatrixProductState,
    Rotation,
    StateVector,
    build_linear,
    build_periodic,
    build_star,
    cx_matrix,
    rotation_matrix,
)


@st.composite
def circuits(draw):
    n = draw(st.integers(3, 8))
    site = st.integers(1, n)
    angle = st.floats(-2 * np.pi, 2 * np.pi, allow_nan=False)
    rotation = st.builds(Rotation, site, angle)
    cx = st.tuples(site, site).filter(lambda p: p[0] != p[1]).map(lambda p: ControlledNot(*p))
    ops = draw(st.lists(st.one_of(rotation, cx), min_size=1, max_size=24))
    return Circuit(n, tuple(ops))


@settings(max_examples=150, deadline=None)
@given(circuits())
def test_random_circuits_match_statevector(circuit):
    mps = MatrixProductState(circuit.n_qubits).run_circuit(circuit)
    sv = StateVector.zeros(circuit.n_qubits).run_circuit(circuit)
    assert np.abs(mps.to_statevector().amplitudes - sv.amplitudes).max() <= 1e-12
    assert mps.canonical_deviation() <= 1e-12
    assert mps.discarded_weight_total < 1e-14


@pytest.fixture
def unitary_checks(monkeypatch):
    """Dimensions of every ``require_unitary`` call the MPS engine makes."""
    calls = []
    original = symm_ent.mps.require_unitary

    def counting(matrix, dim, *args, **kwargs):
        calls.append(dim)
        return original(matrix, dim, *args, **kwargs)

    monkeypatch.setattr(symm_ent.mps, "require_unitary", counting)
    return calls


def _distinct_gates(circuit: Circuit) -> int:
    angles = {op.theta for op in circuit.ops if isinstance(op, Rotation)}
    orientations = {
        op.control < op.target for op in circuit.ops if isinstance(op, ControlledNot)
    }
    return len(angles) + len(orientations)


@pytest.mark.parametrize(
    "circuit",
    [
        *(build_linear(12, case, 0.9) for case in (1, 2, 3, 4)),
        build_periodic(12, 0.9, 2.3),
        build_star(6, 0.9),
        Circuit(5, (Rotation(2, 0.4), ControlledNot(2, 3), Rotation(4, 1.1),
                    ControlledNot(4, 3), ControlledNot(5, 1), Rotation(1, 0.4))),
    ],
)
def test_run_circuit_validates_each_distinct_gate_once(circuit, unitary_checks):
    MatrixProductState(circuit.n_qubits).run_circuit(circuit)
    assert len(unitary_checks) == _distinct_gates(circuit)


def test_public_gate_methods_validate_every_call(unitary_checks):
    mps = MatrixProductState(4)
    for _ in range(2):
        mps.apply_1q(rotation_matrix(0.3), 1)
        mps.apply_2q(cx_matrix(), 1)
        mps.apply_2q_long_range(cx_matrix(), 1, 4)
    assert unitary_checks == [2, 4, 4] * 2


def test_apply_2q_keeps_the_center_side():
    for start in (2, 3):
        mps = MatrixProductState(4)
        mps.apply_1q(rotation_matrix(0.7), 2)
        mps._move_center_to(start)
        mps.apply_2q(cx_matrix(), 2)
        assert mps.center == start


@pytest.mark.parametrize("case", [1, 2, 3, 4])
def test_staircase_circuits_need_no_qr(case, monkeypatch):
    # look-ahead placement leaves the center where the next gate acts, and
    # walks across untouched |0> sites are normalisations
    calls = []
    original = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda m: calls.append(m.shape) or original(m))
    mps = MatrixProductState(20).run_circuit(build_linear(20, case, 0.9))
    assert calls == []
    assert mps.canonical_deviation() <= 1e-12
