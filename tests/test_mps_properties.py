"""Property tests of the MPS gate engine against the exact statevector.

Random Rotation / ControlledNot circuits reach what the protocol circuits do
not: CX in both orientations, long-range CX between arbitrary sites, gates in
any site order, and center moves across bonds of dimension 1 mixed with
moves across entangled bonds.
"""

from dataclasses import replace
from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symm_ent.linalg
import symm_ent.mps
import symm_ent.sweep
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
    run_oracle_check,
    run_sweep,
)
from symm_ent.sweep import GridSpec, SweepConfig

from oracles import mps_amplitudes


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
    assert np.abs(mps_amplitudes(mps) - sv.amplitudes).max() <= 1e-12
    assert mps.canonical_deviation() <= 1e-12
    assert mps.discarded_weight_total < 1e-14


@pytest.fixture
def unitary_checks(monkeypatch):
    """Dimensions of every ``require_unitary`` call the MPS engine makes,
    directly or through ``require_single_gate``."""
    calls = []
    original = symm_ent.mps.require_unitary

    def counting(matrix, dim, *args, **kwargs):
        calls.append(dim)
        return original(matrix, dim, *args, **kwargs)

    monkeypatch.setattr(symm_ent.mps, "require_unitary", counting)
    monkeypatch.setattr(symm_ent.linalg, "require_unitary", counting)
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
        mps.apply_2q(cx_matrix(), 1, 2)
        mps.apply_2q(cx_matrix(), 1, 4)
    assert unitary_checks == [2, 4, 4] * 2


def test_apply_2q_keeps_the_center_side():
    for start in (2, 3):
        mps = MatrixProductState(4)
        mps.apply_1q(rotation_matrix(0.7), 2)
        mps._move_center_to(start)
        mps.apply_2q(cx_matrix(), 2, 3)
        assert mps.center == start


@pytest.mark.parametrize("case", [1, 2, 3, 4])
def test_staircase_circuits_need_no_qr(case, monkeypatch):
    # look-ahead placement leaves the center where the next gate acts, and a
    # fresh state's center crosses the |0> sites before the first gate, all
    # bonds of dimension 1, in one normalisation: no QR and no one-bond move
    calls, shifts = [], []
    original, shift = np.linalg.qr, MatrixProductState._shift
    monkeypatch.setattr(np.linalg, "qr", lambda m: calls.append(m.shape) or original(m))
    monkeypatch.setattr(
        MatrixProductState, "_shift", lambda self, step: shifts.append(step) or shift(self, step)
    )
    mps = MatrixProductState(20).run_circuit(build_linear(20, case, 0.9))
    assert calls == [] and shifts == []
    assert mps.canonical_deviation() <= 1e-12


# ------------------------------------------------ stacked grid runs vs scalar runs

SPECIAL_ANGLES = (0.0, np.pi / 2, np.pi, 3 * np.pi / 2, 2 * np.pi)
# the sweep's floor: post-selected branches below it do not exist
BRANCH_FLOOR = 1e-9


@st.composite
def protocol_grids(draw):
    """A protocol builder ``build(theta, theta2)`` at n <= 10, its qubit
    count, the grid points ``(theta, theta2)`` and the post-selection."""
    angle = st.sampled_from(SPECIAL_ANGLES) | st.floats(0.0, 2 * np.pi)
    # grid points drawn from a small pool of angles repeat angles
    pool = st.sampled_from(draw(st.lists(angle, min_size=1, max_size=4)))
    points = draw(st.lists(st.tuples(pool, pool), min_size=1, max_size=6))
    kind = draw(st.sampled_from(["star", "star-0", "star-1", "linear", "periodic"]))
    if kind.startswith("star"):
        n_outer = draw(st.integers(2, 9))
        outcome = None if kind == "star" else int(kind[-1])
        return (lambda t, t2: build_star(n_outer, t)), n_outer + 1, points, outcome
    if kind == "linear":
        n, case = draw(st.integers(3, 10)), draw(st.integers(1, 4))
        return (lambda t, t2: build_linear(n, case, t)), n, points, None
    n = draw(st.integers(4, 10))
    return (lambda t, t2: build_periodic(n, t, t2)), n, points, None


def _assert_stacked_matches_scalar(build, n, points, outcome, pairs):
    stacked = MatrixProductState(n).run_circuit(build(*map(tuple, zip(*points))))
    assert stacked.grid == len(points)
    assert stacked.discarded_weight_total < 1e-14
    assert stacked.max_bond_dimension <= 2
    assert stacked.canonical_deviation() <= 1e-12
    alive = np.arange(len(points))
    probabilities = None
    if outcome is not None:
        weights = stacked.single_rdm(n)[:, outcome, outcome].real
        alive = np.flatnonzero(weights >= BRANCH_FLOOR)
        if alive.size == 0:
            return
        stacked.keep_points(alive)
        probabilities = stacked.postselect(n, outcome)
        assert stacked.canonical_deviation() <= 1e-12
    # pair-outer order, as the sweep reads: one center walk for all points
    rdms = {pair: [stacked.pair_rdm(*pair, point=k) for k in range(alive.size)] for pair in pairs}
    for k, index in enumerate(alive):
        scalar = MatrixProductState(n).run_circuit(build(*points[index]))
        if outcome is not None:
            assert abs(scalar.postselect(n, outcome) - probabilities[k]) <= 1e-12
        for pair, per_point in rdms.items():
            assert np.abs(scalar.pair_rdm(*pair) - per_point[k]).max() <= 1e-12


@settings(max_examples=60, deadline=None)
@given(protocol_grids())
def test_stacked_grid_run_matches_scalar_runs(grid):
    build, n, points, outcome = grid
    pairs = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
    _assert_stacked_matches_scalar(build, n, points, outcome, pairs)


def test_stacked_long_chain_matches_scalar_runs():
    points = [(0.3, None), (1.2, None), (0.3, None)]
    pairs = [(i, i + 1) for i in range(1, 60)] + [(1, 60), (29, 32)]
    _assert_stacked_matches_scalar(
        lambda t, t2: build_linear(60, 4, t), 60, points, None, pairs
    )


# ------------------------------------------ dtype: real in, real out

def _rz(t: float) -> np.ndarray:
    return np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)])


def _complex_unitary(angles) -> np.ndarray:
    """e^(i alpha) Rz(beta) Ry(gamma) Rz(delta): a complex128 single-qubit unitary."""
    alpha, beta, gamma, delta = angles
    c, s = np.cos(gamma / 2), np.sin(gamma / 2)
    return np.exp(1j * alpha) * _rz(beta) @ np.array([[c, -s], [s, c]]) @ _rz(delta)


@st.composite
def mixed_circuits(draw):
    """A qubit count and ops: protocol gates, or ``(site, U)`` for a random
    complex single-qubit unitary U."""
    n = draw(st.integers(3, 7))
    site = st.integers(1, n)
    angle = st.floats(-2 * np.pi, 2 * np.pi, allow_nan=False)
    rotation = st.builds(Rotation, site, angle)
    cx = st.tuples(site, site).filter(lambda p: p[0] != p[1]).map(lambda p: ControlledNot(*p))
    unitary = st.tuples(site, st.tuples(angle, angle, angle, angle).map(_complex_unitary))
    gate = st.one_of(rotation, cx, unitary) if draw(st.booleans()) else st.one_of(rotation, cx)
    return n, draw(st.lists(gate, min_size=1, max_size=20))


@settings(max_examples=150, deadline=None)
@given(mixed_circuits())
def test_dtype_follows_the_gates(case):
    n, ops = case
    mps, sv = MatrixProductState(n), StateVector.zeros(n)
    # runs of protocol gates go through run_circuit, complex gates through apply_1q
    for is_unitary, run in groupby(ops, key=lambda op: isinstance(op, tuple)):
        if is_unitary:
            for site, gate in run:
                mps.apply_1q(gate, site)
                sv = sv.apply_1q(gate, site)
        else:
            circuit = Circuit(n, tuple(run))
            mps.run_circuit(circuit)
            sv = sv.run_circuit(circuit)
    kind = np.complex128 if any(isinstance(op, tuple) for op in ops) else np.float64
    amplitudes = mps_amplitudes(mps)
    assert amplitudes.dtype == kind and sv.amplitudes.dtype == kind
    assert np.result_type(*mps.tensors) == kind
    assert np.abs(amplitudes - sv.amplitudes).max() <= 1e-12
    assert mps.canonical_deviation() <= 1e-12
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            exact = sv.pair_rdm(i, j)
            assert exact.dtype == kind
            assert np.abs(mps.pair_rdm(i, j) - exact).max() <= 1e-12
    if kind is np.float64:
        assert all(t.dtype == np.float64 for t in mps.tensors)
        assert mps.pair_rdm(1, n).dtype == np.float64


@pytest.mark.parametrize(
    "config",
    [
        SweepConfig(protocol="star", theta=GridSpec(0.0, 2 * np.pi, 9), n_outer=4),
        *(
            SweepConfig(protocol="star", theta=GridSpec(0.0, 2 * np.pi, 9), n_outer=4,
                        postselect=outcome)
            for outcome in (0, 1)
        ),
        *(
            SweepConfig(protocol="linear", theta=GridSpec(0.0, 2 * np.pi, 9), n=8, case=case)
            for case in (1, 2, 3, 4)
        ),
        SweepConfig(protocol="periodic", theta=GridSpec(0.0, 2 * np.pi, 5), n=8,
                    theta2=GridSpec(0.3, 2.0, 3)),
    ],
    ids=["star", "star-0", "star-1", "case1", "case2", "case3", "case4", "periodic"],
)
def test_stacked_protocol_runs_stay_float64(monkeypatch, config):
    """Every stacked state, pair-RDM stack and concurrence input of an MPS
    sweep or oracle check of a protocol is float64, on both backends."""
    seen = []
    pair_rdms, score = symm_ent.sweep._pair_rdms, symm_ent.sweep.wootters_concurrence

    def recording_pair_rdms(state, pairs):
        arrays = [state.amplitudes] if isinstance(state, StateVector) else state.tensors
        seen.extend(t.dtype for t in arrays)
        rdms = pair_rdms(state, pairs)
        seen.append(rdms.dtype)
        return rdms

    def recording_score(rho):
        seen.append(np.asarray(rho).dtype)
        return score(rho)

    monkeypatch.setattr(symm_ent.sweep, "_pair_rdms", recording_pair_rdms)
    monkeypatch.setattr(symm_ent.sweep, "wootters_concurrence", recording_score)
    assert run_sweep(replace(config, backend="mps"))
    assert run_oracle_check(config).passed
    assert seen and set(seen) == {np.dtype(np.float64)}
