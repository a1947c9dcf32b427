import copy
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import symm_ent.mps
import symm_ent.sweep
from symm_ent import (
    Circuit,
    ControlledNot,
    GridSpec,
    MatrixProductState,
    Rotation,
    StateVector,
    SweepConfig,
    build_linear,
    build_periodic,
    build_star,
    cx_matrix,
    rotation_matrix,
    run_sweep,
    wootters_concurrence,
)
from symm_ent.formulas import analytic_concurrence, unitary_params
from symm_ent.linalg import lift

from oracles import (
    brute_pair_rdm,
    haar_unitary,
    mps_amplitudes,
    pair_rdm_at_point,
    pair_rdm_einsum,
    stepwise_move_center_to,
)
from test_mps_properties import protocol_grids


def random_two_site_unitary(rng) -> np.ndarray:
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_small_mps(rng, n=6, layers=2) -> MatrixProductState:
    mps = MatrixProductState(n)
    for _ in range(layers):
        for site in range(1, n + 1):
            mps.apply_1q(haar_unitary(rng), site)
        for site in range(1, n):
            mps.apply_2q(random_two_site_unitary(rng), site, site + 1)
    return mps


def test_init_examples():
    mps = MatrixProductState(10)
    assert all(t.shape == (1, 2, 1) for t in mps.tensors)
    assert mps.center == 1
    big = MatrixProductState(60)
    assert abs(big.norm() - 1.0) < 1e-12 and big.center == 1
    assert np.allclose(mps_amplitudes(MatrixProductState(2)), [1, 0, 0, 0])


def test_init_validation():
    with pytest.raises(ValueError, match="MPS backend needs at least 2 qubits, got 1"):
        MatrixProductState(1)


@pytest.mark.parametrize("i, j", [(3, 2), (2, 2)])
def test_apply_2q_needs_ascending_sites(i, j):
    with pytest.raises(ValueError, match=re.escape(f"need i < j, got ({i}, {j})")):
        MatrixProductState(4).apply_2q(np.eye(4), i, j)


def test_apply_1q_examples():
    mps = MatrixProductState(2)
    mps.apply_1q(rotation_matrix(np.pi / 2), 1)
    expected = np.zeros(4)
    expected[0b00] = 1 / np.sqrt(2)
    expected[0b10] = 1 / np.sqrt(2)
    assert np.abs(mps_amplitudes(mps) - expected).max() < 1e-12
    before = [t.copy() for t in mps.tensors]
    mps.apply_1q(np.eye(2), 2)
    assert all(np.array_equal(a, b) for a, b in zip(before, mps.tensors))
    with pytest.raises(ValueError, match="not unitary"):
        mps.apply_1q(np.ones((2, 2)), 1)


def test_apply_1q_matches_oracle(rng):
    theta = 1.23
    mps = MatrixProductState(4)
    sv = StateVector.zeros(4)
    for site in (2, 4, 1):
        mps.apply_1q(rotation_matrix(theta), site)
        sv = sv.apply_1q(rotation_matrix(theta), site)
    overlap = np.vdot(sv.amplitudes, mps_amplitudes(mps))
    assert abs(abs(overlap) - 1.0) < 1e-12


def test_shift_center_round_trip(rng):
    """A move right and back restores the state. A walk of the center 1 -> n
    -> 1 over a complex stacked state keeps every point's amplitudes and the
    canonical form at every stop, and each move writes C-contiguous tensors:
    a left move mirrors its two tensors and mirrors them back."""
    mps = random_small_mps(rng)
    reference = mps_amplitudes(mps)
    mps._move_center_to(1)
    original = copy.deepcopy(mps)
    mps._shift(1)
    mps._shift(-1)
    assert mps.center == 1
    fidelity = abs(np.vdot(mps_amplitudes(original), mps_amplitudes(mps)))
    assert abs(fidelity - 1.0) < 1e-12
    assert np.abs(mps_amplitudes(mps) - reference).max() < 1e-12

    n = 6
    stacked = MatrixProductState(n).run_circuit(build_linear(n, 4, (0.3, 1.2, 2.0)))
    for site in range(1, n):
        stacked.apply_2q(random_two_site_unitary(rng), site, site + 1)
    assert stacked.grid == 3 and stacked.tensors[2].dtype == np.complex128
    reference = mps_amplitudes(stacked)
    stacked._move_center_to(1)
    written = 1  # tensors 1..written have been written by a center move
    for step in [1] * (n - 1) + [-1] * (n - 1):
        stacked._shift(step)
        written = max(written, stacked.center)
        assert np.abs(mps_amplitudes(stacked) - reference).max() < 1e-12
        assert stacked.canonical_deviation() <= 1e-12
        assert all(t.flags.c_contiguous for t in stacked.tensors[:written])
    assert stacked.center == 1 and written == n


def test_shift_center_restores_isometries(rng):
    mps = random_small_mps(rng)
    for target in (1, 6, 3):
        mps._move_center_to(target)
        assert mps.center == target
        assert mps.canonical_deviation() < 1e-12


def test_a_center_walk_across_600_sites_keeps_the_norm():
    """A QR move gives the new center the old center's norm, so walking the
    center across a 600-site case-2 chain and back keeps the canonical form
    and the norm to roundoff: without it R's rounding drifted both by about
    N eps (1.1e-13 here)."""
    state = MatrixProductState(600).run_circuit(build_linear(600, 2, (0.3, 1.7, 3.1, 4.6, 6.0)))
    assert state.center == 599 and state.canonical_deviation() <= 1e-14
    for site in (1, 600, 1):
        state._move_center_to(site)
        assert state.center == site
        assert state.canonical_deviation() <= 1e-14


@pytest.mark.parametrize(
    "circuit",
    [
        # chain-center's cone: a fresh state's center walks from site 1 to site 59
        build_linear(60, 4, tuple(np.linspace(0.0, 2 * np.pi, 7))).causal_cone({30, 31}),
        build_linear(20, 1, tuple(np.linspace(0.1, 6.0, 5))),
        build_star(8, (0.4, 1.9, 3.3)),
    ],
)
def test_a_fresh_state_reaches_a_far_first_gate_bitwise_as_the_stepwise_walk(
    circuit, monkeypatch
):
    """Crossing the |0> sites of a fresh stacked state in one step writes
    bitwise the tensors the one-bond-at-a-time walk wrote, through the whole run."""
    run = MatrixProductState(circuit.n_qubits).run_circuit(circuit)
    monkeypatch.setattr(MatrixProductState, "_move_center_to", stepwise_move_center_to)
    walked = MatrixProductState(circuit.n_qubits).run_circuit(circuit)
    assert run.center == walked.center
    for a, b in zip(run.tensors, walked.tensors):
        assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_a_run_of_bonds_of_dimension_1_is_crossed_in_one_normalisation(monkeypatch):
    """A fresh state's center crosses 58 bonds of dimension 1, right and back
    left, in one norm each, and every tensor stays |0>."""
    norms, original = [], symm_ent.mps._norms
    monkeypatch.setattr(symm_ent.mps, "_norms", lambda t: norms.append(t.shape) or original(t))
    state = MatrixProductState(60)
    state._stack(7)
    for site, shape in ((59, (7, 1, 2, 1)), (1, (7, 1, 2, 1))):
        norms.clear()
        state._move_center_to(site)
        assert state.center == site and norms == [shape]
    assert all(t.tobytes() == MatrixProductState(60).tensors[0].tobytes() * 7 for t in state.tensors)


def test_a_computed_product_stretch_is_crossed_keeping_the_state(rng):
    """A run of bonds of dimension 1 in a computed state is crossed in one step
    from the far end and back: every point's amplitudes and norm stay, the form
    stays canonical, and a pair read across the run is the brute-force one."""
    n, grid = 10, (0.0, np.pi, 2 * np.pi)
    # a case-1 chain is a product state at these angles: every split drops a zero
    product = MatrixProductState(n).run_circuit(build_linear(n, 1, grid))
    # the cone of the last pair leaves sites 1..7 unentangled; rotating every
    # site makes their tensors complex unit vectors only to roundoff
    cone = MatrixProductState(n).run_circuit(
        build_linear(n, 1, (0.4, 1.9, 3.3)).causal_cone({n - 1, n})
    )
    for site in range(1, n + 1):
        cone.apply_1q(haar_unitary(rng), site)
    # a center carrying norm 3, which a move must carry along the run
    scaled = copy.deepcopy(cone)
    scaled.tensors[scaled.center - 1] = 3.0 * scaled.tensors[scaled.center - 1]
    assert product.max_bond_dimension == 1 and product.discarded_weight_total < 1e-30
    assert [t.shape[-1] for t in cone.tensors[:-1]] == [1] * 7 + [2, 2]
    for state in (product, cone, scaled):
        reference, norm = mps_amplitudes(state), state.norm()
        for site in (n, 1, n - 1, 2):
            state._move_center_to(site)
            assert state.center == site
            assert np.abs(mps_amplitudes(state) - reference).max() < 1e-12
            assert np.abs(state.norm() - norm).max() < 1e-12
            if state is not scaled:
                assert state.canonical_deviation() <= 1e-12
        rho = state.pair_rdm(1, n)
        for k in range(state.grid):
            assert np.abs(rho[k] - brute_pair_rdm(reference[k], n, 1, n)).max() < 1e-12
    assert np.abs(scaled.norm() - 3.0).max() < 1e-12


@pytest.mark.parametrize("stacked", [False, True])
@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("where", ["left", "center", "right"])
def test_canonical_deviation_reports_each_kind_of_break(rng, stacked, kind, where):
    """A tensor left of the center that is no left isometry, one right of it
    that is no right isometry, and a center that does not carry unit norm each
    show in ``canonical_deviation``: scaling the tensor by 1.5 (at one grid
    point of a stack) moves its isometry condition by 1.25 and the norm by 0.5."""
    mps = MatrixProductState(6).run_circuit(build_linear(6, 4, (0.3, 1.2, 2.0) if stacked else 1.2))
    if kind == "complex":
        for site in range(1, 7):
            mps.apply_1q(haar_unitary(rng), site)
    mps._move_center_to(3)
    assert mps.canonical_deviation() <= 1e-12
    site = {"left": 2, "center": 3, "right": 4}[where]
    factor = np.array([1.0, 1.0, 1.5])[:, None, None, None] if stacked else 1.5
    mps.tensors[site - 1] = mps.tensors[site - 1] * factor
    assert mps.canonical_deviation() >= 0.5 - 1e-12


def test_apply_2q_identity_on_zero_state():
    mps = MatrixProductState(2)
    mps.apply_2q(cx_matrix(), 1, 2)
    assert mps.max_bond_dimension == 1
    assert np.allclose(mps_amplitudes(mps), [1, 0, 0, 0])


def test_apply_2q_bell_singular_values():
    mps = MatrixProductState(2)
    mps.apply_1q(rotation_matrix(np.pi / 2), 1)
    mps.apply_2q(cx_matrix(), 1, 2)
    values = np.linalg.svd(mps_amplitudes(mps).reshape(2, 2), compute_uv=False)
    assert np.abs(values - np.array([1, 1]) / np.sqrt(2)).max() < 1e-12


def test_run_circuit_case4_staircase_bonds():
    mps = MatrixProductState(20)
    mps.run_circuit(build_linear(20, 4, np.pi / 4))
    assert mps.max_bond_dimension <= 2
    assert mps.discarded_weight_total < 1e-14
    assert mps.canonical_deviation() < 1e-10


def test_run_circuit_zero_angle_gives_basis_state():
    mps = MatrixProductState(6)
    mps.run_circuit(build_linear(6, 4, 0.0))
    assert mps.max_bond_dimension == 1
    amps = mps_amplitudes(mps)
    assert abs(abs(amps[0b100001]) - 1.0) < 1e-12


def test_periodic_reduces_to_case4():
    theta = 0.77
    a = MatrixProductState(8).run_circuit(build_periodic(8, theta, theta))
    b = MatrixProductState(8).run_circuit(build_linear(8, 4, theta))
    assert np.abs(mps_amplitudes(a) - mps_amplitudes(b)).max() < 1e-12


@pytest.mark.parametrize("case", [1, 2, 3, 4])
def test_chain_circuits_match_oracle(case):
    for theta in (0.7, 2.9, 4.4):
        sv = StateVector.zeros(10).run_circuit(build_linear(10, case, theta))
        mps = MatrixProductState(10).run_circuit(build_linear(10, case, theta))
        assert np.abs(mps_amplitudes(mps) - sv.amplitudes).max() < 1e-12
        assert mps.discarded_weight_total < 1e-14


def test_star_circuit_long_range_matches_oracle():
    for n_outer in (3, 5, 8):
        for theta in (0.7, 2.1, 3.8):
            circuit = build_star(n_outer, theta)
            sv = StateVector.zeros(n_outer + 1).run_circuit(circuit)
            mps = MatrixProductState(n_outer + 1).run_circuit(circuit)
            assert np.abs(mps_amplitudes(mps) - sv.amplitudes).max() < 1e-12
            assert mps.discarded_weight_total < 1e-14
            assert mps.max_bond_dimension <= 2


def test_long_range_gate_agrees_with_dense_application(rng):
    # random unitary on a distant pair, checked against the exact backend
    mps = random_small_mps(rng, n=5, layers=1)
    dense = mps_amplitudes(mps).reshape((2,) * 5)
    gate = random_two_site_unitary(rng)
    mps.apply_2q(gate, 2, 5)
    # contract the gate onto axes (1, 4) of the dense tensor
    g = gate.reshape(2, 2, 2, 2)
    expected = np.einsum("qsab,xaycb->xqycs", g, dense)
    assert np.abs(mps_amplitudes(mps) - expected.ravel()).max() < 1e-12


def test_pair_rdm_product_state():
    mps = MatrixProductState(4)
    rho = mps.pair_rdm(2, 3)
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    assert np.abs(rho - expected).max() < 1e-13


def test_pair_rdm_bulk_value_case4():
    mps = MatrixProductState(20).run_circuit(build_linear(20, 4, np.pi / 4))
    rho = mps.pair_rdm(10, 11)
    value = wootters_concurrence(rho)
    assert abs(value - 0.2803300858899107) < 1e-10
    assert abs(value - analytic_concurrence("linear_bulk", unitary_params(np.pi / 4))) < 1e-10


def test_pair_rdm_matches_oracle_adjacent_and_distant(rng):
    mps = random_small_mps(rng, n=6)
    sv = StateVector(6, mps_amplitudes(mps))
    for pair in [(1, 2), (3, 4), (5, 6), (1, 6), (2, 5), (1, 4)]:
        assert np.abs(mps.pair_rdm(*pair) - sv.pair_rdm(*pair)).max() < 1e-12


def test_pair_rdm_validation():
    mps = MatrixProductState(4)
    with pytest.raises(ValueError, match="pair sites must ascend from i = 3, got 3 after 3"):
        mps.pair_rdm(3, 3)
    with pytest.raises(ValueError, match="pair sites must ascend from i = 3, got 2 after 3"):
        mps.pair_rdm(3, 2)


@settings(max_examples=60, deadline=None)
@given(protocol_grids(), st.booleans(), st.data())
def test_row_reads_are_bitwise_the_pair_reads(grid, haar, data):
    """A row read returns, pair by pair, the very matrices that one-pair
    reads return, and both are bitwise the contraction of that grid point
    alone: on stacked and single-point states, real and complex."""
    build, n, points, _ = grid
    states = [
        MatrixProductState(n).run_circuit(build(*map(tuple, zip(*points)))),
        MatrixProductState(n).run_circuit(build(*points[0])),
    ]
    if haar:
        # one Haar two-qubit gate on a distant or adjacent pair makes the state complex
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        a = data.draw(st.integers(1, n - 1))
        b = data.draw(st.integers(a + 1, n))
        gate = haar_unitary(rng, 4)
        for state in states:
            state.apply_2q(gate, a, b)
            assert np.result_type(*state.tensors) == np.complex128
    for state in states:
        i = data.draw(st.integers(1, n - 1))
        sites = tuple(sorted(data.draw(st.sets(st.integers(i + 1, n), min_size=1))))
        for point in range(state.grid) if state.grid else [None]:
            row = state.pair_rdm(i, sites, point=point)
            assert row.shape == (len(sites), 4, 4)
            assert row.dtype == np.result_type(*state.tensors[i - 1 : sites[-1]])
            assert np.array_equal(row, pair_rdm_at_point(state, i, sites, point))
            for rho, j in zip(row, sites):
                assert np.array_equal(rho, state.pair_rdm(i, j, point=point))
                assert np.array_equal(rho, pair_rdm_at_point(state, i, j, point))


@settings(max_examples=60, deadline=None)
@given(protocol_grids(), st.booleans(), st.data())
def test_interleaved_reads_are_bitwise_the_per_point_oracle(grid, haar, data):
    """Reads of a few rows, as rows and as their first pair, at every grid
    point in a random order, each read bitwise the contraction of that point
    alone and read-only, on the state and on a deep copy of it: the kept row
    is switched, reused and refilled."""
    build, n, points, _ = grid
    state = MatrixProductState(n).run_circuit(build(*map(tuple, zip(*points))))
    if haar:
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        a = data.draw(st.integers(1, n - 1))
        state.apply_2q(haar_unitary(rng, 4), a, data.draw(st.integers(a + 1, n)))
    rows = []
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(1, n - 1))
        rows.append((i, tuple(sorted(data.draw(st.sets(st.integers(i + 1, n), min_size=1))))))
    reads = [(i, j, point) for i, sites in rows for j in (sites, sites[0])
             for point in range(state.grid)]
    for i, j, point in data.draw(st.permutations(reads)):
        rho = state.pair_rdm(i, j, point=point)
        assert not rho.flags.writeable
        assert np.array_equal(rho, pair_rdm_at_point(state, i, j, point))
    # a deep copy carries a writeable copy of the kept row; its reads stay read-only
    assert not copy.deepcopy(state).pair_rdm(i, j, point=point).flags.writeable


@settings(max_examples=60, deadline=None)
@given(protocol_grids(), st.integers(0, 2), st.data())
def test_row_reads_match_the_einsum_contraction(grid, haar_gates, data):
    """Every row read and one-pair read lies within 1e-14 of the three-operand
    einsum contraction of that grid point alone, an independent route: on
    single-point states, one-point grids and stacks, real and complex (up to
    two Haar two-qubit gates on random pairs, which take bonds to 4 and past)."""
    build, n, points, _ = grid
    states = [
        MatrixProductState(n).run_circuit(build(*points[0])),
        MatrixProductState(n).run_circuit(build(*map(tuple, zip(*points[:1])))),
        MatrixProductState(n).run_circuit(build(*map(tuple, zip(*points)))),
    ]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    for _ in range(haar_gates):
        a = data.draw(st.integers(1, n - 1))
        b = data.draw(st.integers(a + 1, n))
        gate = haar_unitary(rng, 4)
        for state in states:
            state.apply_2q(gate, a, b)
    for state in states:
        for _ in range(data.draw(st.integers(1, 3))):
            i = data.draw(st.integers(1, n - 1))
            sites = tuple(sorted(data.draw(st.sets(st.integers(i + 1, n), min_size=1))))
            for point in range(state.grid) if state.grid else [None]:
                row = state.pair_rdm(i, sites, point=point)
                assert np.abs(row - pair_rdm_einsum(state, i, sites, point)).max() <= 1e-14
                rho = state.pair_rdm(i, sites[-1], point=point)
                assert np.abs(rho - pair_rdm_einsum(state, i, sites[-1], point)).max() <= 1e-14


def test_row_reads_match_the_einsum_contraction_at_bond_four():
    """A random complex chain at its largest bonds (two brickwork layers of
    Haar gates on 6 qubits), read over every full row, against the einsum route."""
    state = random_small_mps(np.random.default_rng(5), n=6)
    assert [t.shape[-1] for t in state.tensors[:-1]] == [2, 4, 4, 4, 2]
    for i in range(1, 6):
        sites = tuple(range(i + 1, 7))
        assert np.abs(state.pair_rdm(i, sites) - pair_rdm_einsum(state, i, sites)).max() <= 1e-14


def _counting_rows(monkeypatch) -> list:
    """Record the sites of every whole-grid row contraction."""
    rows = []
    contract = symm_ent.mps._row_rdms
    monkeypatch.setattr(symm_ent.mps, "_row_rdms",
                        lambda tensors, *row: rows.append(row) or contract(tensors, *row))
    return rows


@pytest.mark.parametrize(
    "operation, contractions, changes",
    [
        (lambda s: s.apply_1q(rotation_matrix(0.7), 3), 2, True),
        (lambda s: s.apply_2q(cx_matrix(control_first=True), 2, 3), 2, True),
        (lambda s: s.run_circuit(Circuit(6, (Rotation(4, 0.9), ControlledNot(2, 5)))), 2, True),
        (lambda s: s.postselect(3, 0), 2, True),
        (lambda s: s.keep_points([2, 0, 1]), 2, True),
        (lambda s: (s._move_center_to(6), s._move_center_to(1)), 2, False),
        (lambda s: s.apply_1q(rotation_matrix(0.7), 6), 1, False),
    ],
    ids=["apply_1q", "apply_2q", "run_circuit", "postselect", "keep_points", "center-shift",
         "gate-past-the-row"],
)
def test_a_read_after_an_operation_reads_the_new_state(
    operation, contractions, changes, monkeypatch
):
    """Every operation that replaces a tensor of the row, a center shift
    too, makes the next read contract the row again, bitwise the per-point
    oracle on the new tensors; a gate on a site past the row leaves the row's
    tensors, and so its RDMs, as they were, and the kept row is reused."""
    state = MatrixProductState(6).run_circuit(build_linear(6, 4, (0.3, 1.1, 2.0)))
    rows = _counting_rows(monkeypatch)
    before = np.array([state.pair_rdm(2, (3, 5), point=k) for k in range(3)])
    assert np.array_equal(state.pair_rdm(2, (3, 5), point=1), before[1])
    assert rows == [(2, (3, 5))]
    operation(state)
    after = np.array([state.pair_rdm(2, (3, 5), point=k) for k in range(3)])
    assert len(rows) == contractions
    for k in range(3):
        assert np.array_equal(after[k], pair_rdm_at_point(state, 2, (3, 5), k))
        if changes:
            assert not np.allclose(after[k], before[k], rtol=0.0, atol=1e-6)
        else:
            assert np.abs(after[k] - before[k]).max() <= 1e-15


def test_kept_points_read_as_they_were():
    state = MatrixProductState(6).run_circuit(build_linear(6, 4, (0.3, 1.1, 2.0)))
    before = [state.pair_rdm(2, (3, 5), point=k) for k in range(3)]
    whole = state.pair_rdm(2, (3, 5))
    assert state.keep_points([2, 0]) is state  # kept in place, returned like run_circuit
    assert np.array_equal(state.pair_rdm(2, (3, 5), point=0), before[2])
    assert np.array_equal(state.pair_rdm(2, (3, 5), point=1), before[0])
    assert np.array_equal(state.pair_rdm(2, (3, 5)), whole[:, [2, 0]])


@pytest.mark.parametrize(
    "i, j",
    [(2, 3), (2, 6), (3, (4,)), (1, (5,)), (2, (3, 4, 5)), (1, (2, 4, 7)), (3, (5, 7))],
    ids=["adjacent", "distant", "adjacent-row", "one-pair-row", "adjacent-row-of-three",
         "mixed-row", "distant-row"],
)
def test_a_stacked_read_without_a_point_is_the_statevector_stack(i, j):
    """Without ``point`` a stacked read returns the whole grid, ``(len(row), P,
    4, 4)`` for a row and ``(P, 4, 4)`` for one pair, as the statevector does
    on the same circuit; each point's slice is bitwise its ``point=k`` read."""
    circuit = build_star(6, (0.3, 1.1, 2.0, 4.4))
    mps = MatrixProductState(7).run_circuit(circuit)
    exact = StateVector.zeros(7).run_circuit(circuit).pair_rdm(i, j)
    whole = mps.pair_rdm(i, j)
    per_point = np.array([mps.pair_rdm(i, j, point=k) for k in range(mps.grid)])
    assert np.array_equal(whole, per_point.swapaxes(0, 1) if isinstance(j, tuple) else per_point)
    assert whole.shape == exact.shape and whole.dtype == exact.dtype == np.float64
    assert np.abs(whole - exact).max() <= 1e-12
    assert not whole.flags.writeable  # the kept row itself


@pytest.mark.parametrize("backend", ["mps", "statevector"])
@pytest.mark.parametrize(
    "points, message",
    [
        ([1.7], "points must be an integer, got 1.7"),
        (np.array([1.0]), "points must be an integer"),
        ([True, False], "points must be an integer, got True"),
        ([0, True], "points must be an integer, got True"),
        (np.array([True, False]), "points must be an integer"),
        ([-1], "points entry -1 outside 0..2"),
        ([5], "points entry 5 outside 0..2"),
        (np.array([0, 3]), "points entry 3 outside 0..2"),
        ([], "points must be a non-empty 1-d index array"),
        ([[0, 1]], "points must be a non-empty 1-d index array"),
    ],
    ids=["float", "float-array", "bools", "bool-among-ints", "bool-array", "negative",
         "past-the-end", "past-the-end-array", "empty", "2-d"],
)
def test_keep_points_rejects_bad_indices(backend, points, message):
    circuit = build_linear(4, 4, (0.3, 1.1, 2.0))
    state = (MatrixProductState(4) if backend == "mps" else StateVector.zeros(4))
    state = state.run_circuit(circuit)
    with pytest.raises(ValueError, match=re.escape(message)):
        state.keep_points(points)
    assert state.keep_points(np.array([2, 0])).grid == 2

def test_a_sweep_contracts_each_row_once_per_block(monkeypatch):
    """``_pair_rdms`` calls ``pair_rdm`` once per grid point and row, and
    only the first call of each row in a block contracts it."""
    calls = []
    read = MatrixProductState.pair_rdm
    monkeypatch.setattr(MatrixProductState, "pair_rdm",
                        lambda self, *args, **kw: calls.append(args) or read(self, *args, **kw))
    rows = _counting_rows(monkeypatch)
    monkeypatch.setattr(symm_ent.sweep, "BLOCK_POINTS", 4)
    for config in (
        SweepConfig("linear", GridSpec(0.0, 2 * np.pi, 9), n=8, pairs="all-adjacent",
                    backend="mps"),
        SweepConfig("star", GridSpec(0.0, 2 * np.pi, 9), n_outer=4, pairs="star-all",
                    backend="mps"),
    ):
        calls.clear()
        rows.clear()
        run_sweep(config)
        n_rows = len({i for i, _ in symm_ent.sweep._plan(config).pairs})
        assert n_rows > 1
        assert len(calls) == 9 * n_rows
        assert len(rows) == 3 * n_rows  # blocks of 4, 4 and 1 points


@settings(max_examples=60, deadline=None)
@given(protocol_grids(), st.booleans(), st.data())
def test_adjacent_reads_match_the_brute_force_partial_trace(grid, haar, data):
    """Every adjacent read, the Gram matrix of the two-site block at the
    center, lies within 1e-12 of the partial trace of the statevector by
    basis-state enumeration, in the dtype of its tensors: on stacked and
    single-point states, real and complex."""
    build, n, points, _ = grid
    assume(n <= 8)  # the enumeration visits 4**n basis pairs per read
    points = list(dict.fromkeys(points))
    stacked = MatrixProductState(n).run_circuit(build(*map(tuple, zip(*points))))
    singles = [MatrixProductState(n).run_circuit(build(*point)) for point in points]
    if haar:
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        a = data.draw(st.integers(1, n - 1))
        b = data.draw(st.integers(a + 1, n))
        gate = haar_unitary(rng, 4)
        for state in [stacked, *singles]:
            state.apply_2q(gate, a, b)
            assert np.result_type(*state.tensors) == np.complex128
    for k, single in enumerate(singles):
        amplitudes = mps_amplitudes(single)
        for i in range(1, n):
            expected = brute_pair_rdm(amplitudes, n, i, i + 1)
            for state, point in ((stacked, k), (single, None)):
                rho = state.pair_rdm(i, i + 1, point=point)
                assert rho.dtype == np.result_type(*state.tensors[i - 1 : i + 1])
                assert np.abs(rho - expected).max() <= 1e-12


@pytest.mark.parametrize(
    "i, j, message",
    [
        (2, [3, 4], "j must be an integer, got [3, 4]"),
        (2, np.array([3, 4]), "j must be an integer, got array([3, 4])"),
        (2, 3.5, "j must be an integer, got 3.5"),
        (2, (3.0, 4), "j must be an integer, got 3.0"),
        (2, True, "j must be an integer, got True"),
        (2.0, 3, "i must be an integer, got 2.0"),
        (False, 3, "i must be an integer, got False"),
    ],
    ids=["list", "array", "float", "float-in-row", "bool", "float-i", "bool-i"],
)
def test_pair_read_rejects_a_non_integer_site(i, j, message):
    stacked = MatrixProductState(5).run_circuit(build_star(4, (0.3, 1.2)))
    single = MatrixProductState(5).run_circuit(build_star(4, 0.3))
    for state, point in ((stacked, 1), (single, None)):
        with pytest.raises(ValueError, match=re.escape(message)):
            state.pair_rdm(i, j, point=point)


def test_pair_read_takes_numpy_integers_and_rejects_a_non_integer_point():
    stacked = MatrixProductState(5).run_circuit(build_star(4, (0.3, 1.2)))
    single = MatrixProductState(5).run_circuit(build_star(4, 0.3))
    for point in (1.0, True):
        with pytest.raises(ValueError, match=f"point must be an integer, got {point}"):
            stacked.pair_rdm(2, 3, point=point)
    assert np.array_equal(single.pair_rdm(np.int64(2), (np.int64(3), 4))[0], single.pair_rdm(2, 3))
    assert np.array_equal(stacked.pair_rdm(2, 3, point=np.int64(1)), stacked.pair_rdm(2, 3, point=1))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda sv, mps: sv.pair_rdm(2.0, 3), "i must be an integer, got 2.0"),
        (lambda sv, mps: sv.pair_rdm(2, 3.0), "j must be an integer, got 3.0"),
        (lambda sv, mps: sv.single_rdm(True), "site must be an integer, got True"),
        (lambda sv, mps: sv.postselect(4.0, 0), "site must be an integer, got 4.0"),
        (lambda sv, mps: sv.apply_1q(rotation_matrix(0.3), 1.0), "site must be an integer"),
        (lambda sv, mps: sv.apply_cx(1, 2.0), "target must be an integer, got 2.0"),
        (lambda sv, mps: sv.apply_cx(False, 2), "control must be an integer, got False"),
        (lambda sv, mps: mps.single_rdm(2.0), "site must be an integer, got 2.0"),
        (lambda sv, mps: mps.postselect(True, 0), "site must be an integer, got True"),
        (lambda sv, mps: mps.apply_1q(rotation_matrix(0.3), 2.0), "site must be an integer"),
        (lambda sv, mps: mps.apply_2q(cx_matrix(), True, 2), "i must be an integer, got True"),
        (lambda sv, mps: mps.apply_2q(cx_matrix(), 1, 3.0), "j must be an integer, got 3.0"),
        (lambda sv, mps: mps.apply_2q(cx_matrix(), False, 3), "i must be an integer, got False"),
    ],
    ids=["sv-pair-i", "sv-pair-j", "sv-single", "sv-postselect", "sv-1q", "sv-cx-target",
         "sv-cx-control", "mps-single", "mps-postselect", "mps-1q", "mps-2q",
         "mps-long-range-j", "mps-long-range-i"],
)
def test_backend_methods_reject_a_non_integer_site(call, message):
    sv = StateVector.zeros(4).run_circuit(build_star(3, 0.7))
    mps = MatrixProductState(4).run_circuit(build_star(3, 0.7))
    with pytest.raises(ValueError, match=re.escape(message)):
        call(sv, mps)


def test_backend_methods_take_numpy_integer_sites():
    sv = StateVector.zeros(4).run_circuit(build_star(3, 0.7))
    mps = MatrixProductState(4).run_circuit(build_star(3, 0.7))
    two, four = np.int64(2), np.int32(4)
    assert np.array_equal(sv.pair_rdm(two, four), sv.pair_rdm(2, 4))
    assert np.array_equal(sv.apply_cx(two, four).amplitudes, sv.apply_cx(2, 4).amplitudes)
    assert np.array_equal(mps.single_rdm(two), copy.deepcopy(mps).single_rdm(2))
    assert copy.deepcopy(mps).postselect(four, 0) == mps.postselect(4, 0)


@pytest.mark.parametrize(
    "sites, message",
    [
        ((), "row of pairs from site 2 names no right site"),
        ((4, 3), "got 3 after 4"),
        ((3, 5, 5), "got 5 after 5"),
        ((2,), "got 2 after 2"),
        ((1, 3), "got 1 after 2"),
        ((3, 6), "site 6 outside 1..5"),
        ((0,), "got 0 after 2"),
    ],
    ids=["empty", "unsorted", "repeated", "equal-to-i", "left-of-i", "past-the-end", "zero"],
)
def test_row_read_rejects_a_bad_row(sites, message):
    stacked = MatrixProductState(5).run_circuit(build_star(4, (0.3, 1.2)))
    single = MatrixProductState(5).run_circuit(build_star(4, 0.3))
    for state, point in ((stacked, 1), (single, None)):
        with pytest.raises(ValueError, match=re.escape(message)):
            state.pair_rdm(2, sites, point=point)


def test_a_kept_row_is_known_by_its_own_tuple_and_its_left_site():
    """A read passing the kept row's own tuple and its ``i`` skips the site
    checks; an equal tuple of another object, or the kept tuple from another
    ``i``, is checked as any new row is."""
    state = MatrixProductState(6).run_circuit(build_star(5, (0.3, 1.2)))
    kept = (4, 5)
    state.pair_rdm(3, kept, point=0)
    assert np.array_equal(state.pair_rdm(3, kept, point=1), pair_rdm_at_point(state, 3, kept, 1))
    # equal to the kept tuple, yet its sites are not integers
    floats = (np.float64(4.0), np.float64(5.0))
    assert floats == kept
    with pytest.raises(ValueError, match=re.escape("j must be an integer, got np.float64(4.0)")):
        state.pair_rdm(3, floats, point=0)
    # the kept tuple from a left site it does not ascend from
    with pytest.raises(ValueError, match=re.escape("pair sites must ascend from i = 5, got 4 after 5")):
        state.pair_rdm(5, kept, point=0)
    with pytest.raises(ValueError, match=re.escape("got 4 after 4")):
        state.pair_rdm(4, kept, point=0)
    # and from one it does, it is that left site's row
    assert np.array_equal(state.pair_rdm(2, kept, point=1), pair_rdm_at_point(state, 2, kept, 1))
    assert np.array_equal(state.pair_rdm(3, kept, point=0), pair_rdm_at_point(state, 3, kept, 0))


def test_translation_invariance_of_bulk_pairs():
    for n in (20, 40, 60):
        for theta in (0.9, 2.4, 5.1):
            mps = MatrixProductState(n).run_circuit(build_linear(n, 4, theta))
            values = [
                wootters_concurrence(mps.pair_rdm(i, i + 1)) for i in range(2, n - 1)
            ]
            assert max(values) - min(values) < 1e-10


def test_postselect_matches_oracle():
    theta = 1.3
    circuit = build_star(4, theta)
    exact = StateVector.zeros(5).run_circuit(circuit)
    for outcome in (0, 1):
        sv, p_sv = exact.postselect(5, outcome)
        mps = MatrixProductState(5).run_circuit(circuit)
        for site in (1, 3, 5):
            assert np.abs(mps.single_rdm(site) - exact.single_rdm(site)).max() < 1e-12
        assert mps.center == 5  # where postselect needs it
        p_mps = mps.postselect(5, outcome)
        assert abs(p_sv - p_mps) < 1e-12
        assert abs(mps.norm() - 1.0) < 1e-12
        for pair in [(1, 2), (2, 4), (1, 4)]:
            assert np.abs(mps.pair_rdm(*pair) - sv.pair_rdm(*pair)).max() < 1e-12


def test_postselect_zero_probability_errors():
    mps = MatrixProductState(3)
    with pytest.raises(ValueError, match="zero probability"):
        mps.postselect(2, 1)


def test_postselect_rejects_an_outcome_other_than_0_or_1():
    with pytest.raises(ValueError, match="outcome must be 0 or 1, got 2"):
        MatrixProductState(3).postselect(2, 2)


def test_run_circuit_size_mismatch():
    with pytest.raises(ValueError, match="qubits"):
        MatrixProductState(5).run_circuit(build_linear(6, 4, 0.3))


def test_single_point_readers_reject_a_stacked_state():
    stacked = MatrixProductState(4).run_circuit(build_linear(4, 4, (0.3, 1.2)))
    assert stacked.grid == 2 and stacked.pair_rdm(2, 3, point=1).shape == (4, 4)
    single = MatrixProductState(4).run_circuit(build_linear(4, 4, 0.3))
    # without a point a stacked state reads its whole grid
    whole = np.array([stacked.pair_rdm(2, 3, point=k) for k in range(2)])
    assert np.array_equal(stacked.pair_rdm(2, 3), whole)
    for j in (3, (3, 4)):
        for point in (2, -1):
            with pytest.raises(ValueError, match=f"needs a point in 0..1, got {point}"):
                stacked.pair_rdm(2, j, point=point)
        for point in (0, -1, True):
            with pytest.raises(ValueError, match=f"point {point} given for a single-point state"):
                single.pair_rdm(2, j, point=point)
    with pytest.raises(ValueError, match="gates carry 3 grid points, the state stacks 2"):
        stacked.run_circuit(build_linear(4, 4, (0.3, 1.2, 2.0)))
    # a scalar gate acts on every grid point; a gate stack goes through run_circuit
    stacked.apply_1q(rotation_matrix(0.5), 1)
    with pytest.raises(ValueError, match=r"gate must be one 2x2 matrix, got shape \(2, 2, 2\)"):
        stacked.apply_1q(rotation_matrix((0.5, 0.6)), 1)


def test_stacked_postselect_names_the_dead_point():
    mps = MatrixProductState(4).run_circuit(build_star(3, (1.0, 0.0, 2.0)))
    with pytest.raises(ValueError, match="zero probability at stack index 1"):
        copy.deepcopy(mps).postselect(4, 0)
    mps.discarded_weight = np.array([1e-20, 2e-20, 3e-20])
    mps.keep_points([0, 2])
    assert mps.discarded_weight.tolist() == [1e-20, 3e-20]
    assert mps.discarded_weight_total == 3e-20
    probabilities = mps.postselect(4, 0)
    for theta, probability in zip((1.0, 2.0), probabilities):
        single = MatrixProductState(4).run_circuit(build_star(3, theta))
        assert abs(single.postselect(4, 0) - probability) < 1e-14


# ------------------------------------------------------------ swap routing


def _dense_2q(amplitudes: np.ndarray, n: int, gate: np.ndarray, a: int, b: int) -> np.ndarray:
    """``gate`` applied to qubits (a, b), basis |q_a q_b>, of every amplitude vector."""
    psi = amplitudes.reshape(amplitudes.shape[:-1] + (2,) * n)
    axes = [psi.ndim - n + a - 1, psi.ndim - n + b - 1]
    moved = np.moveaxis(psi, axes, [-2, -1])
    out = (moved.reshape(moved.shape[:-2] + (4,)) @ gate.T).reshape(moved.shape)
    return np.moveaxis(out, [-2, -1], axes).reshape(amplitudes.shape)


@st.composite
def routed_circuits(draw):
    """Rotations and CXs on up to 8 qubits, one angle or one angle tuple per
    rotation; many CXs share one qubit as control or target, so a routed
    qubit is routed again from where it was left."""
    n = draw(st.integers(3, 8))
    points = draw(st.sampled_from([None, 1, 3]))
    site = st.integers(1, n)
    hub = st.just(draw(site))
    angle = st.floats(-2 * np.pi, 2 * np.pi, allow_nan=False)
    theta = angle if points is None else st.tuples(*[angle] * points)
    rotation = st.builds(Rotation, site, theta)
    pair = st.tuples(site, site) | st.tuples(site, hub) | st.tuples(hub, site)
    cx = pair.filter(lambda p: p[0] != p[1]).map(lambda p: ControlledNot(*p))
    return Circuit(n, tuple(draw(st.lists(rotation | cx, min_size=1, max_size=24))))


@settings(max_examples=150, deadline=None)
@given(routed_circuits(), st.booleans(), st.data())
def test_routed_circuits_match_the_statevector(circuit, haar, data):
    """Distant CXs in both orientations, with controls right of their
    targets and repeated controls and targets, run through the swap route and
    leave every qubit on its own site: on stacked and single-point states,
    real and complex (a Haar gate through ``apply_2q`` before and
    after the circuit), the MPS is the statevector to 1e-12."""
    n = circuit.n_qubits
    mps, amplitudes = MatrixProductState(n), StateVector.zeros(n).amplitudes
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    for stage in ("before", "after"):
        if stage == "after":
            mps.run_circuit(circuit)
            amplitudes = StateVector(n, amplitudes).run_circuit(circuit).amplitudes
        if haar:
            a = data.draw(st.integers(1, n - 1))
            b = data.draw(st.integers(a + 1, n))
            gate = haar_unitary(rng, 4)
            mps.apply_2q(gate, a, b)
            amplitudes = _dense_2q(amplitudes, n, gate, a, b)
    assert mps.grid == circuit.grid
    assert np.result_type(*mps.tensors) == (np.complex128 if haar else np.float64)
    assert np.abs(mps_amplitudes(mps) - amplitudes).max() <= 1e-12
    assert mps.canonical_deviation() <= 1e-12
    assert mps.discarded_weight_total < 1e-14


PAIRS_OF_SIX = [(1, 2), (3, 4), (5, 6), (1, 3), (2, 5), (4, 6), (1, 6)]


@pytest.mark.parametrize("center", range(1, 7))
@pytest.mark.parametrize("i, j", PAIRS_OF_SIX, ids=[f"{i}-{j}" for i, j in PAIRS_OF_SIX])
def test_apply_2q_from_any_center(center, i, j):
    """Adjacent and distant pairs, at both chain ends and in the bulk, from
    every starting center: the state is the statevector's to 1e-12, stays
    canonical, and the center ends at i or i + 1."""
    rng = np.random.default_rng(100 * center + 10 * i + j)
    mps = random_small_mps(rng, n=6, layers=1)
    mps._move_center_to(center)
    amplitudes, gate = mps_amplitudes(mps), random_two_site_unitary(rng)
    mps.apply_2q(gate, i, j)
    assert np.abs(mps_amplitudes(mps) - _dense_2q(amplitudes, 6, gate, i, j)).max() <= 1e-12
    assert mps.canonical_deviation() <= 1e-12
    assert mps.center in (i, i + 1)


@pytest.mark.parametrize("center_left", [True, False])
@pytest.mark.parametrize("i", range(1, 6))
def test_apply_2q_next_to_the_center_is_one_update(i, center_left):
    """With the center already on i or i + 1, an adjacent pair is bitwise the
    one nearest-neighbor update there, and the center keeps its side."""
    rng = np.random.default_rng(i)
    mps = random_small_mps(rng, n=6, layers=1)
    mps._move_center_to(i if center_left else i + 1)
    reference, gate = copy.deepcopy(mps), random_two_site_unitary(rng)
    mps.apply_2q(gate, i, i + 1)
    reference._apply_2q(lift(gate, reference.tensors[i].shape[-1]), i, center_left=center_left)
    assert mps.center == reference.center == (i if center_left else i + 1)
    assert all(np.array_equal(a, b) for a, b in zip(mps.tensors, reference.tensors))
    assert np.array_equal(mps.discarded_weight, reference.discarded_weight)


@pytest.mark.parametrize("points", [None, 5], ids=["single", "stack-5"])
@pytest.mark.parametrize("l, r", [(l, r) for l in (1, 2, 4) for r in (1, 2, 4)])
def test_the_lifted_two_site_update_is_the_batched_product(monkeypatch, l, r, points):
    """The two-site update's gate is one ``(P l, 4r) @ lift(g, r)`` matmul; the
    block it hands to the split is the batched ``g @ block`` of P l 4x4 products,
    exactly for CX and SWAP and to within 8 eps max|block| for Haar gates. Its
    bits depend on the BLAS kernel, so the CI runs this under several."""
    rng = np.random.default_rng(10 * l + r + (points or 0))
    lead = () if points is None else (points,)
    split = MatrixProductState._split
    blocks = []
    monkeypatch.setattr(MatrixProductState, "_split",
                        lambda self, block: blocks.append(block) or split(self, block))
    gates = [cx_matrix(control_first=True), cx_matrix(control_first=False), symm_ent.mps.SWAP,
             haar_unitary(rng, 4), haar_unitary(rng, 4)]
    for g in gates:
        state = MatrixProductState(4)
        shapes = [(1, 2, l), (l, 2, 2), (2, 2, r), (r, 2, 1)]
        state.tensors = [rng.standard_normal(lead + shape) + 1j * rng.standard_normal(lead + shape)
                         for shape in shapes]
        state.grid, state.discarded_weight = points, np.zeros(lead)
        left, right = state.tensors[1], state.tensors[2]
        pair = left.reshape(lead + (2 * l, 2)) @ right.reshape(lead + (2, 2 * r))
        batched = (g @ pair.reshape(lead + (l, 4, r))).reshape(pair.shape)
        blocks.clear()
        state._apply_2q(lift(g, r), 2, True)
        (block,) = blocks
        if np.iscomplexobj(g):
            eps = np.finfo(float).eps
            assert np.abs(block - batched).max() <= 8 * eps * np.abs(batched).max()
        else:
            assert np.array_equal(block, batched)


@pytest.mark.parametrize("points", [None, 5], ids=["single", "stack-5"])
@pytest.mark.parametrize("l, r", [(l, r) for l in (1, 2, 4) for r in (1, 2, 4)])
def test_the_lifted_one_site_gate_is_the_batched_product(l, r, points):
    """A one-site gate runs through ``_run`` as one ``(..., l, 2r) @ lift(g, r)``
    matmul; on random real and complex tensors it is the batched ``g @ t`` of
    P l 2x2 products to within 4 eps max|t|, and bitwise on an untouched |0>
    tensor. Its bits depend on the BLAS kernel, so the CI runs this under several."""
    rng = np.random.default_rng(100 + 10 * l + r + (points or 0))
    lead = () if points is None else (points,)
    count = points or 1
    gates = [  # a rotation is symmetric, so the other two also tell g from g^T
        rotation_matrix(tuple(rng.uniform(0, 2 * np.pi, count))),
        np.array([np.linalg.qr(rng.standard_normal((2, 2)))[0] for _ in range(count)]),
        np.array([haar_unitary(rng, 2) for _ in range(count)]),
    ]
    eps = np.finfo(float).eps
    for g in (g.reshape(lead + (2, 2)) for g in gates):
        for dtype in (float, complex):
            state = MatrixProductState(3)
            state._stack(points)
            zero = state.tensors[0]
            t = rng.standard_normal(lead + (l, 2, r))
            if dtype is complex:
                t = t + 1j * rng.standard_normal(t.shape)
            state.tensors[1] = t
            state._run([(g, 1, False), (g, 2, False)])
            assert np.array_equal(state.tensors[0], g[..., None, :, :] @ zero)
            batched = g[..., None, :, :] @ t
            assert np.abs(state.tensors[1] - batched).max() <= 4 * eps * np.abs(t).max()


def test_star_run_is_linear_in_the_outer_qubits(monkeypatch):
    # one CX per outer qubit and one SWAP out and one home per outer qubit
    # past the first, each split at rank <= 2: O(n) work for the whole star
    kept = []
    original = symm_ent.mps.svd_truncate

    def recording(matrix, max_rank):
        result = original(matrix, max_rank)
        kept.append(result.singular_values.shape[-1])
        return result

    monkeypatch.setattr(symm_ent.mps, "svd_truncate", recording)
    for n_outer in range(1, 21):
        for theta in (0.9, (0.9, 2.3, 4.0)):
            kept.clear()
            mps = MatrixProductState(n_outer + 1).run_circuit(build_star(n_outer, theta))
            assert len(kept) <= 3 * n_outer
            assert max(kept) <= 2
            assert mps.discarded_weight_total < 1e-14
