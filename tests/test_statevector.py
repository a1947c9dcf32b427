import numpy as np
import pytest
from hypothesis import given, settings

import symm_ent.linalg
import symm_ent.statevector
from symm_ent import (
    MatrixProductState,
    Rotation,
    StateVector,
    build_linear,
    build_periodic,
    build_star,
    rotation_matrix,
)

from oracles import brute_pair_rdm, brute_postselect, brute_single_rdm, haar_unitary
from test_mps_properties import BRANCH_FLOOR, protocol_grids


def test_zeros_examples():
    assert np.allclose(StateVector.zeros(1).amplitudes, [1, 0])
    assert np.allclose(StateVector.zeros(2).amplitudes, [1, 0, 0, 0])
    big = StateVector.zeros(12)
    assert big.amplitudes.shape == (4096,)
    assert big.amplitudes[0] == 1.0 and abs(big.norm() - 1) < 1e-12


@pytest.mark.parametrize("n", [0, 13])
def test_zeros_rejects_out_of_range(n):
    with pytest.raises(ValueError, match=f"statevector backend supports 1..12 qubits, got {n}"):
        StateVector.zeros(n)


def test_rotation_special_angles():
    sv = StateVector.zeros(1)
    assert np.allclose(sv.apply_1q(rotation_matrix(0.0), 1).amplitudes, [0, 1])  # X
    assert np.allclose(sv.apply_1q(rotation_matrix(np.pi), 1).amplitudes, [1, 0])  # Z
    plus = sv.apply_1q(rotation_matrix(np.pi / 2), 1).amplitudes
    assert np.allclose(plus, [1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_apply_1q_validation():
    sv = StateVector.zeros(2)
    with pytest.raises(ValueError, match="not unitary"):
        sv.apply_1q(np.array([[1.0, 0.0], [1.0, 1.0]]), 1)
    with pytest.raises(ValueError, match="site 3 outside 1..2"):
        sv.apply_1q(rotation_matrix(0.3), 3)


def test_apply_1q_mixes_only_target_bit(rng):
    sv = StateVector.zeros(3).apply_1q(rotation_matrix(0.8), 2)
    amps = sv.amplitudes
    # qubits 1 and 3 stay |0>, so only indices 000 and 010 are populated
    assert abs(amps[0b000]) > 0 and abs(amps[0b010]) > 0
    assert np.abs(np.delete(amps, [0b000, 0b010])).max() == 0.0


def test_cx_examples():
    sv = StateVector(2, [0, 0, 1, 0]).apply_cx(1, 2)  # |10> -> |11>
    assert np.allclose(sv.amplitudes, [0, 0, 0, 1])
    sv = StateVector.zeros(2).apply_cx(1, 2)
    assert np.allclose(sv.amplitudes, [1, 0, 0, 0])
    bell = StateVector.zeros(2).apply_1q(rotation_matrix(np.pi / 2), 1).apply_cx(1, 2)
    assert np.allclose(bell.amplitudes, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)])


def test_cx_rejects_equal_sites():
    with pytest.raises(ValueError, match="control and target must differ"):
        StateVector.zeros(2).apply_cx(1, 1)


def test_norm_preserved_by_random_circuit(rng):
    sv = StateVector.zeros(5)
    for _ in range(40):
        if rng.random() < 0.5:
            sv = sv.apply_1q(haar_unitary(rng), int(rng.integers(1, 6)))
        else:
            i, j = rng.choice(np.arange(1, 6), size=2, replace=False)
            sv = sv.apply_cx(int(i), int(j))
    assert abs(sv.norm() - 1.0) < 1e-12


def test_pair_rdm_product_state():
    sv = StateVector(2, [0, 1, 0, 0])  # |01>
    rho = sv.pair_rdm(1, 2)
    expected = np.zeros((4, 4))
    expected[1, 1] = 1.0
    assert np.abs(rho - expected).max() < 1e-15


def test_pair_rdm_bell():
    bell = StateVector.zeros(2).apply_1q(rotation_matrix(np.pi / 2), 1).apply_cx(1, 2)
    rho = bell.pair_rdm(1, 2)
    expected = np.zeros((4, 4))
    for r in (0, 3):
        for c in (0, 3):
            expected[r, c] = 0.5
    assert np.abs(rho - expected).max() < 1e-12


def test_pair_rdm_against_brute_force(rng):
    sv = StateVector.zeros(5)
    for _ in range(25):
        sv = sv.apply_1q(haar_unitary(rng), int(rng.integers(1, 6)))
        i, j = rng.choice(np.arange(1, 6), size=2, replace=False)
        sv = sv.apply_cx(int(i), int(j))
    for (i, j) in [(1, 2), (2, 5), (4, 3), (1, 5)]:
        rho = sv.pair_rdm(i, j)
        assert np.abs(rho - brute_pair_rdm(sv.amplitudes, 5, i, j)).max() < 1e-12
        assert np.abs(rho - rho.conj().T).max() < 1e-12
        assert abs(np.trace(rho).real - 1.0) < 1e-12
        assert np.linalg.eigvalsh(rho).min() > -1e-12


def test_pair_rdm_star_central_pair_at_half_pi():
    # direct partial trace of the star state, basis |central, outer|
    sv = StateVector.zeros(4).run_circuit(build_star(3, np.pi / 2))
    rho = sv.pair_rdm(4, 1)
    assert np.abs(rho - brute_pair_rdm(sv.amplitudes, 4, 4, 1)).max() < 1e-12
    a = b = 1 / np.sqrt(2)
    expected = np.array(
        [
            [a**6 + a**2 * b**4, 0, 0, a**5 * b + a * b**5],
            [0, 2 * a**2 * b**4, 2 * a**3 * b**3, 0],
            [0, 2 * a**3 * b**3, 2 * a**4 * b**2, 0],
            [a**5 * b + a * b**5, 0, 0, a**4 * b**2 + b**6],
        ]
    )
    assert np.abs(rho - expected).max() < 1e-12


def test_partial_trace_consistency(rng):
    sv = StateVector.zeros(4)
    for site in range(1, 5):
        sv = sv.apply_1q(haar_unitary(rng), site)
    sv = sv.apply_cx(1, 3).apply_cx(2, 4)
    for i in range(1, 5):
        single = sv.single_rdm(i)
        assert np.abs(single - brute_single_rdm(sv.amplitudes, 4, i)).max() < 1e-12
        j = 1 + (i % 4)
        pair = sv.pair_rdm(i, j).reshape(2, 2, 2, 2)
        traced = np.einsum("abcb->ac", pair)
        assert np.abs(traced - single).max() < 1e-12


def test_postselect_examples():
    plus = StateVector(1, np.array([1, 1]) / np.sqrt(2))
    state, p = plus.postselect(1, 0)
    assert np.allclose(state.amplitudes, [1, 0]) and abs(p - 0.5) < 1e-12
    bell = StateVector.zeros(2).apply_1q(rotation_matrix(np.pi / 2), 1).apply_cx(1, 2)
    state, p = bell.postselect(1, 0)
    assert np.allclose(state.amplitudes, [1, 0, 0, 0]) and abs(p - 0.5) < 1e-12


def test_postselect_star_branch_probability():
    theta = 1.1
    a, b = np.sin(theta / 2), np.cos(theta / 2)
    sv = StateVector.zeros(4).run_circuit(build_star(3, theta))
    projected, p0 = sv.postselect(4, 0)
    assert abs(p0 - (a**6 + 3 * a**2 * b**4)) < 1e-12
    expected, p_brute = brute_postselect(sv.amplitudes, 4, 4, 0)
    assert abs(p0 - p_brute) < 1e-12
    assert np.abs(projected.amplitudes - expected).max() < 1e-12
    _, p1 = sv.postselect(4, 1)
    assert abs(p0 + p1 - 1.0) < 1e-12


def test_postselect_zero_probability_errors():
    with pytest.raises(ValueError, match="zero probability"):
        StateVector.zeros(2).postselect(1, 1)


def test_postselect_rejects_an_outcome_other_than_0_or_1():
    with pytest.raises(ValueError, match="outcome must be 0 or 1, got 2"):
        StateVector.zeros(3).postselect(2, 2)


def test_star_permutation_symmetry():
    for n_outer in (3, 4, 5):
        central = n_outer + 1
        for theta in np.linspace(0.0, 2 * np.pi, 51):
            sv = StateVector.zeros(central).run_circuit(build_star(n_outer, theta))
            reference = sv.pair_rdm(central, 1)
            for k in range(2, n_outer + 1):
                assert np.abs(sv.pair_rdm(central, k) - reference).max() < 1e-12


def test_amplitudes_are_read_only():
    sv = StateVector.zeros(2)
    with pytest.raises(ValueError):
        sv.amplitudes[0] = 0.0


@pytest.fixture
def unitary_checks(monkeypatch):
    """Dimensions of every ``require_unitary`` call the statevector makes,
    directly or through ``require_single_gate``."""
    calls = []
    original = symm_ent.statevector.require_unitary

    def counting(matrix, dim, *args, **kwargs):
        calls.append(dim)
        return original(matrix, dim, *args, **kwargs)

    monkeypatch.setattr(symm_ent.statevector, "require_unitary", counting)
    monkeypatch.setattr(symm_ent.linalg, "require_unitary", counting)
    return calls


@pytest.mark.parametrize(
    ("circuit", "distinct_angles"),
    [(build_star(6, 0.9), 1), (build_linear(8, 4, 0.9), 1), (build_periodic(8, 0.9, 2.3), 2)],
)
def test_run_circuit_validates_each_distinct_rotation_once(circuit, distinct_angles, unitary_checks):
    state = StateVector.zeros(circuit.n_qubits).run_circuit(circuit)
    assert unitary_checks == [2] * distinct_angles
    # gate by gate through the public methods, which validate every call
    expected = StateVector.zeros(circuit.n_qubits)
    for op in circuit.ops:
        if isinstance(op, Rotation):
            expected = expected.apply_1q(rotation_matrix(op.theta), op.site)
        else:
            expected = expected.apply_cx(op.control, op.target)
    rotations = sum(isinstance(op, Rotation) for op in circuit.ops)
    assert len(unitary_checks) == distinct_angles + rotations
    assert state.amplitudes.tobytes() == expected.amplitudes.tobytes()


def test_run_circuit_runs_angle_tuples_stacked():
    circuit = build_star(3, (0.5, 0.7))
    state = StateVector.zeros(4).run_circuit(circuit)
    assert state.grid == 2 and state.amplitudes.shape == (2, 16)
    for k, theta in enumerate((0.5, 0.7)):
        single = StateVector.zeros(4).run_circuit(build_star(3, theta))
        assert single.grid is None
        assert state.amplitudes[k].tobytes() == single.amplitudes.tobytes()


# ------------------------------------------------- grid-stacked statevector


def _same(stacked_value, single_value) -> bool:
    return np.asarray(stacked_value).tobytes() == np.asarray(single_value).tobytes()


@settings(max_examples=80, deadline=None)
@given(protocol_grids())
def test_stacked_run_matches_single_point_runs(grid):
    """Every point of a stacked run is bitwise its own single-point run."""
    build, n, points, outcome = grid
    stacked = StateVector.zeros(n).run_circuit(build(*map(tuple, zip(*points))))
    singles = [StateVector.zeros(n).run_circuit(build(*point)) for point in points]
    assert stacked.grid == len(points) and stacked.amplitudes.dtype == np.float64
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    stacked_pairs = {pair: stacked.pair_rdm(*pair) for pair in pairs}
    # every other site, in descending order, so rows cross the chunk boundary
    rows = {i: tuple(j for j in range(n, 0, -1) if j != i) for i in range(1, n + 1)}
    stacked_rows = {i: stacked.pair_rdm(i, row) for i, row in rows.items()}
    for site in range(1, n + 1):
        stacked_single = stacked.single_rdm(site)
        assert stacked_single.shape == (len(points), 2, 2)
        for k, single in enumerate(singles):
            assert _same(stacked_single[k], single.single_rdm(site))
    for k, single in enumerate(singles):
        assert single.amplitudes.dtype == np.float64
        assert _same(stacked.amplitudes[k], single.amplitudes)
        for pair, rdms in stacked_pairs.items():
            assert rdms.dtype == np.float64
            assert _same(rdms[k], single.pair_rdm(*pair))
        for i, rdms in stacked_rows.items():
            assert rdms.shape == (n - 1, len(points), 4, 4) and rdms.dtype == np.float64
            assert _same(rdms[:, k], single.pair_rdm(i, rows[i]))
    if outcome is None:
        return
    weights = stacked.single_rdm(n)[:, outcome, outcome]
    alive = np.flatnonzero(weights >= BRANCH_FLOOR)
    if alive.size == 0:
        return
    projected, probabilities = stacked.keep_points(alive).postselect(n, outcome)
    assert projected.grid == alive.size and probabilities.dtype == np.float64
    for k, index in enumerate(alive):
        single, probability = singles[index].postselect(n, outcome)
        assert isinstance(probability, float) and probabilities[k] == probability
        assert _same(projected.amplitudes[k], single.amplitudes)


@pytest.mark.parametrize("backend", [StateVector.zeros, MatrixProductState],
                         ids=["statevector", "mps"])
def test_both_backends_keep_points_and_read_rows_alike(backend):
    """The stacked-state contract the sweeps rely on: a row read without a
    point is the ``(len(row), P, 4, 4)`` stack on either backend, and
    ``keep_points`` returns the state to read next, whose row read is bitwise
    the kept columns of that stack."""
    state = backend(6).run_circuit(build_star(5, (0.3, 1.1, 2.0, 4.4)))
    whole = state.pair_rdm(2, (3, 4, 6))
    assert whole.shape == (3, 4, 4, 4) and whole.dtype == np.float64
    assert state.pair_rdm(2, 6).shape == (4, 4, 4)
    kept = state.keep_points([3, 1])
    assert kept.grid == 2
    assert _same(kept.pair_rdm(2, (3, 4, 6)), whole[:, [3, 1]])


def test_gate_kernel_is_the_tensordot_contraction(rng):
    """Each site's rotation equals contracting the gate into that axis, bit
    for bit, on one point and on a stack, so grid stacking moves no printed digit."""
    n = 7
    stack = rng.standard_normal((3, 2**n))
    gates = rotation_matrix((0.3, 1.9, 4.4))
    for site in range(1, n + 1):
        rotated = StateVector(n, stack)._apply_1q(gates, site)
        for k in range(3):
            grid = stack[k].reshape((2,) * n)
            contracted = np.tensordot(gates[k], grid, axes=([1], [site - 1]))
            expected = np.moveaxis(contracted, 0, site - 1)
            assert _same(rotated.amplitudes[k], expected.ravel())
            single = StateVector(n, stack[k]).apply_1q(gates[k], site)
            assert _same(single.amplitudes, expected.ravel())


@pytest.mark.parametrize("points", [None, 16], ids=["single", "stack-16"])
@pytest.mark.parametrize("n", [3, 6, 9, 12])
def test_short_trailing_blocks_are_the_batched_2x2_product(n, points):
    """Every site with at most 8 amplitudes after each of its bits takes one
    ``(..., 2T) @ lift(g, T)`` product per point; it is the batched 2x2 product
    ``g @ psi`` to within 4 eps max|psi|, for protocol rotations and for Haar
    gates on complex amplitudes. Its bits depend on the BLAS kernel, so the CI
    runs this under several."""
    rng = np.random.default_rng(1000 * n + (points or 1))
    lead = () if points is None else (points,)
    eps = np.finfo(float).eps
    for site in range(max(1, n - 3), n + 1):
        trail = 2 ** (n - site)
        for _ in range(4):
            angles = rng.uniform(0.0, 2 * np.pi, lead)
            rotation = rotation_matrix(tuple(angles) if lead else float(angles))
            haar = np.array([haar_unitary(rng) for _ in range(points or 1)]).reshape(lead + (2, 2))
            real = rng.standard_normal(lead + (2**n,))
            amplitudes = real + 1j * rng.standard_normal(lead + (2**n,))
            for g, psi in ((rotation, real), (haar, amplitudes)):
                psi = psi / np.linalg.norm(psi, axis=-1, keepdims=True)
                state = StateVector(n, psi)
                out = state._apply_1q(g, site).amplitudes
                batched = g[..., None, :, :] @ psi.reshape(lead + (2 ** (site - 1), 2, trail))
                assert out.dtype == batched.dtype
                assert np.abs(out - batched.reshape(out.shape)).max() <= 4 * eps * np.abs(psi).max()


def test_stacked_postselect_names_the_dead_point():
    # at theta = 0 every outer qubit flips, so the central qubit of three is |1>
    state = StateVector.zeros(4).run_circuit(build_star(3, (1.0, 0.0, 2.0)))
    dead = "outcome 0 at site 4 has zero probability at stack index 1"
    with pytest.raises(ValueError, match=dead):
        state.postselect(4, 0)
    _, probabilities = state.postselect(4, 1)
    assert probabilities.shape == (3,) and probabilities[1] == 1.0


def test_stacked_state_checks():
    state = StateVector.zeros(3).run_circuit(build_linear(3, 4, (0.4, 1.3)))
    with pytest.raises(ValueError, match="gates carry 3 grid points, the state stacks 2"):
        state.run_circuit(build_linear(3, 4, (0.4, 1.3, 2.0)))
    # one public gate acts on every point; a stack of gates is a circuit's job
    rotated = state.apply_1q(rotation_matrix(0.9), 2)
    for k in range(2):
        single = StateVector(3, state.amplitudes[k]).apply_1q(rotation_matrix(0.9), 2)
        assert _same(rotated.amplitudes[k], single.amplitudes)
    with pytest.raises(ValueError, match=r"gate must be one 2x2 matrix, got shape \(2, 2, 2\)"):
        state.apply_1q(rotation_matrix((0.1, 0.2)), 1)
    assert np.abs(state.norm() - 1.0).max() < 1e-12 and state.norm().shape == (2,)
    assert _same(state.keep_points([1]).amplitudes, state.amplitudes[1:])
    with pytest.raises(ValueError, match="non-empty 1-d index array"):
        state.keep_points([])
    with pytest.raises(ValueError, match="keep_points needs a grid-stacked state"):
        StateVector.zeros(3).keep_points([0])
    for shape in [(0, 8), (2, 4), (1, 2, 8), ()]:
        with pytest.raises(ValueError, match="amplitudes must have shape"):
            StateVector(3, np.ones(shape))
    assert StateVector(3, np.ones((1, 8))).grid == 1


# ------------------------------------------------------------- row reads


def _random_state(rng, n, grid=None) -> StateVector:
    lead = () if grid is None else (grid,)
    amps = rng.standard_normal(lead + (2**n,)) + 1j * rng.standard_normal(lead + (2**n,))
    return StateVector(n, amps / np.linalg.norm(amps, axis=-1, keepdims=True))


@pytest.mark.parametrize("grid", [None, 3])
def test_row_read_matches_one_pair_reads(rng, grid):
    """Each pair of a row, one chunk or several, is its one-pair read to roundoff."""
    n = 8
    state = _random_state(rng, n, grid)
    lead = () if grid is None else (grid,)
    chunk = symm_ent.statevector.ROW_CHUNK
    for i in range(1, n + 1):
        others = [j for j in range(1, n + 1) if j != i]
        for size in (1, 2, chunk, chunk + 1, n - 1):
            row = tuple(int(j) for j in rng.choice(others, size=size, replace=False))
            rdms = state.pair_rdm(i, row)
            assert rdms.shape == (size,) + lead + (4, 4) and rdms.dtype == np.complex128
            for rho, j in zip(rdms, row):
                assert np.abs(rho - state.pair_rdm(i, j)).max() < 1e-14
    # against the enumerated partial trace too, for one row across the chunk boundary
    single = _random_state(rng, 6)
    for rho, j in zip(single.pair_rdm(3, (6, 1, 5, 2, 4)), (6, 1, 5, 2, 4)):
        assert np.abs(rho - brute_pair_rdm(single.amplitudes, 6, 3, j)).max() < 1e-14


@pytest.mark.parametrize("grid", [None, 2])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_twelve_qubit_rows_match_the_enumerated_partial_trace(rng, kind, grid):
    """The Gram copies the state with the read sites last. At 12 qubits, rows
    from either end of the register that reach the other end and cross the
    ROW_CHUNK boundary are the enumerated partial trace to roundoff, and a
    one-site row is bitwise the Gram of its pair."""
    n = 12
    state = _random_state(rng, n, grid)
    if kind == "real":
        amps = state.amplitudes.real
        state = StateVector(n, amps / np.linalg.norm(amps, axis=-1, keepdims=True))
    points = state.amplitudes.reshape(-1, 2**n)
    for i, row in ((1, (12, 2, 7, 11, 3)), (12, (1, 6, 11, 2, 9)), (6, (12, 1, 5, 7, 10))):
        assert len(row) > symm_ent.statevector.ROW_CHUNK
        rdms = state.pair_rdm(i, row)
        assert rdms.dtype == (np.float64 if kind == "real" else np.complex128)
        for rho, j in zip(rdms, row):
            for k, amplitudes in enumerate(points):
                expected = brute_pair_rdm(amplitudes, n, i, j)
                assert np.abs(rho.reshape(-1, 4, 4)[k] - expected).max() < 1e-14
    for i, j in ((1, 12), (12, 1), (6, 7), (7, 6)):
        assert _same(state.pair_rdm(i, (j,))[0], state._gram((i, j)))


def test_one_site_row_is_bitwise_the_pair_read(rng):
    """A chunk of one site traces nothing: the read is the pair's own Gram."""
    for grid in (None, 4):
        state = _random_state(rng, 5, grid)
        for i in range(1, 6):
            for j in range(1, 6):
                if i != j:
                    row = state.pair_rdm(i, (j,))
                    assert row.shape[0] == 1 and _same(row[0], state.pair_rdm(i, j))
                    assert _same(row[0], state._gram((i, j)))


@pytest.mark.parametrize(
    ("i", "j", "message"),
    [
        (2, (), "row of pairs from site 2 names no site j"),
        (2, (3, 5, 3), r"pair sites must differ: i = 2, j = \(3, 5, 3\)"),
        (2, (3, 2, 4), r"pair sites must differ: i = 2, j = \(3, 2, 4\)"),
        (2, 2, "pair sites must differ: i = 2, j = 2"),
        (2, (3, 6), "j 6 outside 1..5"),
        (2, (0, 3), "j 0 outside 1..5"),
        (6, (3,), "i 6 outside 1..5"),
        (2, (3, 1.0), "j must be an integer, got 1.0"),
    ],
)
def test_row_read_checks_name_the_argument(i, j, message):
    with pytest.raises(ValueError, match=message):
        StateVector.zeros(5).pair_rdm(i, j)
