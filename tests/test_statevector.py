import numpy as np
import pytest

import symm_ent.statevector
from symm_ent import (
    Rotation,
    StateVector,
    build_linear,
    build_periodic,
    build_star,
    rotation_matrix,
)

from oracles import brute_pair_rdm, brute_postselect, brute_single_rdm, haar_unitary


def test_zeros_examples():
    assert np.allclose(StateVector.zeros(1).amplitudes, [1, 0])
    assert np.allclose(StateVector.zeros(2).amplitudes, [1, 0, 0, 0])
    big = StateVector.zeros(12)
    assert big.amplitudes.shape == (4096,)
    assert big.amplitudes[0] == 1.0 and abs(big.norm() - 1) < 1e-12


@pytest.mark.parametrize("n", [0, 13])
def test_zeros_rejects_out_of_range(n):
    with pytest.raises(ValueError):
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
    with pytest.raises(ValueError):
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
    with pytest.raises(ValueError):
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
    """Dimensions of every ``require_unitary`` call the statevector makes."""
    calls = []
    original = symm_ent.statevector.require_unitary

    def counting(matrix, dim, *args, **kwargs):
        calls.append(dim)
        return original(matrix, dim, *args, **kwargs)

    monkeypatch.setattr(symm_ent.statevector, "require_unitary", counting)
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
