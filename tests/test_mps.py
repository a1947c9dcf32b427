import numpy as np
import pytest

from symm_ent import (
    MatrixProductState,
    StateVector,
    build_linear,
    build_periodic,
    build_star,
    cx_matrix,
    rotation_matrix,
    wootters_concurrence,
)
from symm_ent.formulas import analytic_concurrence, unitary_params

from oracles import haar_unitary


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
            mps._move_center_to(site)
            mps.apply_2q(random_two_site_unitary(rng), site)
    return mps


def test_init_examples():
    mps = MatrixProductState(10)
    assert all(t.shape == (1, 2, 1) for t in mps.tensors)
    assert mps.center == 1
    big = MatrixProductState(60)
    assert abs(big.norm() - 1.0) < 1e-12 and big.center == 1
    assert np.allclose(MatrixProductState(2).to_statevector().amplitudes, [1, 0, 0, 0])


def test_init_validation():
    with pytest.raises(ValueError):
        MatrixProductState(1)


def test_apply_1q_examples():
    mps = MatrixProductState(2)
    mps.apply_1q(rotation_matrix(np.pi / 2), 1)
    expected = np.zeros(4)
    expected[0b00] = 1 / np.sqrt(2)
    expected[0b10] = 1 / np.sqrt(2)
    assert np.abs(mps.to_statevector().amplitudes - expected).max() < 1e-12
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
    overlap = np.vdot(sv.amplitudes, mps.to_statevector().amplitudes)
    assert abs(abs(overlap) - 1.0) < 1e-12


def test_shift_center_round_trip(rng):
    mps = random_small_mps(rng)
    reference = mps.to_statevector().amplitudes
    mps._move_center_to(1)
    original = mps.copy()
    mps.shift_center("right")
    mps.shift_center("left")
    fidelity = abs(original.overlap(mps))
    assert abs(fidelity - 1.0) < 1e-12
    assert np.abs(mps.to_statevector().amplitudes - reference).max() < 1e-12


def test_shift_center_restores_isometries(rng):
    mps = random_small_mps(rng)
    for target in (1, 6, 3):
        mps._move_center_to(target)
        assert mps.center == target
        assert mps.canonical_deviation() < 1e-12


def test_shift_center_boundary_errors():
    mps = MatrixProductState(3)
    with pytest.raises(ValueError, match="boundary"):
        mps.shift_center("left")
    mps._move_center_to(3)
    with pytest.raises(ValueError, match="boundary"):
        mps.shift_center("right")
    with pytest.raises(ValueError, match="direction"):
        mps.shift_center("up")


def test_apply_2q_identity_on_zero_state():
    mps = MatrixProductState(2)
    mps.apply_2q(cx_matrix(), 1)
    assert mps.bond_dimensions == [1]
    assert np.allclose(mps.to_statevector().amplitudes, [1, 0, 0, 0])


def test_apply_2q_bell_singular_values():
    mps = MatrixProductState(2)
    mps.apply_1q(rotation_matrix(np.pi / 2), 1)
    mps.apply_2q(cx_matrix(), 1)
    values = mps.schmidt_values(1)
    assert np.abs(values - np.array([1, 1]) / np.sqrt(2)).max() < 1e-12


def test_apply_2q_requires_center_adjacency():
    mps = MatrixProductState(4)
    mps._move_center_to(4)
    with pytest.raises(ValueError, match="center"):
        mps.apply_2q(cx_matrix(), 1)


def test_run_circuit_case4_staircase_bonds():
    mps = MatrixProductState(20)
    mps.run_circuit(build_linear(20, 4, np.pi / 4))
    assert mps.max_bond_dimension <= 2
    assert mps.discarded_weight_total < 1e-14
    assert mps.canonical_deviation() < 1e-10


def test_run_circuit_zero_angle_gives_basis_state():
    mps = MatrixProductState(6)
    mps.run_circuit(build_linear(6, 4, 0.0))
    assert mps.bond_dimensions == [1, 1, 1, 1, 1]
    amps = mps.to_statevector().amplitudes
    assert abs(abs(amps[0b100001]) - 1.0) < 1e-12


def test_periodic_reduces_to_case4():
    theta = 0.77
    a = MatrixProductState(8).run_circuit(build_periodic(8, theta, theta))
    b = MatrixProductState(8).run_circuit(build_linear(8, 4, theta))
    assert np.abs(a.to_statevector().amplitudes - b.to_statevector().amplitudes).max() < 1e-12


@pytest.mark.parametrize("case", [1, 2, 3, 4])
def test_chain_circuits_match_oracle(case):
    for theta in (0.7, 2.9, 4.4):
        sv = StateVector.zeros(10).run_circuit(build_linear(10, case, theta))
        mps = MatrixProductState(10).run_circuit(build_linear(10, case, theta))
        assert np.abs(mps.to_statevector().amplitudes - sv.amplitudes).max() < 1e-12
        assert mps.discarded_weight_total < 1e-14


def test_star_circuit_long_range_matches_oracle():
    for n_outer in (3, 5, 8):
        for theta in (0.7, 2.1, 3.8):
            circuit = build_star(n_outer, theta)
            sv = StateVector.zeros(n_outer + 1).run_circuit(circuit)
            mps = MatrixProductState(n_outer + 1).run_circuit(circuit)
            assert np.abs(mps.to_statevector().amplitudes - sv.amplitudes).max() < 1e-12
            assert mps.discarded_weight_total < 1e-14
            assert mps.max_bond_dimension <= 2


def test_long_range_gate_agrees_with_dense_application(rng):
    # random unitary on a distant pair, checked against the exact backend
    mps = random_small_mps(rng, n=5, layers=1)
    dense = mps.to_statevector().amplitudes.reshape((2,) * 5)
    gate = random_two_site_unitary(rng)
    mps.apply_2q_long_range(gate, 2, 5)
    # contract the gate onto axes (1, 4) of the dense tensor
    g = gate.reshape(2, 2, 2, 2)
    expected = np.einsum("qsab,xaycb->xqycs", g, dense)
    assert np.abs(mps.to_statevector().amplitudes - expected.ravel()).max() < 1e-12


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
    sv = mps.to_statevector()
    for pair in [(1, 2), (3, 4), (5, 6), (1, 6), (2, 5), (1, 4)]:
        assert np.abs(mps.pair_rdm(*pair) - sv.pair_rdm(*pair)).max() < 1e-12


def test_pair_rdm_validation():
    mps = MatrixProductState(4)
    with pytest.raises(ValueError):
        mps.pair_rdm(3, 3)
    with pytest.raises(ValueError):
        mps.pair_rdm(3, 2)


def test_translation_invariance_of_bulk_pairs():
    for n in (20, 40, 60):
        for theta in (0.9, 2.4, 5.1):
            mps = MatrixProductState(n).run_circuit(build_linear(n, 4, theta))
            values = [
                wootters_concurrence(mps.pair_rdm(i, i + 1)) for i in range(2, n - 1)
            ]
            assert max(values) - min(values) < 1e-10


def test_to_statevector_caps_at_oracle_size():
    with pytest.raises(ValueError, match="capped"):
        MatrixProductState(13).to_statevector()


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


def test_run_circuit_size_mismatch():
    with pytest.raises(ValueError, match="qubits"):
        MatrixProductState(5).run_circuit(build_linear(6, 4, 0.3))
