import math

import numpy as np
import pytest

from symm_ent import (
    StateVector,
    analytic_concurrence,
    analytic_pair_rdm,
    build_linear,
    build_periodic,
    build_star,
    linear_theta_opt,
    rotation_matrix,
    unitary_params,
    wootters_concurrence,
)

THETAS = np.linspace(0.0, 2 * np.pi, 21)


def test_unitary_params_special_angles():
    p = unitary_params(0.0)
    assert (p.a, p.b) == (0.0, 1.0)
    assert np.abs(rotation_matrix(0.0) - np.array([[0, 1], [1, 0]])).max() < 1e-15
    p = unitary_params(np.pi)
    assert abs(p.a - 1.0) < 1e-15 and abs(p.b) < 1e-15
    p = unitary_params(np.pi / 2)
    assert abs(p.a - 1 / np.sqrt(2)) < 1e-15 and abs(p.b - 1 / np.sqrt(2)) < 1e-15
    assert p.a**2 + p.b**2 == pytest.approx(1.0, abs=1e-15)


def test_unitary_params_validation():
    with pytest.raises(ValueError):
        unitary_params(float("nan"))


def test_star_central_at_zero_angle_is_pure_one_one():
    rho = analytic_pair_rdm("star_central", unitary_params(0.0))
    expected = np.zeros((4, 4))
    expected[3, 3] = 1.0
    assert np.abs(rho - expected).max() < 1e-15


def test_linear_bulk_entries_and_trace():
    theta = np.pi / 4
    a, b = math.sin(theta / 2), math.cos(theta / 2)
    rho = analytic_pair_rdm("linear_bulk", unitary_params(theta))
    assert np.abs(np.diag(rho) - [a**6 + b**6, a**2 * b**2, a**2 * b**2, a**2 * b**2]).max() < 1e-14
    assert abs(rho[0, 3] - a * b * (a**4 + b**4)) < 1e-14
    assert abs(rho[1, 2] - 2 * (a**5 * b**3 + a**3 * b**5)) < 1e-14
    assert abs(np.trace(rho).real - 1.0) < 1e-14


def test_all_analytic_rdms_are_valid_states():
    grid = np.linspace(0.0, 2 * np.pi, 201)
    for family in ("star_central", "linear_bulk"):
        for theta in grid:
            rho = analytic_pair_rdm(family, unitary_params(theta))
            assert abs(np.trace(rho).real - 1.0) < 1e-12
            assert np.linalg.eigvalsh(rho).min() > -1e-12
    for theta in grid:
        a, b = math.sin(theta / 2), math.cos(theta / 2)
        if a**6 + 3 * a**2 * b**4 > 1e-12:
            rho = analytic_pair_rdm("star_ring_0", unitary_params(theta))
            assert abs(np.trace(rho).real - 1.0) < 1e-12
            assert np.linalg.eigvalsh(rho).min() > -1e-12
        if 3 * a**4 * b**2 + b**6 > 1e-12:
            rho = analytic_pair_rdm("star_ring_1", unitary_params(theta))
            assert abs(np.trace(rho).real - 1.0) < 1e-12
            assert np.linalg.eigvalsh(rho).min() > -1e-12
    two_angle_grid = np.linspace(0.0, 2 * np.pi, 21)
    for family in ("periodic_even", "periodic_odd"):
        for t1 in two_angle_grid:
            for t2 in two_angle_grid:
                rho = analytic_pair_rdm(family, unitary_params(t1, t2))
                assert abs(np.trace(rho).real - 1.0) < 1e-12
                assert np.linalg.eigvalsh(rho).min() > -1e-12


def test_ring_rdms_match_postselected_oracle():
    for theta in np.linspace(0.1, 2 * np.pi - 0.1, 25):
        a, b = math.sin(theta / 2), math.cos(theta / 2)
        branch_p = {0: a**6 + 3 * a**2 * b**4, 1: 3 * a**4 * b**2 + b**6}
        sv = StateVector.zeros(4).run_circuit(build_star(3, theta))
        for outcome, family in ((0, "star_ring_0"), (1, "star_ring_1")):
            if branch_p[outcome] < 1e-9:
                continue
            projected, p = sv.postselect(4, outcome)
            assert abs(p - branch_p[outcome]) < 1e-12
            expected = analytic_pair_rdm(family, unitary_params(theta))
            for pair in ((1, 2), (1, 3), (2, 3)):
                assert np.abs(projected.pair_rdm(*pair) - expected).max() < 1e-12


def test_ring_rdm_singular_angles_raise():
    with pytest.raises(ValueError, match="zero"):
        analytic_pair_rdm("star_ring_0", unitary_params(0.0))
    with pytest.raises(ValueError, match="zero"):
        analytic_pair_rdm("star_ring_1", unitary_params(np.pi))


def test_family_arity_checks():
    with pytest.raises(ValueError, match="two angles"):
        analytic_pair_rdm("periodic_even", unitary_params(1.0))
    with pytest.raises(ValueError, match="unknown family"):
        analytic_concurrence("nope", unitary_params(1.0))
    with pytest.raises(ValueError, match="closed-form density matrix"):
        analytic_pair_rdm("linear_edge", unitary_params(1.0))


def test_linear_bulk_concurrence_values():
    assert analytic_concurrence("linear_bulk", unitary_params(np.pi / 2)) == 0.0
    value = analytic_concurrence("linear_bulk", unitary_params(np.pi / 4))
    assert abs(value - 0.2803300858899107) < 1e-15
    assert abs(value - 0.280330) < 1e-6
    assert analytic_concurrence("linear_edge", unitary_params(np.pi / 4)) == pytest.approx(0.5)


def test_periodic_concurrence_values_and_reduction():
    # dimer point: odd bulk bonds fully entangled, even ones empty
    assert analytic_concurrence("periodic_odd", unitary_params(np.pi / 2, np.pi)) == pytest.approx(1.0)
    assert analytic_concurrence("periodic_even", unitary_params(np.pi / 2, np.pi)) == 0.0
    for theta in THETAS:
        same = unitary_params(theta, theta)
        bulk = analytic_concurrence("linear_bulk", unitary_params(theta))
        assert abs(analytic_concurrence("periodic_even", same) - bulk) < 1e-12
        assert abs(analytic_concurrence("periodic_odd", same) - bulk) < 1e-12


def test_end_pair_formula_matches_edge_formula_at_three_qubits():
    for theta in THETAS:
        end = analytic_concurrence("end_pair_case13", unitary_params(theta), chain_n=3)
        edge = analytic_concurrence("linear_edge", unitary_params(theta))
        assert abs(end - edge) < 1e-12


def test_end_pair_formula_decays_with_length():
    theta = 0.9
    for n in (3, 4, 5, 8):
        sv = StateVector.zeros(n).run_circuit(build_linear(n, 1, theta))
        value = analytic_concurrence("end_pair_case13", unitary_params(theta), chain_n=n)
        assert abs(wootters_concurrence(sv.pair_rdm(1, 2)) - value) < 1e-12
        assert abs(value - abs(np.sin(theta)) * abs(np.cos(theta)) ** (n - 2)) < 1e-14


def test_analytic_concurrence_consistent_with_analytic_rdm():
    for theta in THETAS:
        params = unitary_params(theta)
        for family in ("star_central", "linear_bulk"):
            rho = analytic_pair_rdm(family, params)
            assert abs(analytic_concurrence(family, params) - wootters_concurrence(rho)) < 1e-10
    for t1 in np.linspace(0.0, 2 * np.pi, 9):
        for t2 in np.linspace(0.0, 2 * np.pi, 9):
            params = unitary_params(t1, t2)
            for family in ("periodic_even", "periodic_odd"):
                rho = analytic_pair_rdm(family, params)
                assert (
                    abs(analytic_concurrence(family, params) - wootters_concurrence(rho)) < 1e-10
                )


def test_star_central_generalizes_with_ring_size():
    for n_outer in (1, 2, 3, 4, 6):
        for theta in (0.5, 1.7, 2.9, 4.3):
            sv = StateVector.zeros(n_outer + 1).run_circuit(build_star(n_outer, theta))
            rho = sv.pair_rdm(1, n_outer + 1)
            ana = analytic_pair_rdm("star_central", unitary_params(theta), n_outer=n_outer)
            assert np.abs(rho - ana).max() < 1e-12
            value = analytic_concurrence("star_central", unitary_params(theta), n_outer=n_outer)
            a, b = math.sin(theta / 2), math.cos(theta / 2)
            closed = 2 * abs(a * b) * abs(a * a - b * b) ** (n_outer - 1)
            assert abs(value - closed) < 1e-13
            assert abs(wootters_concurrence(rho) - value) < 1e-10


def test_bulk_matrix_matches_simulation():
    for n in (6, 8):
        for theta in (0.5, 1.3, 2.7, 4.1, 5.6):
            sv = StateVector.zeros(n).run_circuit(build_linear(n, 4, theta))
            expected = analytic_pair_rdm("linear_bulk", unitary_params(theta))
            for i in range(2, n - 1):
                assert np.abs(sv.pair_rdm(i, i + 1) - expected).max() < 1e-12


def test_periodic_matrices_match_simulation():
    n = 8
    for t1 in (0.5, 1.9, 3.4):
        for t2 in (0.8, 2.6, 5.0):
            sv = StateVector.zeros(n).run_circuit(build_periodic(n, t1, t2))
            even = analytic_pair_rdm("periodic_even", unitary_params(t1, t2))
            odd = analytic_pair_rdm("periodic_odd", unitary_params(t1, t2))
            for i in (2, 4, 6):
                assert np.abs(sv.pair_rdm(i, i + 1) - even).max() < 1e-12
            for i in (3, 5):
                assert np.abs(sv.pair_rdm(i, i + 1) - odd).max() < 1e-12


def test_theta_opt_location_and_value():
    theta = linear_theta_opt()
    assert abs(math.sin(theta) - (math.sqrt(7) - 1) / 3) < 1e-15
    assert abs(theta - 0.1848 * math.pi) <= 5e-4 * math.pi
    peak = analytic_concurrence("linear_bulk", unitary_params(theta))
    assert abs(peak - 0.31556515472044944) < 1e-12


def test_theta_opt_is_grid_maximum():
    theta_star = linear_theta_opt()
    peak = analytic_concurrence("linear_bulk", unitary_params(theta_star))
    for theta in np.linspace(0.0, np.pi / 2, 10_001):
        assert analytic_concurrence("linear_bulk", unitary_params(theta)) <= peak + 1e-12
