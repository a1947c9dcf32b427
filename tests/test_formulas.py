import math

import numpy as np
import pytest

from symm_ent import (
    GridSpec,
    StateVector,
    SweepConfig,
    analytic_concurrence,
    analytic_pair_rdm,
    build_linear,
    build_periodic,
    build_star,
    linear_theta_opt,
    rotation_matrix,
    run_compare,
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
    with pytest.raises(ValueError, match="angles must be finite"):
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


RING_GRID = np.linspace(0.0, 2 * np.pi, 61)


def _branch_probability(theta: float, n_outer: int, outcome: int) -> float:
    """Probability that the central qubit reads ``outcome``: the outer qubits
    hold j ones of parity ``outcome``, each one with weight b^2."""
    a2, b2 = math.sin(theta / 2) ** 2, math.cos(theta / 2) ** 2
    return sum(math.comb(n_outer, j) * b2**j * a2 ** (n_outer - j)
               for j in range(outcome, n_outer + 1, 2))


@pytest.mark.parametrize("n_outer", range(2, 12))
def test_ring_formula_matches_the_postselected_statevector_at_every_size(n_outer):
    central = n_outer + 1
    grid = StateVector.zeros(central).run_circuit(build_star(n_outer, tuple(RING_GRID.tolist())))
    checked = 0
    for outcome in (0, 1):
        alive = np.flatnonzero(grid.single_rdm(central)[:, outcome, outcome] >= 1e-9)
        projected, _ = grid.keep_points(alive).postselect(central, outcome)
        for pair in {(1, 2), (1, n_outer), (n_outer - 1, n_outer)}:
            rdms = projected.pair_rdm(*pair)
            for k, index in enumerate(alive):
                ring = analytic_pair_rdm(f"star_ring_{outcome}", unitary_params(RING_GRID[index]),
                                         n_outer=n_outer)
                assert np.abs(rdms[k] - ring).max() < 1e-12, (outcome, pair, RING_GRID[index])
                checked += 1
    assert checked >= 2 * 59


def test_ring_of_three_is_the_explicit_polynomials():
    checked = 0
    for theta in RING_GRID:
        a, b = math.sin(theta / 2), math.cos(theta / 2)
        p0 = a**6 + 3 * a**2 * b**4
        p1 = 3 * a**4 * b**2 + b**6
        x0, y0, u0 = a**6, a**2 * b**4, a**4 * b**2  # ring 0: y0 also fills w and delta
        x1, w1, u1 = a**4 * b**2, b**6, a**2 * b**4  # ring 1: x1 also fills y, z and delta
        explicit = {
            0: (p0, [[x0, 0, 0, u0], [0, y0, y0, 0], [0, y0, y0, 0], [u0, 0, 0, y0]]),
            1: (p1, [[x1, 0, 0, u1], [0, x1, x1, 0], [0, x1, x1, 0], [u1, 0, 0, w1]]),
        }
        for outcome, (p, entries) in explicit.items():
            if p >= 1e-9:
                rho = analytic_pair_rdm(f"star_ring_{outcome}", unitary_params(theta), n_outer=3)
                assert np.abs(rho - np.array(entries) / p).max() < 1e-15, (outcome, theta)
                checked += 1
    assert checked == 2 * 61 - 3  # ring 0 dies at 0 and 2 pi, ring 1 at pi


def test_star_families_name_a_too_small_n_outer():
    for family in ("star_ring_0", "star_ring_1"):
        with pytest.raises(ValueError, match="needs n_outer >= 2, got n_outer=1"):
            analytic_pair_rdm(family, unitary_params(1.0), n_outer=1)
        with pytest.raises(ValueError, match="needs n_outer >= 2, got n_outer=1"):
            analytic_concurrence(family, unitary_params(1.0), n_outer=1)
    with pytest.raises(ValueError, match="needs n_outer >= 1, got n_outer=0"):
        analytic_pair_rdm("star_central", unitary_params(1.0), n_outer=0)


@pytest.mark.parametrize(
    ("call", "message"),
    [
        # each was silently accepted or an unnamed TypeError before
        (lambda: analytic_concurrence("end_pair_case13", unitary_params(1.0), chain_n=3.5),
         "chain_n must be an integer, got 3.5"),
        (lambda: analytic_concurrence("star_central", unitary_params(1.0), n_outer=True),
         "n_outer must be an integer, got True"),
        (lambda: analytic_concurrence("linear_bulk", unitary_params(1.0), n_outer=2.5),
         "n_outer must be an integer, got 2.5"),
        (lambda: analytic_pair_rdm("star_central", unitary_params(1.0), n_outer=2.5),
         "n_outer must be an integer, got 2.5"),
    ],
)
def test_sizes_must_be_integers(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_ring_concurrence_follows_n_outer():
    # the five-qubit ring, not the three-qubit one
    five = analytic_concurrence("star_ring_0", unitary_params(1.0), n_outer=5)
    assert five == pytest.approx(0.11707413125696736, abs=1e-15)
    # n_outer defaults to the three-qubit ring
    three = analytic_concurrence("star_ring_0", unitary_params(1.0))
    assert three == pytest.approx(0.454216661045638, abs=1e-15)


def test_rings_pass_compare_on_the_mps_near_every_dead_branch():
    """Single-angle MPS comparisons a little off the angles where a branch
    dies, theta = {0, pi} +- 10^U(-4.6, -2): the closed form divides by a
    branch probability down to the 1e-9 floor, so its parity weights must
    keep their small member to its own relative accuracy."""
    rng = np.random.default_rng(2024)
    live, failed = 0, []
    for n_outer in (3, 4, 5, 7, 9, 12, 20):
        for outcome in (0, 1):
            for _ in range(40):
                centre = rng.choice([0.0, np.pi])
                theta = centre + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-4.6, -2)
                config = SweepConfig(protocol="star", theta=GridSpec.single(theta),
                                     n_outer=n_outer, postselect=outcome, backend="mps")
                report = run_compare(config)
                if report.families:
                    live += 1
                    if not report.passed:
                        failed.append((n_outer, outcome, theta, report.families[0].max_abs_error))
    assert failed == []
    assert live >= 500


# ------------------------------- the Koashi-Buzek-Imoto bound 2/m on rings

KBI_SIZES = range(2, 10)


def _ring_concurrences(n_outer: int, outcome: int, thetas) -> list[float]:
    values = []
    for theta in thetas:
        try:
            values.append(analytic_concurrence(f"star_ring_{outcome}", unitary_params(theta),
                                               n_outer=n_outer))
        except ValueError:  # a dead branch
            pass
    return values


@pytest.mark.parametrize("n_outer", KBI_SIZES)
def test_rings_never_exceed_the_koashi_buzek_imoto_bound(n_outer):
    dense = np.linspace(0.0, 2 * np.pi, 4001)
    peaks = {}
    for outcome in (0, 1):
        values = _ring_concurrences(n_outer, outcome, dense)
        assert len(values) >= 3990
        peaks[outcome] = max(values)
        assert peaks[outcome] <= 2 / n_outer + 1e-12
    if n_outer >= 4 and n_outer % 2 == 0:
        # the even ring's outcome 0 is never close to a W state
        assert peaks[0] < 2 / n_outer - 0.1


@pytest.mark.parametrize("n_outer", KBI_SIZES)
def test_rings_reach_the_koashi_buzek_imoto_bound_as_their_branch_dies(n_outer):
    # a single flipped outer qubit among m: b^2 = p / m next to theta = pi for
    # outcome 1, a^2 = p / m next to theta = 0 for outcome 0 on an odd ring
    targets = [(1, 2 * math.acos(math.sqrt(2e-9 / n_outer)))]
    if n_outer % 2:
        targets.append((0, 2 * math.asin(math.sqrt(2e-9 / n_outer))))
    for outcome, theta in targets:
        assert 1e-9 <= _branch_probability(theta, n_outer, outcome) <= 1e-8
        (value,) = _ring_concurrences(n_outer, outcome, [theta])
        assert 2 / n_outer - 1e-8 <= value <= 2 / n_outer + 1e-12, (outcome, value)


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
