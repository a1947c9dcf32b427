"""Acceptance suite: every headline result, at its stated tolerance.

One test per criterion; the terminal summary (see conftest) prints a
PASS/FAIL line for each. The heavy chain sweeps are computed once in
module-scoped fixtures and shared.
"""

import math
import time

import numpy as np
import pytest

from symm_ent import (
    GridSpec,
    MatrixProductState,
    StateVector,
    SweepConfig,
    analytic_concurrence,
    analytic_pair_rdm,
    build_linear,
    build_periodic,
    build_star,
    linear_theta_opt,
    rotation_matrix,
    run_oracle_check,
    svd_truncate,
    unitary_params,
    wootters_concurrence,
    xstate_concurrence,
)
from symm_ent.protocols import periodic_site_angle

from oracles import haar_unitary, one_matrix_wootters, random_density_matrix, random_x_state

TWO_PI = 2 * math.pi
CHAIN_SIZES = (20, 40, 60)
THETA_GRID_201 = GridSpec(0.0, TWO_PI, 201).values()
THETA_GRID_51 = GridSpec(0.0, TWO_PI, 51).values()


def chain_pair_concurrences(n: int, circuit, pairs):
    mps = MatrixProductState(n).run_circuit(circuit)
    assert mps.discarded_weight_total < 1e-14
    return [wootters_concurrence(mps.pair_rdm(i, j)) for i, j in pairs]


@pytest.fixture(scope="module")
def case4_sweeps():
    """Case-4 MPS results on the 201-point grid for N in {20, 40, 60}."""
    data = {}
    started = time.perf_counter()
    for n in CHAIN_SIZES:
        bulk_pairs = [(i, i + 1) for i in range(2, n - 1)]
        edge_pairs = [(1, 2), (n - 1, n)]
        bulk = np.empty((THETA_GRID_201.size, len(bulk_pairs)))
        edges = np.empty((THETA_GRID_201.size, 2))
        for t_idx, theta in enumerate(THETA_GRID_201):
            values = chain_pair_concurrences(
                n, build_linear(n, 4, theta), bulk_pairs + edge_pairs
            )
            bulk[t_idx] = values[: len(bulk_pairs)]
            edges[t_idx] = values[len(bulk_pairs) :]
        data[n] = {"bulk": bulk, "edges": edges}
    data["elapsed"] = time.perf_counter() - started
    return data


def test_criterion_01_bulk_pairs_match_closed_form(case4_sweeps):
    """Every bulk pair matches the chain closed form to 1e-8 on the 201-point grid."""
    analytic = np.array(
        [analytic_concurrence("linear_bulk", unitary_params(t)) for t in THETA_GRID_201]
    )
    for n in CHAIN_SIZES:
        worst = np.abs(case4_sweeps[n]["bulk"] - analytic[:, None]).max()
        assert worst <= 1e-8, f"N={n}: worst bulk deviation {worst:.3e}"
    print(
        f"\n    chain sweeps for N=20/40/60 x 201 angles took "
        f"{case4_sweeps['elapsed']:.1f} s (expected < 60 s)"
    )


def test_criterion_02_edge_pairs(case4_sweeps):
    """Edge pairs equal |sin cos| to 1e-8 and equal each other to 1e-10."""
    analytic = np.abs(np.sin(THETA_GRID_201) * np.cos(THETA_GRID_201))
    for n in CHAIN_SIZES:
        edges = case4_sweeps[n]["edges"]
        assert np.abs(edges - analytic[:, None]).max() <= 1e-8
        assert np.abs(edges[:, 0] - edges[:, 1]).max() <= 1e-10


def test_criterion_03_bulk_optimum():
    """Grid maximization finds theta* = arcsin((sqrt(7)-1)/3), peak 0.31554 +- 1e-4."""
    grid = GridSpec(0.0, TWO_PI, 10_001).values()
    values = np.array(
        [analytic_concurrence("linear_bulk", unitary_params(t)) for t in grid]
    )
    peaks = [
        k
        for k in range(1, grid.size - 1)
        if values[k] > 0.2 and values[k] >= values[k - 1] and values[k] > values[k + 1]
    ]
    theta_star = linear_theta_opt()
    expected_locations = [theta_star, math.pi - theta_star, math.pi + theta_star,
                          TWO_PI - theta_star]
    assert len(peaks) == 4
    spacing = TWO_PI / 10_000
    for k, expected in zip(peaks, expected_locations):
        assert abs(grid[k] - expected) <= spacing
        assert abs(values[k] - 0.31554) <= 1e-4
    # the located optimum is reproduced by the simulation itself
    numeric = chain_pair_concurrences(20, build_linear(20, 4, grid[peaks[0]]), [(10, 11)])[0]
    assert abs(numeric - values[peaks[0]]) <= 1e-8


def test_criterion_04_bulk_zeros(case4_sweeps):
    """Bulk concurrence vanishes at theta = 0, pi/2, pi, 3pi/2, 2pi."""
    special = [0, 50, 100, 150, 200]  # exact grid indices of the zero angles
    assert THETA_GRID_201[special[1]] == math.pi / 2
    assert THETA_GRID_201[special[2]] == math.pi
    for n in CHAIN_SIZES:
        assert case4_sweeps[n]["bulk"][special].max() <= 1e-10


def star_backend_rdms(n_outer: int, theta: float, pairs, postselect=None):
    """Pair RDMs for the star protocol, exact backend up to 12 qubits, MPS beyond."""
    total = n_outer + 1
    circuit = build_star(n_outer, theta)
    if total <= 12:
        state = StateVector.zeros(total).run_circuit(circuit)
        probability = None
        if postselect is not None:
            state, probability = state.postselect(total, postselect)
        return {p: state.pair_rdm(*p) for p in pairs}, probability
    mps = MatrixProductState(total).run_circuit(circuit)
    assert mps.discarded_weight_total < 1e-14
    probability = None
    if postselect is not None:
        probability = mps.postselect(total, postselect)
    return {p: mps.pair_rdm(*p) for p in pairs}, probability


def star_branch_populations(n_outer: int, theta: float) -> tuple[float, float]:
    """Simulated central-qubit populations (the two branch probabilities)."""
    total = n_outer + 1
    circuit = build_star(n_outer, theta)
    if total <= 12:
        rdm = StateVector.zeros(total).run_circuit(circuit).single_rdm(total)
        return float(rdm[0, 0].real), float(rdm[1, 1].real)
    mps = MatrixProductState(total).run_circuit(circuit)
    pair = mps.pair_rdm(total - 1, total)
    return (
        float(pair[0, 0].real + pair[2, 2].real),
        float(pair[1, 1].real + pair[3, 3].real),
    )


def test_criterion_05_star_central_pairs():
    """Central-outer concurrences are equal and match the closed form to 1e-10."""
    for n_outer in range(3, 13):
        central = n_outer + 1
        pairs = [(k, central) for k in range(1, central)]
        for theta in THETA_GRID_51:
            rdms, _ = star_backend_rdms(n_outer, theta, pairs)
            values = [wootters_concurrence(rdms[p]) for p in pairs]
            assert max(values) - min(values) <= 1e-10
            expected = analytic_concurrence(
                "star_central", unitary_params(theta), n_outer=n_outer
            )
            assert max(abs(v - expected) for v in values) <= 1e-10
    # the quoted quartic form is the three-outer case on [0, pi]
    for theta in GridSpec(0.0, math.pi, 51).values():
        a, b = math.sin(theta / 2), math.cos(theta / 2)
        quoted = max(0.0, 2 * (a * b * (a**4 + b**4) - 2 * a**3 * b**3))
        rdms, _ = star_backend_rdms(3, theta, [(1, 4)])
        assert abs(wootters_concurrence(rdms[(1, 4)]) - quoted) <= 1e-10


def test_criterion_06_star_rings():
    """Post-selected ring pairs are all equal; ring of three matches rho0/rho1."""
    for n_outer in (3, 4, 5, 6, 12):
        total = n_outer + 1
        outer_pairs = [(k, l) for k in range(1, total) for l in range(k + 1, total)]
        for theta in THETA_GRID_51:
            a, b = math.sin(theta / 2), math.cos(theta / 2)
            # branch probabilities from the closed form of the star state
            parity = (a * a - b * b) ** n_outer
            p_branch = {0: 0.5 * (1.0 + parity), 1: 0.5 * (1.0 - parity)}
            p0_sim, p1_sim = star_branch_populations(n_outer, theta)
            assert abs(p0_sim + p1_sim - 1.0) <= 1e-12
            assert abs(p0_sim - p_branch[0]) <= 1e-12
            for outcome in (0, 1):
                if p_branch[outcome] < 1e-9:
                    continue
                rdms, probability = star_backend_rdms(
                    n_outer, theta, outer_pairs, postselect=outcome
                )
                assert abs(probability - p_branch[outcome]) <= 1e-12
                values = [wootters_concurrence(rdms[p]) for p in outer_pairs]
                assert max(values) - min(values) <= 1e-10
                if n_outer == 3:
                    family = "star_ring_0" if outcome == 0 else "star_ring_1"
                    expected = wootters_concurrence(
                        analytic_pair_rdm(family, unitary_params(theta))
                    )
                    assert max(abs(v - expected) for v in values) <= 1e-10


def periodic_family(n: int, left_site: int) -> str:
    right_is_theta1 = periodic_site_angle(n, left_site + 1, 0.0, 1.0) == 0.0
    return "periodic_even" if right_is_theta1 else "periodic_odd"


def test_criterion_07_periodic_families():
    """Periodic bulk pairs match their family closed forms on a 21 x 21 grid."""
    angle_grid = GridSpec(0.0, TWO_PI, 21).values()
    for n in CHAIN_SIZES:
        bulk_pairs = [(i, i + 1) for i in range(2, n - 1)]
        worst = 0.0
        worst_reduction = 0.0
        for t1 in angle_grid:
            for t2 in angle_grid:
                values = chain_pair_concurrences(n, build_periodic(n, t1, t2), bulk_pairs)
                for (i, _), value in zip(bulk_pairs, values):
                    family = periodic_family(n, i)
                    expected = analytic_concurrence(family, unitary_params(t1, t2))
                    worst = max(worst, abs(value - expected))
                    if t1 == t2:
                        bulk = analytic_concurrence("linear_bulk", unitary_params(t1))
                        worst_reduction = max(worst_reduction, abs(value - bulk))
        assert worst <= 1e-8, f"N={n}: worst family deviation {worst:.3e}"
        assert worst_reduction <= 1e-10
        # dimerization at (pi/2, pi): alternating 1, 0 along consecutive pairs
        values = chain_pair_concurrences(
            n, build_periodic(n, math.pi / 2, math.pi), bulk_pairs
        )
        for (i, _), value in zip(bulk_pairs, values):
            expected = 1.0 if periodic_family(n, i) == "periodic_odd" else 0.0
            assert abs(value - expected) <= 1e-8


def test_criterion_08_one_directional_chains():
    """Cases 1 and 3 entangle only their end pair; small states reproduce exactly."""
    for case in (1, 3):
        for n in range(4, 11):
            end = (1, 2) if case == 1 else (n - 1, n)
            for theta in THETA_GRID_51:
                sv = StateVector.zeros(n).run_circuit(build_linear(n, case, theta))
                end_value = None
                for i in range(1, n):
                    value = wootters_concurrence(sv.pair_rdm(i, i + 1))
                    if (i, i + 1) == end:
                        end_value = value
                    else:
                        assert value <= 1e-12
                expected = analytic_concurrence(
                    "end_pair_case13", unitary_params(theta), chain_n=n
                )
                assert abs(end_value - expected) <= 1e-10
    # the three-qubit end pair carries the quoted 2|cs(c^2-s^2)| = |sin cos|
    for theta in THETA_GRID_51:
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        quoted = 2 * abs(c * s * (c * c - s * s))
        assert (
            abs(
                analytic_concurrence("end_pair_case13", unitary_params(theta), chain_n=3)
                - quoted
            )
            <= 1e-14
        )
        sv3 = StateVector.zeros(3).run_circuit(build_linear(3, 1, theta))
        assert abs(wootters_concurrence(sv3.pair_rdm(1, 2)) - quoted) <= 1e-10
    # two- and three-qubit states, amplitude by amplitude
    for theta in THETA_GRID_51:
        a, b = math.sin(theta / 2), math.cos(theta / 2)
        two = StateVector.zeros(2).apply_1q(rotation_matrix(theta), 2).apply_cx(2, 1)
        assert np.abs(two.amplitudes - np.array([a, 0, 0, b])).max() <= 1e-12
        three = StateVector.zeros(3).run_circuit(build_linear(3, 1, theta))
        expected3 = np.zeros(8, dtype=complex)
        expected3[0b000] = a * a
        expected3[0b001] = b * b
        expected3[0b110] = a * b
        expected3[0b111] = -a * b
        assert np.abs(three.amplitudes - expected3).max() <= 1e-12


def test_criterion_09_backend_equivalence():
    """MPS matches the exact oracle on every protocol at or below 12 qubits."""
    reports = []
    for case in (1, 2, 3, 4):
        reports.append(
            run_oracle_check(
                SweepConfig(
                    protocol="linear",
                    theta=GridSpec(0.0, TWO_PI, 51),
                    case=case,
                    n=10,
                    pairs="all-adjacent",
                )
            )
        )
    for postselect in (None, 0, 1):
        for n_outer in (3, 5):
            reports.append(
                run_oracle_check(
                    SweepConfig(
                        protocol="star",
                        theta=GridSpec(0.0, TWO_PI, 51),
                        n_outer=n_outer,
                        pairs="star-all",
                        postselect=postselect,
                    )
                )
            )
    reports.append(
        run_oracle_check(
            SweepConfig(
                protocol="periodic",
                theta=GridSpec(0.0, TWO_PI, 21),
                theta2=GridSpec(0.0, TWO_PI, 21),
                n=8,
                pairs="all-adjacent",
            )
        )
    )
    for report in reports:
        assert report.passed
        assert report.max_rdm_deviation <= 1e-12
        assert report.max_concurrence_deviation <= 1e-10
        assert report.max_discarded_weight < 1e-14


def test_criterion_10_property_suites(rng):
    """Randomized invariants: X fast path, local-unitary invariance, SVD checks."""
    for _ in range(1000):
        rho = random_x_state(rng)
        fast = xstate_concurrence(rho)
        assert abs(fast - one_matrix_wootters(rho)) <= 1e-10
    for _ in range(100):
        rho = random_density_matrix(rng, rank=int(rng.integers(1, 5)))
        u = np.kron(haar_unitary(rng), haar_unitary(rng))
        rotated = u @ rho @ u.conj().T
        assert abs(wootters_concurrence(rho) - wootters_concurrence(rotated)) <= 1e-10
    for shape in ((4, 4), (6, 3), (3, 8)):
        for max_rank in (1, 2, min(shape)):
            m = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            res = svd_truncate(m, max_rank=max_rank)
            k = res.rank
            u, vdag = res.left_isometry, res.right_isometry_dag
            assert np.abs(u.conj().T @ u - np.eye(k)).max() <= 1e-12
            assert np.abs(vdag @ vdag.conj().T - np.eye(k)).max() <= 1e-12
            err = (
                np.linalg.norm(m - (u * res.singular_values) @ vdag) ** 2
                / np.linalg.norm(m) ** 2
            )
            assert abs(err - res.discarded_weight) <= 1e-12
