from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symm_ent.concurrence
from symm_ent import (
    MatrixProductState,
    StateVector,
    build_linear,
    build_periodic,
    build_star,
    rotation_matrix,
    unitary_params,
    wootters_concurrence,
    xstate_concurrence,
)
from symm_ent.formulas import analytic_concurrence, analytic_pair_rdm

from oracles import (
    haar_unitary,
    one_matrix_wootters,
    one_matrix_xstate,
    random_density_matrix,
    random_x_state,
)


def bell_projector() -> np.ndarray:
    rho = np.zeros((4, 4), dtype=complex)
    for r in (0, 3):
        for c in (0, 3):
            rho[r, c] = 0.5
    return rho


def test_bell_projector_is_maximally_entangled():
    assert abs(wootters_concurrence(bell_projector()) - 1.0) < 1e-12


def test_product_projectors_have_zero_concurrence(rng):
    for _ in range(20):
        u = np.kron(haar_unitary(rng), haar_unitary(rng))
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        rho = u @ rho @ u.conj().T
        assert wootters_concurrence(rho) < 1e-12


def test_bulk_state_concurrence_at_quarter_pi():
    rho = analytic_pair_rdm("linear_bulk", unitary_params(np.pi / 4))
    # frozen from direct evaluation of the closed form at theta = pi/4
    assert abs(wootters_concurrence(rho) - 0.2803300858899107) < 1e-10


def test_pure_state_concurrence_formula(rng):
    # for a pure two-qubit state, C = 2 |ad - bc|
    for _ in range(25):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        rho = np.outer(psi, psi.conj())
        expected = 2.0 * abs(psi[0] * psi[3] - psi[1] * psi[2])
        assert abs(wootters_concurrence(rho) - expected) < 1e-12


def test_invalid_density_matrices_rejected():
    with pytest.raises(ValueError, match="not Hermitian"):
        wootters_concurrence(np.triu(np.ones((4, 4))) / 2.5)
    with pytest.raises(ValueError, match="trace"):
        wootters_concurrence(np.eye(4))
    bad = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError, match="eigenvalue"):
        wootters_concurrence(bad)


def general_route(rho):
    """``wootters_concurrence`` with every matrix sent down the singular-value route."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(symm_ent.concurrence, "X_FLOOR", -1.0)
        return wootters_concurrence(rho)


def x_matrix(x, y, z, w, u, delta) -> np.ndarray:
    conj = np.conj
    return np.array([[x, 0, 0, u], [0, y, delta, 0], [0, conj(delta), z, 0], [conj(u), 0, 0, w]])


def test_xstate_concurrence_rejects_non_x_states():
    rho = bell_projector()
    rho[0, 1] = rho[1, 0] = 0.1
    with pytest.raises(ValueError, match="not an X state"):
        xstate_concurrence(rho)
    stack = np.array([bell_projector()] * 3)
    stack[2, 2, 0] = stack[2, 0, 2] = 2e-14
    message = r"not an X state at stack index 2: off-pattern entry 2\.000e-14"
    with pytest.raises(ValueError, match=message):
        xstate_concurrence(stack)
    stack[2, 2, 0] = stack[2, 0, 2] = np.nan
    with pytest.raises(ValueError, match="not an X state at stack index 2"):
        xstate_concurrence(stack)
    # entries at the floor count as zeros, for both functions
    stack[2, 2, 0] = stack[2, 0, 2] = 1e-14
    assert _same_bits(xstate_concurrence(stack), wootters_concurrence(stack))
    assert _same_bits(xstate_concurrence(stack), np.ones(3))


@pytest.mark.parametrize(
    ("rho", "defect"),
    [
        (x_matrix(0.5, 0.0, 0.0, 0.4, 0.0, 0.0), ": trace deviates by 1.000e-01"),
        (x_matrix(0.25, 0.25, 0.25, 0.25, 0.4, 0.0), ": eigenvalue -1.500e-01 below -1e-10"),
        (x_matrix(0.25, 0.25, 0.25, 0.25, 0.0, 0.4j), ": eigenvalue -1.500e-01 below -1e-10"),
        (x_matrix(0.5, 0.0, 0.0, 0.5, 0.5, 0.0) + np.diag([0, 0, 0, 1e-9j]),
         " is not Hermitian: max |M - M^dag| = 2.000e-09 exceeds 1.0e-10"),
        (np.diag([np.nan, 1.0, 0.0, 0.0]), " contains non-finite entries"),
    ],
)
def test_x_route_errors_read_as_the_4x4_checks(rho, defect):
    """The X route checks its 2x2 blocks in closed form, yet a bad state's
    message is word for word the 4x4 check's, on one matrix and in a stack."""
    what = "matrix" if "non-finite" in defect or "Hermitian" in defect else "invalid density matrix"
    for score in (xstate_concurrence, wootters_concurrence):
        with pytest.raises(ValueError) as one:
            score(rho)
        assert str(one.value) == what + defect
        with pytest.raises(ValueError) as stacked:
            score(np.array([bell_projector(), rho, bell_projector()]))
        assert str(stacked.value) == what + " at stack index 1" + defect


def test_xstate_concurrence_bell():
    assert abs(xstate_concurrence(bell_projector()) - 1.0) < 1e-14


def test_xstate_star_central_one_sided_form():
    # on [0, pi] the central-pair family has u >= delta >= 0 and
    # sqrt(x w) = u, sqrt(y z) = delta, so C = 2 (u - delta)
    for theta in np.linspace(0.0, np.pi, 21):
        rho = analytic_pair_rdm("star_central", unitary_params(theta))
        (x, y, z, w), u, delta = np.diag(rho), rho[0, 3], rho[1, 2]
        assert u >= delta - 1e-14
        assert abs(np.sqrt(x * w) - u) < 1e-14
        assert abs(np.sqrt(y * z) - delta) < 1e-14
        expected = max(0.0, 2.0 * (u - delta))
        assert abs(xstate_concurrence(rho) - expected) < 1e-14


def test_xstate_fast_path_matches_general(rng):
    for _ in range(1000):
        rho = random_x_state(rng)
        fast = xstate_concurrence(rho)
        general = general_route(rho)
        assert abs(fast - general) < 1e-10


def test_xstate_params_validation():
    with pytest.raises(ValueError, match="trace"):
        xstate_concurrence(x_matrix(0.5, 0.0, 0.0, 0.4, 0.0, 0.0))
    with pytest.raises(ValueError, match="eigenvalue"):
        xstate_concurrence(x_matrix(0.25, 0.25, 0.25, 0.25, 0.4, 0.0))
    with pytest.raises(ValueError, match="eigenvalue"):
        xstate_concurrence(x_matrix(0.25, 0.25, 0.25, 0.25, 0.0, 0.4j))
    with pytest.raises(ValueError, match="not Hermitian"):
        xstate_concurrence(x_matrix(0.5, 0.0, 0.0, 0.5, 0.5, 0.0) + np.diag([0, 0, 0, 1e-9j]))
    stack = np.array([bell_projector(), np.diag([np.nan, 1, 0, 0]), bell_projector()])
    with pytest.raises(ValueError, match=r"at stack index \(1, 0\).*non-finite"):
        xstate_concurrence(stack.reshape(3, 1, 4, 4))


def test_local_unitary_invariance(rng):
    for _ in range(100):
        rho = random_density_matrix(rng, rank=int(rng.integers(1, 5)))
        u = np.kron(haar_unitary(rng), haar_unitary(rng))
        rotated = u @ rho @ u.conj().T
        assert abs(wootters_concurrence(rho) - wootters_concurrence(rotated)) < 1e-10


def test_concurrence_range(rng):
    for _ in range(200):
        value = wootters_concurrence(random_density_matrix(rng))
        assert 0.0 <= value <= 1.0 + 1e-12


def test_xpath_agrees_on_protocol_states():
    # cases 2 and 4 produce X-shaped states on every adjacent pair (cases 1
    # and 3 do so only at their entangled end pair)
    for case in (2, 4):
        for theta in (0.5, 1.9, 3.3, 4.7):
            sv = StateVector.zeros(6).run_circuit(build_linear(6, case, theta))
            for i in range(1, 6):
                rho = sv.pair_rdm(i, i + 1)
                assert abs(xstate_concurrence(rho) - general_route(rho)) < 1e-10


def test_general_path_is_exact_near_zeros():
    # rank-deficient separable state whose spin-flip spectrum touches zero:
    # the naive eigenvalue route loses half the precision here
    sv = StateVector.zeros(2).apply_1q(rotation_matrix(0.3), 1)
    rho = sv.pair_rdm(1, 2)
    assert wootters_concurrence(rho) < 1e-13


def _near_singular_x_states(rng: np.random.Generator, n: int):
    """``n`` X states with one block at 1 - t of its positivity limit, t log-uniform
    over 1e-17..1e-5, as a real and a complex stack, with the smallest
    eigenvalue of each (from the exact block determinant)."""
    weights = rng.random((n, 4)) + 1e-3
    x, y, z, w = (weights / weights.sum(axis=1, keepdims=True)).T
    t = 10.0 ** rng.uniform(-17.0, -5.0, n)
    outer_tight = rng.random(n) < 0.5
    u = np.sqrt(x * w) * np.where(outer_tight, 1.0 - t, rng.random(n))
    delta = np.sqrt(y * z) * np.where(outer_tight, rng.random(n), 1.0 - t)
    signs = rng.choice((-1.0, 1.0), size=(2, n))
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=(2, n)))
    stacks = []
    for u_phase, delta_phase in (signs, phases):
        stack = np.zeros((n, 4, 4), dtype=u_phase.dtype)
        stack[:, [0, 1, 2, 3], [0, 1, 2, 3]] = np.stack([x, y, z, w], axis=1)
        stack[:, 0, 3], stack[:, 1, 2] = u * u_phase, delta * delta_phase
        stack[:, 3, 0], stack[:, 2, 1] = stack[:, 0, 3].conj(), stack[:, 1, 2].conj()
        stacks.append(stack)
    lambda_min = []
    for rho in stacks[1]:
        determinants = [
            (Fraction(rho[a, a].real) * Fraction(rho[b, b].real)
             - Fraction(rho[a, b].real) ** 2 - Fraction(rho[a, b].imag) ** 2)
            / Fraction(rho[a, a].real + rho[b, b].real)
            for a, b in ((0, 3), (1, 2))
        ]
        lambda_min.append(float(min(determinants)))
    return stacks, np.array(lambda_min)


def test_general_route_is_exact_near_a_vanishing_eigenvalue():
    # the closed form is the reference; a cut that drops an eigenvalue, or a
    # factor that carries eps / sqrt(lambda_min) into a column, misses it by
    # up to 2e-13 in the bins just above lambda_min = 1e-15
    stacks, lambda_min = _near_singular_x_states(np.random.default_rng(2026), 3600)
    bins = np.digitize(lambda_min, [1e-15, 1e-14, 1e-12])
    for stack in stacks:
        error = np.abs(general_route(stack) - xstate_concurrence(stack))
        for index, label in enumerate(("< 1e-15", "[1e-15, 1e-14)", "[1e-14, 1e-12)", ">= 1e-12")):
            assert np.count_nonzero(bins == index) >= 100, label
            assert error[bins == index].max() <= 1e-14, (label, stack.dtype)


def test_general_route_scores_pure_states_exactly(rng):
    # a rank-1 rho leaves a roundoff remainder after one step: pivots at or
    # below the floor must end the factor, or a column divided by the root of
    # a roundoff pivot blows up (product states then score up to 0.5)
    n = 1000
    psi = rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))
    psi[:, 0] *= 10.0 ** rng.uniform(-9.0, -3.0, n)
    products = [np.kron(haar_unitary(rng), haar_unitary(rng))[:, 0] for _ in range(n)]
    psi = np.concatenate([psi, products])
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    exact = 2.0 * np.abs(psi[:, 0] * psi[:, 3] - psi[:, 1] * psi[:, 2])
    rho = psi[:, :, None] * psi[:, None, :].conj()
    assert np.abs(general_route(rho) - exact).max() <= 1e-14


def test_general_route_pivots_past_a_near_singular_leading_block(rng):
    # rank-2 states whose rows 0 and 1 are nearly parallel: an unpivoted
    # factor would divide by a tiny second pivot that carries roundoff from
    # the first step. (X x X) rho (X x X) reverses the basis order and keeps C
    v = rng.normal(size=(500, 4, 2)) + 1j * rng.normal(size=(500, 4, 2))
    v[:, 1] = v[:, 0] * rng.normal(size=(500, 1)) + v[:, 1] * 10.0 ** rng.uniform(-8, -5, (500, 1))
    rho = v @ v.conj().swapaxes(1, 2)
    rho /= np.trace(rho, axis1=1, axis2=2).real[:, None, None]
    assert np.abs(general_route(rho) - general_route(rho[:, ::-1, ::-1])).max() <= 1e-14


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_general_route_is_exact_on_rank_deficient_states(kind, rank):
    # rho = g g^dag / tr from a 4 x rank generator g, so rho rho_tilde has the
    # spectrum of B^dag B with B = g^T (sigma_y x sigma_y) g / tr: its singular
    # values give the exact concurrence with no pivot decision. A rank-deficient
    # rho leaves a roundoff remainder after its rank, and a pivot floor below
    # it lets a roundoff pivot into the factor (2.3e-14 here at a floor of 1e-16)
    rng = np.random.default_rng([4242, rank, ["real", "complex"].index(kind)])
    g = rng.normal(size=(5000, 4, rank))
    if kind == "complex":
        g = g + 1j * rng.normal(size=g.shape)
    rho = g @ g.conj().swapaxes(1, 2)
    trace = np.trace(rho, axis1=1, axis2=2).real
    sy_sy = np.fliplr(np.diag([-1.0, 1.0, 1.0, -1.0]))
    roots = np.linalg.svd(g.swapaxes(1, 2) @ sy_sy @ g, compute_uv=False) / trace[:, None]
    exact = np.maximum(roots[:, 0] - roots[:, 1:].sum(axis=1), 0.0)
    rho = rho / trace[:, None, None]
    # a real rho also goes down the complex route
    for stack in (rho, rho.astype(complex)) if kind == "real" else (rho,):
        assert np.abs(general_route(stack) - exact).max() <= 1e-14


# ------------------------------------------------------------ stacked calls


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _stack_member(kind: str, rng: np.random.Generator) -> np.ndarray:
    if kind == "pure":
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        return np.outer(psi, psi.conj())
    if kind == "x":
        return random_x_state(rng)
    if kind == "product":
        # exact rank 1 with eigenvalues that are exact zeros or roundoff
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        u = np.kron(haar_unitary(rng), haar_unitary(rng))
        return u @ rho @ u.conj().T
    if kind == "diagonal":
        # exact zeros on the diagonal: ranks 1..3 with no roundoff at all
        weights = rng.random(4) * (rng.random(4) < 0.5)
        weights[int(rng.integers(4))] += 0.5
        return np.diag(weights / weights.sum()).astype(complex)
    return random_density_matrix(rng, rank=int(kind[-1]))


STACK_KINDS = ("pure", "x", "product", "diagonal", "rank1", "rank2", "rank3", "rank4")
X_KINDS = ("x", "diagonal")


@settings(max_examples=200, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(STACK_KINDS), min_size=1, max_size=12),
    seed=st.integers(0, 2**32 - 1),
    two_dims=st.booleans(),
)
def test_stacked_concurrence_is_bitwise_the_one_matrix_call(kinds, seed, two_dims):
    rng = np.random.default_rng(seed)
    stack = np.array([_stack_member(kind, rng) for kind in kinds])
    if two_dims and len(kinds) % 2 == 0:
        stack = stack.reshape(2, -1, 4, 4)
    stacked = wootters_concurrence(stack)
    flat = stack.reshape(-1, 4, 4)
    one_by_one = np.array([wootters_concurrence(rho) for rho in flat]).reshape(stack.shape[:-2])
    reference = _references(kinds, flat).reshape(stack.shape[:-2])
    assert _same_bits(stacked, one_by_one)
    assert _same_bits(stacked, reference)


def _references(kinds, flat) -> np.ndarray:
    """The written-out one-matrix value of each member: the closed form for the
    X-shaped kinds, the singular-value route for the rest."""
    return np.array(
        [
            (one_matrix_xstate if kind in X_KINDS else one_matrix_wootters)(rho)
            for kind, rho in zip(kinds, flat)
        ]
    )


def _real_stack_member(kind: str, rng: np.random.Generator) -> np.ndarray:
    """A real density matrix of the given kind: every pair RDM of the
    protocols is one."""
    if kind in ("x", "diagonal"):
        return _stack_member(kind, rng).real
    if kind == "product":
        left, right = rotation_matrix(rng.uniform(0, 2 * np.pi, size=2))
        u = np.kron(left, right)
        return np.outer(u[:, 0], u[:, 0])
    rank = 1 if kind == "pure" else int(kind[-1])
    g = rng.normal(size=(4, rank))
    rho = g @ g.T
    return rho / np.trace(rho)


@settings(max_examples=150, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(STACK_KINDS), min_size=1, max_size=12),
    seed=st.integers(0, 2**32 - 1),
    two_dims=st.booleans(),
)
def test_real_stacked_concurrence_is_bitwise_the_one_matrix_call(kinds, seed, two_dims):
    rng = np.random.default_rng(seed)
    stack = np.array([_real_stack_member(kind, rng) for kind in kinds])
    assert stack.dtype == np.float64
    if two_dims and len(kinds) % 2 == 0:
        stack = stack.reshape(2, -1, 4, 4)
    stacked = wootters_concurrence(stack)
    flat = stack.reshape(-1, 4, 4)
    one_by_one = np.array([wootters_concurrence(rho) for rho in flat]).reshape(stack.shape[:-2])
    reference = _references(kinds, flat).reshape(stack.shape[:-2])
    assert _same_bits(stacked, one_by_one)
    assert _same_bits(stacked, reference)
    # the complex route to the same matrices gives the same values up to roundoff
    assert np.abs(stacked - wootters_concurrence(stack.astype(complex))).max() <= 1e-14


@pytest.mark.parametrize(
    "given, kept", [(np.float64, np.float64), (np.int64, np.float64), (np.complex128, np.complex128)]
)
def test_concurrence_works_in_the_kind_of_its_input(monkeypatch, given, kept):
    seen = []
    eigs, svd = symm_ent.concurrence.hermitian_eigs, np.linalg.svd
    monkeypatch.setattr(
        symm_ent.concurrence, "hermitian_eigs",
        lambda m, **kw: seen.append(m.dtype) or eigs(m, **kw),
    )
    monkeypatch.setattr(np.linalg, "svd", lambda m, **kw: seen.append(m.dtype) or svd(m, **kw))
    # X-shaped: the X route factors the 2x2 blocks and needs no SVD
    product = np.diag([1, 0, 0, 0]).astype(given)
    bell = np.zeros((4, 4), dtype=given)
    bell[::3, ::3] = 1
    assert wootters_concurrence(product) == 0.0
    assert seen == [kept]
    assert abs(wootters_concurrence(bell.astype(kept) / 2) - 1.0) < 1e-12
    assert seen[1:] == [kept]
    # |++><++| has no zero entry: the general route, one eigenvalue check and one SVD
    plus = np.full((4, 4), 0.25, dtype=kept)
    assert wootters_concurrence(plus) < 1e-12
    assert seen[2:] == [kept, kept]


def test_stack_shapes(rng):
    rho = random_density_matrix(rng)
    assert type(wootters_concurrence(rho)) is float
    for shape in ((1,), (3,), (2, 3)):
        stack = np.broadcast_to(rho, shape + (4, 4))
        values = wootters_concurrence(stack)
        assert isinstance(values, np.ndarray) and values.shape == shape
        assert _same_bits(values, np.full(shape, wootters_concurrence(rho)))
    empty = wootters_concurrence(np.zeros((0, 4, 4)))
    assert isinstance(empty, np.ndarray) and empty.shape == (0,)
    for bad in (np.zeros((4,)), np.zeros((3, 4)), np.zeros((2, 3, 3))):
        with pytest.raises(ValueError, match="expected a 4x4 density matrix"):
            wootters_concurrence(bad)


@pytest.mark.parametrize(
    ("bad", "message"),
    [
        (np.triu(np.ones((4, 4))) / 2.5, "not Hermitian"),
        (np.eye(4), "trace"),
        (np.diag([1.5, -0.5, 0.0, 0.0]), "eigenvalue"),
        (np.diag([np.nan, 1.0, 0.0, 0.0]), "non-finite"),
    ],
)
def test_bad_matrix_in_a_stack_is_named(rng, bad, message):
    good = [random_density_matrix(rng) for _ in range(6)]
    stack = np.array(good[:2] + [bad] + good[2:] + [bad]).astype(complex)
    with pytest.raises(ValueError, match=rf"at stack index 2\b.*{message}"):
        wootters_concurrence(stack)
    with pytest.raises(ValueError, match=rf"at stack index \(0, 2\).*{message}"):
        wootters_concurrence(stack.reshape(2, 4, 4, 4))
    with pytest.raises(ValueError, match=message) as single:
        wootters_concurrence(bad)
    assert "stack index" not in str(single.value)


# ------------------------------------------------------------- the X route


def _x_draw(kind: str, rng: np.random.Generator) -> np.ndarray:
    """A random X state of one kind, with real or complex corners."""
    weights = rng.random(4) + 1e-3
    if kind == "rank-deficient":
        weights *= rng.random(4) < 0.7
        weights[int(rng.integers(4))] += 0.5
    x, y, z, w = weights / weights.sum()
    complex_corners = rng.random() < 0.5

    def corner(limit: float) -> complex:
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi)) if complex_corners else rng.choice((-1, 1))
        return limit * phase

    if kind == "diagonal":
        u = delta = 0.0
    elif kind == "rank-deficient":
        # every corner at its positivity limit: each block is singular
        u, delta = corner(np.sqrt(x * w)), corner(np.sqrt(y * z))
    elif kind == "zero-boundary":
        # |u| = sqrt(y z), where the outer branch is zero, and |delta| below it
        if y * z > x * w:
            x, y, z, w = y, x, w, z
        u, delta = corner(np.sqrt(y * z)), corner(rng.random() * np.sqrt(y * z))
    else:
        u, delta = corner(rng.random() * np.sqrt(x * w)), corner(rng.random() * np.sqrt(y * z))
    rho = x_matrix(x, y, z, w, u, delta)
    return rho if complex_corners else rho.real


X_DRAWS = ("generic", "diagonal", "rank-deficient", "zero-boundary")


@settings(max_examples=200, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(X_DRAWS), min_size=1, max_size=12),
    seed=st.integers(0, 2**32 - 1),
)
def test_x_route_agrees_with_the_general_route(kinds, seed):
    # the near-singular spectra the general route must also get right are
    # test_general_route_is_exact_near_a_vanishing_eigenvalue's subject
    rng = np.random.default_rng(seed)
    for rho in (_x_draw(kind, rng) for kind in kinds):
        assert abs(wootters_concurrence(rho) - general_route(rho)) <= 1e-14
        assert wootters_concurrence(rho) == xstate_concurrence(rho) == one_matrix_xstate(rho)


@settings(max_examples=150, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(X_DRAWS + STACK_KINDS), min_size=2, max_size=12),
    seed=st.integers(0, 2**32 - 1),
)
def test_mixed_stack_gives_each_member_its_one_matrix_value(kinds, seed):
    rng = np.random.default_rng(seed)
    stack = np.array(
        [(_x_draw if kind in X_DRAWS else _stack_member)(kind, rng) for kind in kinds]
    ).astype(complex)
    stacked = wootters_concurrence(stack)
    assert _same_bits(stacked, [wootters_concurrence(rho) for rho in stack])
    x_route = [kind in X_DRAWS + X_KINDS for kind in kinds]
    if any(x_route):
        assert _same_bits(stacked[x_route], xstate_concurrence(stack[x_route]))


def _protocol_rdms():
    """(label, stack of pair RDMs) for every protocol family."""
    thetas = tuple(np.linspace(0.0, 2 * np.pi, 13).tolist())
    # shifted off the angles where a post-selected branch vanishes (0 and pi)
    star = StateVector.zeros(5).run_circuit(build_star(4, tuple(t + 0.1 for t in thetas[:-1])))
    yield "star", np.array([star.pair_rdm(i, j) for i in range(1, 5) for j in range(i + 1, 6)])
    for outcome in (0, 1):
        ring, _ = star.postselect(5, outcome)
        rdms = [ring.pair_rdm(i, j) for i in range(1, 5) for j in range(i + 1, 5)]
        yield f"ring {outcome}", np.array(rdms)
    for case in (1, 2, 3, 4):
        chain = StateVector.zeros(7).run_circuit(build_linear(7, case, thetas))
        yield f"linear case {case}", np.array([chain.pair_rdm(i, i + 1) for i in range(1, 7)])
    periodic = StateVector.zeros(8).run_circuit(build_periodic(8, thetas, thetas[::-1]))
    yield "periodic", np.array([periodic.pair_rdm(i, i + 1) for i in range(1, 8)])
    # the MPS reads carry roundoff off the X pattern
    rdms = []
    for theta in thetas:
        mps = MatrixProductState(12).run_circuit(build_linear(12, 4, theta))
        rdms.extend(mps.pair_rdm(i, i + 1) for i in range(1, 12))
    yield "linear case 4 (MPS)", np.array(rdms)


def test_protocol_rdms_agree_on_the_general_route():
    for label, rdms in _protocol_rdms():
        scores = wootters_concurrence(rdms)
        assert np.abs(scores - general_route(rdms)).max() <= 1e-14, label
        # cases 1 and 3 leave every pair but the end one off the X pattern
        if label not in ("linear case 1", "linear case 3"):
            assert _same_bits(scores, xstate_concurrence(rdms)), label
