import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symm_ent import (
    StateVector,
    XStateParams,
    build_linear,
    extract_xstate,
    rotation_matrix,
    unitary_params,
    wootters_concurrence,
    xstate_concurrence,
)
from symm_ent.formulas import analytic_concurrence, analytic_pair_rdm

from oracles import haar_unitary, one_matrix_wootters, random_density_matrix, random_x_state


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


def test_extract_xstate_bell():
    params = extract_xstate(bell_projector())
    assert params == XStateParams(x=0.5, y=0.0, z=0.0, w=0.5, u=0.5, delta=0.0)


def test_extract_xstate_bulk_entries():
    theta = 1.3
    a, b = np.sin(theta / 2), np.cos(theta / 2)
    params = extract_xstate(analytic_pair_rdm("linear_bulk", unitary_params(theta)))
    assert abs(params.x - (a**6 + b**6)) < 1e-14
    assert abs(params.y - a**2 * b**2) < 1e-14
    assert abs(params.z - a**2 * b**2) < 1e-14
    assert abs(params.w - a**2 * b**2) < 1e-14
    assert abs(params.u - (a**5 * b + a * b**5)) < 1e-14
    assert abs(params.delta - 2 * (a**5 * b**3 + a**3 * b**5)) < 1e-14


def test_extract_xstate_rejects_structure_violation():
    rho = bell_projector()
    rho[0, 1] = rho[1, 0] = 0.1
    with pytest.raises(ValueError, match="not an X state"):
        extract_xstate(rho, tol=1e-10)
    rho = bell_projector()
    rho[0, 3] = 0.5j
    rho[3, 0] = -0.5j
    with pytest.raises(ValueError, match="imaginary"):
        extract_xstate(rho, tol=1e-10)


def test_xstate_concurrence_bell():
    assert abs(xstate_concurrence(extract_xstate(bell_projector())) - 1.0) < 1e-14


def test_xstate_star_central_one_sided_form():
    # on [0, pi] the central-pair family has u >= delta >= 0 and
    # sqrt(x w) = u, sqrt(y z) = delta, so C = 2 (u - delta)
    for theta in np.linspace(0.0, np.pi, 21):
        params = extract_xstate(analytic_pair_rdm("star_central", unitary_params(theta)))
        assert params.u >= params.delta - 1e-14
        assert abs(np.sqrt(params.x * params.w) - params.u) < 1e-14
        assert abs(np.sqrt(params.y * params.z) - params.delta) < 1e-14
        expected = max(0.0, 2.0 * (params.u - params.delta))
        assert abs(xstate_concurrence(params) - expected) < 1e-14


def test_xstate_fast_path_matches_general(rng):
    for _ in range(1000):
        rho = random_x_state(rng)
        fast = xstate_concurrence(extract_xstate(rho))
        general = wootters_concurrence(rho)
        assert abs(fast - general) < 1e-10


def test_xstate_params_validation():
    with pytest.raises(ValueError, match="sums"):
        xstate_concurrence(XStateParams(0.5, 0.0, 0.0, 0.4, 0.0, 0.0))
    with pytest.raises(ValueError, match="positivity"):
        xstate_concurrence(XStateParams(0.25, 0.25, 0.25, 0.25, 0.4, 0.0))


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
                fast = xstate_concurrence(extract_xstate(rho, tol=1e-10))
                assert abs(fast - wootters_concurrence(rho)) < 1e-10


def test_general_path_is_exact_near_zeros():
    # rank-deficient separable state whose spin-flip spectrum touches zero:
    # the naive eigenvalue route loses half the precision here
    sv = StateVector.zeros(2).apply_1q(rotation_matrix(0.3), 1)
    rho = sv.pair_rdm(1, 2)
    assert wootters_concurrence(rho) < 1e-13


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
    reference = np.array([one_matrix_wootters(rho) for rho in flat]).reshape(stack.shape[:-2])
    assert _same_bits(stacked, one_by_one)
    assert _same_bits(stacked, reference)


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
