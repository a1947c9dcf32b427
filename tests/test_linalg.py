import re

import numpy as np
import pytest

from symm_ent import SVDResult, hermitian_eigs, svd_truncate
from symm_ent.concurrence import DM_TOL


def reconstruct(res: SVDResult) -> np.ndarray:
    return (res.left_isometry * res.singular_values) @ res.right_isometry_dag


def test_identity_full_rank():
    res = svd_truncate(np.eye(2), max_rank=2)
    assert np.allclose(res.singular_values, [1.0, 1.0])
    assert res.discarded_weight == 0.0


def test_exact_low_rank():
    res = svd_truncate(np.diag([3.0, 0.0]), max_rank=1)
    assert np.allclose(res.singular_values, [3.0])
    assert res.discarded_weight == 0.0


def test_random_reconstruction(rng):
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    res = svd_truncate(m, max_rank=4)
    assert np.abs(reconstruct(res) - m).max() < 1e-12


@pytest.mark.parametrize("shape", [(3, 5), (5, 3), (8, 8), (1, 4)])
def test_isometries_and_weight_accounting(rng, shape):
    m = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    for max_rank in (1, 2, min(shape)):
        res = svd_truncate(m, max_rank=max_rank)
        k = res.rank
        assert k <= max_rank
        u, vdag = res.left_isometry, res.right_isometry_dag
        assert np.abs(u.conj().T @ u - np.eye(k)).max() < 1e-12
        assert np.abs(vdag @ vdag.conj().T - np.eye(k)).max() < 1e-12
        err = np.linalg.norm(m - reconstruct(res)) ** 2 / np.linalg.norm(m) ** 2
        assert abs(err - res.discarded_weight) < 1e-12
        assert 0.0 <= res.discarded_weight <= 1.0
        assert np.all(np.diff(res.singular_values) <= 1e-15)
        assert np.all(res.singular_values >= 0.0)


def test_absolute_floor_kills_roundoff_rank():
    res = svd_truncate(np.diag([1.0, 1e-15]), max_rank=2)
    assert res.rank == 1


def test_zero_matrix_keeps_one_value():
    res = svd_truncate(np.zeros((3, 3)), max_rank=2)
    assert res.rank == 1
    assert res.singular_values[0] == 0.0
    assert res.discarded_weight == 0.0


def test_svd_input_validation():
    message = "expected a non-empty 2-d matrix or a stack of them, got shape (0, 2)"
    with pytest.raises(ValueError, match=re.escape(message)):
        svd_truncate(np.zeros((0, 2)), max_rank=1)
    with pytest.raises(ValueError, match="max_rank must be >= 1, got 0"):
        svd_truncate(np.eye(2), max_rank=0)
    with pytest.raises(ValueError, match="matrix contains non-finite entries"):
        svd_truncate(np.array([[np.nan, 0], [0, 1]]), max_rank=1)
    assert svd_truncate(np.eye(3), max_rank=np.int64(2)).rank == 2


@pytest.mark.parametrize("max_rank", [2.5, 2.0, True, False, "2", None, np.float64(2.0)])
def test_max_rank_must_be_an_integer(max_rank):
    with pytest.raises(ValueError, match="max_rank must be an integer"):
        svd_truncate(np.eye(3), max_rank=max_rank)


def test_eigs_identity():
    vals = hermitian_eigs(np.eye(2))
    assert np.allclose(vals, [1.0, 1.0])


def test_eigs_diagonal_sorted_ascending():
    vals = hermitian_eigs(np.diag([1.0, -1.0]))
    assert np.allclose(vals, [-1.0, 1.0])


def test_eigs_bell_projector():
    bell = np.zeros((4, 4), dtype=complex)
    for r in (0, 3):
        for c in (0, 3):
            bell[r, c] = 0.5
    vals = hermitian_eigs(bell)
    assert np.allclose(vals, [0.0, 0.0, 0.0, 1.0], atol=1e-12)


def test_eigs_residual_and_trace(rng):
    g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    m = g + g.conj().T
    vals = hermitian_eigs(m)
    assert abs(vals.sum() - np.trace(m).real) < 1e-10
    # the spectrum's residual without eigenvectors: sum of squares = |M|_F^2
    assert abs(np.square(vals).sum() - np.square(np.abs(m)).sum()) < 1e-10


def test_eigs_rejects_non_hermitian():
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_eigs(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match=re.escape("expected a square matrix, got shape (2, 3)")):
        hermitian_eigs(np.zeros((2, 3)))


def test_absolute_floor_boundary_at_zero_tol():
    # exactly the values at or above the 1e-14 floor are kept
    assert svd_truncate(np.diag([1.0, 1e-14]), max_rank=2).rank == 2
    assert svd_truncate(np.diag([1.0, np.nextafter(1e-14, 0.0)]), max_rank=2).rank == 1
    # and on stacks, in either orientation
    for small, rank in ((1e-14, 2), (np.nextafter(1e-14, 0.0), 1)):
        for cols in (2, 4):
            m = np.zeros((32, 2, cols))
            m[:, 0, 0], m[:, 1, 1] = 1.0, small
            for stack in (m, m.swapaxes(-1, -2)):
                res = svd_truncate(stack, max_rank=2)
                assert res.rank == rank and np.all(res.singular_values[:, 0] == 1.0)


def test_stacked_eigs_are_bitwise_the_per_matrix_call(rng):
    g = rng.normal(size=(3, 5, 6, 6)) + 1j * rng.normal(size=(3, 5, 6, 6))
    stack = g + g.conj().swapaxes(-1, -2)
    # real and complex: bitwise the per-matrix call and LAPACK's values-only driver
    for herm in (stack, stack.real):
        vals = hermitian_eigs(herm)
        assert vals.shape == (3, 5, 6) and vals.dtype == np.float64
        for index in np.ndindex(3, 5):
            assert hermitian_eigs(herm[index]).tobytes() == vals[index].tobytes()
            ref = np.linalg.eigvalsh(0.5 * (herm[index] + herm[index].conj().T))
            assert ref.tobytes() == vals[index].tobytes()
    assert hermitian_eigs(np.zeros((0, 4, 4))).shape == (0, 4)


def test_stacked_eigs_name_the_bad_matrix():
    stack = np.stack([np.eye(2)] * 4).astype(complex)
    stack[2, 0, 1] = 1.0
    with pytest.raises(ValueError, match="matrix at stack index 2 is not Hermitian"):
        hermitian_eigs(stack)
    with pytest.raises(ValueError, match=r"matrix at stack index \(1, 0\) is not Hermitian"):
        hermitian_eigs(stack.reshape(2, 2, 2, 2))
    stack[2, 0, 1] = np.inf
    with pytest.raises(ValueError, match="matrix at stack index 2 contains non-finite"):
        hermitian_eigs(stack)
    with pytest.raises(ValueError, match="expected a non-empty 2-d matrix"):
        hermitian_eigs(np.zeros((2, 0, 0)))
    with pytest.raises(ValueError, match="square"):
        hermitian_eigs(np.zeros((2, 2, 3)))


def _hermitian(rng, n, complex_):
    g = rng.normal(size=(n, 2, 2)) + (1j * rng.normal(size=(n, 2, 2)) if complex_ else 0.0)
    return g + g.conj().swapaxes(-1, -2)


def _near_dm_tol(rng, n, complex_):
    """Density-matrix blocks whose smallest eigenvalue is within 1e-16 of -DM_TOL."""
    smallest = -DM_TOL + rng.uniform(-1e-16, 1e-16, n)
    d = np.zeros((n, 2, 2))
    d[:, 0, 0], d[:, 1, 1] = smallest, 1.0 - smallest
    angle, phase = rng.uniform(0.0, 2 * np.pi, (2, n))
    u = np.zeros((n, 2, 2), complex if complex_ else float)
    u[:, 0, 0] = u[:, 1, 1] = np.cos(angle)
    u[:, 1, 0] = np.sin(angle) * (np.exp(1j * phase) if complex_ else 1.0)
    u[:, 0, 1] = -u[:, 1, 0].conj()
    return u @ d @ u.conj().swapaxes(-1, -2)


# stacks of 2x2 Hermitian matrices, one kind each; complex_ picks the kind of the entries
TWO_BY_TWO = {
    "general": lambda rng, complex_: _hermitian(rng, 50, complex_),
    "diagonal": lambda rng, complex_: _hermitian(rng, 50, complex_) * np.eye(2),
    "multiple of I": lambda rng, complex_: (rng.normal(size=(50, 1, 1)) * np.eye(2)).astype(
        complex if complex_ else float
    ),
    "zero": lambda rng, complex_: np.zeros((3, 2, 2), complex if complex_ else float),
    "scaled 1e150": lambda rng, complex_: _hermitian(rng, 50, complex_) * 1e150,
    "scaled 1e-150": lambda rng, complex_: _hermitian(rng, 50, complex_) * 1e-150,
    "eigenvalue near -DM_TOL": lambda rng, complex_: _near_dm_tol(rng, 50, complex_),
}


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("kind", list(TWO_BY_TWO))
def test_two_by_two_spectra_are_the_closed_form(rng, monkeypatch, kind, complex_):
    """A 2x2 spectrum is (x + z)/2 -+ hypot((x - z)/2, |b|), no LAPACK call:
    ascending, within 8 eps max|lambda| of LAPACK's (6.3 eps was the worst of
    1.2 million random draws), and each stacked value bitwise its one-matrix call."""
    stack = TWO_BY_TWO[kind](rng, complex_)
    assert np.iscomplexobj(stack) == complex_
    reference = np.linalg.eigvalsh(stack)
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda h: pytest.fail("a 2x2 went to LAPACK"))
    values = hermitian_eigs(stack)
    assert values.shape == stack.shape[:-1] and values.dtype == np.float64
    assert np.all(values[:, 0] <= values[:, 1])
    scale = np.abs(reference).max(axis=-1, keepdims=True)
    assert np.all(np.abs(values - reference) <= 8 * np.finfo(float).eps * scale)
    for k, matrix in enumerate(stack):
        assert hermitian_eigs(matrix).tobytes() == values[k].tobytes()
    # the X route's (P, 2, 2, 2) stack of block pairs, one pair alone too
    pairs = stack[: len(stack) // 2 * 2].reshape(-1, 2, 2, 2)
    paired = hermitian_eigs(pairs)
    assert paired.tobytes() == values[: 2 * len(pairs)].tobytes()
    assert hermitian_eigs(pairs[:1]).tobytes() == paired[:1].tobytes()


def test_stacked_svd_shares_the_largest_rank(rng):
    stack = np.array([np.diag([1.0, 0.0, 0.0]), np.diag([2.0, 1e-3, 0.0]), np.zeros((3, 3))])
    res = svd_truncate(stack, max_rank=3)
    assert res.rank == 2
    assert res.left_isometry.shape == (3, 3, 2) and res.right_isometry_dag.shape == (3, 2, 3)
    assert res.discarded_weight.shape == (3,) and not res.discarded_weight.any()
    for matrix, u, s, vdag in zip(stack, res.left_isometry, res.singular_values,
                                  res.right_isometry_dag):
        assert np.abs((u * s) @ vdag - matrix).max() < 1e-15
    capped = svd_truncate(stack, max_rank=1)
    assert capped.rank == 1
    assert capped.discarded_weight.tolist() == [0.0, pytest.approx(1e-6 / (4 + 1e-6)), 0.0]
    g = rng.normal(size=(5, 4, 3)) + 1j * rng.normal(size=(5, 4, 3))
    stacked = svd_truncate(g, max_rank=2)
    for index, matrix in enumerate(g):
        one = svd_truncate(matrix, max_rank=2)
        assert isinstance(one.discarded_weight, float)
        assert abs(one.discarded_weight - stacked.discarded_weight[index]) < 1e-15
        assert np.abs(one.singular_values - stacked.singular_values[index]).max() < 1e-14


def test_require_unitary_checks_a_stack_and_names_the_bad_gate():
    from symm_ent.linalg import require_unitary

    stack = np.stack([np.eye(2), np.array([[0, 1], [1, 0]]), np.eye(2)]).astype(complex)
    assert require_unitary(stack, 2).shape == (3, 2, 2)
    stack[2, 0, 0] = 2.0
    with pytest.raises(ValueError, match="gate at stack index 2 is not unitary"):
        require_unitary(stack, 2)
    with pytest.raises(ValueError, match="must be 4x4"):
        require_unitary(np.stack([np.eye(2)] * 2), 4)


# input kind -> working kind: real stays real, complex stays complex, and
# int, bool and single precision become double precision
KINDS = [
    (np.float64, np.float64),
    (np.float32, np.float64),
    (np.int64, np.float64),
    (np.bool_, np.float64),
    (np.complex128, np.complex128),
    (np.complex64, np.complex128),
]


@pytest.mark.parametrize("given, kept", KINDS)
def test_kernels_work_in_the_kind_of_their_input(rng, monkeypatch, given, kept):
    from symm_ent.linalg import require_unitary

    ints = rng.integers(-3, 4, size=(3, 4, 4))
    if np.issubdtype(given, np.complexfloating):
        ints = ints + 1j * rng.integers(-3, 4, size=(3, 4, 4))
    m = ints.astype(given)
    res = svd_truncate(m, max_rank=4)
    assert res.left_isometry.dtype == kept and res.right_isometry_dag.dtype == kept
    assert res.singular_values.dtype == np.float64
    rebuilt = (res.left_isometry * res.singular_values[..., None, :]) @ res.right_isometry_dag
    assert np.abs(rebuilt - m).max() < 1e-12

    hermitian = (m + m.conj().swapaxes(-1, -2)).astype(given)
    factored, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda h: factored.append(h.dtype) or eigvalsh(h))
    vals = hermitian_eigs(hermitian)
    assert vals.dtype == np.float64 and factored == [kept]
    assert np.abs(vals.sum(axis=-1) - np.trace(hermitian, axis1=-2, axis2=-1).real).max() < 1e-12

    swap = np.array([[0, 1], [1, 0]]).astype(given)
    assert require_unitary(swap, 2).dtype == kept
    assert require_unitary(np.stack([swap] * 3), 2).dtype == kept



# Stacks of real two-row (or two-column) matrices, one kind per case. Each
# kind's matrices sit at the even stack positions and generic ones at the odd
# positions, so a stack of two or more keeps rank 2 and every completed vector
# is visible; a stack of one holds the kind's matrix alone.
TWO_ROW_KINDS = {
    "generic": lambda rng, shape: rng.normal(size=shape),
    "zero row": lambda rng, shape: rng.normal(size=shape) * [[1.0], [0.0]],
    "zero first row": lambda rng, shape: rng.normal(size=shape) * [[0.0], [1.0]],
    # squares of the second row are subnormal unless it gets its own scale
    "row 1e-160 of the other": lambda rng, shape: rng.normal(size=shape) * [[1.0], [1e-160]],
    # a subnormal row: V stays orthonormal only if its projection is redone scaled up
    "row 1e-313 of the other": lambda rng, shape: rng.normal(size=shape) * [[1.0], [1e-313]],
    "all zero": lambda rng, shape: np.zeros(shape),
    "parallel rows": lambda rng, shape: np.outer([1.0, rng.normal()], rng.normal(size=shape[1])),
    "rank 1 one column": lambda rng, shape: np.outer(rng.normal(size=2), np.eye(shape[1])[0]),
    "orthonormal rows": lambda rng, shape: np.linalg.qr(rng.normal(size=shape[::-1]))[0].T,
    "entries 1e+150": lambda rng, shape: 1e150 * rng.normal(size=shape),
    "entries 1e-150": lambda rng, shape: 1e-150 * rng.normal(size=shape),
    # squares of these underflow: only the closed form's prescale keeps them
    "entries 1e-200": lambda rng, shape: 1e-200 * rng.normal(size=shape),
}


def _two_row_stack(rng, kind, points, rows, cols):
    matrices = [
        TWO_ROW_KINDS["generic" if k % 2 else kind](rng, (2, max(rows, cols)))
        for k in range(points)
    ]
    stack = np.array(matrices)
    return stack if rows == 2 else stack.swapaxes(-1, -2)


@pytest.mark.parametrize("points", [1, 5, 31, 32])
@pytest.mark.parametrize("rows, cols", [(2, 4), (4, 2), (2, 2)])
@pytest.mark.parametrize("kind", sorted(TWO_ROW_KINDS))
def test_two_row_stacks_factor_to_roundoff(rng, kind, rows, cols, points):
    tol = 1e-15
    m = _two_row_stack(rng, kind, points, rows, cols)
    res = svd_truncate(m, max_rank=2)
    u, s, vdag = res.left_isometry, res.singular_values, res.right_isometry_dag
    # LAPACK's own values carry up to ~1e-15 max|M| of roundoff on 2x4 matrices
    lapack = np.linalg.svd(m, compute_uv=False)
    # a rank-1 matrix alone, or one below the 1e-14 floor, keeps one value
    keep = 2 if (lapack[:, 1] >= 1e-14).any() else 1
    assert res.rank == keep
    assert u.shape == (points, rows, keep) and vdag.shape == (points, keep, cols)
    assert np.abs(u.swapaxes(-1, -2) @ u - np.eye(keep)).max() <= tol
    assert np.abs(vdag @ vdag.swapaxes(-1, -2) - np.eye(keep)).max() <= tol
    biggest = np.abs(m).max(axis=(-2, -1))
    rebuilt = (u * s[:, None, :]) @ vdag
    dropped = lapack[:, keep:].sum(axis=-1)
    assert np.all(np.abs(rebuilt - m).max(axis=(-2, -1)) <= tol * biggest + dropped)
    assert np.all(s >= 0.0) and np.all(s[:, -1] <= s[:, 0] * (1 + np.finfo(float).eps))
    assert np.all(np.abs(s - lapack[:, :keep]).max(axis=-1) <= 1e-15 * biggest)
    # squares relative to the largest value: those of 1e-200 underflow
    ratios = np.square(np.divide(lapack, lapack[:, :1], out=np.zeros_like(lapack),
                                 where=lapack[:, :1] > 0.0))
    weight = ratios[:, keep:].sum(axis=-1) / np.maximum(ratios.sum(axis=-1), 1.0)
    assert np.allclose(res.discarded_weight, weight, rtol=1e-12, atol=1e-30)


# A split's two-row block M[l, (p r)] and two-column block M[(l p), r], one
# physical index p graded by a small factor, as p is near a dead branch
GRADED_SLICES = {
    (2, 4): (slice(None), slice(2, 4)),
    (4, 2): (slice(1, 4, 2), slice(None)),
}


@pytest.mark.parametrize("points", [1, 64])
@pytest.mark.parametrize("grade", [1e-4, 1e-8, 1e-12])
@pytest.mark.parametrize("shape", sorted(GRADED_SLICES), ids=["2x4", "4x2"])
def test_two_row_backward_error_is_small_in_every_slice(rng, shape, grade, points):
    """Each row and each column of U diag(s) V^T is within 1e-15 of that row or
    column of M, relative to its own largest entry, however small the slice.
    The closed form measured at most 6.7e-16 on 7,200 such draws; LAPACK
    missed the graded rows of a 4x2 block by up to 5.3e-3 of their size."""
    m = rng.normal(size=(64, *shape))
    m[(...,) + GRADED_SLICES[shape]] *= grade
    if points == 1:
        res = [svd_truncate(one[None], max_rank=2) for one in m]
        u, s, vdag = (np.concatenate([getattr(r, name) for r in res]) for name in
                      ("left_isometry", "singular_values", "right_isometry_dag"))
    else:
        res = svd_truncate(m, max_rank=2)
        u, s, vdag = res.left_isometry, res.singular_values, res.right_isometry_dag
    error = np.abs((u * s[:, None, :]) @ vdag - m)
    for axis in (-2, -1):
        assert np.all(error.max(axis=axis) <= 1e-15 * np.abs(m).max(axis=axis))


@pytest.mark.parametrize(
    "shape, dtype, calls",
    [
        # every real two-row or two-column matrix, whatever its stack size,
        # takes the closed form; complex, wider and one-row or one-column
        # blocks go to LAPACK
        ((32, 2, 4), np.float64, 0),
        ((32, 4, 2), np.float64, 0),
        ((2, 32, 2, 2), np.int64, 0),
        ((32, 2, 4), np.complex128, 1),
        ((32, 4, 4), np.float64, 1),
        ((4, 4), np.float64, 1),
        ((8, 3, 3), np.float64, 1),
        ((32, 2, 1), np.float64, 1),
        ((2, 4), np.complex128, 1),
        ((2, 4), np.float64, 0),
        ((4, 2), np.float64, 0),
        ((2, 2), np.float64, 0),
        ((1, 2, 4), np.float64, 0),
        ((1, 4, 2), np.float64, 0),
        ((31, 2, 4), np.float64, 0),
        ((31, 4, 2), np.float64, 0),
    ],
)
def test_svd_route(rng, monkeypatch, shape, dtype, calls):
    seen = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda m, **kw: seen.append(m.shape) or svd(m, **kw))
    m = rng.integers(-3, 4, size=shape).astype(dtype)
    res = svd_truncate(m, max_rank=min(shape[-2:]))
    assert len(seen) == calls
    rebuilt = (res.left_isometry * res.singular_values[..., None, :]) @ res.right_isometry_dag
    # singular integer draws lose their values below the 1e-14 floor
    assert np.abs(rebuilt - m).max() <= 1e-13



@pytest.mark.parametrize(
    "stack, rows, calls", [(4, 4, 1), (32, 2, 0)], ids=["lapack", "closed-form"]
)
@pytest.mark.parametrize("rank", [2, 1])
def test_discarded_weight_of_huge_entries_is_finite(rng, monkeypatch, stack, rows, calls, rank):
    """Entries of 1e300, far above the 1e154 whose square overflows, give the
    discarded weight of the same matrices at unit scale, with no floating-point
    warning, on both SVD routes: real 4x4 stacks go to LAPACK, real 2x4 ones
    to the closed form."""
    seen = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda m, **kw: seen.append(m.shape) or svd(m, **kw))
    m = rng.normal(size=(stack, rows, 4))
    if rank == 1:
        m = rng.normal(size=(stack, rows, 1)) * rng.normal(size=(stack, 1, 4))
    with np.errstate(all="raise"):
        unit = svd_truncate(m, max_rank=1).discarded_weight
        huge = svd_truncate(m * 1e300, max_rank=1)
    assert len(seen) == 2 * calls
    assert huge.discarded_weight.shape == (stack,) and np.isfinite(huge.discarded_weight).all()
    if rank == 2:
        assert unit.min() > 1e-6
        assert np.abs(huge.discarded_weight - unit).max() <= 1e-12 * unit.max()
    else:
        # one value per matrix carries it all: rank 1 is kept whole
        assert huge.discarded_weight.max() <= 1e-28
        u, v = huge.left_isometry, huge.right_isometry_dag
        rebuilt = (u * huge.singular_values[..., None, :]) @ v
        assert np.abs(rebuilt / 1e300 - m).max() <= 1e-14 * np.abs(m).max()
