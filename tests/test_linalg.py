import numpy as np
import pytest

from symm_ent import SVDResult, hermitian_eigs, svd_truncate


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
    with pytest.raises(ValueError):
        svd_truncate(np.zeros((0, 2)), max_rank=1)
    with pytest.raises(ValueError):
        svd_truncate(np.eye(2), max_rank=0)
    with pytest.raises(ValueError):
        svd_truncate(np.array([[np.nan, 0], [0, 1]]), max_rank=1)


def test_eigs_identity():
    vals, _ = hermitian_eigs(np.eye(2))
    assert np.allclose(vals, [1.0, 1.0])


def test_eigs_diagonal_sorted_ascending():
    vals, _ = hermitian_eigs(np.diag([1.0, -1.0]))
    assert np.allclose(vals, [-1.0, 1.0])


def test_eigs_bell_projector():
    bell = np.zeros((4, 4), dtype=complex)
    for r in (0, 3):
        for c in (0, 3):
            bell[r, c] = 0.5
    vals, vecs = hermitian_eigs(bell)
    assert np.allclose(vals, [0.0, 0.0, 0.0, 1.0], atol=1e-12)
    for k in range(4):
        assert np.abs(bell @ vecs[:, k] - vals[k] * vecs[:, k]).max() < 1e-10


def test_eigs_residual_and_trace(rng):
    g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    m = g + g.conj().T
    vals, vecs = hermitian_eigs(m)
    assert abs(vals.sum() - np.trace(m).real) < 1e-10
    for k in range(6):
        assert np.abs(m @ vecs[:, k] - vals[k] * vecs[:, k]).max() < 1e-10


def test_eigs_rejects_non_hermitian():
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_eigs(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        hermitian_eigs(np.zeros((2, 3)))


def test_absolute_floor_boundary_at_zero_tol():
    # exactly the values at or above the 1e-14 floor are kept
    assert svd_truncate(np.diag([1.0, 1e-14]), max_rank=2).rank == 2
    assert svd_truncate(np.diag([1.0, np.nextafter(1e-14, 0.0)]), max_rank=2).rank == 1


def test_stacked_eigs_are_bitwise_the_per_matrix_call(rng):
    g = rng.normal(size=(3, 5, 6, 6)) + 1j * rng.normal(size=(3, 5, 6, 6))
    stack = g + g.conj().swapaxes(-1, -2)
    vals, vecs = hermitian_eigs(stack)
    assert vals.shape == (3, 5, 6) and vecs.shape == (3, 5, 6, 6)
    for index in np.ndindex(3, 5):
        one_vals, one_vecs = hermitian_eigs(stack[index])
        assert one_vals.tobytes() == vals[index].tobytes()
        assert one_vecs.tobytes() == vecs[index].tobytes()
        ref_vals, ref_vecs = np.linalg.eigh(0.5 * (stack[index] + stack[index].conj().T))
        assert ref_vals.tobytes() == vals[index].tobytes()
        assert ref_vecs.tobytes() == vecs[index].tobytes()
    empty_vals, empty_vecs = hermitian_eigs(np.zeros((0, 4, 4)))
    assert empty_vals.shape == (0, 4) and empty_vecs.shape == (0, 4, 4)


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
