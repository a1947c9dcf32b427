"""Dense complex linear-algebra kernels shared by the simulation modules.

Only two factorizations are needed anywhere in this package: a truncated
singular value decomposition (splitting two-site blocks, compressing bonds)
and a Hermitian eigendecomposition (density-matrix spectra). Every matrix
that reaches these routines is small, a few hundred rows at the very most,
so explicit validation and deterministic behavior win over asymptotics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Singular values below this absolute floor are treated as exact zeros before
# rank counting, so roundoff cannot inflate the kept rank.
SINGULAR_VALUE_FLOOR = 1e-14


@dataclass(frozen=True)
class SVDResult:
    """Truncated factorization M ~ left_isometry @ diag(singular_values) @ right_isometry_dag.

    ``left_isometry`` has orthonormal columns, ``right_isometry_dag`` has
    orthonormal rows, ``singular_values`` is non-negative and descending, and
    ``discarded_weight`` is the squared weight of the dropped values relative
    to the total (0 when nothing was dropped).
    """

    left_isometry: np.ndarray
    singular_values: np.ndarray
    right_isometry_dag: np.ndarray
    discarded_weight: float

    @property
    def rank(self) -> int:
        return int(self.singular_values.size)


def first_flagged(bad: np.ndarray, stack_shape: tuple[int, ...]) -> tuple[int, str]:
    """Locate the first flagged matrix of a stack of shape ``stack_shape``.

    ``bad`` holds one flag per matrix, in C order. Returns the flat position
    of the first True flag and a message fragment naming its stack index,
    ``" at stack index k"``, which is empty for a single matrix.
    """
    flat = int(np.argmax(bad))
    if not stack_shape:
        return flat, ""
    index = tuple(int(i) for i in np.unravel_index(flat, stack_shape))
    return flat, f" at stack index {index[0] if len(index) == 1 else index}"


def _as_matrix(matrix, stacked: bool = False) -> np.ndarray:
    arr = np.asarray(matrix, dtype=complex)
    if arr.ndim < 2 or (arr.ndim > 2 and not stacked) or 0 in arr.shape[-2:]:
        kind = "matrix or a stack of them" if stacked else "matrix"
        raise ValueError(f"expected a non-empty 2-d {kind}, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        _, where = first_flagged(~np.isfinite(arr).all(axis=(-2, -1)).ravel(), arr.shape[:-2])
        raise ValueError(f"matrix{where} contains non-finite entries")
    return arr


def svd_truncate(matrix, max_rank: int) -> SVDResult:
    """SVD of ``matrix`` keeping at most ``max_rank`` singular values.

    The kept rank is ``min(max_rank, k)`` where ``k`` counts the singular
    values at or above ``SINGULAR_VALUE_FLOOR``; at least one value is always
    kept so downstream tensors never lose their bond. The reported
    ``discarded_weight`` equals the relative squared Frobenius reconstruction
    error of the truncated factorization.

    Raises:
        ValueError: on malformed input or invalid ``max_rank``.
        RuntimeError: if the underlying factorization fails to converge.
    """
    m = _as_matrix(matrix)
    if max_rank < 1:
        raise ValueError(f"max_rank must be >= 1, got {max_rank}")
    try:
        u, s, vdag = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(
            f"SVD failed to converge for a {m.shape[0]}x{m.shape[1]} matrix: {exc}"
        ) from exc

    total = float((s * s).sum())
    keep = 1
    discarded = 0.0
    if total > 0.0:
        significant = np.count_nonzero(s >= SINGULAR_VALUE_FLOOR)
        keep = max(1, min(int(max_rank), int(significant)))
        if keep < s.size:
            discarded = float((s[keep:] ** 2).sum() / total)

    return SVDResult(
        left_isometry=u[:, :keep],
        singular_values=s[:keep],
        right_isometry_dag=vdag[:keep, :],
        discarded_weight=discarded,
    )


def hermitian_eigs(matrix, herm_tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (real, ascending) and eigenvectors of a Hermitian matrix.

    ``matrix`` is one ``(n, n)`` matrix or a ``(..., n, n)`` stack, factored
    in one call; each stacked result is bitwise equal to factoring that
    matrix alone. Every input must be Hermitian within ``herm_tol``
    elementwise; it is symmetrized before factorization so the returned
    spectrum is exactly real.

    Returns:
        ``(eigenvalues, eigenvectors)`` with ``eigenvectors[..., :, k]`` the
        eigenvector belonging to ``eigenvalues[..., k]``.
    """
    m = _as_matrix(matrix, stacked=True)
    if m.shape[-2] != m.shape[-1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    adjoint = m.conj().swapaxes(-1, -2)
    deviation = np.abs(m - adjoint)
    if deviation.max(initial=0.0) > herm_tol:
        deviation = deviation.max(axis=(-2, -1)).ravel()
        flat, where = first_flagged(deviation > herm_tol, m.shape[:-2])
        raise ValueError(
            f"matrix{where} is not Hermitian: max |M - M^dag| = {deviation[flat]:.3e} "
            f"exceeds {herm_tol:.1e}"
        )
    try:
        vals, vecs = np.linalg.eigh(0.5 * (m + adjoint))
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigendecomposition failed to converge: {exc}") from exc
    return vals, vecs


def require_unitary(matrix, dim: int, tol: float = 1e-12, label: str = "gate") -> np.ndarray:
    """Validate that ``matrix`` is a ``dim x dim`` unitary within ``tol``."""
    m = _as_matrix(matrix)
    if m.shape != (dim, dim):
        raise ValueError(f"{label} must be {dim}x{dim}, got shape {m.shape}")
    deviation = float(np.max(np.abs(m.conj().T @ m - np.eye(dim))))
    if deviation > tol:
        raise ValueError(f"{label} is not unitary: max |G^dag G - I| = {deviation:.3e}")
    return m
