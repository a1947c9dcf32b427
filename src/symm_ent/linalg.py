"""Dense linear-algebra kernels shared by the simulation modules.

Only two factorizations are needed anywhere in this package: a truncated
singular value decomposition (splitting two-site blocks, compressing bonds)
and a Hermitian eigendecomposition (density-matrix spectra). Every matrix
that reaches these routines is small, a few hundred rows at the very most,
so explicit validation and deterministic behavior win over asymptotics.
Each routine also takes a stack of matrices, one per grid point of a
sweep, and handles it in one call.

Real in, real out: every routine works in the kind of its input, so a real
matrix is factored in real LAPACK and only a complex one in complex
arithmetic. ``as_float`` is the one promotion rule: int, bool and float
become float64, complex becomes complex128. Every protocol gate is real, so
a protocol run stays float64 from the first gate to the concurrence; a
complex gate promotes what it touches through numpy's own type promotion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Singular values below this absolute floor are treated as exact zeros before
# rank counting, so roundoff cannot inflate the kept rank.
SINGULAR_VALUE_FLOOR = 1e-14
# elementwise tolerances of the Hermiticity and unitarity checks
HERMITIAN_TOL = 1e-10
UNITARY_TOL = 1e-12


@dataclass(frozen=True)
class SVDResult:
    """Truncated factorization M ~ left_isometry @ diag(singular_values) @ right_isometry_dag.

    ``left_isometry`` has orthonormal columns, ``right_isometry_dag`` has
    orthonormal rows, ``singular_values`` is non-negative and descending, and
    ``discarded_weight`` is the squared weight of the dropped values relative
    to the total (0 when nothing was dropped). A stacked factorization has
    the stack axes in front of each of them, and all its matrices share one
    rank.
    """

    left_isometry: np.ndarray
    singular_values: np.ndarray
    right_isometry_dag: np.ndarray
    discarded_weight: float | np.ndarray

    @property
    def rank(self) -> int:
        return int(self.singular_values.shape[-1])


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


def as_index(value, label: str) -> int:
    """A Python or numpy integer as an int; anything else, a bool too, is a
    ValueError naming ``label``."""
    if type(value) is int or isinstance(value, np.integer):
        return int(value)
    raise ValueError(f"{label} must be an integer, got {value!r}")


def as_site(site, n: int, label: str = "site") -> int:
    """``site`` as an int in 1..n; anything else is a ValueError naming ``label``.

    Every pair read checks its sites here, so a valid site costs this one call.
    """
    if (type(site) is int or isinstance(site, np.integer)) and 1 <= site <= n:
        return int(site)
    site = as_index(site, label)  # raises for a non-integer
    raise ValueError(f"{label} {site} outside 1..{n}")


def as_float(values) -> np.ndarray:
    """``values`` as a float64 array, or a complex128 one when complex; an
    array already of that dtype is returned as it is."""
    arr = np.asarray(values)
    return arr.astype(np.result_type(arr, np.float64), copy=False)


def _as_matrix(matrix, stacked: bool = False) -> np.ndarray:
    arr = as_float(matrix)
    if arr.ndim < 2 or (arr.ndim > 2 and not stacked) or 0 in arr.shape[-2:]:
        kind = "matrix or a stack of them" if stacked else "matrix"
        raise ValueError(f"expected a non-empty 2-d {kind}, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        _, where = first_flagged(~np.isfinite(arr).all(axis=(-2, -1)).ravel(), arr.shape[:-2])
        raise ValueError(f"matrix{where} contains non-finite entries")
    return arr


def svd_truncate(matrix, max_rank: int) -> SVDResult:
    """SVD of ``matrix`` keeping at most ``max_rank`` singular values.

    ``matrix`` is one ``(m, n)`` matrix or a ``(..., m, n)`` stack, factored
    in one call and truncated to one shared rank. The kept rank is
    ``min(max_rank, k)`` where ``k`` is the largest count, over the stack, of
    singular values at or above ``SINGULAR_VALUE_FLOOR``; at least one value
    is always kept so downstream tensors never lose their bond. The reported
    ``discarded_weight`` equals the relative squared Frobenius reconstruction
    error of the truncated factorization: a float for one matrix, an array
    of the stack shape for a stack.

    Raises:
        ValueError: on malformed input or invalid ``max_rank``.
        RuntimeError: if the underlying factorization fails to converge.
    """
    m = _as_matrix(matrix, stacked=True)
    if max_rank < 1:
        raise ValueError(f"max_rank must be >= 1, got {max_rank}")
    try:
        u, s, vdag = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(
            f"SVD failed to converge for a {m.shape[-2]}x{m.shape[-1]} matrix: {exc}"
        ) from exc

    significant = np.count_nonzero(s >= SINGULAR_VALUE_FLOOR, axis=-1)
    keep = max(1, min(int(max_rank), int(significant.max(initial=0))))
    squares = s * s
    total = squares.sum(axis=-1)
    dropped = squares[..., keep:].sum(axis=-1)
    # a zero matrix keeps its single zero value and discards nothing
    discarded = np.divide(dropped, total, out=np.zeros_like(total), where=total > 0.0)

    return SVDResult(
        left_isometry=u[..., :keep],
        singular_values=s[..., :keep],
        right_isometry_dag=vdag[..., :keep, :],
        discarded_weight=float(discarded) if discarded.ndim == 0 else discarded,
    )


def hermitian_eigs(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (real, ascending) and eigenvectors of a Hermitian matrix.

    ``matrix`` is one ``(n, n)`` matrix or a ``(..., n, n)`` stack, factored
    in one call; each stacked result is bitwise equal to factoring that
    matrix alone. Every input must be Hermitian within ``HERMITIAN_TOL``
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
    if deviation.max(initial=0.0) > HERMITIAN_TOL:
        deviation = deviation.max(axis=(-2, -1)).ravel()
        flat, where = first_flagged(deviation > HERMITIAN_TOL, m.shape[:-2])
        raise ValueError(
            f"matrix{where} is not Hermitian: max |M - M^dag| = {deviation[flat]:.3e} "
            f"exceeds {HERMITIAN_TOL:.1e}"
        )
    try:
        vals, vecs = np.linalg.eigh(0.5 * (m + adjoint))
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigendecomposition failed to converge: {exc}") from exc
    return vals, vecs


def require_unitary(matrix, dim: int) -> np.ndarray:
    """Validate that the gate ``matrix`` is a ``dim x dim`` unitary within ``UNITARY_TOL``.

    ``matrix`` may also be a ``(..., dim, dim)`` stack, checked in one call;
    the first failing matrix is named by its stack index.
    """
    m = _as_matrix(matrix, stacked=True)
    if m.shape[-2:] != (dim, dim):
        raise ValueError(f"gate must be {dim}x{dim}, got shape {m.shape}")
    deviation = np.abs(m.conj().swapaxes(-1, -2) @ m - np.eye(dim)).max(axis=(-2, -1))
    if deviation.max() > UNITARY_TOL:
        deviation = deviation.ravel()
        flat, where = first_flagged(deviation > UNITARY_TOL, m.shape[:-2])
        raise ValueError(
            f"gate{where} is not unitary: max |G^dag G - I| = {deviation[flat]:.3e}"
        )
    return m


def require_single_gate(gate, dim: int) -> np.ndarray:
    """Validate one ``dim x dim`` unitary, as a backend's public gate methods
    take it; a grid's gates come from running a circuit with angle tuples."""
    g = require_unitary(gate, dim)
    if g.ndim != 2:
        raise ValueError(
            f"gate must be one {dim}x{dim} matrix, got shape {g.shape}; "
            "run a circuit with angle tuples to apply one gate per grid point"
        )
    return g
