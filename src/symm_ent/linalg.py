"""Dense linear-algebra kernels shared by the simulation modules.

Only two factorizations are needed anywhere in this package: a truncated
singular value decomposition (splitting two-site blocks, compressing bonds)
and Hermitian eigenvalues (density-matrix spectra). Every real two-row or
two-column matrix, as a bond-2 split makes, and every 2x2 spectrum, one or a
stack of any size, is taken in closed form; the rest goes to LAPACK. Every
matrix reaching these routines is small, a few hundred rows at most, so
explicit validation and deterministic behavior win over asymptotics. Each
routine also takes a stack of matrices, one per grid point, in one call.

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


def as_points(points, grid: int) -> np.ndarray:
    """``points`` as a non-empty 1-d array of indices in 0..grid-1; a bool,
    non-integer, negative or out-of-range entry is a ValueError naming ``points``."""
    arr = np.asarray(points)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"points must be a non-empty 1-d index array, got {points!r}")
    if not (isinstance(points, np.ndarray) and arr.dtype.kind in "iu"):
        arr = np.array([as_index(point, "points") for point in points])
    outside = arr[(arr < 0) | (arr >= grid)]
    if outside.size:
        raise ValueError(f"points entry {outside[0]} outside 0..{grid - 1}")
    return arr


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


def _as_matrix(matrix) -> np.ndarray:
    arr = as_float(matrix)
    if arr.ndim < 2 or 0 in arr.shape[-2:]:
        raise ValueError(
            f"expected a non-empty 2-d matrix or a stack of them, got shape {arr.shape}"
        )
    if not np.isfinite(arr).all():
        _, where = first_flagged(~np.isfinite(arr).all(axis=(-2, -1)).ravel(), arr.shape[:-2])
        raise ValueError(f"matrix{where} contains non-finite entries")
    return arr


def _two_row_svd(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(U, s, V^T)`` of a real ``(..., 2, n)`` stack, n >= 2, in closed form;
    see ``svd_truncate``."""
    *lead, _, n = m.shape
    # r[i, k, p] = M_p[i, k]: every step below is elementwise along the stack
    r = np.ascontiguousarray(m.reshape(-1, 2, n).transpose(1, 2, 0))
    # an exact power-of-two scale keeps every Gram entry in range
    scale = np.ldexp(1.0, np.frexp(np.maximum.reduce(abs(r), (0, 1)))[1])
    r = r / scale
    # the Gram matrix [[a, c], [c, b]] as d = (a - b) / 2 and c
    g = np.add.reduce(r[:, None] * r, 2)
    d, c = 0.5 * (g[0, 0] - g[1, 1]), g[0, 1]
    h = np.hypot(d, c)
    # its top eigenvector without cancellation; (1, 0) where h = 0 (a multiple of I)
    up = d >= 0.0
    x0 = np.where(up, d + h, c) + (h == 0.0)
    x1 = np.where(up, c, h - d)
    x0, x1 = np.array([x0, x1]) / np.hypot(x0, x1)
    a, b = x0 * r, x1 * r
    w0, w1 = a[0] + b[1], a[1] - b[0]
    s0 = np.sqrt(np.add.reduce(w0 * w0, 0))
    # only an all-zero matrix has s0 = 0; its v0 is e0
    e0 = np.zeros(w0.shape)
    e0[0] = 1.0
    v0 = np.divide(w0, s0, out=e0, where=s0 > 0.0)
    for _ in range(2):  # one Gram-Schmidt pass can leave V 1e-14 off orthonormal
        w1 = w1 - np.add.reduce(w1 * v0, 0) * v0
    s1 = np.sqrt(np.add.reduce(w1 * w1, 0))
    v1 = np.divide(w1, s1, out=np.zeros(w1.shape), where=s1 > 0.0)
    if np.count_nonzero(tiny := s1 < 2.0**-500):  # w1's squares went subnormal
        w, v = w1[:, tiny] * 2.0**600, v0[:, tiny]
        w = w - np.add.reduce(w * v, 0) * v  # once more: a subnormal w1 kept 2**-1074 of v0
        s = np.sqrt(np.add.reduce(w * w, 0))
        v1[:, tiny], s1[tiny] = np.divide(w, s, out=np.zeros(w.shape), where=s > 0.0), s * 2.0**-600
    null = s1 == 0.0
    if np.count_nonzero(null):
        # rank < 2 (the grid ends give exact zeros): complete v1 from the unit
        # vector e_k least aligned with v0; |v0_k| <= n^-1/2, so one pass suffices
        v = v0[:, null]
        k, cols = np.argmin(np.abs(v), axis=0), np.arange(v.shape[1])
        e = 0.0 - v[k, cols] * v  # e_k - v_k v0: (0 - x) + 1 rounds as 1 - x
        e[k, cols] += 1.0
        v1[:, null] = e / np.sqrt((e * e).sum(axis=0))
    u = np.array([x0, -x1, x1, x0]).T.reshape(*lead, 2, 2)
    s = (np.array([s0, s1]) * scale).T.reshape(*lead, 2)
    return u, s, np.concatenate([v0, v1]).T.reshape(*lead, 2, n)


def svd_truncate(matrix, max_rank: int) -> SVDResult:
    """SVD of ``matrix`` keeping at most ``max_rank`` singular values.

    ``matrix`` is one ``(m, n)`` matrix or a ``(..., m, n)`` stack, factored
    in one call and truncated to one shared rank. The kept rank is
    ``min(max_rank, k)`` where ``k`` is the largest count, over the stack, of
    singular values at or above ``SINGULAR_VALUE_FLOOR``; at least one value
    is always kept so downstream tensors never lose their bond. The reported
    ``discarded_weight`` is the relative squared Frobenius reconstruction
    error of the truncation, an exact zero when no value is dropped: a float
    for one matrix, an array of the stack shape for a stack.

    A real two-row or two-column matrix or stack, as a bond-2 split is, is
    factored in closed form at any stack size: U rotates onto the
    eigenvectors of M M^T (the 2x2 symmetric Schur step, Golub & Van Loan,
    4th ed., sec. 8.5) and the rows of U^T M, made orthogonal, give s and
    V^T. Each row and column of normal numbers is rebuilt to roundoff relative
    to its own size (after Demmel & Veselic, SIAM J. Matrix Anal. Appl. 13,
    1204, 1992), 6.7e-16 with one physical slice scaled by 1e-4 to 1e-12 where
    LAPACK missed by up to 5.3e-3: a branch near a dead outcome keeps its
    digits. A subnormal row keeps fewer, about 1e-9 relative at 1e-313.
    Complex and wider matrices go to LAPACK.

    Raises:
        ValueError: on malformed input or invalid ``max_rank``.
        RuntimeError: if the underlying factorization fails to converge.
    """
    m = _as_matrix(matrix)
    max_rank = as_index(max_rank, "max_rank")
    if max_rank < 1:
        raise ValueError(f"max_rank must be >= 1, got {max_rank}")
    rows, cols = m.shape[-2:]
    if m.dtype == np.float64 and min(rows, cols) == 2:
        if rows == 2:
            u, s, vdag = _two_row_svd(m)
        else:
            vt, s, ut = _two_row_svd(m.swapaxes(-1, -2))
            u, vdag = ut.swapaxes(-1, -2), vt.swapaxes(-1, -2)
    else:
        try:
            u, s, vdag = np.linalg.svd(m, full_matrices=False)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(
                f"SVD failed to converge for a {m.shape[-2]}x{m.shape[-1]} matrix: {exc}"
            ) from exc

    significant = np.count_nonzero(s >= SINGULAR_VALUE_FLOOR, axis=-1)
    keep = max(1, min(max_rank, int(significant.max(initial=0))))
    discarded = np.zeros(s.shape[:-1])  # an exact zero where nothing is dropped
    if keep < s.shape[-1]:
        # squares relative to the largest value: entries above 1e154 would overflow
        squares = np.square(np.divide(s, s[..., :1], out=np.zeros_like(s), where=s[..., :1] > 0))
        total = squares.sum(axis=-1)  # 0 only for a zero matrix, which discards nothing
        np.divide(squares[..., keep:].sum(axis=-1), total, out=discarded, where=total > 0.0)

    return SVDResult(
        left_isometry=u[..., :keep],
        singular_values=s[..., :keep],
        right_isometry_dag=vdag[..., :keep, :],
        discarded_weight=float(discarded) if discarded.ndim == 0 else discarded,
    )


def hermitian_eigs(matrix) -> np.ndarray:
    """Eigenvalues (real, ascending) of a Hermitian matrix.

    ``matrix`` is one ``(n, n)`` matrix or a ``(..., n, n)`` stack, handled
    in one call; each stacked result is bitwise equal to that matrix alone.
    Every input must be Hermitian within ``HERMITIAN_TOL`` elementwise; it is
    symmetrized first, so the spectrum is that of the exactly Hermitian part.
    A 2x2 [[x, b], [b*, z]] has the closed form (x + z)/2 -+ hypot((x - z)/2,
    |b|), elementwise along the stack, within a few eps max|lambda| of LAPACK;
    larger matrices go to LAPACK's values-only driver (``np.linalg.eigvalsh``).
    """
    m = _as_matrix(matrix)
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
    h = 0.5 * (m + adjoint)
    if h.shape[-1] == 2:
        x, z = h[..., 0, 0].real, h[..., 1, 1].real
        mid, radius = 0.5 * (x + z), np.hypot(0.5 * (x - z), np.abs(h[..., 0, 1]))
        return mid[..., None] + radius[..., None] * np.array([-1.0, 1.0])
    try:
        return np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigendecomposition failed to converge: {exc}") from exc


def require_unitary(matrix, dim: int) -> np.ndarray:
    """Validate that the gate ``matrix`` is a ``dim x dim`` unitary within ``UNITARY_TOL``.

    ``matrix`` may also be a ``(..., dim, dim)`` stack, checked in one call;
    the first failing matrix is named by its stack index.
    """
    m = _as_matrix(matrix)
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


def lift(g: np.ndarray, r: int) -> np.ndarray:
    """``g^T (x) I_r`` of a ``(..., k, k)`` gate or stack: ``rows @ lift(g, r)`` applies
    ``g`` to the k-axis of rows laid out ``(k, r)`` in one matmul, not one per row."""
    *lead, k, _ = g.shape
    lifted = np.zeros((*lead, k, r, k, r), g.dtype)
    lifted[..., :, range(r), :, range(r)] = g.swapaxes(-1, -2)
    return lifted.reshape(*lead, k * r, k * r)


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
