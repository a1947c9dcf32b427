"""Wootters concurrence for two-qubit density matrices, routed per matrix.

Every protocol pair state but the unentangled pairs of linear cases 1 and 3
is an X state, nonzero only on the diagonal and anti-diagonal. A matrix
whose other entries are all at most ``X_FLOOR`` (1e-14, the singular-value
floor's scale; NaN fails) is scored in closed form by
``xstate_concurrence``. An X state is the direct sum of its outer
(rows and columns 0, 3) and inner (1, 2) 2x2 blocks, so that route checks
it through ``hermitian_eigs`` on the stack of blocks: finiteness,
Hermiticity and the eigenvalue check on two 2x2 spectra in closed form
instead of a 4x4 one on LAPACK, and no SVD.

Any other matrix takes the general route: it factors rho = L L^dag and reads
the square roots of the spectrum of rho * rho_tilde off as the singular
values of B = L^T (sigma_y x sigma_y) L. Taking them from eigenvalues would
lose half the precision where the spectrum touches zero (sqrt of a 1e-16
eigenvalue is 1e-8). L is a diagonal-pivoted Cholesky factor (Higham, in
Reliable Numerical Computation, OUP 1990): each of four outer-product steps
divides the column of the largest remaining diagonal entry by that pivot's
square root and subtracts the column's outer product. No eigenvalue is cut,
but a pivot at or below ``PIVOT_FLOOR`` times the first ends the factor:
roundoff leaves the remainder of a rank-deficient rho slightly indefinite,
and a column divided by the root of a roundoff pivot can blow up. A
``(..., 4, 4)`` stack is scored in one call per route, and every step works
on each matrix alone, so every stacked value is bitwise the one-matrix call.
A real rho is scored in float64 throughout (sigma_y x sigma_y is real), a
complex one in complex128.
"""

from __future__ import annotations

import numpy as np

from .linalg import as_float, first_flagged, hermitian_eigs

# rho itself may carry eigenvalues this far below zero from upstream roundoff
DM_TOL = 1e-10
# a pivot at or below this times its matrix's first pivot ends the factor: n eps
# for n = 4, the default stopping rule of LAPACK's pivoted Cholesky dpstrf
# (Lucas, LAPACK Working Note 161, 2004)
PIVOT_FLOOR = 4 * np.finfo(float).eps
# entries off the X pattern up to this magnitude count as zeros; the closed
# form ignores them, which moves the concurrence by a comparable amount
X_FLOOR = 1e-14

# sigma_y x sigma_y: -1 at the outer corners, 1 at the inner ones
_SY_SY = np.diag([-1.0, 1.0, 1.0, -1.0])[::-1].copy()

# flat positions of the outer block [[x, u], [u*, w]], the inner block
# [[y, delta], [delta*, z]], then the eight entries off the X pattern; they
# are gathered one row per position, so each reduction runs along the stack
_X_ORDER = np.array([0, 3, 12, 15, 5, 6, 9, 10, 1, 2, 4, 7, 8, 11, 13, 14])


def _as_stack(rho) -> np.ndarray:
    rho = as_float(rho)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(
            f"expected a 4x4 density matrix or a (..., 4, 4) stack, got shape {rho.shape}"
        )
    return rho


def _validate_density_matrices(rho: np.ndarray) -> None:
    """Check a (..., 4, 4) stack; a bad matrix is named by its index in ``rho``."""
    stack_shape = rho.shape[:-2]
    smallest = hermitian_eigs(rho).reshape(-1, 4)[:, 0]
    trace_dev = np.abs(rho.reshape(-1, 4, 4).trace(axis1=1, axis2=2) - 1.0)
    if np.maximum.reduce(trace_dev, initial=0.0) > DM_TOL:
        flat, where = first_flagged(trace_dev > DM_TOL, stack_shape)
        raise ValueError(
            f"invalid density matrix{where}: trace deviates by {trace_dev[flat]:.3e}"
        )
    if np.minimum.reduce(smallest, initial=0.0) < -DM_TOL:
        flat, where = first_flagged(smallest < -DM_TOL, stack_shape)
        raise ValueError(
            f"invalid density matrix{where}: eigenvalue {smallest[flat]:.3e} "
            f"below -{DM_TOL:.0e}"
        )


def _svd_concurrence(rho: np.ndarray) -> np.ndarray:
    """The general route for a (..., 4, 4) stack: one value per matrix, flat."""
    _validate_density_matrices(rho)
    rest = rho.reshape(-1, 4, 4)
    rest = 0.5 * (rest + rest.conj().swapaxes(1, 2))
    factor, rows = np.zeros_like(rest), np.arange(len(rest))
    floor = PIVOT_FLOOR * rest.diagonal(axis1=1, axis2=2).real.max(axis=1)
    for k in range(4):  # one column of the pivoted Cholesky factor per step
        diagonal = rest.diagonal(axis1=1, axis2=2).real
        chosen = diagonal.argmax(axis=1)
        pivot = diagonal[rows, chosen]
        live = pivot > floor
        root = np.sqrt(np.where(live, pivot, 1.0))[:, None]
        factor[:, :, k] = np.where(live[:, None], rest[rows, :, chosen] / root, 0.0)
        rest = rest - factor[:, :, k, None] * factor[:, None, :, k].conj()
    # the singular-value form makes the spin-flip spectrum non-negative by
    # construction, so no separate clamp on R's eigenvalues is needed
    roots = np.linalg.svd(factor.swapaxes(1, 2) @ _SY_SY @ factor, compute_uv=False)
    # subtract.reduce folds left: sqrt(l4) - sqrt(l3) - sqrt(l2) - sqrt(l1)
    return np.maximum(np.subtract.reduce(roots, axis=1), 0.0)


def wootters_concurrence(rho) -> float | np.ndarray:
    """Concurrence of a two-qubit density matrix.

    C = max(0, sqrt(l4) - sqrt(l3) - sqrt(l2) - sqrt(l1)) with l_i the
    descending eigenvalues of rho * rho_tilde, rho_tilde the spin-flipped
    complex conjugate (sigma_y x sigma_y) rho* (sigma_y x sigma_y). An X
    state (see module docstring) goes to ``xstate_concurrence``, any other
    matrix to the singular-value route, which stays exact near zeros.

    ``rho`` is one 4x4 matrix (a float is returned) or a ``(..., 4, 4)``
    stack (an array of shape ``rho.shape[:-2]``, each value bitwise the
    one-matrix call; a bad matrix is named by its stack index).
    """
    rho = _as_stack(rho)
    off_x = np.abs(rho.reshape(-1, 16).T.take(_X_ORDER[8:], axis=0))
    is_x = np.maximum.reduce(off_x, axis=0) <= X_FLOOR  # NaN fails
    n_x = np.count_nonzero(is_x)
    try:
        if n_x == is_x.size:
            return xstate_concurrence(rho)
        if n_x == 0:
            concurrence = _svd_concurrence(rho)
        else:
            flat = rho.reshape(-1, 4, 4)
            concurrence = np.empty(is_x.shape)
            concurrence[is_x] = xstate_concurrence(flat[is_x])
            concurrence[~is_x] = _svd_concurrence(flat[~is_x])
    except ValueError:
        # a route names a bad matrix by its index in its own part of the stack
        _validate_density_matrices(rho)
        raise
    stack_shape = rho.shape[:-2]
    return concurrence.reshape(stack_shape) if stack_shape else float(concurrence[0])


def xstate_concurrence(rho) -> float | np.ndarray:
    """Exact concurrence of an X state: 2 max(0, |u| - sqrt(y z), |delta| - sqrt(x w)).

    x, y, z, w are the diagonal in basis |00>, |01>, |10>, |11>, u = rho[0, 3]
    and delta = rho[1, 2]; complex corners enter through their modulus. Every
    other entry must be at most ``X_FLOOR`` in magnitude. The state must be
    finite, Hermitian, of trace 1 and without eigenvalues below -``DM_TOL``,
    checked on its two 2x2 blocks, with the messages of ``wootters_concurrence``.
    Takes one matrix or a stack and returns like ``wootters_concurrence``.
    """
    rho = _as_stack(rho)
    entries = rho.reshape(-1, 16).T.take(_X_ORDER, axis=0)
    stray = np.maximum.reduce(np.abs(entries[8:]), axis=0)
    if not np.maximum.reduce(stray, initial=0.0) <= X_FLOOR:
        index, where = first_flagged(~(stray <= X_FLOOR), rho.shape[:-2])
        raise ValueError(f"not an X state{where}: off-pattern entry {stray[index]:.3e}")
    try:
        block_vals = hermitian_eigs(entries[:8].T.reshape(-1, 2, 2, 2))
        trace_dev = np.abs(entries[0] + entries[4] + entries[7] + entries[3] - 1.0)
        valid = trace_dev.max(initial=0.0) <= DM_TOL and block_vals.min(initial=0.0) >= -DM_TOL
    except ValueError:
        valid = False
    if not valid:
        # the 4x4 checks name the bad matrix and its defect. They fail wherever
        # the blocks' checks do, except on a spectrum within roundoff of -DM_TOL
        _validate_density_matrices(rho)
    real = entries.real
    # (|u|, |delta|) less (sqrt(y z), sqrt(x w))
    branches = np.abs(entries[1:6:4]) - np.sqrt(np.maximum(real[4::-4] * real[7::-4], 0.0))
    concurrence, stack_shape = 2.0 * branches.max(axis=0, initial=0.0), rho.shape[:-2]
    return concurrence.reshape(stack_shape) if stack_shape else float(concurrence[0])
