"""Wootters concurrence for two-qubit density matrices.

The spectrum of rho * rho_tilde is real and non-negative, and the
concurrence needs its square roots. Extracting them from eigenvalues loses
half the working precision wherever the spectrum touches zero (sqrt of a
1e-16 eigenvalue is 1e-8), and the states this package produces sit exactly
there. Instead the general path factors rho = L L^dag, forms the
symmetric matrix B = L^T (sigma_y x sigma_y) L, and reads the square roots
off as the singular values of B: the nonzero eigenvalues of rho * rho_tilde
equal those of B^dag B, so sqrt(lambda_i) = sigma_i(B) exactly, with no
squaring loss. A fast exact path is provided for X-shaped states (nonzero
entries only on the diagonal and anti-diagonal), the form every protocol in
this package produces.

``wootters_concurrence`` also scores a whole ``(..., 4, 4)`` stack in one
call: one stacked eigendecomposition, then one stacked product and SVD per
kept rank. Every stacked value is bitwise equal to the one-matrix call,
which is the same code applied to a stack of one.

Real in, real out: sigma_y x sigma_y is real (its two factors of i cancel),
so for a real rho the factor L, the product B and their factorizations are
all real, and the whole score runs in float64. Every pair RDM the protocols
produce is real. A complex rho is scored in complex128 by the same code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_float, first_flagged, hermitian_eigs

# rho itself may carry eigenvalues this far below zero from upstream roundoff
DM_TOL = 1e-10
# eigenvalues of rho below this are dropped from the L factor; they perturb
# the concurrence by at most a comparable amount
RANK_CUT = 1e-14

_SY_SY = np.array(
    [
        [0, 0, 0, -1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
    ],
    dtype=float,
)

# the diagonal and anti-diagonal, the entries an X state may have nonzero
_X_PATTERN = (np.eye(4) + np.eye(4)[::-1]) > 0


@dataclass(frozen=True)
class XStateParams:
    """Entries of an X-shaped two-qubit state.

    ``x, y, z, w`` are the diagonal entries in basis |00>, |01>, |10>, |11>;
    ``u`` is the outer corner rho[0, 3] and ``delta`` the inner corner
    rho[1, 2]. Both corners are real for every state this package generates
    (all gates are real); complex corners would enter only through their
    modulus and are not supported here.
    """

    x: float
    y: float
    z: float
    w: float
    u: float
    delta: float


def _validate_density_matrices(rho) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """Check and factor a 4x4 matrix or a (..., 4, 4) stack: eigenvalues (n, 4), eigenvectors
    (n, 4, 4) and stack shape. ``hermitian_eigs`` checks finiteness and Hermiticity."""
    rho = as_float(rho)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(
            f"expected a 4x4 density matrix or a (..., 4, 4) stack, got shape {rho.shape}"
        )
    stack_shape = rho.shape[:-2]
    vals, vecs = hermitian_eigs(rho)
    trace_dev = np.abs(rho.reshape(-1, 4, 4).trace(axis1=1, axis2=2) - 1.0)
    if np.maximum.reduce(trace_dev, initial=0.0) > DM_TOL:
        flat, where = first_flagged(trace_dev > DM_TOL, stack_shape)
        raise ValueError(
            f"invalid density matrix{where}: trace deviates by {trace_dev[flat]:.3e}"
        )
    vals, vecs = vals.reshape(-1, 4), vecs.reshape(-1, 4, 4)
    smallest = vals[:, 0]
    if np.minimum.reduce(smallest, initial=0.0) < -DM_TOL:
        flat, where = first_flagged(smallest < -DM_TOL, stack_shape)
        raise ValueError(
            f"invalid density matrix{where}: eigenvalue {smallest[flat]:.3e} "
            f"below -{DM_TOL:.0e}"
        )
    return vals, vecs, stack_shape


def wootters_concurrence(rho) -> float | np.ndarray:
    """Concurrence of a two-qubit density matrix, general method.

    C = max(0, sqrt(l4) - sqrt(l3) - sqrt(l2) - sqrt(l1)) with l_i the
    descending eigenvalues of rho * rho_tilde, rho_tilde the spin-flipped
    complex conjugate (sigma_y x sigma_y) rho* (sigma_y x sigma_y). The
    square roots are obtained directly as singular values (see module
    docstring), which keeps the result accurate near concurrence zeros.

    ``rho`` is one 4x4 matrix, for which a float is returned, or a
    ``(..., 4, 4)`` stack, for which an array of shape ``rho.shape[:-2]`` is
    returned; each stacked value is bitwise equal to the one-matrix call.
    """
    vals, vecs, stack_shape = _validate_density_matrices(rho)
    # eigenvalues ascend, so the kept ones are the last ``rank`` of each
    # matrix; each rank is factored as its own stack, which keeps every
    # value bitwise equal to factoring its matrix alone
    ranks = np.add.reduce(vals > RANK_CUT, axis=1)
    present = set(ranks.tolist())
    concurrence = np.zeros(ranks.shape)
    for rank in present - {0}:
        selected = slice(None) if len(present) == 1 else ranks == rank
        factor = vecs[selected, :, -rank:] * np.sqrt(vals[selected, None, -rank:])
        symmetric_overlap = factor.swapaxes(1, 2) @ _SY_SY @ factor
        # the singular-value form makes the spin-flip spectrum non-negative
        # by construction, so no separate clamp on R's eigenvalues is needed
        roots = np.linalg.svd(symmetric_overlap, compute_uv=False)
        # subtract.reduce folds left: sqrt(l4) - sqrt(l3) - sqrt(l2) - sqrt(l1)
        concurrence[selected] = np.maximum(np.subtract.reduce(roots, axis=1), 0.0)
    if not stack_shape:
        return float(concurrence[0])
    return concurrence.reshape(stack_shape)


def extract_xstate(rho, tol: float = 1e-10) -> XStateParams:
    """Read the six defining entries off an X-shaped density matrix.

    Every entry outside the diagonal and anti-diagonal must have magnitude at
    most ``tol``, and every entry on them must be real within ``tol``;
    otherwise the matrix is rejected.
    """
    rho = as_float(rho)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix, got shape {rho.shape}")
    stray = float(np.abs(rho[~_X_PATTERN]).max())
    if stray > tol:
        raise ValueError(f"not an X state: off-pattern entry of magnitude {stray:.3e}")
    imag_dev = float(np.abs(rho[_X_PATTERN].imag).max())
    if imag_dev > tol:
        raise ValueError(f"not an X state: complex entry with imaginary part {imag_dev:.3e}")
    x, y, z, w = rho.diagonal().real.tolist()
    return XStateParams(x, y, z, w, u=float(rho[0, 3].real), delta=float(rho[1, 2].real))


def _validate_xstate(p: XStateParams) -> None:
    total = p.x + p.y + p.z + p.w
    if abs(total - 1.0) > DM_TOL:
        raise ValueError(f"X-state diagonal sums to {total}, not 1")
    if min(p.x, p.y, p.z, p.w) < -DM_TOL:
        raise ValueError("X-state has a negative diagonal entry")
    if abs(p.u) > np.sqrt(max(p.x * p.w, 0.0)) + DM_TOL:
        raise ValueError("X-state violates positivity: |u| > sqrt(x w)")
    if abs(p.delta) > np.sqrt(max(p.y * p.z, 0.0)) + DM_TOL:
        raise ValueError("X-state violates positivity: |delta| > sqrt(y z)")


def xstate_concurrence(p: XStateParams) -> float:
    """Exact concurrence of an X-shaped state: 2 max(0, |u| - sqrt(yz), |delta| - sqrt(xw))."""
    _validate_xstate(p)
    branch_outer = abs(p.u) - np.sqrt(max(p.y * p.z, 0.0))
    branch_inner = abs(p.delta) - np.sqrt(max(p.x * p.w, 0.0))
    return float(2.0 * max(0.0, branch_outer, branch_inner))
