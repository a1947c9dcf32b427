"""Independent brute-force helpers used as oracles by the test suite.

Everything here deliberately avoids the library's own fast paths: partial
traces enumerate basis states one by one, random states are built from raw
Gaussian draws, and the chain recursion mirrors the protocol algebra rather
than running any circuit.
"""

from __future__ import annotations

import numpy as np


def brute_pair_rdm(amplitudes: np.ndarray, n: int, i: int, j: int) -> np.ndarray:
    """Partial trace onto (q_i, q_j) by explicit basis-state enumeration: each
    basis state x meets the four states y that share its environment bits."""
    rho = np.zeros((4, 4), dtype=complex)
    shift_i = n - i
    shift_j = n - j
    env_mask = (2**n - 1) ^ (1 << shift_i) ^ (1 << shift_j)
    for x in range(2**n):
        bx = 2 * ((x >> shift_i) & 1) + ((x >> shift_j) & 1)
        for by in range(4):
            y = (x & env_mask) | ((by >> 1) << shift_i) | ((by & 1) << shift_j)
            rho[bx, by] += amplitudes[x] * np.conj(amplitudes[y])
    return rho


def brute_single_rdm(amplitudes: np.ndarray, n: int, i: int) -> np.ndarray:
    rho = np.zeros((2, 2), dtype=complex)
    shift = n - i
    env_mask = (2**n - 1) ^ (1 << shift)
    for x in range(2**n):
        for y in range(2**n):
            if (x & env_mask) != (y & env_mask):
                continue
            rho[(x >> shift) & 1, (y >> shift) & 1] += amplitudes[x] * np.conj(amplitudes[y])
    return rho


def brute_postselect(amplitudes: np.ndarray, n: int, site: int, outcome: int):
    """Project and renormalize by filtering basis states on one bit."""
    shift = n - site
    projected = np.array(
        [amp if ((x >> shift) & 1) == outcome else 0.0 for x, amp in enumerate(amplitudes)],
        dtype=complex,
    )
    probability = float(np.sum(np.abs(projected) ** 2))
    return projected / np.sqrt(probability), probability


def star_state_amplitudes(n_outer: int, theta: float) -> np.ndarray:
    """Closed-form star state: outer bits weighted a/b, central bit their parity."""
    a, b = np.sin(theta / 2.0), np.cos(theta / 2.0)
    n = n_outer + 1
    amps = np.zeros(2**n, dtype=complex)
    for bits in range(2**n_outer):
        ones = bin(bits).count("1")
        parity = ones % 2
        amps[bits * 2 + parity] = a ** (n_outer - ones) * b**ones
    return amps


def case1_state_amplitudes(n: int, theta: float) -> np.ndarray:
    """Chain case-1 state built from the two-branch recursion, not from gates.

    psi_2 = a |00> + b |11>. Writing psi_m = |0> A_m + |1> B_m over its
    leading qubit, prepending the next gate pair gives
    psi_{m+1} = |00> (a A_m + b B_m) + |11> (b A_m - a B_m).
    """
    if n < 2:
        raise ValueError("recursion starts at two qubits")
    a, b = np.sin(theta / 2.0), np.cos(theta / 2.0)
    branch_a = np.array([a, 0.0], dtype=complex)
    branch_b = np.array([0.0, b], dtype=complex)
    for _ in range(3, n + 1):
        top = a * branch_a + b * branch_b
        bottom = b * branch_a - a * branch_b
        branch_a = np.concatenate([top, np.zeros_like(top)])
        branch_b = np.concatenate([np.zeros_like(bottom), bottom])
    return np.concatenate([branch_a, branch_b])


def mps_amplitudes(state) -> np.ndarray:
    """Every grid point's amplitude vector of a ``MatrixProductState``,
    contracted site by site over ``state.tensors``, site 1 the most
    significant bit as in ``StateVector``."""
    lead = state.tensors[0].shape[:-3]
    vec = np.ones(lead + (1, 1))
    for t in state.tensors:
        l, r = t.shape[-3], t.shape[-1]
        vec = (vec @ t.reshape(lead + (l, 2 * r))).reshape(lead + (-1, r))
    return vec[..., 0]


def stepwise_move_center_to(state, site: int) -> None:
    """Move the center of a ``MatrixProductState`` to ``site`` one bond at a
    time, as the engine did before it crossed a run of bonds of dimension 1 in
    one step: such a bond by dividing the center tensor (mirrored for a left
    move) by its ``np.linalg.norm`` and multiplying the next tensor by it, any
    other bond by the engine's own ``_shift``."""
    while state.center != site:
        step = 1 if state.center < site else -1
        c, to = state.center, state.center + step
        if state.tensors[c - 1].shape[-1 if step > 0 else -3] != 1:
            state._shift(step)
            continue
        flip = (lambda t: np.ascontiguousarray(t.swapaxes(-3, -1))) if step < 0 else np.asarray
        t, nxt = flip(state.tensors[c - 1]), flip(state.tensors[to - 1])
        norm = np.linalg.norm(t.reshape(t.shape[:-3] + (-1,)), axis=-1, keepdims=True)
        norm = norm[..., None, None]
        state.tensors[c - 1], state.tensors[to - 1] = flip(t / norm), flip(nxt * norm)
        state.center = to


def _point_row(state, i: int, j, point: int | None):
    """Checks shared by the per-point references: the center is at ``i``;
    returns the row's sites and the tensors of i..sites[-1] at ``point``."""
    assert state.center == i, f"the center is at {state.center}, not at {i}"
    sites = j if isinstance(j, tuple) else (j,)
    tensors = [tm if point is None else tm[point] for tm in state.tensors[i - 1 : sites[-1]]]
    return sites, tensors


def _regroup(g: np.ndarray, a: int, b: int) -> np.ndarray:
    """[(r x), (s y)] -> [(r s), (x y)] for r, s < a and x, y < b."""
    return g.reshape(a, b, a, b).transpose(0, 2, 1, 3).reshape(a * a, b * b)


def pair_rdm_at_point(state, i: int, j, point: int | None = None) -> np.ndarray:
    """``MatrixProductState.pair_rdm(i, j, point=point)`` contracted over the
    tensors of that one grid point alone, with the center already at ``i``.

    The reference for the library's whole-grid row read: the same arithmetic
    in the same order (the Gram matrix M M^dag of the two-site block for the
    adjacent pair; for the distant ones an environment matrix env[(p q), (r s)]
    from the Gram matrix of site i, closed at a site by env @ W with
    W = M M^dag of its (l 2, r) matrix and stepped past it by env @ T with T
    the Gram matrix of its (l r, 2) matrix, both regrouped), on one point's
    ``(l, 2, r)`` tensors, so every matrix must match bit for bit. Input
    validation is left to the library.
    """
    sites, (t, *rest) = _point_row(state, i, j, point)
    l, _, r = t.shape
    rhos = []
    if sites[0] == i + 1:
        block = (t.reshape(l * 2, r) @ rest[0].reshape(r, -1)).reshape(l, 4, -1)
        block = block.transpose(1, 0, 2).reshape(4, -1)
        rhos.append(block @ block.conj().T)
    distant = sites[len(rhos) :]
    if distant:
        m = t.reshape(l, 2 * r).T
        env = _regroup(m @ m.conj().T, 2, r)
        for site, tm in enumerate(rest, start=i + 1):
            a, _, b = tm.shape
            if site in distant:
                m = tm.reshape(a * 2, b)
                rhos.append(_regroup(env @ _regroup(m @ m.conj().T, a, 2), 2, 2))
            if site < sites[-1]:
                m = tm.transpose(0, 2, 1).reshape(a * b, 2)
                env = env @ _regroup(m @ m.conj().T, a, b)
    return np.array(rhos) if isinstance(j, tuple) else rhos[0]


def pair_rdm_einsum(state, i: int, j, point: int | None = None) -> np.ndarray:
    """``pair_rdm_at_point`` by an independent route: every pair, adjacent
    ones too, through three-operand ``einsum`` contractions of a rank-4
    environment env[p, q, r, s] (site i's ket and bra legs, then the bond's),
    with no Gram matrix, no regrouping and no matmul. Agrees with the library
    to roundoff, not bitwise."""
    sites, (t, *rest) = _point_row(state, i, j, point)
    rhos = []
    env = np.einsum("lpr,lqs->pqrs", t, t.conj())
    for site, tm in enumerate(rest, start=i + 1):
        if site in sites:
            rhos.append(np.einsum("pqrs,rxt,syt->pxqy", env, tm, tm.conj()).reshape(4, 4))
        if site < sites[-1]:
            env = np.einsum("pqrs,rxt,sxu->pqtu", env, tm, tm.conj())
    return np.array(rhos) if isinstance(j, tuple) else rhos[0]


def reverse_qubits(amplitudes: np.ndarray, n: int) -> np.ndarray:
    return amplitudes.reshape((2,) * n).transpose(tuple(reversed(range(n)))).ravel()


def haar_unitary(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density_matrix(rng: np.random.Generator, dim: int = 4, rank: int | None = None) -> np.ndarray:
    rank = rank or dim
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_x_state(rng: np.random.Generator):
    """Random valid X-shaped density matrix with real corners."""
    diag = rng.random(4) + 1e-3
    diag = diag / diag.sum()
    x, y, z, w = diag
    u = (rng.random() * 2.0 - 1.0) * np.sqrt(x * w)
    delta = (rng.random() * 2.0 - 1.0) * np.sqrt(y * z)
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0], rho[1, 1], rho[2, 2], rho[3, 3] = x, y, z, w
    rho[0, 3] = rho[3, 0] = u
    rho[1, 2] = rho[2, 1] = delta
    return rho


def one_matrix_wootters(rho: np.ndarray) -> float:
    """Wootters concurrence of one 4x4 matrix, one factorization per call.

    The reference for the stacked concurrence layer: the same arithmetic in
    the same order (the symmetrized matrix; a diagonal-pivoted Cholesky factor
    L, whose pivots end at 4 eps times the first; singular values of
    L^T (sigma_y x sigma_y) L), applied to a single matrix, so the stacked
    values must match it bit for bit. Like the library it works in the kind
    of its input: float64 for a real matrix, complex128 for a complex one.
    Input validation is left to the library.
    """
    rho = np.asarray(rho)
    rho = rho.astype(np.result_type(rho, np.float64))
    rest = 0.5 * (rho + rho.conj().T)
    factor = np.zeros_like(rest)
    for k in range(4):
        diagonal = rest.diagonal().real
        chosen = int(np.argmax(diagonal))
        if k == 0:
            floor = 4 * np.finfo(float).eps * diagonal[chosen]
        if diagonal[chosen] <= floor:
            break
        factor[:, k] = rest[:, chosen] / np.sqrt(diagonal[chosen])
        rest = rest - np.outer(factor[:, k], factor[:, k].conj())
    sy_sy = np.array(
        [[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=float
    )
    roots = np.linalg.svd(factor.T @ sy_sy @ factor, compute_uv=False)
    return float(max(0.0, roots[0] - roots[1] - roots[2] - roots[3]))


def one_matrix_xstate(rho: np.ndarray) -> float:
    """Closed-form concurrence of one X-shaped 4x4 matrix, written out.

    The reference for the X route of the concurrence layer:
    2 max(0, |rho_03| - sqrt(rho_11 rho_22), |rho_12| - sqrt(rho_00 rho_33)),
    in the library's order of operations, so stacked values must match it
    bit for bit. The corner moduli go through numpy's array ``abs``, as in the
    library: Python's scalar ``abs`` of a complex number can round the other
    way in the last bit. Input validation is left to the library.
    """
    rho = np.asarray(rho)
    x, y, z, w = (float(v.real) for v in np.diagonal(rho))
    u, delta = np.abs(np.array([rho[0, 3], rho[1, 2]])).tolist()
    outer = u - np.sqrt(max(y * z, 0.0))
    inner = delta - np.sqrt(max(x * w, 0.0))
    return float(2.0 * max(0.0, outer, inner))
