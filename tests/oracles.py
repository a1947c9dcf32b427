"""Independent brute-force helpers used as oracles by the test suite.

Everything here deliberately avoids the library's own fast paths: partial
traces enumerate basis states one by one, random states are built from raw
Gaussian draws, and the chain recursion mirrors the protocol algebra rather
than running any circuit.
"""

from __future__ import annotations

import numpy as np


def brute_pair_rdm(amplitudes: np.ndarray, n: int, i: int, j: int) -> np.ndarray:
    """Partial trace onto (q_i, q_j) by explicit basis-state enumeration."""
    rho = np.zeros((4, 4), dtype=complex)
    shift_i = n - i
    shift_j = n - j
    env_mask = (2**n - 1) ^ (1 << shift_i) ^ (1 << shift_j)
    for x in range(2**n):
        bx = 2 * ((x >> shift_i) & 1) + ((x >> shift_j) & 1)
        for y in range(2**n):
            if (x & env_mask) != (y & env_mask):
                continue
            by = 2 * ((y >> shift_i) & 1) + ((y >> shift_j) & 1)
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
    the same order (symmetrized eigh, eigenvalues above 1e-14 kept, singular
    values of L^T (sigma_y x sigma_y) L), applied to a single matrix, so the
    stacked values must match it bit for bit. Input validation is left to
    the library.
    """
    rho = np.asarray(rho, dtype=complex)
    vals, vecs = np.linalg.eigh(0.5 * (rho + rho.conj().T))
    keep = vals > 1e-14
    factor = vecs[:, keep] * np.sqrt(vals[keep])
    if factor.shape[1] == 0:
        return 0.0
    sy_sy = np.array(
        [[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=complex
    )
    roots = np.zeros(4)
    sigma = np.linalg.svd(factor.T @ sy_sy @ factor, compute_uv=False)
    roots[: sigma.size] = sigma
    return float(max(0.0, roots[0] - roots[1] - roots[2] - roots[3]))
