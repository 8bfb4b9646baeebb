"""Independent reference implementations used only by the tests.

Each oracle recomputes a quantity through a different representation than
the library uses, so shared bugs are unlikely:

- dense window evolution: explicit kron and permutation matrices over a
  wrapped window of fixed size, instead of the engine's per-column coin
  contraction and slice copies into a growing window;
- entropy via both roots of the 2x2 Gram matrix's characteristic
  polynomial, the Gram matrix formed by a numpy matrix product, instead of
  the library's Cauchy-Binet determinant in plain Python;
- classical endpoint distribution by enumerating every outcome sequence
  instead of dynamic programming;
- binomial probabilities as exact fractions.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def dense_evolve(
    coin_amps: np.ndarray,
    coin_matrix: np.ndarray,
    table: tuple[tuple[int, ...], ...],
    steps: int,
) -> dict[tuple[int, ...], np.ndarray]:
    """Evolve on a dense truncated window with explicit operator matrices.

    The joint space is the window (2W+1 per axis, W = steps x max |d|)
    tensored with the coin; basis index = position_index * coin_dim + c.
    The step operator is formed as an explicit shift permutation matrix
    applied after an explicit kron(I_window, C) matrix.  Positions leaving
    the window wrap around; the reachable support never does.

    Returns {position tuple: coin vector} for positions with any nonzero
    amplitude.
    """
    dims = len(table[0])
    coin_dim = len(table)
    w = max(1, steps * max(abs(x) for row in table for x in row))
    side = 2 * w + 1
    n_sites = side**dims

    def site_index(pos: tuple[int, ...]) -> int:
        idx = 0
        for x in pos:
            idx = idx * side + ((x + w) % side)
        return idx

    sites = list(itertools.product(range(-w, w + 1), repeat=dims))
    dim = n_sites * coin_dim

    coin_full = np.kron(np.eye(n_sites), np.asarray(coin_matrix, dtype=complex))
    shift_full = np.zeros((dim, dim))
    for pos in sites:
        for c in range(coin_dim):
            target = tuple(x + d for x, d in zip(pos, table[c]))
            shift_full[site_index(target) * coin_dim + c, site_index(pos) * coin_dim + c] = 1.0

    vec = np.zeros(dim, dtype=complex)
    origin = (0,) * dims
    vec[site_index(origin) * coin_dim : site_index(origin) * coin_dim + coin_dim] = coin_amps
    for _ in range(steps):
        vec = shift_full @ (coin_full @ vec)

    out: dict[tuple[int, ...], np.ndarray] = {}
    for pos in sites:
        block = vec[site_index(pos) * coin_dim : site_index(pos) * coin_dim + coin_dim]
        if np.any(block != 0):
            out[pos] = block.copy()
    return out


def gram_entropy(amps: np.ndarray, cut: int, qubits: int) -> float:
    """Bipartite entropy from the closed-form eigenvalues of a 2x2 Gram matrix.

    Works for any cut of a 2- or 3-qubit pure state: the coefficient matrix
    always has a side of length 2, and the Gram matrix on that side shares
    the nonzero spectrum with the Schmidt decomposition.

    The eigenvalues are the roots ``(tr +- disc) / 2``.  The smaller root is
    a difference of nearly equal numbers on a near-product state, so it
    loses its relative accuracy there (at ``cos t|00> + sin t|11>``,
    t = 1e-9, it is 0 instead of ~1e-18): compare against this oracle only
    to an absolute 1e-12.
    """
    m = np.asarray(amps, dtype=complex).reshape(2**cut, 2 ** (qubits - cut))
    g = m @ m.conj().T if m.shape[0] <= m.shape[1] else m.conj().T @ m
    assert g.shape == (2, 2)
    tr = g[0, 0].real + g[1, 1].real
    det = (g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]).real
    disc = math.sqrt(max(0.0, tr * tr - 4.0 * det))
    out = 0.0
    for lam in ((tr + disc) / 2.0, (tr - disc) / 2.0):
        if lam > 0.0:
            out -= lam * math.log2(lam)
    return out + 0.0


def enumerated_endpoint_distribution(
    n: int, outcome_probs: dict[str, float], moves: dict[str, int]
) -> dict[int, float]:
    """Endpoint distribution by brute-force enumeration of all 4^n sequences."""
    dist: dict[int, float] = {}
    outcomes = sorted(outcome_probs)
    for seq in itertools.product(outcomes, repeat=n):
        prob = math.prod(outcome_probs[o] for o in seq)
        pos = sum(moves[o] for o in seq)
        dist[pos] = dist.get(pos, 0.0) + prob
    return dist


def exact_binomial_walk(n: int, p: Fraction) -> dict[int, Fraction]:
    """Exact rational n-step distribution of the independent +-1 walk."""
    q = 1 - p
    return {2 * h - n: Fraction(math.comb(n, h)) * p**h * q ** (n - h) for h in range(n + 1)}
