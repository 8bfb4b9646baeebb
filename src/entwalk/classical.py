"""Classical reference models: the binomial walk on a line, the correlation
coefficient of a pair of coins, and the exact walk driven by a correlated
coin pair (the binomial walk is the maximally correlated one).

Outcomes of a coin-pair toss are keyed "hh", "ht", "th", "tt" (first symbol
is coin 1).  The moves are a 1D displacement table over a 2-qubit register,
one displacement per outcome in that order, as a quantum walk's shift holds
one per coin basis state (h = 0, t = 1).  The default moves are the
entangled-coin shift ``s_ec``: +1 on double heads, -1 on double tails and a
rest on mixed outcomes.  Both walks share the table's lattice layout and
the cost rule of :mod:`entwalk.shifts`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Distribution, _step_count
from .shifts import DisplacementTable, _window_cost, build_shift

__all__ = [
    "DEFAULT_MOVES",
    "OUTCOMES",
    "JointCoinDistribution",
    "binomial_walk_distribution",
    "check_walk_cost",
    "correlated_walk_distribution",
    "correlation",
]

OUTCOMES = ("hh", "ht", "th", "tt")

DEFAULT_MOVES = build_shift("s_ec")

_SUM_TOL = 1e-12

MAX_WINDOW_SITES = 10_000_000  # window cap; at most three float64 arrays this long are live

# Time cap on the sites the steps write, summed over the steps, plus
# shifts._STEP_OVERHEAD a step.  On one 2-vCPU host (numpy 2.4.6) a counted
# update took 1.3-2.4 ns on windows of 4*10**4 sites and 4.3 ns on 4*10**5,
# so the largest walk the cap takes, 221567 steps of the default moves at
# rho = 0.5, ran 215 s.
MAX_WINDOW_UPDATES = 5 * 10**10


@dataclass(frozen=True)
class JointCoinDistribution:
    """Joint outcome probabilities of one toss of a coin pair."""

    p_hh: float
    p_ht: float
    p_th: float
    p_tt: float

    def __post_init__(self) -> None:
        probs = (self.p_hh, self.p_ht, self.p_th, self.p_tt)
        if any(not 0.0 <= p <= 1.0 for p in probs):
            raise ValueError(f"outcome probabilities must lie in [0, 1], got {probs}")
        total = sum(probs)
        if abs(total - 1.0) > _SUM_TOL:
            raise ValueError(f"outcome probabilities sum to {total!r}, expected 1")

    @classmethod
    def from_bias(cls, p: float) -> "JointCoinDistribution":
        """Maximally correlated pair with P(hh) = p and P(tt) = 1 - p."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"step probability must lie in [0, 1], got {p}")
        return cls(p_hh=p, p_ht=0.0, p_th=0.0, p_tt=1.0 - p)

    @classmethod
    def from_correlation(cls, rho: float) -> "JointCoinDistribution":
        """Fair-marginal pair with correlation coefficient ``rho``.

        With both marginals fair the joint distribution is determined by rho
        alone: p_hh = p_tt = (1 + rho)/4 and p_ht = p_th = (1 - rho)/4.
        """
        if not -1.0 <= rho <= 1.0:
            raise ValueError(f"correlation must lie in [-1, 1], got {rho}")
        same = (1.0 + rho) / 4.0
        diff = (1.0 - rho) / 4.0
        return cls(p_hh=same, p_ht=diff, p_th=diff, p_tt=same)

    def outcome_probs(self) -> tuple[float, float, float, float]:
        """Probabilities in OUTCOMES order."""
        return (self.p_hh, self.p_ht, self.p_th, self.p_tt)


def binomial_walk_distribution(n: int, p: float) -> Distribution:
    """Exact n-step distribution of the independent ±1 walk.

    Each step moves +1 with probability ``p``, else -1: the walk of
    ``JointCoinDistribution.from_bias(p)`` under ``DEFAULT_MOVES``.
    """
    return correlated_walk_distribution(n, JointCoinDistribution.from_bias(p))


def correlation(j: JointCoinDistribution) -> float:
    """Correlation coefficient of the two coins under H = 0, T = 1.

    Any affine re-encoding of the outcome values yields the same number.

    Raises
    ------
    ValueError
        A deterministic marginal (zero variance) leaves the coefficient
        undefined.
    """
    t1 = j.p_th + j.p_tt
    t2 = j.p_ht + j.p_tt
    var1 = t1 * (1.0 - t1)
    var2 = t2 * (1.0 - t2)
    if var1 <= 0.0 or var2 <= 0.0:
        raise ValueError("correlation undefined: a coin marginal is deterministic")
    cov = j.p_tt - t1 * t2
    return cov / math.sqrt(var1 * var2)


def check_walk_cost(n: int, moves: DisplacementTable = DEFAULT_MOVES) -> tuple[int, int]:
    """Refuse an n-step correlated-pair walk that its window cannot hold.

    The walk's window covers the sites ``n*lo + g*i``, 0 <= i <= n*span/g,
    with ``lo``, ``g`` and ``span`` from the moves' lattice layout: the
    smallest move, the gcd of the moves' offsets from it, and their range.
    Returns the final window's sites and the walk's work: the sites each
    step writes, summed over the steps, plus a fixed cost per step.

    Raises
    ------
    ValueError
        An n that is not a nonnegative int (anything ``operator.index``
        takes), moves that are not a 1D table over 2 qubits, a window
        above ``MAX_WINDOW_SITES`` sites, or work above
        ``MAX_WINDOW_UPDATES`` site updates.
    """
    n = _step_count(n)
    if (moves.dims, moves.qubits) != (1, 2):
        raise ValueError(
            f"moves must be a 1D table over 2 qubits, one move per outcome {OUTCOMES}, "
            f"got a {moves.dims}D table over {moves.qubits} qubit(s)"
        )
    (g,), (span,) = moves._layout.g, moves._layout.span
    sites, work = _window_cost(n, (span // g,))
    if sites > MAX_WINDOW_SITES:
        raise ValueError(f"window of {sites} sites exceeds {MAX_WINDOW_SITES=}")
    if work > MAX_WINDOW_UPDATES:
        raise ValueError(f"{n} steps need {work} site updates, over {MAX_WINDOW_UPDATES=}")
    return sites, work


def correlated_walk_distribution(
    n: int, j: JointCoinDistribution, moves: DisplacementTable = DEFAULT_MOVES
) -> Distribution:
    """Exact n-step distribution of the walk driven by a correlated pair.

    ``moves`` holds one displacement per outcome, in OUTCOMES order (see
    :func:`check_walk_cost`).  Sums the walk on the float64 window of
    :func:`check_walk_cost`, which refuses it before allocation when it is
    over a cap, by one weighted slice add per displacement and step; these
    direct sums keep unreachable sites exactly 0.  The support is the
    positions with probability > 0; the distribution's lattice step is g.
    """
    n = _step_count(n)  # a Python int, so the labels are too
    size, _ = check_walk_cost(n, moves)
    (lo,), (g,), (span,), offsets = moves._layout
    span //= g
    step: dict[int, float] = {}  # window offset -> probability, offsets ascending
    for (d,), prob in sorted(zip(offsets, j.outcome_probs())):
        if prob > 0.0:
            step[d // g] = step.get(d // g, 0.0) + prob
    current, nxt = np.zeros(size), np.empty(size)
    current[0] = 1.0
    for t in range(n):
        width = t * span + 1  # window sites in use after t steps
        nxt[: width + span] = 0.0
        for offset, w in step.items():
            target = nxt[offset : offset + width]
            target += current[:width] * w
        current, nxt = nxt, current
    support = (current > 0.0).nonzero()[0]
    return Distribution(origin=(n * lo,), step=(g,), offsets=(support,), values=current[support])
