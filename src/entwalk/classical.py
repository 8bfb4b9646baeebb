"""Classical reference models: the binomial walk on a line, the correlation
coefficient of a pair of coins, and the exact walk driven by a correlated
coin pair (the binomial walk is the maximally correlated one).

Outcomes of a coin-pair toss are keyed "hh", "ht", "th", "tt" (first symbol
is coin 1).  The move map assigns an integer displacement to each outcome;
the default moves on double heads / double tails and rests on mixed
outcomes, mirroring the rest-site structure of the entangled-coin shift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Distribution

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

DEFAULT_MOVES = {"hh": 1, "ht": 0, "th": 0, "tt": -1}

_SUM_TOL = 1e-12

MAX_WINDOW_SITES = 10_000_000  # window cap; at most three float64 arrays this long are live

# Time cap on n steps over the full window: about 1.1-2 ns per counted site
# update on one 2-vCPU host (numpy 2.4.6), so two to three minutes of summing.
MAX_WINDOW_UPDATES = 10**11

# Site updates that one step's fixed cost is worth (~3.5 us a step), so a
# walk whose window never grows is capped too.
_STEP_OVERHEAD = 4096


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


def _read_moves(moves: dict) -> tuple[int, ...]:
    missing = [o for o in OUTCOMES if o not in moves]
    if missing:
        raise ValueError(f"move map must cover all four outcomes, missing {missing}")
    return tuple(int(moves[o]) for o in OUTCOMES)


def check_walk_cost(n: int, moves: dict = DEFAULT_MOVES) -> tuple[int, int, int]:
    """Refuse an n-step correlated-pair walk that its window cannot hold.

    The walk's window covers the sites ``n*lo + g*i``, 0 <= i <= n*span
    (``lo``: smallest move, ``g``: gcd of the moves' offsets from ``lo``,
    ``span``: range of the moves over ``g``).  Returns ``(lo, g, span)``.

    Raises
    ------
    ValueError
        A negative n, a move map missing an outcome, a window above
        ``MAX_WINDOW_SITES`` sites, or n steps over the window (plus a fixed
        cost per step) above ``MAX_WINDOW_UPDATES`` site updates.
    """
    if n < 0:
        raise ValueError(f"step count must be nonnegative, got {n}")
    step_moves = _read_moves(moves)
    lo = min(step_moves)
    g = math.gcd(*(d - lo for d in step_moves)) or 1
    span = (max(step_moves) - lo) // g
    if n * span + 1 > MAX_WINDOW_SITES:
        raise ValueError(f"window of {n * span + 1} sites exceeds {MAX_WINDOW_SITES=}")
    if n * (n * span + 1 + _STEP_OVERHEAD) > MAX_WINDOW_UPDATES:
        raise ValueError(
            f"{n} steps over a window of {n * span + 1} sites exceed {MAX_WINDOW_UPDATES=}"
        )
    return lo, g, span


def correlated_walk_distribution(
    n: int, j: JointCoinDistribution, moves: dict = DEFAULT_MOVES
) -> Distribution:
    """Exact n-step distribution of the walk driven by a correlated pair.

    Sums the walk on the float64 window of :func:`check_walk_cost`, which
    refuses it before allocation when it is over a cap, by one weighted
    slice add per displacement and step; these direct sums keep unreachable
    sites exactly 0.  The support is the positions with probability > 0.
    """
    lo, g, span = check_walk_cost(n, moves)
    step: dict[int, float] = {}  # window offset -> probability, offsets ascending
    for d, prob in sorted(zip(_read_moves(moves), j.outcome_probs())):
        if prob > 0.0:
            step[(d - lo) // g] = step.get((d - lo) // g, 0.0) + prob
    current, nxt = np.zeros(n * span + 1), np.empty(n * span + 1)
    current[0] = 1.0
    for t in range(n):
        width = t * span + 1  # window sites in use after t steps
        nxt[: width + span] = 0.0
        for offset, w in step.items():
            target = nxt[offset : offset + width]
            target += current[:width] * w
        current, nxt = nxt, current
    support = (current > 0.0).nonzero()[0]
    # Labels n*lo + g*i, exact: past int64, the offsets are Python ints.
    offsets = support
    if g > 1:
        offsets = support * g if g * n * span < 2**63 else support.astype(object) * g
    return Distribution(origin=(n * lo,), offsets=(offsets,), values=current[support])
