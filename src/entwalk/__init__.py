"""Discrete-time quantum walks with multi-qubit (optionally entangled) coins
on 1D and 2D integer lattices, plus classical correlated-coin reference walks.

The pieces compose left to right: pick a coin state and a coin operator
(:mod:`entwalk.coins`), pick a conditional shift (:mod:`entwalk.shifts`),
then evolve and measure (:mod:`entwalk.engine`).  Classical baselines live in
:mod:`entwalk.classical`; a config-driven runner in :mod:`entwalk.cli`.
"""

from .classical import (
    DEFAULT_MOVES,
    JointCoinDistribution,
    binomial_walk_distribution,
    correlated_walk_distribution,
    correlation,
)
from .coins import (
    COIN_OPERATOR_KINDS,
    COIN_PRESETS,
    build_coin_operator,
    build_initial_coin,
    entanglement_entropy,
)
from .core import CoinOperator, CoinState, Distribution, WalkState, state_norm
from .engine import WalkConfig, evolve, initial_state, position_distribution, step
from .shifts import SHIFT_PRESETS, DisplacementTable, apply_shift, build_shift

__all__ = [
    "COIN_OPERATOR_KINDS",
    "COIN_PRESETS",
    "DEFAULT_MOVES",
    "SHIFT_PRESETS",
    "CoinOperator",
    "CoinState",
    "DisplacementTable",
    "Distribution",
    "JointCoinDistribution",
    "WalkConfig",
    "WalkState",
    "apply_shift",
    "binomial_walk_distribution",
    "build_coin_operator",
    "build_initial_coin",
    "build_shift",
    "correlated_walk_distribution",
    "correlation",
    "entanglement_entropy",
    "evolve",
    "initial_state",
    "position_distribution",
    "state_norm",
    "step",
]

__version__ = "0.1.0"
