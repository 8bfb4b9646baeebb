"""Quantum and classical walkers after 100 steps: center and far tail.

The entangled-coin walk keeps a tall central spike (the rest components
never move) while still transporting substantial probability into extreme
positions; the classical binomial tail dies super-exponentially.  The far
tail is where the two models differ by up to eleven orders of magnitude.
"""

import numpy as np

from entwalk import (
    WalkConfig,
    binomial_walk_distribution,
    build_coin_operator,
    build_initial_coin,
    build_shift,
    evolve,
    position_distribution,
)

STEPS = 100


def probs(dist) -> dict[int, float]:
    """{position: probability} over a 1D walk's support, in ascending order."""
    (positions,) = dist.labels([dist.offsets[0].tolist()])
    return dict(zip(positions, dist.values.tolist()))


def spread(dist: dict[int, float]) -> float:
    mean = sum(k * p for k, p in dist.items())
    return float(np.sqrt(sum((k - mean) ** 2 * p for k, p in dist.items())))


def main() -> None:
    coin = build_initial_coin("phi_plus")
    cfg = WalkConfig(
        coin_state=coin,
        coin_op=build_coin_operator("hadamard_n", 2),
        shift=build_shift("s_ec"),
        steps=STEPS,
    )
    quantum = probs(position_distribution(evolve(cfg)))
    classical = probs(binomial_walk_distribution(STEPS, 0.5))

    print(f"after {STEPS} steps          quantum        classical       ratio")
    for pos in (0, 10, 20, 30, 40, 50, 60, 70, 80, 90):
        q, c = quantum.get(pos, 0.0), classical.get(pos, 0.0)
        ratio = f"{q / c:11.3e}" if c else "        inf"
        print(f"  P({pos:>3})          {q:12.6e}   {c:12.6e} {ratio}")

    print()
    print(f"std dev: quantum {spread(quantum):7.3f}, classical {spread(classical):7.3f}")
    peak = max(quantum.items(), key=lambda kv: kv[1])
    print(f"quantum mode at position {peak[0]} with P = {peak[1]:.6f}")


if __name__ == "__main__":
    main()
