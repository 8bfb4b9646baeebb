"""First few steps of the Bell-coin walk, printed as exact fractions.

A walker on the integer line carries a two-qubit coin prepared in the
maximally entangled state (|00> + |11>)/sqrt(2).  Each step applies H (x) H
to the coin, then shifts by +1 on |00>, -1 on |11>, and rests on the mixed
components.  The first steps produce small rational probabilities; the rest
components put weight on BOTH parities from step 2 on, which an ordinary
+-1 walk can never do.
"""

from fractions import Fraction

from entwalk import (
    WalkConfig,
    binomial_walk_distribution,
    build_coin_operator,
    build_initial_coin,
    build_shift,
    evolve,
    position_distribution,
)


def as_fraction(p: float) -> str:
    return str(Fraction(p).limit_denominator(1024)) if p else "."


def cells(dist, span) -> str:
    (positions,) = dist.labels([dist.offsets[0].tolist()])
    probs = dict(zip(positions, dist.values.tolist()))
    return "".join(f"{as_fraction(probs.get(k, 0.0)):>7}" for k in span)


def main() -> None:
    coin = build_initial_coin("phi_plus")
    op = build_coin_operator("hadamard_n", 2)
    shift = build_shift("s_ec")

    max_steps = 4
    span = range(-max_steps, max_steps + 1)
    header = "      " + "".join(f"{k:>7}" for k in span)

    print("quantum walk, Bell coin (|00>+|11>)/sqrt(2), H(x)H, shift +1/0/0/-1")
    print(header)
    for n in range(max_steps + 1):
        cfg = WalkConfig(coin_state=coin, coin_op=op, shift=shift, steps=n)
        print(f"  n={n} {cells(position_distribution(evolve(cfg)), span)}")

    print()
    print("classical fair +-1 walk for contrast (parity-locked support)")
    print(header)
    for n in range(max_steps + 1):
        print(f"  n={n} {cells(binomial_walk_distribution(n, 0.5), span)}")


if __name__ == "__main__":
    main()
