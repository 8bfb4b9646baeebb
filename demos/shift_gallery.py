"""One coin, every conditional shift: how the displacement table shapes
the walk.

The same GHZ or Bell coin produces very different position statistics
depending on which coin components move and how far.  Shifts with rest
entries grow a central spike; wider displacement tables stretch the support
without changing the step count.  The 2D shift sends the walker across a
plane; its x-marginal is printed as a bar sketch.
"""

from entwalk import (
    WalkConfig,
    build_coin_operator,
    build_initial_coin,
    build_shift,
    evolve,
    position_distribution,
    state_norm,
)

STEPS = 30


def summarize(dist) -> str:
    (positions,) = dist.labels([dist.offsets[0].tolist()])
    probs = dict(zip(positions, dist.values.tolist()))
    mean = sum(k * p for k, p in probs.items())
    var = sum((k - mean) ** 2 * p for k, p in probs.items())
    lo, hi = min(probs), max(probs)
    return f"support [{lo:>4}, {hi:>4}]  P(0) = {probs.get(0, 0.0):.4f}  std = {var**0.5:6.2f}"


def main() -> None:
    print(f"two-qubit Bell coin, H(x)H, {STEPS} steps")
    bell = build_initial_coin("phi_plus")
    for shift_name in ("s_ec", "s_ec_prime"):
        cfg = WalkConfig(
            coin_state=bell,
            coin_op=build_coin_operator("hadamard_n", 2),
            shift=build_shift(shift_name),
            steps=STEPS,
        )
        dist = position_distribution(evolve(cfg))
        print(f"  {shift_name:<15} {summarize(dist)}")

    print(f"three-qubit GHZ coin, H(x)H(x)H, {STEPS} steps")
    ghz = build_initial_coin("ghz3")
    for shift_name in ("s_3a", "s_3b"):
        cfg = WalkConfig(
            coin_state=ghz,
            coin_op=build_coin_operator("hadamard_n", 3),
            shift=build_shift(shift_name),
            steps=STEPS,
        )
        dist = position_distribution(evolve(cfg))
        print(f"  {shift_name:<15} {summarize(dist)}")

    print(f"same GHZ coin on the plane (s_2d), {STEPS} steps")
    cfg = WalkConfig(
        coin_state=ghz,
        coin_op=build_coin_operator("hadamard_n", 3),
        shift=build_shift("s_2d"),
        steps=STEPS,
    )
    state = evolve(cfg)
    dist = position_distribution(state)
    print(f"  sites occupied: {len(dist.values)}, norm {state_norm(state):.12f}")

    # the rows are in (x, y) order, so each x sums its sites in ascending y
    xs, _ = dist.labels([off.tolist() for off in dist.offsets])
    marginal: dict[int, float] = {}
    for x, p in zip(xs, dist.values.tolist()):
        marginal[x] = marginal.get(x, 0.0) + p
    peak = max(marginal.values())
    print("  x-marginal:")
    for x in range(-STEPS, STEPS + 1, 5):
        p = marginal.get(x, 0.0)
        bar = "#" * round(40 * p / peak)
        print(f"    {x:>4} {p:8.5f} {bar}")


if __name__ == "__main__":
    main()
