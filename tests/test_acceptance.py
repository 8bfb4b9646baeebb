"""Acceptance gate: every criterion runs at its stated tolerance and prints
one PASS/FAIL line, visible even under pytest's output capture.

Checks are collected per criterion instead of asserted immediately, so a
criterion always reports its status line with measured values before the
test verdict is raised.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from entwalk.classical import (
    DEFAULT_MOVES,
    JointCoinDistribution,
    binomial_walk_distribution,
    correlated_walk_distribution,
    correlation,
)
from entwalk.coins import (
    COIN_PRESETS,
    build_coin_operator,
    build_initial_coin,
    entanglement_entropy,
)
from entwalk.core import state_norm
from entwalk.engine import WalkConfig, evolve, initial_state, position_distribution, step
from entwalk.shifts import SHIFT_PRESETS, build_shift
from oracles import dense_evolve, gram_entropy


def announce(capsys, number, title, failures, detail=""):
    status = "PASS" if not failures else "FAIL"
    suffix = f" -- {detail}" if detail else ""
    with capsys.disabled():
        print(f"[criterion {number}] {status}: {title}{suffix}", flush=True)
    assert not failures, f"criterion {number} ({title}): " + " | ".join(failures)


def check(failures, ok, message):
    if not ok:
        failures.append(message)


def bell_walk_config(op_kind, steps, coin="phi_plus", shift="s_ec"):
    coin_state = build_initial_coin(coin)
    return WalkConfig(
        coin_state=coin_state,
        coin_op=build_coin_operator(op_kind, coin_state.qubits),
        shift=build_shift(shift),
        steps=steps,
    )


def timed_best_of(fn, repeats=3):
    best = math.inf
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return result, best


QUANTUM_SMALL_STEPS = {
    0: {0: Fraction(1)},
    1: {-1: Fraction(1, 2), 1: Fraction(1, 2)},
    2: {
        -2: Fraction(1, 8),
        -1: Fraction(2, 8),
        0: Fraction(2, 8),
        1: Fraction(2, 8),
        2: Fraction(1, 8),
    },
    3: {
        -3: Fraction(1, 32),
        -2: Fraction(6, 32),
        -1: Fraction(5, 32),
        0: Fraction(8, 32),
        1: Fraction(5, 32),
        2: Fraction(6, 32),
        3: Fraction(1, 32),
    },
}

CLASSICAL_SMALL_STEPS = {
    0: {0: Fraction(1)},
    1: {-1: Fraction(1, 2), 1: Fraction(1, 2)},
    2: {-2: Fraction(1, 4), 0: Fraction(2, 4), 2: Fraction(1, 4)},
    3: {-3: Fraction(1, 8), -1: Fraction(3, 8), 1: Fraction(3, 8), 3: Fraction(1, 8)},
}


def test_criterion_1_small_step_distributions(capsys):
    failures = []

    def run_all():
        out = {}
        for n in QUANTUM_SMALL_STEPS:
            out[("q", n)] = position_distribution(evolve(bell_walk_config("hadamard_n", n)))
        for n in CLASSICAL_SMALL_STEPS:
            out[("c", n)] = binomial_walk_distribution(n, 0.5)
        return out

    run_all()  # warm every code path before timing
    dists, elapsed = timed_best_of(run_all)

    for n, expected in QUANTUM_SMALL_STEPS.items():
        d = dists[("q", n)]
        check(failures, set(d.support()) == set(expected), f"quantum step {n}: wrong support")
        for k, frac in expected.items():
            check(
                failures,
                abs(d[k] - float(frac)) <= 1e-12,
                f"quantum step {n} P({k}) = {d[k]!r}, expected {frac}",
            )
    for n, expected in CLASSICAL_SMALL_STEPS.items():
        d = dists[("c", n)]
        for k, frac in expected.items():
            check(
                failures,
                abs(d[k] - float(frac)) <= 1e-12,
                f"classical step {n} P({k}) = {d[k]!r}, expected {frac}",
            )
    check(failures, elapsed < 1e-3, f"runtime {elapsed * 1e3:.3f} ms >= 1 ms")
    announce(
        capsys,
        1,
        "steps 0-3 position distributions exact within 1e-12",
        failures,
        f"{elapsed * 1e6:.0f} us",
    )


def test_criterion_2_binomial_center_anchor(capsys):
    failures = []
    binomial_walk_distribution(100, 0.5)  # warm
    d, elapsed = timed_best_of(lambda: binomial_walk_distribution(100, 0.5))
    check(failures, abs(d[0] - 0.0795) <= 1e-3, f"P(0) = {d[0]!r}, expected 0.0795 +- 1e-3")
    odd_weight = [d[k] for k in range(-99, 100, 2) if d[k] != 0.0]
    check(failures, not odd_weight, f"odd positions carry probability: {odd_weight[:3]}")
    check(failures, elapsed < 1e-2, f"runtime {elapsed * 1e3:.2f} ms >= 10 ms")
    announce(
        capsys,
        2,
        "100-step binomial center P(0) ~ 0.0795, odd positions empty",
        failures,
        f"P(0) = {d[0]:.6f}, {elapsed * 1e3:.2f} ms",
    )


def test_criterion_3_hundred_step_center_anchors(capsys):
    failures = []
    details = []
    for op_kind, anchor in (("hadamard_n", 0.171242), ("y_n", 0.221622)):
        t0 = time.perf_counter()
        d = position_distribution(evolve(bell_walk_config(op_kind, 100)))
        elapsed = time.perf_counter() - t0
        check(
            failures,
            abs(d[0] - anchor) <= 1e-4,
            f"{op_kind}: P(0) = {d[0]!r}, expected {anchor} +- 1e-4",
        )
        check(failures, elapsed < 1.0, f"{op_kind}: runtime {elapsed:.2f} s >= 1 s")
        details.append(f"{op_kind} P(0) = {d[0]:.6f} in {elapsed * 1e3:.0f} ms")
    announce(capsys, 3, "100-step center probabilities at both coin operators", failures, "; ".join(details))


TAIL_ANCHORS_QUANTUM = {40: 1.80e-3, 50: 1.50e-3, 60: 1.03e-2, 70: 3.78e-2}
TAIL_ANCHORS_CLASSICAL = {40: 2.31e-5, 50: 1.91e-7, 60: 4.22e-10, 70: 1.99e-13}


def test_criterion_4_tail_probabilities(capsys):
    failures = []
    quantum = position_distribution(evolve(bell_walk_config("hadamard_n", 100)))
    classical = binomial_walk_distribution(100, 0.5)
    for pos, anchor in TAIL_ANCHORS_QUANTUM.items():
        rel = abs(quantum[pos] - anchor) / anchor
        check(
            failures,
            rel <= 0.02,
            f"quantum P({pos}) = {quantum[pos]:.4e} vs {anchor:.2e} (rel {rel:.3%})",
        )
    for pos, anchor in TAIL_ANCHORS_CLASSICAL.items():
        rel = abs(classical[pos] - anchor) / anchor
        check(
            failures,
            rel <= 0.02,
            f"classical P({pos}) = {classical[pos]:.4e} vs {anchor:.2e} (rel {rel:.3%})",
        )
    announce(
        capsys,
        4,
        "100-step tail probabilities at positions 40/50/60/70 within 2%",
        failures,
        "quantum "
        + ", ".join(f"{quantum[p]:.3e}" for p in TAIL_ANCHORS_QUANTUM)
        + "; classical "
        + ", ".join(f"{classical[p]:.3e}" for p in TAIL_ANCHORS_CLASSICAL),
    )


def test_criterion_5_entropy_suite(capsys):
    failures = []
    for name in ("phi_plus", "phi_minus", "psi_plus"):
        e = entanglement_entropy(build_initial_coin(name), 1)
        check(failures, abs(e - 1.0) <= 1e-12, f"{name}: E = {e!r}, expected 1")
    for name in ("theta0", "plus_i_product"):
        e = entanglement_entropy(build_initial_coin(name), 1)
        check(failures, abs(e) <= 1e-12, f"{name}: E = {e!r}, expected 0")
    ghz = entanglement_entropy(build_initial_coin("ghz3"), 1)
    check(failures, abs(ghz - 1.0) <= 1e-12, f"ghz3 cut 1: E = {ghz!r}, expected 1")

    theta1 = build_initial_coin("theta1")
    measured = entanglement_entropy(theta1, 1)
    oracle = gram_entropy(theta1.amplitudes, 1, 2)
    check(
        failures,
        abs(measured - oracle) <= 1e-12,
        f"theta1: measured {measured!r} vs Gram oracle {oracle!r}",
    )
    announce(
        capsys,
        5,
        "entropy suite (Bell = 1, products = 0, GHZ cut 1 = 1, theta1 vs oracle)",
        failures,
        f"theta1 = {measured:.10f} bits, Gram oracle {oracle:.10f} "
        f"(reported value; 0.5 is not reproduced)",
    )


def test_criterion_6_rest_state_fixed_point(capsys):
    failures = []
    for op_kind in ("hadamard_n", "y_n"):
        cfg = bell_walk_config(op_kind, 0, coin="psi_minus")
        state = initial_state(cfg)
        worst = 0.0
        for n in range(1, 101):
            state = step(state, cfg.coin_op, cfg.shift)
            p0 = position_distribution(state)[0]
            worst = max(worst, abs(p0 - 1.0))
        check(
            failures,
            worst <= 1e-12,
            f"{op_kind}: max |P(0) - 1| over 100 steps = {worst:.2e}",
        )
    announce(capsys, 6, "psi_minus walker stays at the origin for 100 steps", failures)


def _oracle_combos():
    coin_qubits = {name: len(a).bit_length() - 1 for name, a in COIN_PRESETS.items()}
    shift_qubits = {name: len(t).bit_length() - 1 for name, t in SHIFT_PRESETS.items()}
    return [
        (coin, op, shift)
        for coin in sorted(COIN_PRESETS)
        for op in ("hadamard_n", "y_n")
        for shift in sorted(SHIFT_PRESETS)
        if coin_qubits[coin] == shift_qubits[shift]
    ]


def test_criterion_7_oracle_equivalence_and_large_n_properties(capsys):
    failures = []
    combos = _oracle_combos()
    check(failures, len(combos) == 42, f"expected 42 preset combinations, found {len(combos)}")
    worst = 0.0
    for coin, op, shift in combos:
        cfg = bell_walk_config(op, 8, coin=coin, shift=shift)
        state = evolve(cfg)
        expected = dense_evolve(cfg.coin_state.amplitudes, cfg.coin_op.matrix, cfg.shift.table, 8)
        dim = 2**cfg.coin_state.qubits
        deviation = 0.0
        for pos in set(state.amplitudes) | set(expected):
            got = state.amplitudes.get(pos, np.zeros(dim))
            want = expected.get(pos, np.zeros(dim))
            deviation = max(deviation, float(np.max(np.abs(got - want))))
        worst = max(worst, deviation)
        check(
            failures,
            deviation <= 1e-12,
            f"{coin}/{op}/{shift}: amplitude deviation {deviation:.2e} from dense oracle",
        )

    norm200 = state_norm(evolve(bell_walk_config("hadamard_n", 200)))
    check(failures, abs(norm200 - 1.0) <= 1e-10, f"norm at N=200 is {norm200!r}")

    d100 = position_distribution(evolve(bell_walk_config("hadamard_n", 100)))
    asym = max(abs(d100[k] - d100[-k]) for k in range(101))
    check(failures, asym <= 1e-12, f"N=100 symmetry defect {asym:.2e}")

    t0 = time.perf_counter()
    ghz_state = evolve(bell_walk_config("hadamard_n", 50, coin="ghz3", shift="s_2d"))
    elapsed = time.perf_counter() - t0
    ghz_norm = state_norm(ghz_state)
    check(failures, abs(ghz_norm - 1.0) <= 1e-10, f"2D GHZ norm at N=50 is {ghz_norm!r}")
    check(failures, elapsed < 10.0, f"2D GHZ walk took {elapsed:.1f} s >= 10 s")
    announce(
        capsys,
        7,
        "window engine matches dense oracle on all 42 combos; large-N properties hold",
        failures,
        f"worst amplitude deviation {worst:.1e}; 2D N=50 in {elapsed:.2f} s",
    )


def test_criterion_8_correlated_pair_equals_binomial(capsys):
    failures = []
    pair = JointCoinDistribution.from_correlation(1.0)
    worst = 0.0
    for n in range(1, 201):
        walked = correlated_walk_distribution(n, pair, DEFAULT_MOVES)
        exact = binomial_walk_distribution(n, 0.5)
        for k in set(walked.support()) | set(exact.support()):
            worst = max(worst, abs(walked[k] - exact[k]))
        if worst > 1e-12:
            check(failures, False, f"n = {n}: max deviation {worst:.2e}")
            break
    check(failures, worst <= 1e-12, f"max deviation over n in 1..200 is {worst:.2e}")
    announce(
        capsys,
        8,
        "maximally correlated pair walk equals the fair binomial walk, n = 1..200",
        failures,
        f"max deviation {worst:.1e}",
    )


def test_criterion_9_correlation_reference_pairs(capsys):
    failures = []
    cases = [
        (JointCoinDistribution(0.5, 0.0, 0.0, 0.5), 1.0),
        (JointCoinDistribution(0.25, 0.25, 0.25, 0.25), 0.0),
        (JointCoinDistribution(0.0, 0.5, 0.5, 0.0), -1.0),
    ]
    values = []
    for pair, expected in cases:
        rho = correlation(pair)
        values.append(rho)
        check(failures, abs(rho - expected) <= 1e-12, f"rho = {rho!r}, expected {expected}")
    announce(
        capsys,
        9,
        "correlation coefficient of the three reference pairs",
        failures,
        "rho = " + ", ".join(f"{v:+.1f}" for v in values),
    )
