import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entwalk.classical import (
    DEFAULT_MOVES,
    MAX_WINDOW_SITES,
    JointCoinDistribution,
    binomial_walk_distribution,
    correlated_walk_distribution,
    correlation,
    sample_endpoints,
    sample_walk,
)
from oracles import enumerated_endpoint_distribution, exact_binomial_walk

FAIR_CORRELATED = JointCoinDistribution.from_correlation(1.0)
FAIR_INDEPENDENT = JointCoinDistribution(0.25, 0.25, 0.25, 0.25)
FAIR_ANTICORRELATED = JointCoinDistribution(0.0, 0.5, 0.5, 0.0)


def test_joint_distribution_validates():
    with pytest.raises(ValueError, match="sum"):
        JointCoinDistribution(0.5, 0.5, 0.5, 0.5)
    with pytest.raises(ValueError, match="lie in"):
        JointCoinDistribution(1.5, -0.5, 0.0, 0.0)
    with pytest.raises(ValueError, match="correlation"):
        JointCoinDistribution.from_correlation(1.5)
    assert JointCoinDistribution.from_bias(0.3).outcome_probs() == (0.3, 0.0, 0.0, 0.7)


def test_from_correlation_fair_marginals():
    j = JointCoinDistribution.from_correlation(0.4)
    assert j.p_hh + j.p_ht == pytest.approx(0.5, abs=1e-15)
    assert j.p_hh + j.p_th == pytest.approx(0.5, abs=1e-15)
    assert correlation(j) == pytest.approx(0.4, abs=1e-12)


def test_binomial_three_steps_exact():
    d = binomial_walk_distribution(3, 0.5)
    assert d[3] == pytest.approx(1 / 8, abs=1e-15)
    assert d[1] == pytest.approx(3 / 8, abs=1e-15)
    assert d[-1] == pytest.approx(3 / 8, abs=1e-15)
    assert d[-3] == pytest.approx(1 / 8, abs=1e-15)
    assert d[0] == 0.0
    assert d[2] == 0.0


def test_binomial_hundred_steps_center():
    d = binomial_walk_distribution(100, 0.5)
    assert d[0] == pytest.approx(0.0795, abs=1e-3)
    assert all(d[k] == 0.0 for k in range(-99, 100, 2))


def test_binomial_zero_steps():
    d = binomial_walk_distribution(0, 0.3)
    assert d[0] == 1.0


def test_binomial_biased():
    d = binomial_walk_distribution(2, 1.0)
    assert d[2] == 1.0
    assert d.support() == [2]
    d = binomial_walk_distribution(2, 0.0)
    assert d[-2] == 1.0
    assert d.support() == [-2]


@pytest.mark.parametrize("n", [1, 7, 50, 200, 1100, 2000])
def test_binomial_matches_exact_fractions(n):
    # from n ~ 1075 on the tails underflow float64 and leave the support
    d = binomial_walk_distribution(n, 0.5)
    exact = exact_binomial_walk(n, Fraction(1, 2))
    for k, frac in exact.items():
        assert d[k] == pytest.approx(float(frac), abs=1e-15)
    assert d.support() == sorted(k for k, frac in exact.items() if float(frac) > 0)
    assert sum(p for _, p in d.items_sorted()) == pytest.approx(1.0, abs=1e-12)


def test_binomial_ten_thousand_steps():
    # spot checks only: the full rational oracle is far too slow at this size
    n = 10_000
    d = binomial_walk_distribution(n, 0.5)
    assert math.fsum(p for _, p in d.items_sorted()) == pytest.approx(1.0, abs=1e-12)
    assert all((k + n) % 2 == 0 for k in d.support())
    for k in (0, 100, -100, 1000, -1000):
        exact = float(Fraction(math.comb(n, (k + n) // 2), 2**n))
        assert d[k] == pytest.approx(exact, rel=1e-11)


@pytest.mark.parametrize("n", range(1, 51))
def test_binomial_support_parity(n):
    d = binomial_walk_distribution(n, 0.5)
    assert all((k + n) % 2 == 0 for k in d.support())


def test_binomial_rejects_bad_args():
    with pytest.raises(ValueError):
        binomial_walk_distribution(-1, 0.5)
    for p in (1.5, -0.5, math.nan):
        with pytest.raises(ValueError, match="step probability"):
            binomial_walk_distribution(5, p)
        with pytest.raises(ValueError, match="step probability"):
            JointCoinDistribution.from_bias(p)


def test_correlation_three_reference_pairs():
    assert correlation(FAIR_CORRELATED) == pytest.approx(1.0, abs=1e-12)
    assert correlation(FAIR_INDEPENDENT) == pytest.approx(0.0, abs=1e-12)
    assert correlation(FAIR_ANTICORRELATED) == pytest.approx(-1.0, abs=1e-12)


def test_correlation_undefined_for_deterministic_marginal():
    with pytest.raises(ValueError, match="deterministic"):
        correlation(JointCoinDistribution(1.0, 0.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="deterministic"):
        correlation(JointCoinDistribution(0.5, 0.0, 0.5, 0.0))


@settings(deadline=None, max_examples=50)
@given(
    st.floats(min_value=0.05, max_value=0.45),
    st.floats(min_value=0.05, max_value=0.45),
)
def test_correlation_bounded(a, b):
    rest = 1.0 - a - b
    j = JointCoinDistribution(a, b, rest / 2.0, rest / 2.0)
    assert -1.0 - 1e-12 <= correlation(j) <= 1.0 + 1e-12


def test_correlation_invariant_under_affine_encoding():
    # the builtin encoding H=0, T=1; any a*x+b re-encoding gives the same
    # coefficient, checked against a direct covariance computation
    j = JointCoinDistribution(0.31, 0.17, 0.22, 0.30)
    for a, b in ((1.0, 0.0), (2.5, -1.0), (-0.3, 4.0)):
        values = {"h": a * 0.0 + b, "t": a * 1.0 + b}
        probs = {"hh": j.p_hh, "ht": j.p_ht, "th": j.p_th, "tt": j.p_tt}
        e1 = sum(p * values[o[0]] for o, p in probs.items())
        e2 = sum(p * values[o[1]] for o, p in probs.items())
        e12 = sum(p * values[o[0]] * values[o[1]] for o, p in probs.items())
        v1 = sum(p * (values[o[0]] - e1) ** 2 for o, p in probs.items())
        v2 = sum(p * (values[o[1]] - e2) ** 2 for o, p in probs.items())
        rho = (e12 - e1 * e2) / math.sqrt(v1 * v2)
        # both coins re-encoded together: covariance and variances pick up
        # the same a^2 factor, so the coefficient is unchanged even for a < 0
        assert rho == pytest.approx(correlation(j), abs=1e-12)


def test_correlated_walk_zero_steps():
    d = correlated_walk_distribution(0, FAIR_INDEPENDENT)
    assert d[0] == 1.0


def test_correlated_walk_two_steps_independent_fair():
    moves = {"hh": 1, "tt": -1, "ht": 0, "th": 0}
    d = correlated_walk_distribution(2, FAIR_INDEPENDENT, moves)
    assert d[0] == pytest.approx(3 / 8, abs=1e-15)
    assert d[1] == pytest.approx(1 / 4, abs=1e-15)
    assert d[-1] == pytest.approx(1 / 4, abs=1e-15)
    assert d[2] == pytest.approx(1 / 16, abs=1e-15)
    assert d[-2] == pytest.approx(1 / 16, abs=1e-15)


@pytest.mark.parametrize("n", list(range(1, 11)) + [50, 100, 200])
def test_correlated_rho_one_equals_binomial(n):
    d = correlated_walk_distribution(n, FAIR_CORRELATED, DEFAULT_MOVES)
    b = binomial_walk_distribution(n, 0.5)
    keys = set(d.support()) | set(b.support())
    for k in keys:
        assert abs(d[k] - b[k]) <= 1e-12


@settings(deadline=None, max_examples=25)
@given(
    st.integers(min_value=0, max_value=5),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_correlated_walk_matches_enumeration(n, x, y):
    # two degrees of freedom spread over the four outcomes
    p_hh = x * 0.5
    p_ht = (1.0 - x) * 0.5
    p_th = y * 0.5
    p_tt = (1.0 - y) * 0.5
    j = JointCoinDistribution(p_hh, p_ht, p_th, p_tt)
    moves = {"hh": 2, "ht": 0, "th": -1, "tt": 1}
    d = correlated_walk_distribution(n, j, moves)
    expected = enumerated_endpoint_distribution(
        n, {"hh": p_hh, "ht": p_ht, "th": p_th, "tt": p_tt}, moves
    )
    for k, p in expected.items():
        assert d[k] == pytest.approx(p, abs=1e-12)


def test_correlated_walk_requires_full_move_map():
    with pytest.raises(ValueError, match="missing"):
        correlated_walk_distribution(1, FAIR_INDEPENDENT, {"hh": 1})


def test_correlated_walk_scaled_moves_scale_positions():
    # the window follows the lattice of the moves, so huge but commensurate
    # moves cost no more than the default ones
    j = JointCoinDistribution.from_correlation(0.5)
    big = {"hh": 10**6, "ht": 0, "th": 0, "tt": -(10**6)}
    scaled = correlated_walk_distribution(100, j, big)
    unit = correlated_walk_distribution(100, j, DEFAULT_MOVES)
    assert scaled.probs == {k * 10**6: p for k, p in unit.probs.items()}


@pytest.mark.parametrize(
    "n, moves",
    [
        (100, {"hh": 10**9, "ht": 1, "th": 0, "tt": -1}),
        (1, {"hh": MAX_WINDOW_SITES, "ht": 1, "th": 0, "tt": 0}),
    ],
)
def test_correlated_walk_refuses_window_over_cap(n, moves):
    # refused before allocation: these windows hold 10**11 and cap + 1 sites
    with pytest.raises(ValueError, match="window"):
        correlated_walk_distribution(n, FAIR_INDEPENDENT, moves)


@pytest.mark.parametrize(
    "n, moves",
    [
        (4_999_999, DEFAULT_MOVES),  # 10**7 - 1 sites: under the window cap
        (10**8, {"hh": 0, "ht": 0, "th": 0, "tt": 0}),  # a one-site window
    ],
)
def test_correlated_walk_refuses_runs_over_the_time_cap(n, moves):
    with pytest.raises(ValueError, match="MAX_WINDOW_UPDATES"):
        correlated_walk_distribution(n, FAIR_INDEPENDENT, moves)


def test_sample_walk_deterministic_outcome():
    j = JointCoinDistribution(1.0, 0.0, 0.0, 0.0)
    assert sample_walk(1, j, DEFAULT_MOVES, seed=9) == DEFAULT_MOVES["hh"]
    assert sample_walk(7, j, DEFAULT_MOVES, seed=9) == 7 * DEFAULT_MOVES["hh"]


def test_sample_walk_zero_steps():
    assert sample_walk(0, FAIR_INDEPENDENT, seed=5) == 0


def test_sample_walk_reproducible():
    a = sample_walk(100, FAIR_CORRELATED, seed=77)
    b = sample_walk(100, FAIR_CORRELATED, seed=77)
    assert a == b


def test_sample_walk_memory_does_not_grow_with_n():
    tracemalloc.start()
    try:
        sample_walk(10**7, FAIR_INDEPENDENT, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_sample_endpoints_match_exact_distribution():
    # million-sample empirical center weight vs the exact value, 3 sigma
    n, count = 100, 1_000_000
    endpoints = sample_endpoints(n, FAIR_CORRELATED, DEFAULT_MOVES, count=count, seed=2024)
    exact = correlated_walk_distribution(n, FAIR_CORRELATED, DEFAULT_MOVES)
    p0 = exact[0]
    sigma = math.sqrt(p0 * (1.0 - p0) / count)
    empirical = float(np.count_nonzero(endpoints == 0)) / count
    assert abs(empirical - p0) <= 3.0 * sigma
    assert p0 == pytest.approx(0.0795, abs=1e-3)


def test_sample_endpoints_reproducible_and_bounded():
    draws = sample_endpoints(10, FAIR_INDEPENDENT, DEFAULT_MOVES, count=1000, seed=3)
    again = sample_endpoints(10, FAIR_INDEPENDENT, DEFAULT_MOVES, count=1000, seed=3)
    assert np.array_equal(draws, again)
    assert np.all(np.abs(draws) <= 10)
