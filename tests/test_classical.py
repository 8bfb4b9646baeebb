import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entwalk.classical import (
    DEFAULT_MOVES,
    MAX_WINDOW_SITES,
    OUTCOMES,
    JointCoinDistribution,
    binomial_walk_distribution,
    check_walk_cost,
    correlated_walk_distribution,
    correlation,
)
from entwalk.shifts import _STEP_OVERHEAD, DisplacementTable, build_shift
from oracles import enumerated_endpoint_distribution, exact_binomial_walk
from states import probs

FAIR_CORRELATED = JointCoinDistribution.from_correlation(1.0)
FAIR_INDEPENDENT = JointCoinDistribution(0.25, 0.25, 0.25, 0.25)
FAIR_ANTICORRELATED = JointCoinDistribution(0.0, 0.5, 0.5, 0.0)


def moves(hh, ht, th, tt):
    # a move per outcome, in OUTCOMES order, as the 2-qubit 1D table the walk takes
    return build_shift("custom", [hh, ht, th, tt])


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
    d = probs(binomial_walk_distribution(3, 0.5))
    assert d[3] == pytest.approx(1 / 8, abs=1e-15)
    assert d[1] == pytest.approx(3 / 8, abs=1e-15)
    assert d[-1] == pytest.approx(3 / 8, abs=1e-15)
    assert d[-3] == pytest.approx(1 / 8, abs=1e-15)
    assert d.get(0, 0.0) == 0.0
    assert d.get(2, 0.0) == 0.0


def test_binomial_hundred_steps_center():
    d = probs(binomial_walk_distribution(100, 0.5))
    assert d[0] == pytest.approx(0.0795, abs=1e-3)
    assert all(d.get(k, 0.0) == 0.0 for k in range(-99, 100, 2))


def test_binomial_zero_steps():
    d = probs(binomial_walk_distribution(0, 0.3))
    assert d[0] == 1.0


def test_binomial_biased():
    d = probs(binomial_walk_distribution(2, 1.0))
    assert d[2] == 1.0
    assert sorted(d) == [2]
    d = probs(binomial_walk_distribution(2, 0.0))
    assert d[-2] == 1.0
    assert sorted(d) == [-2]


@pytest.mark.parametrize("n", [1, 7, 50, 200, 1100, 2000])
def test_binomial_matches_exact_fractions(n):
    # from n ~ 1075 on the tails underflow float64 and leave the support
    d = probs(binomial_walk_distribution(n, 0.5))
    exact = exact_binomial_walk(n, Fraction(1, 2))
    for k, frac in exact.items():
        assert d.get(k, 0.0) == pytest.approx(float(frac), abs=1e-15)
    assert sorted(d) == sorted(k for k, frac in exact.items() if float(frac) > 0)
    assert sum(d.values()) == pytest.approx(1.0, abs=1e-12)


def test_binomial_ten_thousand_steps():
    # spot checks only: the full rational oracle is far too slow at this size
    n = 10_000
    d = probs(binomial_walk_distribution(n, 0.5))
    assert math.fsum(d.values()) == pytest.approx(1.0, abs=1e-12)
    assert all((k + n) % 2 == 0 for k in d)
    for k in (0, 100, -100, 1000, -1000):
        exact = float(Fraction(math.comb(n, (k + n) // 2), 2**n))
        assert d[k] == pytest.approx(exact, rel=1e-11)


@pytest.mark.parametrize("n", range(1, 51))
def test_binomial_support_parity(n):
    d = probs(binomial_walk_distribution(n, 0.5))
    assert all((k + n) % 2 == 0 for k in d)


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
    d = probs(correlated_walk_distribution(0, FAIR_INDEPENDENT))
    assert d[0] == 1.0


def test_default_moves_are_the_entangled_coin_shift():
    assert DEFAULT_MOVES == build_shift("s_ec") == moves(1, 0, 0, -1)


def test_correlated_walk_two_steps_independent_fair():
    d = probs(correlated_walk_distribution(2, FAIR_INDEPENDENT, moves(1, 0, 0, -1)))
    assert d[0] == pytest.approx(3 / 8, abs=1e-15)
    assert d[1] == pytest.approx(1 / 4, abs=1e-15)
    assert d[-1] == pytest.approx(1 / 4, abs=1e-15)
    assert d[2] == pytest.approx(1 / 16, abs=1e-15)
    assert d[-2] == pytest.approx(1 / 16, abs=1e-15)


@pytest.mark.parametrize("n", list(range(1, 11)) + [50, 100, 200])
def test_correlated_rho_one_equals_binomial(n):
    d = probs(correlated_walk_distribution(n, FAIR_CORRELATED, DEFAULT_MOVES))
    b = probs(binomial_walk_distribution(n, 0.5))
    for k in d.keys() | b.keys():
        assert abs(d.get(k, 0.0) - b.get(k, 0.0)) <= 1e-12


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
    move_map = {"hh": 2, "ht": 0, "th": -1, "tt": 1}
    d = probs(correlated_walk_distribution(n, j, moves(*(move_map[o] for o in OUTCOMES))))
    expected = enumerated_endpoint_distribution(
        n, {"hh": p_hh, "ht": p_ht, "th": p_th, "tt": p_tt}, move_map
    )
    for k, p in expected.items():
        assert d.get(k, 0.0) == pytest.approx(p, abs=1e-12)


@pytest.mark.parametrize(
    "table",
    [
        build_shift("s_single"),  # 1D, one qubit: two outcomes
        build_shift("s_3a"),  # 1D, three qubits: eight outcomes
        build_shift("s_2d"),  # 2D, three qubits
        DisplacementTable(((1, 0), (0, 0), (0, 0), (-1, 0))),  # 2D, two qubits
    ],
    ids=["1d-1q", "1d-3q", "2d-3q", "2d-2q"],
)
def test_correlated_walk_requires_a_1d_two_qubit_move_table(table):
    with pytest.raises(ValueError, match="1D table over 2 qubits"):
        correlated_walk_distribution(1, FAIR_INDEPENDENT, table)
    with pytest.raises(ValueError, match="1D table over 2 qubits"):
        check_walk_cost(1, table)


@pytest.mark.parametrize("n", [2.5, 3.0, "3", None])
def test_classical_step_count_must_be_an_int(n):
    for walk in (lambda: correlated_walk_distribution(n, FAIR_INDEPENDENT), lambda: check_walk_cost(n)):
        with pytest.raises(ValueError, match=r"^step count must be an int, got "):
            walk()


def test_classical_walk_takes_numpy_integer_step_counts():
    d = correlated_walk_distribution(np.int64(3), FAIR_INDEPENDENT)
    labels = list(d.labels([d.offsets[0].tolist()])[0])
    assert d.origin == (-3,) and type(d.origin[0]) is int and all(type(x) is int for x in labels)
    assert probs(d) == probs(correlated_walk_distribution(3, FAIR_INDEPENDENT))
    assert check_walk_cost(np.int64(3)) == check_walk_cost(3)


def test_correlated_walk_scaled_moves_scale_positions():
    # the window follows the lattice of the moves, so huge but commensurate
    # moves cost no more than the default ones
    j = JointCoinDistribution.from_correlation(0.5)
    scaled = correlated_walk_distribution(100, j, moves(10**6, 0, 0, -(10**6)))
    unit = correlated_walk_distribution(100, j, DEFAULT_MOVES)
    assert probs(scaled) == {k * 10**6: p for k, p in probs(unit).items()}
    assert (scaled.origin, scaled.step) == ((-(10**8),), (10**6,))
    assert scaled.offsets[0].tolist() == unit.offsets[0].tolist()


@pytest.mark.parametrize(
    "n, moves",
    [
        (100, moves(10**9, 1, 0, -1)),
        (1, moves(MAX_WINDOW_SITES, 1, 0, 0)),
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
        (10**8, moves(0, 0, 0, 0)),  # a one-site window
    ],
)
def test_correlated_walk_refuses_runs_over_the_time_cap(n, moves):
    with pytest.raises(ValueError, match="MAX_WINDOW_UPDATES"):
        correlated_walk_distribution(n, FAIR_INDEPENDENT, moves)


@pytest.mark.parametrize(
    "table, g",
    [
        (DEFAULT_MOVES, 1),
        (moves(2, 1, 0, -1), 1),
        (moves(6, 0, 3, -3), 3),
        (moves(10**4, 0, 0, -(10**4)), 10**4),
    ],
)
def test_classical_cost_counts_the_windows_the_steps_write(table, g):
    # every outcome has weight, so after t steps the support fills the
    # window the DP wrote at step t, from its first site to its last
    pair = JointCoinDistribution.from_correlation(0.5)
    n, written = 7, 0
    for t in range(1, n + 1):
        d = correlated_walk_distribution(t, pair, table)
        assert d.step == (g,) and d.origin == (t * min(x for (x,) in table.table),)
        assert d.offsets[0][0] == 0
        written += int(d.offsets[0][-1]) + 1
    assert check_walk_cost(n, table) == (int(d.offsets[0][-1]) + 1, written + n * _STEP_OVERHEAD)


# The largest step counts under MAX_WINDOW_UPDATES = 5 * 10**10: n + n * _STEP_OVERHEAD
# updates for a window that never grows, n + n * (n + 1) + n * _STEP_OVERHEAD for
# the default moves (a window two sites wider each step).
@pytest.mark.parametrize(
    "table, largest",
    [(moves(0, 0, 0, 0), 12_204_051), (moves(5, 5, 5, 5), 12_204_051), (DEFAULT_MOVES, 221_567)],
    ids=["span0", "span0-offset", "span2"],
)
def test_work_cap_boundary(table, largest):
    # checked only: these walks would run for half a minute to four minutes
    assert check_walk_cost(largest, table)[1] <= 5 * 10**10
    with pytest.raises(ValueError, match=f"{largest + 1} steps need .* site updates, over MAX_WINDOW_UPDATES"):
        check_walk_cost(largest + 1, table)
