import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from entwalk.coins import COIN_PRESETS, build_coin_operator, build_initial_coin
from entwalk.core import CoinState, WalkState, state_norm
from entwalk.engine import (
    _STEP_OVERHEAD,
    WalkConfig,
    _walk_cost,
    check_walk_cost,
    coin_distribution,
    evolve,
    initial_state,
    position_distribution,
    sample_positions,
    step,
)
from entwalk.shifts import SHIFT_PRESETS, build_shift
from oracles import dense_evolve

SQRT1_2 = 1.0 / np.sqrt(2.0)

_COIN_QUBITS = {name: len(amps).bit_length() - 1 for name, amps in COIN_PRESETS.items()}
_SHIFT_QUBITS = {name: len(rows).bit_length() - 1 for name, rows in SHIFT_PRESETS.items()}

# every preset combination with matching coin size
ALL_COMBOS = [
    (coin, op, shift)
    for coin in sorted(COIN_PRESETS)
    for op in ("hadamard_n", "y_n")
    for shift in sorted(SHIFT_PRESETS)
    if _COIN_QUBITS[coin] == _SHIFT_QUBITS[shift]
]


def make_config(coin: str, op: str, shift: str, steps: int) -> WalkConfig:
    coin_state = build_initial_coin(coin)
    return WalkConfig(
        coin_state=coin_state,
        coin_op=build_coin_operator(op, coin_state.qubits),
        shift=build_shift(shift),
        steps=steps,
    )


def test_combo_enumeration_is_complete():
    assert len(ALL_COMBOS) == 42


def test_initial_state_bell_coin():
    s = initial_state(make_config("phi_plus", "hadamard_n", "s_ec", 0))
    assert s.positions() == [(0,)]
    assert s.amplitude(0, 0) == pytest.approx(SQRT1_2, abs=1e-15)
    assert s.amplitude(0, 3) == pytest.approx(SQRT1_2, abs=1e-15)
    assert s.amplitude(0, 1) == 0


def test_initial_state_single_qubit_basis_coin():
    cfg = WalkConfig(
        coin_state=CoinState(qubits=1, amplitudes=[1, 0]),
        coin_op=build_coin_operator("hadamard_n", 1),
        shift=build_shift("s_single"),
        steps=0,
    )
    s = initial_state(cfg)
    assert s.positions() == [(0,)]
    assert s.amplitude(0, 0) == 1.0 + 0j


def test_initial_state_ghz_2d():
    s = initial_state(make_config("ghz3", "hadamard_n", "s_2d", 0))
    assert s.positions() == [(0, 0)]
    assert s.amplitude((0, 0), 0) == pytest.approx(SQRT1_2, abs=1e-15)
    assert s.amplitude((0, 0), 7) == pytest.approx(SQRT1_2, abs=1e-15)


def test_initial_position_offset():
    cfg = make_config("phi_plus", "hadamard_n", "s_ec", 0)
    cfg = WalkConfig(
        coin_state=cfg.coin_state,
        coin_op=cfg.coin_op,
        shift=cfg.shift,
        steps=1,
        initial_position=5,
    )
    d = position_distribution(evolve(cfg))
    assert d[6] == pytest.approx(0.5, abs=1e-12)
    assert d[4] == pytest.approx(0.5, abs=1e-12)


def test_one_step_splits_bell_state_symmetrically():
    cfg = make_config("phi_plus", "hadamard_n", "s_ec", 0)
    s = step(initial_state(cfg), cfg.coin_op, cfg.shift)
    assert s.amplitude(1, 0) == pytest.approx(SQRT1_2, abs=1e-15)
    assert s.amplitude(-1, 3) == pytest.approx(SQRT1_2, abs=1e-15)
    d = position_distribution(s)
    assert d[1] == pytest.approx(0.5, abs=1e-12)
    assert d[-1] == pytest.approx(0.5, abs=1e-12)


def test_zero_steps_returns_initial_state():
    cfg = make_config("theta1", "y_n", "s_ec_prime", 0)
    s = evolve(cfg)
    assert s.positions() == [(0,)]
    assert np.array_equal(s.amplitudes[(0,)], cfg.coin_state.amplitudes)


@pytest.mark.parametrize(
    "steps,expected",
    [
        (0, {0: Fraction(1)}),
        (1, {-1: Fraction(1, 2), 1: Fraction(1, 2)}),
        (
            2,
            {
                -2: Fraction(1, 8),
                -1: Fraction(2, 8),
                0: Fraction(2, 8),
                1: Fraction(2, 8),
                2: Fraction(1, 8),
            },
        ),
        (
            3,
            {
                -3: Fraction(1, 32),
                -2: Fraction(6, 32),
                -1: Fraction(5, 32),
                0: Fraction(8, 32),
                1: Fraction(5, 32),
                2: Fraction(6, 32),
                3: Fraction(1, 32),
            },
        ),
    ],
)
def test_bell_walk_small_step_distributions_exact(steps, expected):
    d = position_distribution(evolve(make_config("phi_plus", "hadamard_n", "s_ec", steps)))
    assert set(d.support()) == set(expected)
    for k, frac in expected.items():
        assert d[k] == pytest.approx(float(frac), abs=1e-12)


@pytest.mark.parametrize("coin,op,shift", ALL_COMBOS)
def test_engine_matches_dense_oracle(coin, op, shift):
    steps = 8
    cfg = make_config(coin, op, shift, steps)
    state = evolve(cfg)
    expected = dense_evolve(
        cfg.coin_state.amplitudes, cfg.coin_op.matrix, cfg.shift.table, steps
    )
    keys = set(state.amplitudes) | set(expected)
    dim = 2**cfg.coin_state.qubits
    for pos in keys:
        got = state.amplitudes.get(pos, np.zeros(dim))
        want = expected.get(pos, np.zeros(dim))
        assert np.max(np.abs(got - want)) <= 1e-12, f"mismatch at {pos}"


@pytest.mark.parametrize("steps", [1, 3, 5])
def test_engine_matches_dense_oracle_varied_depths(steps):
    cfg = make_config("inui_konno", "y_n", "s_ec_prime", steps)
    state = evolve(cfg)
    expected = dense_evolve(
        cfg.coin_state.amplitudes, cfg.coin_op.matrix, cfg.shift.table, steps
    )
    for pos, want in expected.items():
        got = state.amplitudes.get(pos, np.zeros(4))
        assert np.max(np.abs(got - want)) <= 1e-12


def test_single_qubit_hadamard_walk_matches_dense_oracle():
    coin_state = CoinState(qubits=1, amplitudes=[1, 0])
    cfg = WalkConfig(
        coin_state=coin_state,
        coin_op=build_coin_operator("hadamard_n", 1),
        shift=build_shift("s_single"),
        steps=8,
    )
    state = evolve(cfg)
    expected = dense_evolve(coin_state.amplitudes, cfg.coin_op.matrix, cfg.shift.table, 8)
    for pos, want in expected.items():
        got = state.amplitudes.get(pos, np.zeros(2))
        assert np.max(np.abs(got - want)) <= 1e-12
    # the lopsidedness characteristic of this walk: drift to the right
    d = position_distribution(state)
    assert d[2] > d[-2]


def test_position_distribution_sums_to_norm():
    state = evolve(make_config("theta0", "hadamard_n", "s_ec", 25))
    d = position_distribution(state)
    assert sum(p for _, p in d.items_sorted()) == pytest.approx(state_norm(state), abs=1e-12)


def test_coin_distribution_bell_walk():
    cfg = make_config("phi_plus", "hadamard_n", "s_ec", 0)
    assert coin_distribution(initial_state(cfg)).probs == pytest.approx(
        {0: 0.5, 3: 0.5}, abs=1e-12
    )
    after_one = step(initial_state(cfg), cfg.coin_op, cfg.shift)
    d = coin_distribution(after_one)
    assert d[0] == pytest.approx(0.5, abs=1e-12)
    assert d[3] == pytest.approx(0.5, abs=1e-12)
    assert d[1] == 0.0
    assert d[2] == 0.0


def test_coin_distribution_psi_minus_walk():
    for steps in (0, 7, 31):
        state = evolve(make_config("psi_minus", "hadamard_n", "s_ec", steps))
        d = coin_distribution(state)
        assert d[1] == pytest.approx(0.5, abs=1e-12)
        assert d[2] == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("op", ["hadamard_n", "y_n"])
def test_psi_minus_walker_never_moves(op):
    cfg = make_config("psi_minus", op, "s_ec", 0)
    state = initial_state(cfg)
    for _ in range(100):
        state = step(state, cfg.coin_op, cfg.shift)
        d = position_distribution(state)
        assert d[0] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("op", ["hadamard_n", "y_n"])
def test_psi_minus_support_stays_exactly_at_the_origin(op):
    # the coin maps psi_minus to itself up to a phase, so the moving
    # components must cancel to exact zeros at every step, in every site
    state = evolve(make_config("psi_minus", op, "s_ec", 30))
    assert state.positions() == [(0,)]
    assert position_distribution(state).support() == [0]


def test_kept_states_are_unchanged_by_later_steps():
    cfg = make_config("inui_konno", "y_n", "s_ec_prime", 10)
    # without a workspace, and with one that every step reuses
    for scratch in (None, np.empty(_walk_cost(cfg)[0], dtype=complex)):
        state = initial_state(cfg)
        for _ in range(4):
            state = step(state, cfg.coin_op, cfg.shift, scratch=scratch)
        kept = state
        snapshot = {pos: vec.copy() for pos, vec in kept.amplitudes.items()}
        for _ in range(6):
            state = step(state, cfg.coin_op, cfg.shift, scratch=scratch)
        assert kept.positions() == sorted(snapshot)
        for pos, vec in snapshot.items():
            assert np.array_equal(kept.amplitudes[pos], vec)
        assert not kept.amplitudes.window.flags.writeable
        with pytest.raises(ValueError):
            kept.amplitudes[kept.positions()[0]][0] = 0


@pytest.mark.parametrize(
    "combo", [("ghz3", "hadamard_n", "s_2d", 50), ("inui_konno", "y_n", "s_ec_prime", 40)]
)
def test_evolve_matches_a_scratch_free_step_loop(combo):
    cfg = make_config(*combo)
    state = initial_state(cfg)
    for _ in range(cfg.steps):
        state = step(state, cfg.coin_op, cfg.shift, scratch=None)
    walked = evolve(cfg)
    assert walked.amplitudes.origin == state.amplitudes.origin
    assert np.array_equal(walked.amplitudes.window, state.amplitudes.window)


def test_walk_state_adopts_another_states_amplitudes():
    s = evolve(make_config("ghz3", "y_n", "s_2d", 5))
    adopted = WalkState(dims=s.dims, qubits=s.qubits, amplitudes=s.amplitudes)
    assert adopted.amplitudes is s.amplitudes
    rebuilt = WalkState(dims=s.dims, qubits=s.qubits, amplitudes=dict(s.amplitudes))
    for t in (adopted, rebuilt):
        assert t.positions() == s.positions()
        assert position_distribution(t).probs == position_distribution(s).probs
        assert state_norm(t) == pytest.approx(state_norm(s), abs=1e-15)
    with pytest.raises(ValueError, match="window"):
        WalkState(dims=1, qubits=3, amplitudes=s.amplitudes)


def _with_shift(table, steps):
    cfg = make_config("phi_plus", "hadamard_n", "s_ec", 0)
    return WalkConfig(
        coin_state=cfg.coin_state, coin_op=cfg.coin_op, shift=build_shift("custom", table), steps=steps
    )


@pytest.mark.parametrize(
    "cfg, cap",
    [
        (make_config("ghz3", "hadamard_n", "s_2d", 10**9), "MAX_WINDOW_AMPLITUDES"),
        (make_config("phi_plus", "hadamard_n", "s_ec", 10**6), "MAX_WALK_WORK"),
        (_with_shift([10**6, 0, 0, -(10**6)], 3), "MAX_WINDOW_AMPLITUDES"),
        (_with_shift([0, 0, 0, 0], 10**9), "MAX_WALK_WORK"),
    ],
)
@pytest.mark.parametrize("walk", [evolve, check_walk_cost])
def test_evolve_refuses_oversized_walks_before_allocating(walk, cfg, cap):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=cap):
            walk(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("combo", [("ghz3", "y_n", "s_2d"), ("theta1", "hadamard_n", "s_ec_prime")])
def test_walk_cost_counts_the_windows_the_steps_write(combo):
    cfg = make_config(*combo, 7)
    state, written = initial_state(cfg), 0
    for _ in range(cfg.steps):
        state = step(state, cfg.coin_op, cfg.shift)
        written += state.amplitudes.window.size
    final, work = _walk_cost(cfg)
    assert final == state.amplitudes.window.size
    assert work == written + cfg.steps * _STEP_OVERHEAD


def _as_complex(state: WalkState) -> WalkState:
    # the same amplitudes, packed from a dict into a complex128 window
    return WalkState(dims=state.dims, qubits=state.qubits, amplitudes=dict(state.amplitudes))


REAL_COMBOS = [
    (coin, op, shift)
    for coin, op, shift in ALL_COMBOS
    if op == "hadamard_n" and not np.iscomplex(COIN_PRESETS[coin]).any()
]


@pytest.mark.parametrize(
    "combo",
    [(*c, 30) for c in REAL_COMBOS] + [("ghz3", "hadamard_n", "s_2d", 50)],
    ids=lambda combo: "-".join(map(str, combo)),
)
def test_real_walk_has_the_bits_of_the_complex_walk(combo):
    cfg = make_config(*combo)
    real = initial_state(cfg)
    cplx = _as_complex(real)
    assert real.amplitudes.window.dtype == np.float64
    assert cplx.amplitudes.window.dtype == np.complex128
    for _ in range(cfg.steps):
        real = step(real, cfg.coin_op, cfg.shift)
        cplx = step(cplx, cfg.coin_op, cfg.shift)
    assert real.amplitudes.window.dtype == np.float64
    assert cplx.amplitudes.window.dtype == np.complex128
    assert real.amplitudes.origin == cplx.amplitudes.origin
    assert np.array_equal(real.amplitudes.window, cplx.amplitudes.window.real)
    assert not cplx.amplitudes.window.imag.any()
    assert np.array_equal(evolve(cfg).amplitudes.window, real.amplitudes.window)
    assert list(position_distribution(real).probs.items()) == list(
        position_distribution(cplx).probs.items()
    )
    assert coin_distribution(real).probs == coin_distribution(cplx).probs
    assert state_norm(real).hex() == state_norm(cplx).hex()


_FLIP = [[0, 1], [1, 0]]


@pytest.mark.parametrize(
    "coin, op, matrix, dtype",
    [
        ("phi_plus", "hadamard_n", None, np.float64),
        ("ghz3", "hadamard_n", None, np.float64),
        ("single_hadamard_bias", "hadamard_n", None, np.float64),
        ("phi_plus", "y_n", None, np.complex128),
        ("inui_konno", "hadamard_n", None, np.complex128),
        ("plus_i_product", "hadamard_n", None, np.complex128),
        ("single_hadamard_bias", "custom", _FLIP, np.float64),
        ("single_hadamard_bias", "custom", [[0, 1j], [1j, 0]], np.complex128),
    ],
)
def test_window_dtype_follows_the_inputs(coin, op, matrix, dtype):
    coin_state = build_initial_coin(coin)
    cfg = WalkConfig(
        coin_state=coin_state,
        coin_op=build_coin_operator(op, coin_state.qubits, matrix),
        shift=build_shift({1: "s_single", 2: "s_ec", 3: "s_2d"}[coin_state.qubits]),
        steps=3,
    )
    assert initial_state(cfg).amplitudes.window.dtype == dtype
    assert evolve(cfg).amplitudes.window.dtype == dtype


def test_real_state_under_a_complex_operator_is_promoted():
    cfg = make_config("theta1", "hadamard_n", "s_ec_prime", 5)
    y = build_coin_operator("y_n", 2)
    real = evolve(cfg)
    cplx = _as_complex(real)
    for _ in range(4):
        real = step(real, y, cfg.shift)
        cplx = step(cplx, y, cfg.shift)
    assert real.amplitudes.window.dtype == np.complex128
    assert real.amplitudes.origin == cplx.amplitudes.origin
    assert np.array_equal(real.amplitudes.window, cplx.amplitudes.window)
    with pytest.raises(ValueError, match="scratch"):
        step(evolve(cfg), y, cfg.shift, scratch=np.empty(_walk_cost(cfg)[0]))


def test_real_walk_peak_memory_is_about_three_real_windows():
    # the scratch, the last state's window and the grown one, each in float64
    cfg = make_config("ghz3", "hadamard_n", "s_2d", 50)
    tracemalloc.start()
    try:
        state = evolve(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * state.amplitudes.window.size * np.dtype(np.float64).itemsize


def test_bell_walk_symmetric_at_100_steps():
    d = position_distribution(evolve(make_config("phi_plus", "hadamard_n", "s_ec", 100)))
    for k in range(101):
        assert abs(d[k] - d[-k]) <= 1e-12


def test_bell_walk_breaks_parity_constraint():
    # with rest displacements, odd and even positions are both occupied
    d = position_distribution(evolve(make_config("phi_plus", "hadamard_n", "s_ec", 3)))
    assert all(d[k] > 0 for k in range(-3, 4))


def test_norm_preserved_through_200_steps():
    state = evolve(make_config("phi_plus", "hadamard_n", "s_ec", 200))
    assert state_norm(state) == pytest.approx(1.0, abs=1e-10)


def test_norm_drift_per_step_is_tiny():
    cfg = make_config("inui_konno", "y_n", "s_ec_prime", 0)
    state = initial_state(cfg)
    prev = state_norm(state)
    for _ in range(50):
        state = step(state, cfg.coin_op, cfg.shift)
        now = state_norm(state)
        assert abs(now - prev) <= 1e-14
        prev = now


def test_2d_ghz_walk_spreads_on_both_axes():
    state = evolve(make_config("ghz3", "hadamard_n", "s_2d", 6))
    d = position_distribution(state)
    xs = {pos[0] for pos in d.support()}
    ys = {pos[1] for pos in d.support()}
    assert len(xs) > 1 and len(ys) > 1
    assert state_norm(state) == pytest.approx(1.0, abs=1e-10)


def test_walk_config_validates_agreement():
    bell = build_initial_coin("phi_plus")
    ghz = build_initial_coin("ghz3")
    hh = build_coin_operator("hadamard_n", 2)
    with pytest.raises(ValueError, match="operator"):
        WalkConfig(coin_state=ghz, coin_op=hh, shift=build_shift("s_3a"), steps=1)
    with pytest.raises(ValueError, match="shift"):
        WalkConfig(coin_state=bell, coin_op=hh, shift=build_shift("s_single"), steps=1)
    with pytest.raises(ValueError, match="nonnegative"):
        WalkConfig(coin_state=bell, coin_op=hh, shift=build_shift("s_ec"), steps=-1)
    with pytest.raises(ValueError, match="component"):
        WalkConfig(
            coin_state=bell,
            coin_op=hh,
            shift=build_shift("s_ec"),
            steps=1,
            initial_position=(0, 0),
        )


def test_step_validates_agreement():
    cfg = make_config("phi_plus", "hadamard_n", "s_ec", 0)
    state = initial_state(cfg)
    with pytest.raises(ValueError, match="qubit"):
        step(state, build_coin_operator("hadamard_n", 1), cfg.shift)
    with pytest.raises(ValueError, match="conditions"):
        step(state, cfg.coin_op, build_shift("s_single"))


def test_sample_positions_reproducible():
    d = position_distribution(evolve(make_config("phi_plus", "hadamard_n", "s_ec", 10)))
    first = sample_positions(d, 50, seed=123)
    second = sample_positions(d, 50, seed=123)
    assert first == second
    assert all(label in d.probs for label in first)
    assert sample_positions(d, 0, seed=1) == []
    with pytest.raises(ValueError):
        sample_positions(d, -1, seed=1)
