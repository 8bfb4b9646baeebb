import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from entwalk import engine
from entwalk.coins import COIN_PRESETS, build_coin_operator, build_initial_coin
from entwalk.core import CoinState, SiteAmplitudes, WalkState, state_norm
from entwalk.engine import (
    WalkConfig,
    _walk_cost,
    evolve,
    initial_state,
    position_distribution,
    step,
)
from entwalk.shifts import _STEP_OVERHEAD, SHIFT_PRESETS, build_shift
from oracles import dense_evolve
from states import probs, sites

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


def _parts(coin: str, op: str, shift: str, table=None) -> dict:
    # a WalkConfig's coin state, coin operator and shift, without its steps
    coin_state = build_initial_coin(coin)
    return dict(
        coin_state=coin_state,
        coin_op=build_coin_operator(op, coin_state.qubits),
        shift=build_shift(shift, table),
    )


def make_config(coin: str, op: str, shift: str, steps: int) -> WalkConfig:
    return WalkConfig(**_parts(coin, op, shift), steps=steps)


def test_combo_enumeration_is_complete():
    assert len(ALL_COMBOS) == 42


def test_initial_state_bell_coin():
    s = sites(initial_state(make_config("phi_plus", "hadamard_n", "s_ec", 0)))
    assert list(s) == [(0,)]
    assert s[(0,)][0] == pytest.approx(SQRT1_2, abs=1e-15)
    assert s[(0,)][3] == pytest.approx(SQRT1_2, abs=1e-15)
    assert s[(0,)][1] == 0


def test_initial_state_single_qubit_basis_coin():
    cfg = WalkConfig(
        coin_state=CoinState([1, 0]),
        coin_op=build_coin_operator("hadamard_n", 1),
        shift=build_shift("s_single"),
        steps=0,
    )
    s = sites(initial_state(cfg))
    assert list(s) == [(0,)]
    assert s[(0,)][0] == 1.0 + 0j


def test_initial_state_ghz_2d():
    s = sites(initial_state(make_config("ghz3", "hadamard_n", "s_2d", 0)))
    assert list(s) == [(0, 0)]
    assert s[(0, 0)][0] == pytest.approx(SQRT1_2, abs=1e-15)
    assert s[(0, 0)][7] == pytest.approx(SQRT1_2, abs=1e-15)


def test_initial_position_offset():
    cfg = make_config("phi_plus", "hadamard_n", "s_ec", 0)
    cfg = WalkConfig(
        coin_state=cfg.coin_state,
        coin_op=cfg.coin_op,
        shift=cfg.shift,
        steps=1,
        initial_position=5,
    )
    d = probs(position_distribution(evolve(cfg)))
    assert d[6] == pytest.approx(0.5, abs=1e-12)
    assert d[4] == pytest.approx(0.5, abs=1e-12)


def _starting_at(pos, shift="s_2d"):
    cfg = make_config("ghz3" if shift == "s_2d" else "phi_plus", "hadamard_n", shift, 1)
    return WalkConfig(coin_state=cfg.coin_state, coin_op=cfg.coin_op, shift=cfg.shift, steps=1,
                      initial_position=pos).initial_position


def test_initial_position_takes_numpy_integers():
    assert _starting_at(np.array([3, -4])) == (3, -4) and _starting_at([np.int8(1), 2]) == (1, 2)
    assert type(_starting_at(np.array([3, -4]))[0]) is int
    assert _starting_at(np.int64(4), "s_ec") == (4,)


def test_initial_position_refuses_floats_and_strings():
    for bad in ((2.9, 0), (2, 0.0), "12", ("1", "2")):
        with pytest.raises(ValueError, match="initial position must be an int or a sequence of ints"):
            _starting_at(bad)
    for bad in ((2.9,), 2.0):
        with pytest.raises(ValueError, match="initial position must be an int or a sequence of ints"):
            _starting_at(bad, "s_ec")


def test_walk_configs_built_from_equal_parts_are_equal():
    a, b = make_config("ghz3", "y_n", "s_2d", 7), make_config("ghz3", "y_n", "s_2d", 7)
    assert a == b and hash(a) == hash(b)
    assert a != make_config("ghz3", "hadamard_n", "s_2d", 7) and a != make_config("ghz3", "y_n", "s_2d", 8)


def test_one_step_splits_bell_state_symmetrically():
    cfg = make_config("phi_plus", "hadamard_n", "s_ec", 0)
    s = step(initial_state(cfg), cfg.coin_op, cfg.shift)
    assert sites(s)[(1,)][0] == pytest.approx(SQRT1_2, abs=1e-15)
    assert sites(s)[(-1,)][3] == pytest.approx(SQRT1_2, abs=1e-15)
    d = probs(position_distribution(s))
    assert d[1] == pytest.approx(0.5, abs=1e-12)
    assert d[-1] == pytest.approx(0.5, abs=1e-12)


def test_zero_steps_returns_initial_state():
    cfg = make_config("theta1", "y_n", "s_ec_prime", 0)
    s = sites(evolve(cfg))
    assert list(s) == [(0,)]
    assert np.array_equal(s[(0,)], cfg.coin_state.amplitudes)


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
    d = probs(position_distribution(evolve(make_config("phi_plus", "hadamard_n", "s_ec", steps))))
    assert set(d) == set(expected)
    for k, frac in expected.items():
        assert d[k] == pytest.approx(float(frac), abs=1e-12)


@pytest.mark.parametrize("coin,op,shift", ALL_COMBOS)
def test_engine_matches_dense_oracle(coin, op, shift):
    steps = 8
    cfg = make_config(coin, op, shift, steps)
    state = sites(evolve(cfg))
    expected = dense_evolve(
        cfg.coin_state.amplitudes, cfg.coin_op.matrix, cfg.shift.table, steps
    )
    keys = set(state) | set(expected)
    dim = 2**cfg.coin_state.qubits
    for pos in keys:
        got = state.get(pos, np.zeros(dim))
        want = expected.get(pos, np.zeros(dim))
        assert np.max(np.abs(got - want)) <= 1e-12, f"mismatch at {pos}"


@pytest.mark.parametrize("steps", [1, 3, 5])
def test_engine_matches_dense_oracle_varied_depths(steps):
    cfg = make_config("inui_konno", "y_n", "s_ec_prime", steps)
    state = sites(evolve(cfg))
    expected = dense_evolve(
        cfg.coin_state.amplitudes, cfg.coin_op.matrix, cfg.shift.table, steps
    )
    for pos, want in expected.items():
        got = state.get(pos, np.zeros(4))
        assert np.max(np.abs(got - want)) <= 1e-12


def test_single_qubit_hadamard_walk_matches_dense_oracle():
    coin_state = CoinState([1, 0])
    cfg = WalkConfig(
        coin_state=coin_state,
        coin_op=build_coin_operator("hadamard_n", 1),
        shift=build_shift("s_single"),
        steps=8,
    )
    state = evolve(cfg)
    expected = dense_evolve(coin_state.amplitudes, cfg.coin_op.matrix, cfg.shift.table, 8)
    got_sites = sites(state)
    for pos, want in expected.items():
        got = got_sites.get(pos, np.zeros(2))
        assert np.max(np.abs(got - want)) <= 1e-12
    # the lopsidedness characteristic of this walk: drift to the right
    d = probs(position_distribution(state))
    assert d[2] > d[-2]


def test_position_distribution_sums_to_norm():
    state = evolve(make_config("theta0", "hadamard_n", "s_ec", 25))
    d = probs(position_distribution(state))
    assert sum(d.values()) == pytest.approx(state_norm(state), abs=1e-12)


def coin_marginal(state):
    """P(c) = sum over sites of |amplitude(pos, c)|^2, read from the coin-major window."""
    window = state.amplitudes.window
    planes = window.reshape(len(window), -1)
    return (np.square(planes.real) + np.square(planes.imag)).sum(axis=1).tolist()


def test_coin_marginal_bell_walk():
    cfg = make_config("phi_plus", "hadamard_n", "s_ec", 0)
    assert coin_marginal(initial_state(cfg)) == pytest.approx([0.5, 0, 0, 0.5], abs=1e-12)
    after_one = step(initial_state(cfg), cfg.coin_op, cfg.shift)
    assert coin_marginal(after_one) == pytest.approx([0.5, 0, 0, 0.5], abs=1e-12)
    assert coin_marginal(after_one)[1:3] == [0.0, 0.0]


def test_coin_marginal_psi_minus_walk():
    for steps in (0, 7, 31):
        state = evolve(make_config("psi_minus", "hadamard_n", "s_ec", steps))
        assert coin_marginal(state) == pytest.approx([0, 0.5, 0.5, 0], abs=1e-12)


@pytest.mark.parametrize("op", ["hadamard_n", "y_n"])
def test_psi_minus_walker_never_moves(op):
    cfg = make_config("psi_minus", op, "s_ec", 0)
    state = initial_state(cfg)
    for _ in range(100):
        state = step(state, cfg.coin_op, cfg.shift)
        d = probs(position_distribution(state))
        assert d[0] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("op", ["hadamard_n", "y_n"])
def test_psi_minus_support_stays_exactly_at_the_origin(op):
    # the coin maps psi_minus to itself up to a phase, so the moving
    # components must cancel to exact zeros at every step, in every site
    state = evolve(make_config("psi_minus", op, "s_ec", 30))
    assert list(sites(state)) == [(0,)]
    assert sorted(probs(position_distribution(state))) == [0]


def test_kept_states_are_unchanged_by_later_steps():
    cfg = make_config("inui_konno", "y_n", "s_ec_prime", 10)
    # without a workspace, and with one that every step reuses
    for scratch in (None, np.empty(2 * _walk_cost(cfg)[0], dtype=complex)):
        state = initial_state(cfg)
        for _ in range(4):
            state = step(state, cfg.coin_op, cfg.shift, scratch=scratch)
        kept = state
        snapshot = {pos: vec.copy() for pos, vec in sites(kept).items()}
        for _ in range(6):
            state = step(state, cfg.coin_op, cfg.shift, scratch=scratch)
        assert list(sites(kept)) == sorted(snapshot)
        for pos, vec in snapshot.items():
            assert np.array_equal(sites(kept)[pos], vec)
        assert not kept.amplitudes.window.flags.writeable
        with pytest.raises(ValueError):
            kept.amplitudes.window[0] = 0


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
    rebuilt = _as_complex(s)
    for t in (adopted, rebuilt):
        assert list(sites(t)) == list(sites(s))
        assert probs(position_distribution(t)) == probs(position_distribution(s))
        assert state_norm(t) == pytest.approx(state_norm(s), abs=1e-15)
    with pytest.raises(ValueError, match="window"):
        WalkState(dims=1, qubits=3, amplitudes=s.amplitudes)


def test_walk_states_compare_by_value():
    cfg = make_config("ghz3", "y_n", "s_2d", 5)
    a, b = evolve(cfg), evolve(cfg)
    assert a == b and a.amplitudes is not b.amplitudes
    window = a.amplitudes.window
    assert a != WalkState(dims=2, qubits=3, amplitudes=SiteAmplitudes(window, (1, 0)))
    changed = window.copy()
    changed.flat[np.flatnonzero(window)[0]] *= -1
    assert a != WalkState(dims=2, qubits=3, amplitudes=SiteAmplitudes(changed, a.amplitudes.origin))
    with pytest.raises(TypeError):
        hash(a)


def test_the_tracers_reads_count_the_window():
    # len and values(), the reads the benchmark's tracer makes: occupied
    # sites, and their coin vectors in site order
    state = evolve(make_config("ghz3", "hadamard_n", "s_2d", 50))
    window = state.amplitudes.window
    assert len(state.amplitudes) == np.count_nonzero(window.any(axis=0))
    rows = state.amplitudes.values()
    assert sum(np.count_nonzero(vec) for vec in rows) == np.count_nonzero(window)
    assert np.array_equal(rows, list(sites(state).values()))


@pytest.mark.parametrize(
    "walk, steps, cap",
    [
        (("ghz3", "hadamard_n", "s_2d"), 10**9, "MAX_WINDOW_AMPLITUDES"),
        (("phi_plus", "hadamard_n", "s_ec"), 10**6, "MAX_WALK_WORK"),
        (("phi_plus", "hadamard_n", "custom", [10**6, 0, 0, -(10**6)]), 3, "MAX_WINDOW_AMPLITUDES"),
        (("phi_plus", "hadamard_n", "custom", [0, 0, 0, 0]), 10**9, "MAX_WALK_WORK"),
    ],
    ids=["window-2d", "work-1d", "window-custom", "work-never-grows"],
)
def test_oversized_walks_are_refused_when_built_before_allocating(walk, steps, cap):
    parts = _parts(*walk)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=cap):
            WalkConfig(**parts, steps=steps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# The largest walks under each cap, and one step or one site past them:
# a window that never grows costs 4 + _STEP_OVERHEAD = 4100 updates a step,
# and one step of +-S fills a window of 4 * (1 + 2 S) amplitudes.
@pytest.mark.parametrize(
    "largest, past, message",
    [
        (([0, 0, 0, 0], 2_439_024), ([0, 0, 0, 0], 2_439_025),
         "2439025 steps need 10000002500 amplitude updates, over MAX_WALK_WORK=10000000000"),
        (([1_048_575, 0, 0, -1_048_575], 1), ([1_048_576, 0, 0, -1_048_576], 1),
         "1 steps need a window of 8388612 amplitudes, over MAX_WINDOW_AMPLITUDES=8388608"),
    ],
    ids=["work", "window"],
)
def test_walk_caps_boundary(largest, past, message):
    # built only: the largest walk under the work cap would step for a minute
    (table, steps), (past_table, past_steps) = largest, past
    window, work = _walk_cost(WalkConfig(**_parts("phi_plus", "hadamard_n", "custom", table), steps=steps))
    assert window <= engine.MAX_WINDOW_AMPLITUDES and work <= engine.MAX_WALK_WORK
    with pytest.raises(ValueError) as refused:
        WalkConfig(**_parts("phi_plus", "hadamard_n", "custom", past_table), steps=past_steps)
    assert str(refused.value) == message


def test_evolve_runs_a_config_without_checking_its_caps_again(monkeypatch):
    # the caps are checked once, when the config is built
    cfg = make_config("phi_plus", "hadamard_n", "s_ec", 5)
    monkeypatch.setattr(engine, "MAX_WINDOW_AMPLITUDES", 0)
    monkeypatch.setattr(engine, "MAX_WALK_WORK", 0)
    assert state_norm(evolve(cfg)) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError, match="MAX_WINDOW_AMPLITUDES=0"):
        make_config("phi_plus", "hadamard_n", "s_ec", 5)
    assert not hasattr(engine, "check_walk_cost")


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
    # the same amplitudes, copied into a complex128 window
    amplitudes = SiteAmplitudes(state.amplitudes.window.astype(complex), state.amplitudes.origin)
    return WalkState(dims=state.dims, qubits=state.qubits, amplitudes=amplitudes)


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
    assert list(probs(position_distribution(real)).items()) == list(
        probs(position_distribution(cplx)).items()
    )
    assert coin_marginal(real) == coin_marginal(cplx)
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


def _workspace_bytes(cfg, itemsize=8):
    # the two coin blocks that evolve allocates for cfg
    window = _walk_cost(cfg)[0]
    row = window // (1 + cfg.steps * cfg.shift._layout.span[0])
    return 2 * min(window, engine._BLOCK_AMPLITUDES + row) * itemsize


def test_real_walk_peak_memory_is_two_windows_and_a_workspace():
    # the last state's window, the grown one and the coin's two blocks, in float64
    cfg = make_config("ghz3", "hadamard_n", "s_2d", 50)
    tracemalloc.start()
    try:
        state = evolve(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    window = state.amplitudes.window.nbytes
    assert _workspace_bytes(cfg) < 0.9 * window
    assert peak < 2 * window + _workspace_bytes(cfg) + 2**16


def test_a_step_holds_two_windows_and_a_bounded_workspace():
    # ghz3/s_2d N=100: the window (8 x 201 x 201 float64) is ~2.6 MB, the
    # workspace two blocks of 2**15 amplitudes plus a row, ~0.5 MB
    cfg = make_config("ghz3", "hadamard_n", "s_2d", 99)
    state = evolve(cfg)
    tracemalloc.start()
    try:
        grown = step(state, cfg.coin_op, cfg.shift)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    window = grown.amplitudes.window
    row = window[:, 0].size
    workspace = 2 * (engine._BLOCK_AMPLITUDES + row) * window.itemsize
    # the state's window was allocated before tracing began
    assert peak < window.nbytes + workspace + 2**16
    assert workspace < window.nbytes / 4


def test_readout_gathers_only_the_occupied_sites():
    state = evolve(make_config("ghz3", "hadamard_n", "s_2d", 100))
    window = state.amplitudes.window
    tracemalloc.start()
    try:
        d = position_distribution(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    sites = len(d.values)
    assert sites < window[0].size * 0.6  # the diamond fills about half its box
    # the occupancy mask and its temporary, the gathered coin rows, their
    # sums and the label offsets: under one window
    assert peak < window[0].size * (window.shape[0] + 1) + sites * (window.shape[0] + 4) * 8 + 2**16
    assert peak < window.nbytes


def _block_cases():
    return [
        ("phi_plus", "hadamard_n", "s_ec", 60),  # 1D float64
        ("inui_konno", "y_n", "s_ec_prime", 60),  # 1D complex128
        ("psi_minus", "y_n", "s_ec", 40),  # exact cancellations: zero signs
        ("ghz3", "hadamard_n", "s_2d", 20),  # 2D float64
        ("ghz3", "y_n", "s_2d", 20),  # 2D complex128
        ("ghz3", "hadamard_n", "s_3b", 30),
    ]


@pytest.mark.parametrize("combo", _block_cases(), ids=lambda c: "-".join(map(str, c)))
def test_blocked_steps_have_the_bits_of_one_block_steps(monkeypatch, combo):
    cfg = make_config(*combo)
    windows = {}
    for name, block, sites in [("one", 2**40, 2**40), ("blocked", 64, 2**40), ("unbuffered", 96, 1)]:
        # 64 and 96 amplitudes: many blocks of a few rows each, block edges
        # everywhere; an unbuffered coin from the first site on
        monkeypatch.setattr(engine, "_BLOCK_AMPLITUDES", block)
        monkeypatch.setattr(engine, "_UNBUFFERED_SITES", sites)
        state = initial_state(cfg)
        seen = []
        for _ in range(cfg.steps):
            state = step(state, cfg.coin_op, cfg.shift)
            window = state.amplitudes.window
            seen.append((state.amplitudes.origin, window.dtype, window.tobytes()))
        assert evolve(cfg).amplitudes.window.tobytes() == seen[-1][2]
        windows[name] = seen
    assert windows["blocked"] == windows["one"]
    assert windows["unbuffered"] == windows["one"]
    assert np.getbufsize() == 8192


def test_step_refuses_a_workspace_too_small_for_two_blocks():
    cfg = make_config("ghz3", "hadamard_n", "s_2d", 3)
    state = evolve(cfg)
    need = 2 * state.amplitudes.window.size
    with pytest.raises(ValueError, match="scratch"):
        step(state, cfg.coin_op, cfg.shift, scratch=np.empty(need - 1))
    step(state, cfg.coin_op, cfg.shift, scratch=np.empty(need))


def test_bell_walk_symmetric_at_100_steps():
    d = probs(position_distribution(evolve(make_config("phi_plus", "hadamard_n", "s_ec", 100))))
    for k in range(101):
        assert abs(d.get(k, 0.0) - d.get(-k, 0.0)) <= 1e-12


def test_bell_walk_breaks_parity_constraint():
    # with rest displacements, odd and even positions are both occupied
    d = probs(position_distribution(evolve(make_config("phi_plus", "hadamard_n", "s_ec", 3))))
    assert all(d.get(k, 0.0) > 0 for k in range(-3, 4))


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
    d = probs(position_distribution(state))
    xs = {pos[0] for pos in d}
    ys = {pos[1] for pos in d}
    assert len(xs) > 1 and len(ys) > 1
    assert state_norm(state) == pytest.approx(1.0, abs=1e-10)


def test_walk_config_validates_agreement():
    bell = build_initial_coin("phi_plus")
    ghz = build_initial_coin("ghz3")
    hh = build_coin_operator("hadamard_n", 2)
    with pytest.raises(ValueError, match=r"^coin state has 3 qubit\(s\) but operator acts on 2$"):
        WalkConfig(coin_state=ghz, coin_op=hh, shift=build_shift("s_3a"), steps=1)
    with pytest.raises(ValueError, match=r"^shift conditions on 1 qubit\(s\) but coin holds 2$"):
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


@pytest.mark.parametrize(
    "steps", [2.5, 3.0, np.float64(3), "3", None, (3,)], ids=["2.5", "3.0", "float64", "str", "None", "tuple"]
)
def test_walk_config_refuses_a_step_count_that_is_not_an_int(steps):
    with pytest.raises(ValueError, match=r"^step count must be an int, got "):
        WalkConfig(**_parts("phi_plus", "hadamard_n", "s_ec"), steps=steps)


def test_walk_config_takes_numpy_integer_step_counts():
    cfg = WalkConfig(**_parts("phi_plus", "hadamard_n", "s_ec"), steps=np.int64(3))
    assert type(cfg.steps) is int and cfg == make_config("phi_plus", "hadamard_n", "s_ec", 3)
    assert evolve(cfg) == evolve(make_config("phi_plus", "hadamard_n", "s_ec", 3))


# WalkConfig and step refuse a mismatch in one wording, the CLI's.
def test_step_validates_agreement():
    cfg = make_config("phi_plus", "hadamard_n", "s_ec", 0)
    state = initial_state(cfg)
    with pytest.raises(ValueError, match=r"^coin state has 2 qubit\(s\) but operator acts on 1$"):
        step(state, build_coin_operator("hadamard_n", 1), cfg.shift)
    with pytest.raises(ValueError, match=r"^shift conditions on 1 qubit\(s\) but coin holds 2$"):
        step(state, cfg.coin_op, build_shift("s_single"))
    ghz = initial_state(make_config("ghz3", "hadamard_n", "s_2d", 0))
    with pytest.raises(ValueError, match="shift is 1D, state is 2D"):
        step(ghz, build_coin_operator("hadamard_n", 3), build_shift("s_3a"))


