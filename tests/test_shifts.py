import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entwalk.core import state_norm
from entwalk.shifts import SHIFT_PRESETS, DisplacementTable, apply_shift, build_shift
from states import site_state

SQRT1_2 = 1.0 / np.sqrt(2.0)


@pytest.mark.parametrize(
    "name,dims,qubits,table",
    [
        ("s_single", 1, 1, ((1,), (-1,))),
        ("s_single_2step", 1, 1, ((2,), (-2,))),
        ("s_ec", 1, 2, ((1,), (0,), (0,), (-1,))),
        ("s_ec_prime", 1, 2, ((2,), (1,), (-1,), (-2,))),
        ("s_3a", 1, 3, ((1,), (0,), (0,), (0,), (0,), (0,), (0,), (-1,))),
        ("s_3b", 1, 3, ((3,), (2,), (1,), (0,), (0,), (-1,), (-2,), (-3,))),
        (
            "s_2d",
            2,
            3,
            ((1, 0), (0, 0), (0, 1), (0, 0), (0, 0), (0, -1), (0, 0), (-1, 0)),
        ),
    ],
)
def test_preset_tables_exact(name, dims, qubits, table):
    t = build_shift(name)
    assert t.dims == dims
    assert t.qubits == qubits
    assert t.table == table


def test_all_presets_enumerated():
    assert set(SHIFT_PRESETS) == {
        "s_single",
        "s_single_2step",
        "s_ec",
        "s_ec_prime",
        "s_3a",
        "s_3b",
        "s_2d",
    }


def test_custom_table_1d_from_ints():
    t = build_shift("custom", [1, 0, 0, -1])
    assert t == build_shift("s_ec")


def test_custom_table_2d():
    t = build_shift("custom", [(1, 0), (0, -1)])
    assert t.dims == 2
    assert t.qubits == 1


def test_custom_table_rejects_bad_shapes():
    with pytest.raises(ValueError, match="component"):
        build_shift("custom", [(1, 0), (0,)])
    with pytest.raises(ValueError, match="requires"):
        build_shift("custom")
    with pytest.raises(ValueError, match="unknown shift preset"):
        build_shift("s_bogus")


def test_custom_table_takes_numpy_integers():
    assert build_shift("custom", np.array([1, 0, 0, -1])) == build_shift("s_ec")
    assert build_shift("custom", np.array([[1, 0], [0, -1]])).table == ((1, 0), (0, -1))
    assert build_shift("custom", [np.int32(2), np.int64(-2)]).table == ((2,), (-2,))


def test_custom_table_refuses_floats_and_strings():
    for bad in ([1.5, 0, 0, -1], [1, 0, 0, -1.0], [(1, 0.5), (0, -1)], ["1", 0], [1, "0"], [(1, "0"), (0, -1)]):
        with pytest.raises(ValueError, match="displacement must be an int or a sequence of ints"):
            build_shift("custom", bad)


def test_apply_shift_moves_basis_amplitude():
    state = site_state(1, 2, {(0,): [1, 0, 0, 0]})
    moved = apply_shift(state, build_shift("s_ec"))
    assert moved.amplitudes[(1,)][0] == 1.0 + 0j
    assert list(moved.amplitudes) == [(1,)]


def test_apply_shift_rest_components_stay():
    psi_minus = [0, SQRT1_2, -SQRT1_2, 0]
    state = site_state(1, 2, {(0,): psi_minus})
    moved = apply_shift(state, build_shift("s_ec"))
    assert list(moved.amplitudes) == [(0,)]
    assert np.array_equal(moved.amplitudes[(0,)], np.array(psi_minus, dtype=complex))


def test_apply_shift_2d_component():
    vec = np.zeros(8)
    vec[7] = 1.0
    state = site_state(2, 3, {(0, 0): vec})
    moved = apply_shift(state, build_shift("s_2d"))
    assert moved.amplitudes[(-1, 0)][7] == 1.0 + 0j


def test_apply_shift_preserves_amplitude_values_exactly():
    rng = np.random.default_rng(11)
    vec = rng.normal(size=4) + 1j * rng.normal(size=4)
    vec /= np.linalg.norm(vec)
    state = site_state(1, 2, {(0,): vec, (2,): vec[::-1] * 0})
    moved = apply_shift(state, build_shift("s_ec_prime"))
    for c, target in enumerate((2, 1, -1, -2)):
        assert moved.amplitudes[(target,)][c] == vec[c]
    assert state_norm(moved) == pytest.approx(state_norm(state), abs=1e-15)


def test_apply_shift_zero_table_is_identity():
    rng = np.random.default_rng(3)
    vec = rng.normal(size=4) + 1j * rng.normal(size=4)
    vec /= np.linalg.norm(vec)
    state = site_state(1, 2, {(5,): vec})
    zero = build_shift("custom", [0, 0, 0, 0])
    moved = apply_shift(state, zero)
    assert list(moved.amplitudes) == list(state.amplitudes)
    assert np.array_equal(moved.amplitudes[(5,)], state.amplitudes[(5,)])


tables_1d = st.lists(st.integers(min_value=-3, max_value=3), min_size=4, max_size=4)


@settings(deadline=None, max_examples=40)
@given(tables_1d, st.integers(min_value=0, max_value=2**31 - 1))
def test_apply_shift_negated_table_inverts(table, seed):
    t = build_shift("custom", table)
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=4) + 1j * rng.normal(size=4)
    vec /= np.linalg.norm(vec)
    state = site_state(1, 2, {(0,): vec, (3,): vec[::-1] / 1e3})
    there = apply_shift(state, t)
    back = apply_shift(there, build_shift("custom", [-x for x in table]))
    assert list(back.amplitudes) == list(state.amplitudes)
    for pos in state.amplitudes:
        assert np.array_equal(back.amplitudes[pos], state.amplitudes[pos])


@settings(deadline=None, max_examples=40)
@given(tables_1d, st.integers(min_value=0, max_value=2**31 - 1))
def test_apply_shift_is_injective_on_keys(table, seed):
    # total weight per coin index is conserved separately: no two
    # (position, coin) keys may ever land on the same slot
    t = build_shift("custom", table)
    rng = np.random.default_rng(seed)
    positions = {(int(p),): None for p in rng.integers(-5, 6, size=4)}
    amps = {}
    total = 0.0
    for pos in positions:
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        amps[pos] = v
        total += float(np.vdot(v, v).real)
    state = site_state(1, 2, {p: v / np.sqrt(total) for p, v in amps.items()})
    moved = apply_shift(state, t)

    def nonzero_multiset(s):
        return sorted(
            (a for v in s.amplitudes.values() for a in v if a != 0),
            key=lambda z: (z.real, z.imag),
        )

    assert nonzero_multiset(moved) == nonzero_multiset(state)
    assert state_norm(moved) == pytest.approx(state_norm(state), abs=1e-15)


def test_apply_shift_validates_compatibility():
    state = site_state(1, 1, {(0,): [1, 0]})
    with pytest.raises(ValueError, match="qubit"):
        apply_shift(state, build_shift("s_ec"))
    state2 = site_state(1, 3, {(0,): [1, 0, 0, 0, 0, 0, 0, 0]})
    with pytest.raises(ValueError, match="2D"):
        apply_shift(state2, build_shift("s_2d"))


def test_displacement_table_validation():
    with pytest.raises(ValueError, match="dimensionality"):
        DisplacementTable(((1, 1, 1), (0, 0, 0)))
