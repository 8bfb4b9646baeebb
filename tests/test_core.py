import importlib
import math
import pkgutil

import numpy as np
import pytest

import entwalk
from entwalk.cli import EXIT_VALIDATION, run
from entwalk.coins import COIN_OPERATOR_KINDS, COIN_PRESETS, build_coin_operator, build_initial_coin
from entwalk.core import (
    MAX_QUBITS,
    UNITARITY_TOL,
    CoinOperator,
    CoinState,
    Distribution,
    SiteAmplitudes,
    WalkState,
    _as_complex_matrix,
    _unitarity_defect,
    state_norm,
)
from entwalk.shifts import SHIFT_PRESETS, DisplacementTable, build_shift
from oracles import haar_unitary
from states import probs, site_state, sites

SQRT1_2 = 1.0 / np.sqrt(2.0)
HADAMARD = np.array([[SQRT1_2, SQRT1_2], [SQRT1_2, -SQRT1_2]])
Y = SQRT1_2 * np.array([[1, 1j], [1j, 1]])


def unitary(matrix, tol=UNITARITY_TOL):
    # CoinOperator's verdict on a square array-like of any size, layout or dtype
    return _unitarity_defect(_as_complex_matrix(matrix)) <= tol


def test_unitarity_defect_accepts_hadamard():
    assert unitary(HADAMARD, tol=1e-12)


def test_unitarity_defect_rejects_constant_half_matrix():
    assert not unitary(np.full((4, 4), 0.5), tol=1e-12)
    assert not unitary(np.full((16, 16), 0.25), tol=1e-12)  # past coin size


def test_unitarity_defect_accepts_y_tensor_y():
    assert unitary(np.kron(Y, Y), tol=1e-12)
    assert unitary(np.kron(np.kron(Y, Y), np.kron(Y, Y)), tol=1e-12)  # past coin size


def test_unitarity_defect_rejects_non_square():
    with pytest.raises(ValueError):
        unitary(np.ones((2, 3)))


def test_coin_state_validates_norm():
    CoinState([SQRT1_2, SQRT1_2])
    with pytest.raises(ValueError, match="not normalized"):
        CoinState([1.0, 1.0])
    # at the tolerance's edge: |psi|^2 = 1 +- 5e-13 passes, 1 +- 2e-12 does not
    for offset, accepted in [(5e-13, True), (-5e-13, True), (2e-12, False), (-2e-12, False)]:
        amps = np.array([0.6, 0.8j]) * math.sqrt(1.0 + offset)
        assert abs(math.fsum(abs(a) ** 2 for a in amps) - (1.0 + offset)) < 1e-15
        if accepted:
            CoinState(amps)
        else:
            with pytest.raises(ValueError, match="not normalized"):
                CoinState(amps)


# Entry point -> (the count its message names, a call on that many entries).
REGISTER_CALLS = {
    "CoinState": ("amplitude count", lambda n: CoinState(np.eye(1, n)[0])),
    "CoinOperator": ("coin operator dimension", lambda n: CoinOperator(np.eye(n))),
    "DisplacementTable": ("shift table length", lambda n: DisplacementTable(range(n))),
    "WalkState": ("coin plane count",
                  lambda n: WalkState(dims=1, qubits=1, amplitudes=SiteAmplitudes(np.zeros((n, 1)), (0,)))),
    "build_initial_coin": ("amplitude count", lambda n: build_initial_coin("custom", np.eye(1, n)[0])),
    "build_shift": ("shift table length", lambda n: build_shift("custom", range(n))),
}
# The CLI's custom coin and shift -> (the count its message names, the
# [experiment] keys of that many entries).
REGISTER_CONFIGS = {
    "cli-coin": ("amplitude count",
                 lambda n: "coin = custom\ncoin_amplitudes = " + " ".join(f"({x:g}, 0)" for x in np.eye(1, n)[0])),
    "cli-shift": ("shift table length", lambda n: "shift = custom\nshift_table = " + " ".join(map(str, range(n)))),
}


@pytest.mark.parametrize("size", [0, 1, 3, 6, 16])
@pytest.mark.parametrize("entry", [*REGISTER_CALLS, *REGISTER_CONFIGS])
def test_every_entry_point_refuses_a_register_size_with_one_message(tmp_path, capsys, entry, size):
    # a coin register of q = 1..3 qubits has 2**q entries
    if entry in REGISTER_CALLS:
        what, call = REGISTER_CALLS[entry]
        with pytest.raises(ValueError) as refused:
            call(size)
        message = f"{refused.value}\n"
    else:
        what, keys = REGISTER_CONFIGS[entry]
        cfg = tmp_path / "exp.ini"
        cfg.write_text(f"[experiment]\nmode = quantum\n{keys(size)}\n", encoding="utf-8")
        assert run(str(cfg), quiet=True) == EXIT_VALIDATION
        message = capsys.readouterr().err.removeprefix("error: validation: ")
    assert message == f"{what} must be 2**q for a coin of q = 1..{MAX_QUBITS} qubits, got {size}\n"


# Builder -> (its choice's noun, its presets, what it builds, its custom
# data's noun, a call with a name and custom data, a valid custom datum).
PRESET_CALLS = {
    "build_initial_coin": ("coin preset", sorted(COIN_PRESETS), "coin state", "amplitudes",
                           build_initial_coin, (1, 0)),
    "build_coin_operator": ("coin operator kind", ["hadamard_n", "y_n"], "coin operator", "a matrix",
                            lambda name, data=None: build_coin_operator(name, 2, data), np.eye(2)),
    "build_shift": ("shift preset", sorted(SHIFT_PRESETS), "shift", "a displacement table",
                    build_shift, (1, -1)),
}


@pytest.mark.parametrize("builder", PRESET_CALLS)
def test_every_builder_resolves_preset_or_custom_by_one_rule(builder):
    what, presets, built, needs, call, data = PRESET_CALLS[builder]
    call("custom", data)
    with pytest.raises(ValueError) as refused:
        call("bogus", data)
    assert str(refused.value) == f"unknown {what} 'bogus'; expected one of {presets} or 'custom'"
    with pytest.raises(ValueError) as refused:
        call("custom")
    assert str(refused.value) == f"custom {built} requires {needs}"
    for name in presets:
        call(name)
        with pytest.raises(ValueError) as refused:
            call(name, data)  # data beside a preset is refused, not dropped
        assert str(refused.value) == f"{what} {name!r} takes no custom data; only 'custom' does"
    assert COIN_OPERATOR_KINDS == ("hadamard_n", "y_n", "custom")


def test_every_exported_name_resolves():
    modules = [entwalk] + [importlib.import_module(f"entwalk.{m.name}")
                           for m in pkgutil.iter_modules(entwalk.__path__)]
    assert len(modules) == 7
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names {missing}"


def test_coin_state_and_operator_compare_and_hash_by_value():
    a, b = build_initial_coin("phi_plus"), build_initial_coin("phi_plus")
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != build_initial_coin("phi_minus")
    assert a != CoinState([1, 0, 0, 0]) and CoinState([1, 0]) != CoinState([1, 0, 0, 0])
    # -0.0 == 0.0 though their bytes differ, so the hash must not read bytes
    neg, pos = CoinState([complex(-0.0, -0.0), 1]), CoinState([0, 1])
    assert neg.amplitudes.tobytes() != pos.amplitudes.tobytes()
    assert neg == pos and hash(neg) == hash(pos)
    h, y = build_coin_operator("hadamard_n", 2), build_coin_operator("hadamard_n", 2)
    assert h == y and hash(h) == hash(y) and h != build_coin_operator("y_n", 2)
    assert CoinOperator(np.eye(2)) != CoinOperator(np.eye(4)) and CoinOperator(np.eye(2)) != CoinState([1, 0])
    neg_eye = CoinOperator(np.array([[1, -0.0], [-0.0, 1]]))
    assert neg_eye == CoinOperator(np.eye(2)) and hash(neg_eye) == hash(CoinOperator(np.eye(2)))


def test_coin_state_amplitudes_are_read_only():
    s = CoinState([1.0, 0.0])
    with pytest.raises(ValueError):
        s.amplitudes[0] = 0.0


def test_coin_operator_validates_unitarity():
    CoinOperator(HADAMARD)
    # at the tolerance's edge: max |U U^dag - I| = 2 eps for U = (1 + eps) Y
    for eps, accepted in [(2.5e-13, True), (1e-12, False)]:
        u = Y * (1.0 + eps)
        assert unitary(u) is accepted
        if accepted:
            CoinOperator(u)
        else:
            with pytest.raises(ValueError, match="not unitary: max .* = 2.000e-12"):
                CoinOperator(u)
    with pytest.raises(ValueError, match="not unitary"):
        CoinOperator(np.full((4, 4), 0.5))
    # entries whose products pass float64: the products are inf
    with pytest.raises(ValueError, match=r"not unitary: max \|U U\^dag - I\| = inf$"):
        CoinOperator(np.full((2, 2), 1e200))
    # finite products whose row sums pass float64: math.fsum raises OverflowError
    with pytest.raises(ValueError, match=r"not unitary: max \|U U\^dag - I\| = inf$"):
        CoinOperator(np.full((2, 2), 1e154))


def test_unitarity_defect_takes_any_memory_layout():
    assert unitary(np.asfortranarray(np.kron(Y, Y)))
    assert unitary(np.kron(Y, Y).T)
    assert not unitary(np.asfortranarray(np.full((4, 4), 0.5)))


def test_coin_checks_call_no_einsum_or_isfinite(monkeypatch):
    # States and operators are checked over Python floats, so a walk
    # request maps no einsum or complex-ufunc code before its walk.
    rng = np.random.default_rng(3)
    unitaries = [haar_unitary(n, rng) for n in (2, 4, 8)]
    u16 = haar_unitary(16, rng)

    def refuse(*args, **kwargs):
        raise AssertionError("a coin check called numpy")

    for name in ("einsum", "isfinite", "square", "abs", "absolute", "max", "amax"):
        monkeypatch.setattr(np, name, refuse)
    for preset in COIN_PRESETS:
        build_initial_coin(preset)
    for kind in ("hadamard_n", "y_n"):
        for qubits in (1, 2, 3):
            op = build_coin_operator(kind, qubits)
            assert unitary(op.matrix)
            assert (op.matrix.dtype == np.complex128) == (kind == "y_n")
    for u in unitaries:
        assert unitary(u)
        assert not unitary(u * (1.0 + 1e-9))
        CoinOperator(u)
    assert not unitary(np.full((8, 8), 0.5))
    # past coin size: the same plain-Python test
    assert unitary(u16)
    assert not unitary(u16 * (1.0 + 1e-9))
    with pytest.raises(ValueError, match="finite"):
        CoinOperator([[1.0, 0.0], [0.0, np.inf]])
    with pytest.raises(ValueError, match="finite"):
        CoinState([np.nan, 0.0])


def test_coin_data_is_float64_exactly_when_every_entry_is_real():
    assert build_initial_coin("phi_plus").amplitudes.dtype == np.float64
    assert build_initial_coin("inui_konno").amplitudes.dtype == np.complex128
    for qubits in (1, 2, 3):
        assert build_coin_operator("hadamard_n", qubits).matrix.dtype == np.float64
        assert build_coin_operator("y_n", qubits).matrix.dtype == np.complex128
    # -0.0 is a zero imaginary part
    half = complex(0.5, -0.0)
    assert CoinState([half] * 4).amplitudes.dtype == np.float64
    hadamard = CoinOperator([[complex(x, -0.0) for x in row] for row in HADAMARD])
    assert hadamard.matrix.dtype == np.float64 and not hadamard.matrix.flags.writeable
    assert CoinState([half, 0.5, 0.5, 0.5j]).amplitudes.dtype == np.complex128
    # a float64 coin is the value of its complex entries
    for real, entries in ((CoinState([0.5] * 4), [half] * 4), (hadamard, HADAMARD.astype(complex))):
        built = type(real)(entries)
        assert real == built and hash(real) == hash(built)
        data = real.amplitudes if isinstance(real, CoinState) else real.matrix
        assert hash(real) == hash(tuple(np.asarray(entries, dtype=complex).ravel().tolist()))
        assert np.array_equal(data, np.asarray(entries, dtype=complex))


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_coin_check_verdicts_match_a_numpy_check(dim):
    # Seeded near-unitary matrices and near-normalized states on both sides
    # of the tolerance, real and complex; values within 1e-15 of it are
    # exempt, since both checks round.
    rng = np.random.default_rng(dim)
    verdicts = {"operator": [], "state": []}
    for trial in range(300):
        real = trial % 2 == 0
        if real:
            u = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
            noise = rng.normal(size=(dim, dim))
        else:
            u = haar_unitary(dim, rng)
            noise = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        u = u + 10.0 ** rng.uniform(-14.5, -11) * noise
        reference = np.max(np.abs(u @ u.conj().T - np.eye(dim)))
        if abs(reference - UNITARITY_TOL) > 1e-15:
            accepted = bool(reference <= UNITARITY_TOL)
            assert unitary(u) is accepted
            if accepted:
                CoinOperator(u)
            else:
                with pytest.raises(ValueError, match="not unitary"):
                    CoinOperator(u)
            verdicts["operator"].append(accepted)

        v = rng.normal(size=dim) + (0.0 if real else 1j * rng.normal(size=dim))
        v = v / np.linalg.norm(v) * math.sqrt(1.0 + rng.choice([-1, 1]) * 10.0 ** rng.uniform(-13, -11))
        reference = abs(np.vdot(v, v).real - 1.0)
        if abs(reference - UNITARITY_TOL) > 1e-15:
            accepted = bool(reference <= UNITARITY_TOL)
            if accepted:
                CoinState(v)
            else:
                with pytest.raises(ValueError, match="not normalized"):
                    CoinState(v)
            verdicts["state"].append(accepted)
    for kind, seen in verdicts.items():
        assert 50 < sum(seen) < len(seen) - 50, kind  # both verdicts, many times


def test_walk_state_stores_sparse_positions():
    s = site_state(1, 2, {(0,): [SQRT1_2, 0, 0, SQRT1_2]})
    assert list(sites(s)) == [(0,)]
    assert sites(s)[(0,)][0] == pytest.approx(SQRT1_2)
    assert sites(s)[(0,)][3] == pytest.approx(SQRT1_2)


def test_walk_state_lists_only_sites_with_nonzero_amplitude():
    s = site_state(1, 2, {(4,): [0, 0, 0, 0], (0,): [0, 1, 0, 0], (-2,): [0, 0, 0, 1j]})
    assert list(sites(s)) == [(-2,), (0,)]
    assert s.amplitudes.origin == (-2,)
    assert s.amplitudes.occupied().tolist() == [True, False, True, False, False, False, False]
    assert len(s.amplitudes) == 2
    assert [v.tolist() for v in s.amplitudes.values()] == [[0, 0, 0, 1j], [0, 1, 0, 0]]


def test_walk_state_2d_positions_are_sorted():
    vec = [1, 0]
    s = site_state(2, 1, {(1, -1): vec, (0, 2): vec, (0, -1): vec})
    assert list(sites(s)) == [(0, -1), (0, 2), (1, -1)]
    assert np.array_equal(sites(s)[(0, 2)], [1, 0])


def test_walk_state_is_built_from_a_window_only():
    with pytest.raises(TypeError, match="SiteAmplitudes"):
        WalkState(dims=1, qubits=2, amplitudes={(0,): [1, 0, 0, 0]})
    with pytest.raises(TypeError, match="SiteAmplitudes"):
        WalkState(dims=1, qubits=2, amplitudes=np.zeros((4, 1)))
    with pytest.raises(TypeError):
        WalkState(dims=1, qubits=2)


def test_walk_state_validates_shapes():
    with pytest.raises(ValueError, match="window"):
        WalkState(dims=1, qubits=2, amplitudes=SiteAmplitudes(np.zeros((4, 1, 1)), (0, 0)))
    with pytest.raises(ValueError, match="window"):
        WalkState(dims=1, qubits=2, amplitudes=SiteAmplitudes(np.zeros((2, 1)), (0,)))
    with pytest.raises(ValueError, match="dimensionality"):
        WalkState(dims=3, qubits=1, amplitudes=SiteAmplitudes(np.zeros((2, 0, 0, 0)), (0, 0, 0)))


@pytest.mark.parametrize("dtype", ["float32", "complex64", "int64", "float16", ">f8", ">c16"])
def test_walk_state_refuses_a_window_that_is_not_float64_or_complex128(dtype):
    # the readout reads a window's floats through a float64 view, which
    # misreads any other layout
    window = np.zeros((2, 1), dtype=dtype)
    window[0, 0] = 1
    with pytest.raises(ValueError, match=rf"^window dtype must be float64 or complex128, got {window.dtype}$"):
        WalkState(dims=1, qubits=1, amplitudes=SiteAmplitudes(window, (0,)))


def test_state_norm_of_fresh_state_is_one():
    s = site_state(1, 2, {(0,): [SQRT1_2, 0, 0, SQRT1_2]})
    assert state_norm(s) == pytest.approx(1.0, abs=1e-15)


def test_state_norm_of_empty_state_is_zero():
    assert state_norm(site_state(1, 1, {})) == 0.0


def test_state_norm_past_float64_range_is_inf():
    assert state_norm(site_state(1, 1, {(0,): [1e154, 1e154]})) == math.inf


def test_an_overflow_in_entwalk_fails_the_tests():
    # pyproject.toml turns a RuntimeWarning raised in an entwalk frame into
    # an error: here numpy's overflow in state_norm's np.square
    with pytest.raises(RuntimeWarning, match="overflow"):
        state_norm(site_state(1, 1, {(0,): [1e200, 1e200]}))


HUGE = 99999999999999999999999  # past int64: labels must stay Python ints


def _line(origin, offsets, values, step=1):
    return Distribution(origin=(origin,), step=(step,), offsets=(np.array(offsets),), values=values)


def test_distribution_validates_sum_and_sign():
    d = probs(_line(-1, [0, 2], [0.5, 0.5]))
    assert d[-1] == 0.5
    assert d.get(7, 0.0) == 0.0
    with pytest.raises(ValueError, match="sum"):
        _line(0, [0], [0.5])
    with pytest.raises(ValueError, match=r"invalid probability -0\.5 at 1$"):
        _line(0, [0, 1], [1.5, -0.5])
    with pytest.raises(ValueError, match=r"invalid probability -0\.5 at 30$"):
        _line(0, [0, 1], [1.5, -0.5], step=30)  # the label of a lattice step of 30
    with pytest.raises(ValueError, match=r"invalid probability -0\.5 at \(0, 1\)"):
        Distribution(
            origin=(0, 0), offsets=(np.array([0, 0]), np.array([0, 1])), values=np.array([1.5, -0.5])
        )
    with pytest.raises(TypeError):
        Distribution({0: 1.0})  # the mapping form is gone


def test_distribution_refuses_offsets_that_do_not_match_its_values():
    # three offsets for two values: csv used to print only two rows
    with pytest.raises(ValueError, match=r"^rows do not line up: origin \(0,\), step \(1,\), "
                                         r"offsets of lengths \[3\] and values of shape \(2,\)$"):
        _line(0, [0, 1, 2], [0.5, 0.5])
    with pytest.raises(ValueError, match="rows do not line up"):
        Distribution(origin=(0, 0), offsets=(np.array([0, 1]), np.array([0])), values=[0.5, 0.5])
    with pytest.raises(ValueError, match=r"lengths \[1\] and values of shape \(1, 1\)$"):
        Distribution(origin=(0,), offsets=(np.array([0]),), values=[[1.0]])


def test_distribution_refuses_axes_that_do_not_agree():
    # a 2D origin with one offsets array used to print as a 1D table
    with pytest.raises(ValueError, match=r"^rows do not line up: origin \(0, 0\), step \(1, 1\), "
                                         r"offsets of lengths \[2\] and values of shape \(2,\)$"):
        Distribution(origin=(0, 0), offsets=(np.array([0, 1]),), values=[0.5, 0.5])
    with pytest.raises(ValueError, match="rows do not line up"):
        Distribution(origin=(0,), step=(1, 1), offsets=(np.array([0, 1]),), values=[0.5, 0.5])
    with pytest.raises(ValueError, match="rows do not line up"):
        Distribution(origin=(0, 0, 0), offsets=(np.array([0]),) * 3, values=[1.0])


def test_distribution_refuses_a_step_that_is_not_a_positive_int():
    # a step of 0 used to print the label 0 twice
    with pytest.raises(ValueError, match=r"^rows do not line up: origin \(0,\), step \(0,\), "):
        _line(0, [0, 1], [0.5, 0.5], step=0)
    with pytest.raises(ValueError, match=r"step \(-2,\)"):
        _line(0, [0, 1], [0.5, 0.5], step=-2)
    with pytest.raises(ValueError, match=r"^lattice step must be an int, got 1\.0$"):
        _line(0, [0, 1], [0.5, 0.5], step=1.0)
    assert _line(0, [0, 1], [0.5, 0.5], step=np.int64(3)).step == (3,)


def test_distribution_labels_its_rows_on_its_lattice():
    d = _line(-6, [0, 1, 2, 4], [0.25, 0.25, 0.25, 0.25], step=3)
    read = probs(d)
    assert sorted(read) == [-6, -3, 0, 6] and read[0] == 0.25 and read.get(3, 0.0) == 0.0
    assert [list(axis) for axis in d.labels([range(5)])] == [[-6, -3, 0, 3, 6]]
    plane = probs(Distribution(
        origin=(0, HUGE), step=(1, HUGE), offsets=(np.array([0, 1]), np.array([1, 0])), values=[0.5, 0.5]
    ))
    assert sorted(plane) == [(0, 2 * HUGE), (1, HUGE)]
    assert plane[(1, HUGE)] == 0.5
    # equal labels and probabilities, whatever the step
    assert (probs(_line(-6, [0, 2], [0.5, 0.5], step=3)) == probs(_line(-6, [0, 6], [0.5, 0.5]))
            != probs(_line(-6, [0, 2], [0.5, 0.5])))


def _walk_distribution(coin, op, shift, steps, start=None):
    from entwalk.engine import WalkConfig, evolve, position_distribution
    from entwalk.shifts import build_shift

    coin_state = build_initial_coin(coin)
    cfg = WalkConfig(
        coin_state=coin_state,
        coin_op=build_coin_operator(op, coin_state.qubits),
        shift=build_shift(shift),
        steps=steps,
        initial_position=start,
    )
    return position_distribution(evolve(cfg))


def _check_api(d, labels, values):
    # a distribution's rows are its sorted labels, read as Python ints, with their probabilities
    assert d.values.tolist() == pytest.approx(values, abs=1e-15)
    read = probs(d)
    assert list(read) == labels
    assert list(read.values()) == d.values.tolist()
    assert all(type(p) is float for p in read.values())
    assert all(type(x) is int for label in read for x in (label if isinstance(label, tuple) else [label]))


def test_distribution_from_the_engine_keeps_its_api():
    d = _walk_distribution("ghz3", "hadamard_n", "s_2d", 2)
    labels = [(-1, -1), (-1, 0), (0, -2), (0, -1), (0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (2, 0)]
    values = [0.03125, 0.125, 0.03125, 0.25, 0.0625, 0.125, 0.0625, 0.25, 0.03125, 0.03125]
    _check_api(d, labels, values)
    # row k's label is origin + offsets[k], axis by axis
    rows = zip(*(off.tolist() for off in d.offsets))
    assert [tuple(map(sum, zip(d.origin, row))) for row in rows] == labels
    one_d = _walk_distribution("phi_plus", "hadamard_n", "s_ec", 1)
    _check_api(one_d, [-1, 1], [0.5, 0.5])
    assert probs(one_d).get(0, 0.0) == 0.0


def test_distribution_from_the_engine_far_past_int64():
    d = _walk_distribution("phi_plus", "hadamard_n", "s_ec", 1, start=HUGE)
    _check_api(d, [HUGE - 1, HUGE + 1], [0.5, 0.5])
    near = _walk_distribution("ghz3", "hadamard_n", "s_2d", 3)
    far = _walk_distribution("ghz3", "hadamard_n", "s_2d", 3, start=(HUGE, -HUGE))
    _check_api(far, [(x + HUGE, y - HUGE) for x, y in probs(near)], near.values.tolist())


def test_distribution_from_the_classical_walk_keeps_its_api():
    from entwalk.classical import (
        JointCoinDistribution,
        binomial_walk_distribution,
        correlated_walk_distribution,
    )
    from entwalk.shifts import build_shift

    _check_api(binomial_walk_distribution(2, 0.5), [-2, 0, 2], [0.25, 0.5, 0.25])
    pair = JointCoinDistribution.from_correlation(0.5)
    unit = correlated_walk_distribution(3, pair)
    for step in (10**6, HUGE):  # 10**6-site moves, and moves past int64
        scaled = correlated_walk_distribution(3, pair, build_shift("custom", [step, 0, 0, -step]))
        _check_api(scaled, [k * step for k in probs(unit)], unit.values.tolist())
