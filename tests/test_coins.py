import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entwalk.coins import (
    COIN_PRESETS,
    _kron,
    build_coin_operator,
    build_initial_coin,
    entanglement_entropy,
)
from entwalk.core import CoinState
from oracles import gram_entropy, haar_unitary

SQRT1_2 = 1.0 / math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)

seeds = st.integers(min_value=0, max_value=2**31 - 1)


@pytest.mark.parametrize(
    "name,expected",
    [
        ("phi_plus", [SQRT1_2, 0, 0, SQRT1_2]),
        ("phi_minus", [SQRT1_2, 0, 0, -SQRT1_2]),
        ("psi_plus", [0, SQRT1_2, SQRT1_2, 0]),
        ("psi_minus", [0, SQRT1_2, -SQRT1_2, 0]),
        ("ghz3", [SQRT1_2, 0, 0, 0, 0, 0, 0, SQRT1_2]),
        ("theta0", [0.5, 0.5, 0.5, 0.5]),
        ("theta1", [0.5, 0.5, (SQRT3 - 1) / 4, (SQRT3 + 1) / 4]),
        ("plus_i_product", [0.5, 0.5j, 0.5j, -0.5]),
        ("inui_konno", [0.5j, 0.5j, 0.5, 0.5]),
        ("single_hadamard_bias", [math.sqrt(0.85), -math.sqrt(0.15)]),
    ],
)
def test_preset_amplitudes_exact(name, expected):
    state = build_initial_coin(name)
    assert np.array_equal(state.amplitudes, np.array(expected, dtype=complex))
    assert state.qubits == PRESET_QUBITS[name]


# Every preset's register size.
PRESET_QUBITS = {
    "phi_plus": 2, "phi_minus": 2, "psi_plus": 2, "psi_minus": 2, "ghz3": 3, "theta0": 2,
    "theta1": 2, "plus_i_product": 2, "inui_konno": 2, "single_hadamard_bias": 1,
}


def test_every_preset_has_a_pinned_register_size():
    assert PRESET_QUBITS.keys() == COIN_PRESETS.keys()


@pytest.mark.parametrize("name", sorted(COIN_PRESETS))
def test_preset_states_normalized(name):
    state = build_initial_coin(name)
    assert abs(np.vdot(state.amplitudes, state.amplitudes).real - 1.0) <= 1e-12


def test_custom_coin_state():
    state = build_initial_coin("custom", [1, 0, 0, 0])
    assert state.qubits == 2
    assert state.amplitudes[0] == 1.0 + 0j


def test_custom_coin_rejects_unnormalized():
    with pytest.raises(ValueError, match="not normalized"):
        build_initial_coin("custom", [1.0, 1.0])
    with pytest.raises(ValueError, match="requires amplitudes"):
        build_initial_coin("custom")


def test_unknown_preset_rejected():
    with pytest.raises(ValueError, match="unknown coin preset"):
        build_initial_coin("bell")


def test_hadamard_operator_single():
    h = build_coin_operator("hadamard_n", 1).matrix
    assert np.allclose(h, SQRT1_2 * np.array([[1, 1], [1, -1]]), atol=1e-15)


def test_hadamard_operator_two_qubit_entries():
    hh = build_coin_operator("hadamard_n", 2).matrix
    signs = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]])
    assert np.allclose(hh, 0.5 * signs, atol=1e-15)


def test_hadamard_operator_three_qubit_entries():
    hhh = build_coin_operator("hadamard_n", 3).matrix
    assert hhh.shape == (8, 8)
    assert np.allclose(np.abs(hhh), 1.0 / (2.0 * math.sqrt(2.0)), atol=1e-15)
    # independent construction through a fold instead of repeated squaring
    h1 = build_coin_operator("hadamard_n", 1).matrix
    expected = np.kron(np.kron(h1, h1), h1)
    assert np.allclose(hhh, expected, atol=1e-15)


@pytest.mark.parametrize("kind", ["hadamard_n", "y_n"])
def test_tensor_power_operators_have_the_bits_of_np_kron(kind):
    one = build_coin_operator(kind, 1).matrix
    expected = one
    for qubits in (2, 3):
        expected = np.kron(expected, one)
        assert build_coin_operator(kind, qubits).matrix.tobytes() == expected.tobytes()
        assert build_coin_operator(kind, qubits).qubits == qubits


@settings(deadline=None, max_examples=25)
@given(seeds)
def test_kron_has_the_bits_of_np_kron(seed):
    # each entry of both is the one product a[i, j] * b[k, l]
    rng = np.random.default_rng(seed)
    a, b = haar_unitary(2, rng), haar_unitary(4, rng)
    assert _kron(a, b).tobytes() == np.kron(a, b).tobytes()
    assert _kron(b, a).tobytes() == np.kron(b, a).tobytes()


def test_y_operator_entries():
    y = build_coin_operator("y_n", 1).matrix
    assert np.allclose(y, SQRT1_2 * np.array([[1, 1j], [1j, 1]]), atol=1e-15)
    yy = build_coin_operator("y_n", 2).matrix
    assert yy[0, 3] == pytest.approx(-0.5, abs=1e-15)
    assert set(np.round(yy.flatten() * 2, 12)) <= {1, -1, 1j, -1j}


def test_custom_operator_accepts_unitary_rejects_other():
    op = build_coin_operator("custom", 1, np.eye(2))
    assert np.array_equal(op.matrix, np.eye(2))
    with pytest.raises(ValueError, match="not unitary"):
        build_coin_operator("custom", 2, np.full((4, 4), 0.5))
    with pytest.raises(ValueError, match="requires a matrix"):
        build_coin_operator("custom", 1)


def test_unknown_operator_kind_rejected():
    with pytest.raises(ValueError, match="unknown coin operator kind"):
        build_coin_operator("fourier", 2)
    with pytest.raises(ValueError, match="qubits"):
        build_coin_operator("hadamard_n", 4)


@pytest.mark.parametrize("qubits", [2.0, "2", None])
def test_operator_qubit_count_must_be_an_int(qubits):
    with pytest.raises(ValueError, match=rf"^qubit count must be an int, got {qubits!r}$"):
        build_coin_operator("hadamard_n", qubits)


def test_operator_takes_numpy_integer_qubit_counts():
    op = build_coin_operator("y_n", np.int64(2))
    assert op == build_coin_operator("y_n", 2) and op.qubits == 2


def test_unknown_operator_kind_is_named_before_the_qubit_count():
    with pytest.raises(ValueError, match="unknown coin operator kind 'bogus'"):
        build_coin_operator("bogus", 5)
    # a custom matrix sets its own qubit count
    assert build_coin_operator("custom", 5, np.eye(4)).qubits == 2


@pytest.mark.parametrize("name", ["phi_plus", "phi_minus", "psi_plus", "psi_minus"])
def test_maximally_entangled_two_qubit_states(name):
    assert entanglement_entropy(build_initial_coin(name), 1) == 1.0


@pytest.mark.parametrize("name", ["theta0", "plus_i_product", "inui_konno"])
def test_product_presets_have_zero_entropy(name):
    # exactly 0: every 2x2 minor of a product preset cancels exactly
    assert entanglement_entropy(build_initial_coin(name), 1) == 0.0


def test_ghz_entropy_both_cuts():
    ghz = build_initial_coin("ghz3")
    assert entanglement_entropy(ghz, 1) == 1.0
    assert entanglement_entropy(ghz, 2) == 1.0


def svd_entropy(amps: np.ndarray, cut: int, qubits: int) -> float:
    """Reference entropy from the singular values of the coefficient matrix."""
    sigma = np.linalg.svd(amps.reshape(2**cut, 2 ** (qubits - cut)), compute_uv=False)
    lam = sigma**2
    lam = lam[lam > 0.0]
    return float(-np.sum(lam * np.log2(lam)))


@pytest.mark.parametrize("qubits", [2, 3])
def test_random_complex_states_match_svd_and_gram_oracle(qubits):
    rng = np.random.default_rng(20040 + qubits)
    for _ in range(50):
        amps = rng.normal(size=2**qubits) + 1j * rng.normal(size=2**qubits)
        state = CoinState(amps / np.linalg.norm(amps))
        for cut in range(1, qubits):
            measured = entanglement_entropy(state, cut)
            assert measured == pytest.approx(svd_entropy(state.amplitudes, cut, qubits), abs=1e-12)
            assert measured == pytest.approx(gram_entropy(state.amplitudes, cut, qubits), abs=1e-12)


@pytest.mark.parametrize("theta", [1e-3, 1e-6, 1e-9])
def test_near_product_state_keeps_relative_accuracy(theta):
    # cos(t)|00> + sin(t)|11>: the smaller Schmidt weight is sin(t)^2, far
    # below the rounding of the larger one, so it must not come from a
    # difference of the two
    c, s = math.cos(theta), math.sin(theta)
    state = CoinState([c, 0, 0, s])
    c2, s2 = c * c, s * s
    analytic = -(c2 * math.log2(c2) + s2 * math.log2(s2))
    assert entanglement_entropy(state, 1) == pytest.approx(analytic, rel=1e-12)


def test_theta1_entropy_matches_gram_oracle():
    state = build_initial_coin("theta1")
    measured = entanglement_entropy(state, 1)
    oracle = gram_entropy(state.amplitudes, 1, 2)
    assert measured == pytest.approx(oracle, abs=1e-12)
    # frozen oracle value, recorded once from the closed-form eigenvalues
    assert measured == pytest.approx(0.3545789026652698, abs=1e-12)


@pytest.mark.parametrize("name", ["phi_plus", "psi_minus", "theta0", "theta1", "inui_konno"])
def test_entropy_agrees_with_gram_oracle(name):
    state = build_initial_coin(name)
    assert entanglement_entropy(state, 1) == pytest.approx(
        gram_entropy(state.amplitudes, 1, 2), abs=1e-12
    )


def test_entropy_rejects_invalid_cut():
    with pytest.raises(ValueError, match="at least two"):
        entanglement_entropy(build_initial_coin("single_hadamard_bias"), 1)
    bell = build_initial_coin("phi_plus")
    with pytest.raises(ValueError, match="cut"):
        entanglement_entropy(bell, 0)
    with pytest.raises(ValueError, match="cut"):
        entanglement_entropy(bell, 2)


@pytest.mark.parametrize("coin", ["ghz3", "theta1"])
@pytest.mark.parametrize("cut", [1.5, 1.0, "1", None])
def test_entropy_cut_must_be_an_int(coin, cut):
    # a float cut of 1.5 once read the columns, as cut 2 does
    with pytest.raises(ValueError, match=rf"^cut must be an int, got {cut!r}$"):
        entanglement_entropy(build_initial_coin(coin), cut)


def test_entropy_takes_numpy_integer_cuts():
    ghz = build_initial_coin("ghz3")
    assert entanglement_entropy(ghz, np.int64(2)) == entanglement_entropy(ghz, 2)


@settings(deadline=None, max_examples=30)
@given(seeds)
def test_entropy_invariant_under_local_unitaries(seed):
    rng = np.random.default_rng(seed)
    state = build_initial_coin("theta1")
    u = haar_unitary(2, rng)
    v = haar_unitary(2, rng)
    rotated = CoinState(np.kron(u, v) @ state.amplitudes)
    assert entanglement_entropy(rotated, 1) == pytest.approx(
        entanglement_entropy(state, 1), abs=1e-10
    )


@settings(deadline=None, max_examples=30)
@given(seeds)
def test_product_states_have_zero_entropy(seed):
    rng = np.random.default_rng(seed)
    a = haar_unitary(2, rng)[:, 0]
    b = haar_unitary(2, rng)[:, 0]
    product = CoinState(np.kron(a, b))
    assert entanglement_entropy(product, 1) == pytest.approx(0.0, abs=1e-12)


@settings(deadline=None, max_examples=30)
@given(seeds)
def test_psi_minus_invariant_under_shared_local_unitary(seed):
    rng = np.random.default_rng(seed)
    psi = build_initial_coin("psi_minus").amplitudes
    u = haar_unitary(2, rng)
    rotated = np.kron(u, u) @ psi
    assert abs(np.vdot(psi, rotated)) == pytest.approx(1.0, abs=1e-12)


def test_entropy_range_matches_cut_size():
    ghz = build_initial_coin("ghz3")
    for cut in (1, 2):
        e = entanglement_entropy(ghz, cut)
        assert 0.0 <= e <= min(cut, ghz.qubits - cut) + 1e-12
