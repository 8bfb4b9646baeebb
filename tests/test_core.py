import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entwalk.core import (
    CoinOperator,
    CoinState,
    Distribution,
    WalkState,
    basis_index,
    basis_label,
    check_unitary,
    state_norm,
    tensor_product,
)
from oracles import haar_unitary

SQRT1_2 = 1.0 / np.sqrt(2.0)
HADAMARD = np.array([[SQRT1_2, SQRT1_2], [SQRT1_2, -SQRT1_2]])
Y = SQRT1_2 * np.array([[1, 1j], [1j, 1]])


@pytest.mark.parametrize("qubits", [1, 2, 3])
def test_basis_label_round_trip(qubits):
    for index in range(2**qubits):
        label = basis_label(index, qubits)
        assert len(label) == qubits
        assert basis_index(label) == index


def test_basis_label_orders_leftmost_symbol_most_significant():
    assert basis_index("01") == 1
    assert basis_index("10") == 2
    assert basis_label(2, 2) == "10"
    assert basis_label(5, 3) == "101"


def test_basis_label_rejects_out_of_range():
    with pytest.raises(ValueError):
        basis_label(4, 2)
    with pytest.raises(ValueError):
        basis_index("012")


def test_check_unitary_accepts_hadamard():
    assert check_unitary(HADAMARD, tol=1e-12)


def test_check_unitary_rejects_constant_half_matrix():
    assert not check_unitary(np.full((4, 4), 0.5), tol=1e-12)
    assert not check_unitary(np.full((16, 16), 0.25), tol=1e-12)  # past coin size


def test_check_unitary_accepts_y_tensor_y():
    assert check_unitary(np.kron(Y, Y), tol=1e-12)
    assert check_unitary(np.kron(np.kron(Y, Y), np.kron(Y, Y)), tol=1e-12)  # past coin size


def test_check_unitary_rejects_non_square():
    with pytest.raises(ValueError):
        check_unitary(np.ones((2, 3)))


def test_coin_state_validates_norm():
    CoinState(qubits=1, amplitudes=[SQRT1_2, SQRT1_2])
    with pytest.raises(ValueError, match="not normalized"):
        CoinState(qubits=1, amplitudes=[1.0, 1.0])
    # at the tolerance's edge: |psi|^2 = 1 +- 5e-13 passes, 1 +- 2e-12 does not
    for offset, accepted in [(5e-13, True), (-5e-13, True), (2e-12, False), (-2e-12, False)]:
        amps = np.array([0.6, 0.8j]) * math.sqrt(1.0 + offset)
        assert abs(math.fsum(abs(a) ** 2 for a in amps) - (1.0 + offset)) < 1e-15
        if accepted:
            CoinState(qubits=1, amplitudes=amps)
        else:
            with pytest.raises(ValueError, match="not normalized"):
                CoinState(qubits=1, amplitudes=amps)


def test_coin_state_validates_length_and_range():
    with pytest.raises(ValueError):
        CoinState(qubits=2, amplitudes=[1.0, 0.0])
    with pytest.raises(ValueError):
        CoinState(qubits=4, amplitudes=[1.0] + [0.0] * 15)
    with pytest.raises(ValueError):
        CoinState(qubits=1, amplitudes=[np.nan, 0.0])


def test_coin_state_amplitudes_are_read_only():
    s = CoinState(qubits=1, amplitudes=[1.0, 0.0])
    with pytest.raises(ValueError):
        s.amplitudes[0] = 0.0


def test_coin_operator_validates_unitarity():
    CoinOperator(HADAMARD)
    # at the tolerance's edge: max |U U^dag - I| = 2 eps for U = (1 + eps) Y
    for eps, accepted in [(2.5e-13, True), (1e-12, False)]:
        u = Y * (1.0 + eps)
        assert check_unitary(u) is accepted
        if accepted:
            CoinOperator(u)
        else:
            with pytest.raises(ValueError, match="not unitary: max .* = 2.000e-12"):
                CoinOperator(u)
    with pytest.raises(ValueError, match="not unitary"):
        CoinOperator(np.full((4, 4), 0.5))
    with pytest.raises(ValueError, match="dimension"):
        CoinOperator(np.eye(16))
    with pytest.raises(ValueError, match="dimension"):
        CoinOperator(np.eye(3))


def test_tensor_product_hadamard_sign_pattern():
    hh = tensor_product(CoinOperator(HADAMARD), CoinOperator(HADAMARD)).matrix
    assert np.allclose(np.abs(hh), 0.5, atol=1e-15)
    # row |10>, column |00>: first-factor sign pattern rides the high bit
    assert hh[2, 0] == pytest.approx(0.5, abs=1e-15)
    expected_signs = 0.5 * np.array(
        [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]
    )
    assert np.allclose(hh, expected_signs, atol=1e-15)


def test_tensor_product_identity():
    eye = CoinOperator(np.eye(2))
    assert np.array_equal(tensor_product(eye, eye).matrix, np.eye(4))


def test_tensor_product_y_pattern():
    yy = tensor_product(CoinOperator(Y), CoinOperator(Y)).matrix
    assert np.allclose(np.abs(yy), 0.5, atol=1e-15)
    assert yy[0, 3] == pytest.approx(-0.5, abs=1e-15)
    assert yy[0, 1] == pytest.approx(0.5j, abs=1e-15)


def test_tensor_product_rejects_oversized_result():
    h = CoinOperator(HADAMARD)
    hh = tensor_product(h, h)
    with pytest.raises(ValueError, match="exceeds"):
        tensor_product(hh, hh)


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_tensor_product_associative(seed):
    rng = np.random.default_rng(seed)
    a, b, c = (CoinOperator(haar_unitary(2, rng)) for _ in range(3))
    ab = tensor_product(a, b)
    assert np.array_equal(ab.matrix, np.kron(a.matrix, b.matrix))
    left = tensor_product(ab, c).matrix
    assert np.array_equal(left, np.kron(ab.matrix, c.matrix))
    right = np.kron(a.matrix, np.kron(b.matrix, c.matrix))
    assert np.allclose(left, right, atol=1e-15)


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_tensor_product_of_unitaries_is_unitary(seed):
    rng = np.random.default_rng(seed)
    u = CoinOperator(haar_unitary(2, rng))
    v = CoinOperator(haar_unitary(4, rng))
    assert check_unitary(tensor_product(u, v).matrix, tol=1e-12)


def test_walk_state_stores_sparse_positions():
    s = WalkState(
        dims=1,
        qubits=2,
        amplitudes={(0,): [SQRT1_2, 0, 0, SQRT1_2]},
    )
    assert s.amplitude(0, 0) == pytest.approx(SQRT1_2)
    assert s.amplitude(0, 3) == pytest.approx(SQRT1_2)
    assert s.amplitude(5, 0) == 0
    assert s.positions() == [(0,)]


def test_walk_state_lists_only_sites_with_nonzero_amplitude():
    s = WalkState(
        dims=1,
        qubits=2,
        amplitudes={(4,): [0, 0, 0, 0], (0,): [0, 1, 0, 0], (-2,): [0, 0, 0, 1j]},
    )
    assert s.positions() == [(-2,), (0,)]
    assert list(s.amplitudes) == [(-2,), (0,)]
    assert len(s.amplitudes) == 2
    assert (4,) not in s.amplitudes
    assert s.amplitudes.get((4,)) is None
    assert s.amplitudes.get((99,)) is None
    assert s.amplitudes.get((0, 0)) is None
    assert s.amplitudes.get(0) is None
    assert s.amplitudes.get((0.5,)) is None
    assert s.amplitude(4, 0) == 0
    assert [v.tolist() for v in s.amplitudes.values()] == [[0, 0, 0, 1j], [0, 1, 0, 0]]


def test_walk_state_2d_positions_are_sorted():
    vec = [1, 0]
    s = WalkState(dims=2, qubits=1, amplitudes={(1, -1): vec, (0, 2): vec, (0, -1): vec})
    assert s.positions() == [(0, -1), (0, 2), (1, -1)]
    assert np.array_equal(s.amplitudes[(0, 2)], [1, 0])


def test_walk_state_refuses_a_bounding_box_over_the_cap():
    with pytest.raises(ValueError, match="MAX_WINDOW_AMPLITUDES"):
        WalkState(dims=1, qubits=1, amplitudes={(0,): [1, 0], (10**9,): [0, 1]})


def test_walk_state_validates_shapes():
    with pytest.raises(ValueError):
        WalkState(dims=1, qubits=2, amplitudes={(0, 0): [1, 0, 0, 0]})
    with pytest.raises(ValueError):
        WalkState(dims=1, qubits=2, amplitudes={(0,): [1, 0]})
    with pytest.raises(ValueError):
        WalkState(dims=3, qubits=1, amplitudes={})


def test_state_norm_of_fresh_state_is_one():
    s = WalkState(dims=1, qubits=2, amplitudes={(0,): [SQRT1_2, 0, 0, SQRT1_2]})
    assert state_norm(s) == pytest.approx(1.0, abs=1e-15)


def test_state_norm_of_empty_state_is_zero():
    assert state_norm(WalkState(dims=1, qubits=1, amplitudes={})) == 0.0


def test_state_norm_past_float64_range_is_inf():
    assert state_norm(WalkState(dims=1, qubits=1, amplitudes={(0,): [1e154, 1e154]})) == math.inf


def test_distribution_validates_sum_and_sign():
    d = Distribution({-1: 0.5, 1: 0.5})
    assert d[-1] == 0.5
    assert d[7] == 0.0
    with pytest.raises(ValueError, match="sum"):
        Distribution({0: 0.5})
    with pytest.raises(ValueError, match="probability"):
        Distribution({0: 1.5, 1: -0.5})


def test_distribution_sorts_labels():
    d = Distribution({2: 0.25, -2: 0.25, 0: 0.5})
    assert [k for k, _ in d.items_sorted()] == [-2, 0, 2]
    d2 = Distribution({(1, 0): 0.5, (0, 1): 0.5})
    assert d2.support() == [(0, 1), (1, 0)]
    assert d2[(1, 0)] == 0.5
