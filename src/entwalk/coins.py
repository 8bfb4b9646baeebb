"""Named coin states and coin operators, plus the bipartite entanglement
entropy of a coin state.

Presets cover the four Bell states, a three-qubit GHZ state, two real
two-qubit states of different entanglement (``theta0`` separable, ``theta1``
partially entangled), two complex-amplitude two-qubit states, and a biased
single-qubit state.  Operators come in two tensor-power families built from
the Hadamard matrix and from Y = (1/sqrt(2)) [[1, i], [i, 1]].
"""

from __future__ import annotations

import math

import numpy as np

from .core import MAX_QUBITS, CoinOperator, CoinState, _kron

__all__ = [
    "COIN_OPERATOR_KINDS",
    "COIN_PRESETS",
    "build_coin_operator",
    "build_initial_coin",
    "entanglement_entropy",
]

_SQRT1_2 = 1.0 / math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)

_HADAMARD = np.array([[_SQRT1_2, _SQRT1_2], [_SQRT1_2, -_SQRT1_2]], dtype=complex)
_Y = np.array([[_SQRT1_2, 1j * _SQRT1_2], [1j * _SQRT1_2, _SQRT1_2]], dtype=complex)

# Preset name -> amplitude vector in basis-label order (see core.basis_label).
COIN_PRESETS: dict[str, tuple[complex, ...]] = {
    "phi_plus": (_SQRT1_2, 0, 0, _SQRT1_2),
    "phi_minus": (_SQRT1_2, 0, 0, -_SQRT1_2),
    "psi_plus": (0, _SQRT1_2, _SQRT1_2, 0),
    "psi_minus": (0, _SQRT1_2, -_SQRT1_2, 0),
    "ghz3": (_SQRT1_2, 0, 0, 0, 0, 0, 0, _SQRT1_2),
    "theta0": (0.5, 0.5, 0.5, 0.5),
    "theta1": (0.5, 0.5, (_SQRT3 - 1.0) / 4.0, (_SQRT3 + 1.0) / 4.0),
    "plus_i_product": (0.5, 0.5j, 0.5j, -0.5),
    "inui_konno": (0.5j, 0.5j, 0.5, 0.5),
    "single_hadamard_bias": (math.sqrt(0.85), -math.sqrt(0.15)),
}

COIN_OPERATOR_KINDS = ("hadamard_n", "y_n", "custom")


def build_initial_coin(preset: str, custom_amplitudes=None) -> CoinState:
    """Construct an initial coin state by preset name.

    Parameters
    ----------
    preset : str
        One of the keys of ``COIN_PRESETS``, or ``"custom"``.
    custom_amplitudes : array-like of complex, optional
        Required when ``preset == "custom"``: amplitudes of length ``2**q``
        for q in 1..3, normalized within 1e-12.  Ignored otherwise.

    Returns
    -------
    CoinState

    Raises
    ------
    ValueError
        Unknown preset name, missing or malformed custom amplitudes, or
        custom amplitudes that fail the normalization check.
    """
    if preset == "custom":
        if custom_amplitudes is None:
            raise ValueError("custom coin state requires amplitudes")
        amps = np.array(custom_amplitudes, dtype=complex).reshape(-1)
        qubits = amps.shape[0].bit_length() - 1
        if 2**qubits != amps.shape[0]:
            raise ValueError(f"amplitude count {amps.shape[0]} is not a power of two")
        return CoinState(qubits=qubits, amplitudes=amps)
    try:
        amps = COIN_PRESETS[preset]
    except KeyError:
        raise ValueError(
            f"unknown coin preset {preset!r}; expected one of "
            f"{sorted(COIN_PRESETS)} or 'custom'"
        ) from None
    return CoinState(qubits=len(amps).bit_length() - 1, amplitudes=np.array(amps, dtype=complex))


def build_coin_operator(kind: str, qubits: int, custom_matrix=None) -> CoinOperator:
    """Construct a coin operator.

    Parameters
    ----------
    kind : str
        ``"hadamard_n"`` for the q-fold tensor power of the Hadamard matrix,
        ``"y_n"`` for the q-fold tensor power of Y = (1/sqrt(2)) [[1, i], [i, 1]],
        or ``"custom"`` for a user-supplied matrix.
    qubits : int
        Coin register size, 1..3.
    custom_matrix : array-like, optional
        Required when ``kind == "custom"``: a ``2**qubits`` square matrix,
        unitary within 1e-12.  Ignored otherwise.

    Returns
    -------
    CoinOperator

    Raises
    ------
    ValueError
        Unknown kind, qubit count out of range, missing custom matrix, a
        custom matrix of the wrong dimension, or a non-unitary custom matrix.
    """
    if not 1 <= qubits <= MAX_QUBITS:
        raise ValueError(f"coin operator must act on 1..{MAX_QUBITS} qubits, got {qubits}")
    if kind == "custom":
        if custom_matrix is None:
            raise ValueError("custom coin operator requires a matrix")
        op = CoinOperator(np.array(custom_matrix, dtype=complex))
        if op.qubits != qubits:
            raise ValueError(f"custom matrix acts on {op.qubits} qubit(s), expected {qubits}")
        return op
    if kind == "hadamard_n":
        base = _HADAMARD
    elif kind == "y_n":
        base = _Y
    else:
        raise ValueError(f"unknown coin operator kind {kind!r}; expected one of {COIN_OPERATOR_KINDS}")
    matrix = base
    for _ in range(qubits - 1):
        matrix = _kron(matrix, base)
    return CoinOperator(matrix)


def entanglement_entropy(state: CoinState, cut: int = 1) -> float:
    """Von Neumann entropy of one side of a bipartition of a coin state.

    The amplitude vector is reshaped into a ``2**cut x 2**(q - cut)``
    coefficient matrix whose singular values are the Schmidt coefficients;
    the entropy is ``-sum sigma_i^2 log2 sigma_i^2`` with 0 log 0 taken as 0.

    Parameters
    ----------
    state : CoinState
        A coin state of at least two qubits.
    cut : int, optional
        Number of qubits in the left block, 1 <= cut < q.  Default 1.

    Returns
    -------
    float
        Entropy in bits, in [0, min(cut, q - cut)].

    Raises
    ------
    ValueError
        Single-qubit state (no bipartition exists) or cut index out of range.
    """
    if state.qubits < 2:
        raise ValueError("entanglement entropy requires at least two qubits")
    if not 1 <= cut < state.qubits:
        raise ValueError(f"cut must lie in 1..{state.qubits - 1}, got {cut}")
    coeffs = state.amplitudes.reshape(2**cut, 2 ** (state.qubits - cut))
    sigma = np.linalg.svd(coeffs, compute_uv=False)
    lam = sigma**2
    lam = lam[lam > 0.0]
    return float(-np.sum(lam * np.log2(lam))) + 0.0
