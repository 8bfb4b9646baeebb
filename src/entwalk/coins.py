"""Named coin states and coin operators, plus the bipartite entanglement
entropy of a coin state.

Presets cover the four Bell states, a three-qubit GHZ state, two real
two-qubit states of different entanglement (``theta0`` separable, ``theta1``
partially entangled), two complex-amplitude two-qubit states, and a biased
single-qubit state.  Operators come in two tensor-power families built from
the Hadamard matrix and from Y = (1/sqrt(2)) [[1, i], [i, 1]].
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .core import MAX_QUBITS, CoinOperator, CoinState

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

# Preset name -> amplitude vector in basis-label order (see :mod:`entwalk.core`).
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


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # np.kron(a, b) without its Python-level set-up: each entry is the same one product.
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(len(a) * len(b), -1)


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
        return CoinState(custom_amplitudes)
    try:
        amps = COIN_PRESETS[preset]
    except KeyError:
        raise ValueError(
            f"unknown coin preset {preset!r}; expected one of "
            f"{sorted(COIN_PRESETS)} or 'custom'"
        ) from None
    return CoinState(amps)


def build_coin_operator(kind: str, qubits: int, custom_matrix=None) -> CoinOperator:
    """Construct a coin operator.

    Parameters
    ----------
    kind : str
        ``"hadamard_n"`` for the q-fold tensor power of the Hadamard matrix,
        ``"y_n"`` for the q-fold tensor power of Y = (1/sqrt(2)) [[1, i], [i, 1]],
        or ``"custom"`` for a user-supplied matrix.
    qubits : int
        Coin register size of a tensor power, 1..3.  Ignored for
        ``"custom"``, whose matrix sets its own (``WalkConfig`` checks that
        it matches the coin state's).
    custom_matrix : array-like, optional
        Required when ``kind == "custom"``: a square matrix of dimension
        ``2**q`` for q in 1..3, unitary within 1e-12.  Ignored otherwise.

    Returns
    -------
    CoinOperator

    Raises
    ------
    ValueError
        Unknown kind, qubit count out of range, missing custom matrix, a
        custom matrix of a dimension other than 2, 4 or 8, or a non-unitary
        custom matrix.
    """
    if kind == "custom":
        if custom_matrix is None:
            raise ValueError("custom coin operator requires a matrix")
        return CoinOperator(custom_matrix)
    if not 1 <= qubits <= MAX_QUBITS:
        raise ValueError(f"coin operator must act on 1..{MAX_QUBITS} qubits, got {qubits}")
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

    The amplitude vector is read as a ``2**cut x 2**(q - cut)`` coefficient
    matrix.  For q <= 3 one side of it has length 2: its two rows ``a`` and
    ``b`` (cut 1), or its two columns (cut q - 1).  The squared Schmidt
    coefficients are then the eigenvalues of the 2x2 Gram matrix of ``a``
    and ``b``, found in closed form in plain Python: the larger is
    ``(tr + hypot(|a|^2 - |b|^2, 2 |<a, b>|)) / 2`` with ``tr = |a|^2 + |b|^2``,
    the smaller is the determinant divided by the larger, and the
    determinant is the Cauchy-Binet sum ``sum_{i<j} |a_i b_j - a_j b_i|^2``.
    The smaller eigenvalue is never a difference of nearly equal numbers,
    so it keeps its relative accuracy on near-product states.  The
    entropy is ``-sum lambda log2 lambda`` over the nonzero eigenvalues.

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
    amps = state.amplitudes.tolist()
    if cut == 1:
        half = len(amps) // 2
        a, b = amps[:half], amps[half:]
    else:
        # q = 3, cut 2: a 4x2 matrix, whose columns are the length-2 side
        a, b = amps[0::2], amps[1::2]
    # math.fsum, not sum: its exactly rounded result does not depend on the
    # Python version (sum compensates float sums from 3.12 on)
    norm_a = math.fsum(map(_weight, a))
    norm_b = math.fsum(map(_weight, b))
    inner = [x.conjugate() * y for x, y in zip(a, b)]  # the terms of <a, b>
    inner_abs = math.hypot(math.fsum(z.real for z in inner), math.fsum(z.imag for z in inner))
    det = math.fsum(
        _weight(a[i] * b[j] - a[j] * b[i]) for i, j in itertools.combinations(range(len(a)), 2)
    )
    lam_max = (norm_a + norm_b + math.hypot(norm_a - norm_b, 2.0 * inner_abs)) / 2.0
    out = 0.0
    for lam in (lam_max, det / lam_max):
        if lam > 0.0:
            out -= lam * math.log2(lam)
    return out + 0.0


def _weight(z: complex) -> float:
    """|z|^2, without the extra rounding of ``abs(z) ** 2``."""
    return z.real * z.real + z.imag * z.imag
