"""Shared containers for coin states, coin operators, joint walk states and
probability distributions.  A joint walk state is one dense window over a
box of the lattice, held coin-major: one contiguous plane of the box per
coin basis state.

Coin states and operators hold ``complex128``.  A walk window is
``complex128`` too, except that a walk whose every amplitude is real runs
on ``float64`` (see :func:`entwalk.engine.initial_state`).

Coin basis states are indexed by reading the ket label as a binary numeral
with the leftmost symbol most significant, so ``|01>`` is index 1 and
``|10>`` is index 2; the same ordering is used for operator rows/columns
and for displacement tables.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

__all__ = [
    "MAX_QUBITS",
    "MAX_WINDOW_AMPLITUDES",
    "UNITARITY_TOL",
    "CoinOperator",
    "CoinState",
    "Distribution",
    "SiteAmplitudes",
    "WalkState",
    "basis_index",
    "basis_label",
    "check_unitary",
    "state_norm",
    "tensor_product",
]

MAX_QUBITS = 3

# Cap on the amplitudes of one walk-state window, 16 bytes each in
# complex128 and 8 in float64; a walk step holds three windows of about
# this size.
MAX_WINDOW_AMPLITUDES = 2**23

# Construction-time tolerance for custom unitaries and state normalization.
UNITARITY_TOL = 1e-12

DISTRIBUTION_SUM_TOL = 1e-10


def basis_label(index: int, qubits: int) -> str:
    """Binary ket label of a coin basis index, e.g. ``basis_label(2, 2) == "10"``."""
    if not 0 <= index < 2**qubits:
        raise ValueError(f"basis index {index} out of range for {qubits} qubit(s)")
    return format(index, f"0{qubits}b")


def basis_index(label: str) -> int:
    """Inverse of :func:`basis_label`: ``basis_index("10") == 2``."""
    if not label or any(ch not in "01" for ch in label):
        raise ValueError(f"not a binary ket label: {label!r}")
    return int(label, 2)


def _as_complex_matrix(entries) -> np.ndarray:
    m = np.array(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m.view(float)).all():
        raise ValueError("matrix entries must be finite")
    return m


def _unitarity_defect(m: np.ndarray) -> float:
    # Up to coin size, M M^dag by einsum's own loops, not BLAS, like the
    # CoinState norm: the verdict does not depend on the BLAS build or its
    # thread count, and a quantum walk never touches BLAS.  A larger matrix,
    # which only check_unitary takes, goes to BLAS: einsum is ~9x slower at
    # 256 x 256.
    if len(m) <= 2**MAX_QUBITS:
        gram = np.einsum("ik,jk->ij", m, m.conj())
    else:
        gram = m @ m.conj().T
    return float(np.max(np.abs(gram - np.eye(m.shape[0]))))


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # np.kron(a, b) without its Python-level set-up: each entry is the same one product.
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(len(a) * len(b), -1)


def check_unitary(matrix, tol: float = UNITARITY_TOL) -> bool:
    """Return True iff ``max |M M^dag - I| <= tol`` entrywise.

    Accepts any square array-like, such as a user-supplied matrix;
    :class:`CoinOperator` applies the same test at construction.
    """
    return _unitarity_defect(_as_complex_matrix(matrix)) <= tol


@dataclass(frozen=True)
class CoinState:
    """Normalized pure state of a coin register of 1 to 3 qubits.

    Parameters
    ----------
    qubits : int
        Register size, 1 <= qubits <= MAX_QUBITS.
    amplitudes : array-like of complex, length ``2**qubits``
        Basis amplitudes in ket-label order.  Must be normalized within
        ``UNITARITY_TOL``.
    """

    qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if not 1 <= self.qubits <= MAX_QUBITS:
            raise ValueError(f"coin register must hold 1..{MAX_QUBITS} qubits, got {self.qubits}")
        amps = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if amps.shape[0] != 2**self.qubits:
            raise ValueError(
                f"expected {2**self.qubits} amplitudes for {self.qubits} qubit(s), got {amps.shape[0]}"
            )
        if not np.isfinite(amps.view(float)).all():
            raise ValueError("amplitudes must be finite")
        norm_sq = float(np.add.reduce(np.square(amps.view(np.float64))))
        if abs(norm_sq - 1.0) > UNITARITY_TOL:
            raise ValueError(f"amplitudes are not normalized: |psi|^2 = {norm_sq!r}")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)


@dataclass(frozen=True)
class CoinOperator:
    """Unitary acting on the coin space, validated at construction.

    The matrix must be square with dimension ``2**q`` for q in 1..MAX_QUBITS
    and unitary within ``UNITARITY_TOL`` (max entry of ``|U U^dag - I|``).
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = _as_complex_matrix(self.matrix)
        dim = m.shape[0]
        if dim & (dim - 1) or not 2 <= dim <= 2**MAX_QUBITS:
            raise ValueError(f"coin operator dimension must be 2^q with q in 1..{MAX_QUBITS}, got {dim}")
        defect = _unitarity_defect(m)
        if not defect <= UNITARITY_TOL:  # also refuses a NaN defect
            raise ValueError(f"matrix is not unitary: max |U U^dag - I| = {defect:.3e}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def qubits(self) -> int:
        return self.dim.bit_length() - 1

    @cached_property
    def _real_matrix(self) -> np.ndarray | None:
        # The matrix's real part when no entry has a nonzero imaginary
        # part, else None; looked up once per walk step.
        return None if self.matrix.imag.any() else self.matrix.real


def tensor_product(a: CoinOperator, b: CoinOperator) -> CoinOperator:
    """Kronecker product of two coin operators.

    Row/column index of the result is ``(i_a, i_b)`` read row-major, i.e. the
    factor ``a`` owns the most significant ket symbols, consistent with
    :func:`basis_label`.  Coins larger than MAX_QUBITS are rejected.
    """
    if a.dim * b.dim > 2**MAX_QUBITS:
        raise ValueError(
            f"tensor product of dimensions {a.dim} x {b.dim} exceeds the "
            f"supported coin size 2^{MAX_QUBITS}"
        )
    return CoinOperator(_kron(a.matrix, b.matrix))


class SiteAmplitudes(Mapping):
    """Read-only ``{position: coin vector}`` view of a dense amplitude window.

    ``window`` is a read-only, coin-major ``complex128`` or ``float64``
    array of shape ``(2**qubits, extent...)`` over a box of the lattice:
    ``window[c]`` is the plane of coin component ``c``.  ``origin`` is the
    lattice position of the box's index 0.  The keys are the sites with any
    nonzero coin component, in sorted order; a key's value is its coin
    vector, the window's column at that site.
    """

    __slots__ = ("window", "origin", "_mask", "_keys")

    def __init__(self, window: np.ndarray, origin: tuple[int, ...]):
        window.flags.writeable = False
        self.window = window
        self.origin = origin
        self._mask = None
        self._keys = None

    def occupied(self) -> np.ndarray:
        """Boolean array over the window's sites: any nonzero coin component."""
        if self._mask is None:
            self._mask = (self.window != 0).any(axis=0)
        return self._mask

    def __getitem__(self, pos) -> np.ndarray:
        try:
            index = tuple(operator.index(x) - o for x, o in zip(pos, self.origin, strict=True))
        except (TypeError, ValueError):
            raise KeyError(pos) from None
        if all(0 <= i < n for i, n in zip(index, self.window.shape[1:])):
            vec = self.window[(slice(None),) + index]
            if vec.any():
                return vec
        raise KeyError(pos)

    def __iter__(self):
        if self._keys is None:
            hits = np.argwhere(self.occupied()).tolist()
            self._keys = [tuple(i + o for i, o in zip(hit, self.origin)) for hit in hits]
        return iter(self._keys)

    def __len__(self) -> int:
        return int(np.count_nonzero(self.occupied()))


def _pack_sites(dims: int, qubits: int, sites) -> SiteAmplitudes:
    """Validate a ``{position: coin vector}`` mapping and pack it into its bounding box."""
    dim = 2**qubits
    checked: dict[tuple[int, ...], np.ndarray] = {}
    for pos, vec in sites.items():
        key = tuple(int(x) for x in pos)
        if len(key) != dims:
            raise ValueError(f"position {pos} does not have {dims} component(s)")
        v = np.array(vec, dtype=complex).reshape(-1)
        if v.shape[0] != dim:
            raise ValueError(f"coin vector at {key} has length {v.shape[0]}, expected {dim}")
        if not np.isfinite(v.view(float)).all():
            raise ValueError(f"coin vector at {key} has non-finite entries")
        checked[key] = v
    lo = tuple(min((k[a] for k in checked), default=0) for a in range(dims))
    extent = tuple(max((k[a] for k in checked), default=-1) - lo[a] + 1 for a in range(dims))
    if math.prod(extent) * dim > MAX_WINDOW_AMPLITUDES:
        raise ValueError(f"bounding box of {extent} sites exceeds {MAX_WINDOW_AMPLITUDES=}")
    window = np.zeros((dim,) + extent, dtype=complex)
    for key, v in checked.items():
        window[(slice(None),) + tuple(x - o for x, o in zip(key, lo))] = v
    return SiteAmplitudes(window, lo)


@dataclass(frozen=True)
class WalkState:
    """Joint walker/coin amplitudes, held as one dense window of the lattice.

    ``amplitudes`` maps each lattice position (tuple of ``dims`` ints) with
    any nonzero coin component to its coin vector of length ``2**qubits``.
    It is a read-only :class:`SiteAmplitudes` view over one coin-major array
    of shape ``(2**qubits, extent...)``.  A dict passed in is validated and
    packed into its bounding box, a ``complex128`` array; a view taken from
    another state is adopted as it is, ``float64`` windows of real walks
    included.  Instances are immutable values; evolution produces new ones.
    """

    dims: int
    qubits: int
    amplitudes: Mapping = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.dims not in (1, 2):
            raise ValueError(f"lattice dimensionality must be 1 or 2, got {self.dims}")
        if not 1 <= self.qubits <= MAX_QUBITS:
            raise ValueError(f"coin register must hold 1..{MAX_QUBITS} qubits, got {self.qubits}")
        if not isinstance(self.amplitudes, SiteAmplitudes):
            object.__setattr__(self, "amplitudes", _pack_sites(self.dims, self.qubits, self.amplitudes))
        shape = self.amplitudes.window.shape
        if len(shape) != self.dims + 1 or shape[0] != 2**self.qubits:
            raise ValueError(
                f"window of shape {shape} does not hold {self.dims}D sites of {self.qubits} qubit(s)"
            )

    def amplitude(self, position, coin_index: int) -> complex:
        """Amplitude at ``(position, coin_index)``; zero if the site is unoccupied."""
        key = (position,) if isinstance(position, int) else tuple(position)
        vec = self.amplitudes.get(key)
        return complex(vec[coin_index]) if vec is not None else 0j

    def positions(self) -> list[tuple[int, ...]]:
        return list(self.amplitudes)


def state_norm(state: WalkState) -> float:
    """Total probability weight ``sum |amplitude|^2`` of a walk state.

    Each coin plane's squared real and imaginary parts are summed by numpy's
    pairwise reduction, and the per-plane sums are added exactly by
    ``math.fsum``.  No BLAS call is made and no window-sized temporary, so a
    state's norm has the same bits on any number of threads.  A ``float64``
    plane is widened to ``complex128`` first: the pairwise sum then runs
    over the same interleaved floats, zero imaginary parts included, and
    the norm has the bits of the same walk run in ``complex128``.
    """
    planes = state.amplitudes.window
    sums = [
        np.add.reduce(np.square(plane.astype(complex, copy=False).ravel().view(np.float64)))
        for plane in planes
    ]
    try:
        return math.fsum(sums)
    except OverflowError:  # finite plane sums whose total exceeds float64
        return math.inf


@dataclass(frozen=True)
class Distribution:
    """Probability assignment over lattice positions or coin basis indices.

    Labels are ints for 1D positions and coin indices, ``(x, y)`` tuples for
    2D positions.  Entries must be nonnegative and sum to 1 within 1e-10.
    """

    probs: dict

    def __post_init__(self) -> None:
        labels = list(self.probs)
        values = list(map(float, self.probs.values()))
        total = sum(values)
        if not (math.isfinite(total) and min(values, default=0.0) >= 0.0):
            for label, p in zip(labels, values):
                if not 0.0 <= p < math.inf:
                    raise ValueError(f"invalid probability {p!r} at {label!r}")
        if abs(total - 1.0) > DISTRIBUTION_SUM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, expected 1")
        kinds = set(map(type, labels))
        if kinds == {tuple}:
            kinds = set(map(type, chain.from_iterable(labels)))
        if not kinds <= {int}:
            labels = [tuple(map(int, x)) if isinstance(x, (tuple, list)) else int(x) for x in labels]
        object.__setattr__(self, "probs", dict(zip(labels, values)))

    def __getitem__(self, label) -> float:
        key = tuple(label) if isinstance(label, (tuple, list)) else label
        return self.probs.get(key, 0.0)

    def items_sorted(self) -> list:
        """(label, probability) pairs sorted ascending by label."""
        return sorted(self.probs.items())

    def support(self) -> list:
        return sorted(self.probs)
