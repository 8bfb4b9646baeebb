"""Shared containers for coin states, coin operators, joint walk states and
probability distributions.  A joint walk state is one dense window over a
box of the lattice, held coin-major: one contiguous plane of the box per
coin basis state.  A probability distribution holds its support as arrays
of window indices, labeled on the walk's lattice as origin + step * index.

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
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "MAX_QUBITS",
    "UNITARITY_TOL",
    "CoinOperator",
    "CoinState",
    "Distribution",
    "SiteAmplitudes",
    "WalkState",
    "state_norm",
]

MAX_QUBITS = 3

# Construction-time tolerance for custom unitaries and state normalization.
UNITARITY_TOL = 1e-12

DISTRIBUTION_SUM_TOL = 1e-10


def _register_qubits(size: int, what: str) -> int:
    """The q of a coin register of ``size == 2**q`` entries, q in 1..MAX_QUBITS.

    Any other size raises ValueError, in the one message of the rule;
    ``what`` names the count, such as ``"amplitude count"``.
    """
    q = size.bit_length() - 1
    if not (1 <= q <= MAX_QUBITS and 2**q == size):
        raise ValueError(f"{what} must be 2**q for a coin of q = 1..{MAX_QUBITS} qubits, got {size}")
    return q


def _preset_data(presets: dict, name: str, data, what: str, built: str, needs: str):
    """The data to build from: ``data`` for ``"custom"``, else preset ``name``'s entries.

    Raises ValueError for ``"custom"`` without data, for a preset given
    data and for any other name.  ``what`` names the choice, such as
    ``"coin preset"``; ``built`` names what it builds, such as ``"coin
    state"``, and ``needs`` the custom data, such as ``"amplitudes"``.
    """
    if name == "custom":
        if data is None:
            raise ValueError(f"custom {built} requires {needs}")
        return data
    if name not in presets:
        raise ValueError(f"unknown {what} {name!r}; expected one of {sorted(presets)} or 'custom'")
    if data is not None:
        raise ValueError(f"{what} {name!r} takes no custom data; only 'custom' does")
    return presets[name]


def _coordinates(value, what: str) -> tuple[int, ...]:
    """``value``, an int or a sequence of ints, as a tuple of Python ints.

    An int is anything ``operator.index`` takes, numpy integers included;
    anything else, such as a float or a string, raises ValueError.
    """
    try:
        return (operator.index(value),)
    except TypeError:
        pass
    try:
        return tuple(map(operator.index, value))
    except TypeError:
        raise ValueError(f"{what} must be an int or a sequence of ints, got {value!r}") from None


def _step_count(n) -> int:
    """``n`` as a Python int: anything ``operator.index`` takes, at least 0.

    Anything else, such as a float or a string, and a negative count raise
    ValueError.
    """
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"step count must be an int, got {n!r}") from None
    if n < 0:
        raise ValueError(f"step count must be nonnegative, got {n}")
    return n


def _check_qubits(qubits: int, coin_op, shift) -> None:
    """Refuse a coin operator or a shift that is not for a coin of ``qubits`` qubits."""
    if coin_op.qubits != qubits:
        raise ValueError(f"coin state has {qubits} qubit(s) but operator acts on {coin_op.qubits}")
    if shift.qubits != qubits:
        raise ValueError(f"shift conditions on {shift.qubits} qubit(s) but coin holds {qubits}")


def _as_complex_matrix(entries) -> np.ndarray:
    m = np.array(entries, dtype=complex, order="C")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not all(map(math.isfinite, m.view(np.float64).ravel().tolist())):
        raise ValueError("matrix entries must be finite")
    return m


def _fsum(terms) -> float:
    """``math.fsum``, but inf, not OverflowError, for finite terms whose sum exceeds float64."""
    try:
        return math.fsum(terms)
    except OverflowError:
        return math.inf


def _unitarity_defect(m: np.ndarray) -> float:
    # max |M M^dag - I| of a square M, over Python floats: each entry is
    # rounded once from its exact value by math.fsum, so the verdict does not
    # depend on a summation order, and a walk request calls no einsum and no
    # complex ufunc before its walk.  M M^dag is Hermitian, so its upper
    # triangle holds every |entry|; a real M has a real M M^dag.
    if any(m.imag.ravel().tolist()):
        rows = m.view(np.float64).tolist()  # row i: re, im, re, im, ...
        # row j times i: its float dot product with row i is Im (M M^dag)_ij
        turned = []
        for row in rows:
            t = row.copy()
            t[::2] = [-x for x in row[1::2]]
            t[1::2] = row[::2]
            turned.append(t)
    else:
        rows = m.real.tolist()
        turned = None
    mul, fsum = operator.mul, math.fsum
    try:
        defects = [abs(fsum([*map(mul, row, row), -1.0])) for row in rows]
        for i, row in enumerate(rows):
            for j in range(i + 1, len(rows)):
                im = fsum(map(mul, row, turned[j])) if turned else 0.0
                defects.append(math.hypot(fsum(map(mul, row, rows[j])), im))
    except (OverflowError, ValueError):
        # a product or a sum past float64 (ValueError: inf - inf); by
        # Cauchy-Schwarz some diagonal entry is then past float64 too
        return math.inf
    return max(defects)


@dataclass(frozen=True)
class CoinState:
    """Normalized pure state of a coin register of 1 to 3 qubits.

    Parameters
    ----------
    amplitudes : array-like of complex, length ``2**q`` for q in 1..MAX_QUBITS
        Basis amplitudes in ket-label order.  Must be normalized within
        ``UNITARITY_TOL``.  Their count sets ``qubits``, q.
    """

    amplitudes: np.ndarray
    qubits: int = field(init=False)

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=complex).reshape(-1)
        object.__setattr__(self, "qubits", _register_qubits(amps.shape[0], "amplitude count"))
        parts = amps.view(np.float64).tolist()
        if not all(map(math.isfinite, parts)):
            raise ValueError("amplitudes must be finite")
        norm_sq = _fsum(map(operator.mul, parts, parts))
        if abs(norm_sq - 1.0) > UNITARITY_TOL:
            raise ValueError(f"amplitudes are not normalized: |psi|^2 = {norm_sq!r}")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    # By value.  Python hashes equal numbers alike, -0.0 and 0.0 included,
    # so a hash of the entries as Python complex numbers agrees with ==.
    def __eq__(self, other) -> bool:
        if not isinstance(other, CoinState):
            return NotImplemented
        return np.array_equal(self.amplitudes, other.amplitudes)

    def __hash__(self) -> int:
        return hash(tuple(self.amplitudes.tolist()))


@dataclass(frozen=True)
class CoinOperator:
    """Unitary acting on the coin space, validated at construction.

    The matrix must be square with dimension ``2**q`` for q in 1..MAX_QUBITS,
    which sets ``qubits``, and unitary within ``UNITARITY_TOL`` (max entry of
    ``|U U^dag - I|``).
    """

    matrix: np.ndarray
    qubits: int = field(init=False)

    def __post_init__(self) -> None:
        m = _as_complex_matrix(self.matrix)
        object.__setattr__(self, "qubits", _register_qubits(m.shape[0], "coin operator dimension"))
        defect = _unitarity_defect(m)
        if not defect <= UNITARITY_TOL:  # also refuses a NaN defect
            raise ValueError(f"matrix is not unitary: max |U U^dag - I| = {defect:.3e}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    # By value, as CoinState.
    def __eq__(self, other) -> bool:
        if not isinstance(other, CoinOperator):
            return NotImplemented
        return np.array_equal(self.matrix, other.matrix)

    def __hash__(self) -> int:
        return hash(tuple(self.matrix.ravel().tolist()))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def _real_matrix(self) -> np.ndarray | None:
        # The matrix's real part when no entry has a nonzero imaginary
        # part, else None; looked up once per walk step.
        return None if any(self.matrix.imag.ravel().tolist()) else self.matrix.real


class SiteAmplitudes:
    """A dense amplitude window over a box of the lattice, and its origin.

    ``window`` is a read-only, coin-major ``complex128`` or ``float64``
    array of shape ``(2**qubits, extent...)`` over a box of the lattice:
    ``window[c]`` is the plane of coin component ``c``.  ``origin`` is the
    lattice position of the box's index 0, so site ``pos``'s coin vector is
    the window's column at ``pos - origin``.  Views compare by value, origin
    and window, and are unhashable.

    ``len`` (the occupied sites) and :meth:`values` remain only because the
    benchmark's tracer reads them; they go when the tracer stops.
    """

    __slots__ = ("window", "origin", "_mask")

    def __init__(self, window: np.ndarray, origin: tuple[int, ...]):
        window.flags.writeable = False
        self.window = window
        self.origin = origin
        self._mask = None

    def occupied(self) -> np.ndarray:
        """Boolean array over the window's sites: any nonzero coin component."""
        if self._mask is None:
            self._mask = (self.window != 0).any(axis=0)
        return self._mask

    def __eq__(self, other) -> bool:
        if not isinstance(other, SiteAmplitudes):
            return NotImplemented
        return self.origin == other.origin and np.array_equal(self.window, other.window)

    __hash__ = None

    def __len__(self) -> int:
        return int(np.count_nonzero(self.occupied()))

    def values(self) -> np.ndarray:
        """The occupied sites' coin vectors, one row each, in sorted site order."""
        window = self.window
        return window.reshape(len(window), -1).T[np.flatnonzero(self.occupied())]


@dataclass(frozen=True)
class WalkState:
    """Joint walker/coin amplitudes, held as one dense window of the lattice.

    ``amplitudes`` is a :class:`SiteAmplitudes` over a coin-major window of
    shape ``(2**qubits, extent...)``, ``complex128`` or, for a real walk,
    ``float64``.  It is adopted as it is, so a state is built from a window
    and its origin, ``SiteAmplitudes(window, origin)``, or from another
    state's ``amplitudes``.  Instances are immutable values, compared by
    value; evolution produces new ones.  ``dims`` and ``qubits`` are
    inputs, not derived from the window, only because the benchmark's
    tracer builds states with these keywords.
    """

    dims: int
    qubits: int
    amplitudes: SiteAmplitudes

    def __post_init__(self) -> None:
        if self.dims not in (1, 2):
            raise ValueError(f"lattice dimensionality must be 1 or 2, got {self.dims}")
        if not isinstance(self.amplitudes, SiteAmplitudes):
            raise TypeError(
                f"amplitudes must be a SiteAmplitudes(window, origin), got {type(self.amplitudes).__name__}"
            )
        shape = self.amplitudes.window.shape
        if len(shape) != self.dims + 1 or _register_qubits(shape[0], "coin plane count") != self.qubits:
            raise ValueError(
                f"window of shape {shape} does not hold {self.dims}D sites of {self.qubits} qubit(s)"
            )


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
    return _fsum(sums)


class Distribution:
    """Probability assignment over the positions of a 1D or 2D walk.

    Entries must be nonnegative and sum to 1 within 1e-10.

    The walks build one from their support held as arrays,
    ``Distribution(origin=..., offsets=..., values=..., step=...)``: per
    axis, ``origin``, a Python int; ``step``, the Python-int lattice step of
    the walk's window (1 when omitted); and ``offsets``, an integer array of
    window indices; the rows are in ascending (in 2D lexicographic) order,
    and ``values`` holds their float64 probabilities.  Row k's label is
    ``origin[a] + step[a] * offsets[a][k]`` on each axis a, computed only by
    :meth:`labels`, exact in Python ints at any size.
    """

    __slots__ = ("origin", "step", "offsets", "values")

    def __init__(self, *, origin, offsets, values, step=None):
        self.origin, self.offsets = tuple(origin), tuple(offsets)
        self.step = (1,) * len(self.origin) if step is None else tuple(step)
        self.values = np.asarray(values, dtype=np.float64)
        total = float(np.add.reduce(self.values))
        if not (math.isfinite(total) and self.values.min(initial=0.0) >= 0.0):
            valid = (self.values >= 0.0) & (self.values < math.inf)  # NaN fails both
            if not valid.all():
                k = int(np.argmin(valid))
                label = tuple(next(axis) for axis in self.labels([[int(off[k])] for off in self.offsets]))
                label = label[0] if len(label) == 1 else label
                raise ValueError(f"invalid probability {float(self.values[k])!r} at {label!r}")
        if abs(total - 1.0) > DISTRIBUTION_SUM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, expected 1")

    def labels(self, offsets) -> list:
        """Per axis, the labels of an iterable of Python-int offsets:
        ``origin + step * offset``, as a lazy iterator of Python ints."""
        return [map(o.__add__, off if s == 1 else map(s.__mul__, off))
                for o, s, off in zip(self.origin, self.step, offsets)]
