"""Conditional shift operators as displacement tables.

A conditional shift translates the walker by an integer displacement chosen
by the coin basis state, leaving the coin untouched.  Any such operator is
fully described by its per-basis-state displacement table; unitarity is
structural (each (position, coin) basis state maps to a distinct one), so no
numeric check is needed.  On a dense coin-major window the shift is one
slice copy per coin plane into a zero-filled, larger window: a fresh one,
or the one a walk step allocated for it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .core import MAX_QUBITS, SiteAmplitudes, WalkState

__all__ = [
    "SHIFT_PRESETS",
    "DisplacementTable",
    "apply_shift",
    "build_shift",
]

# Preset name -> per-basis displacement vectors, coin basis index order.
SHIFT_PRESETS: dict[str, tuple[tuple[int, ...], ...]] = {
    "s_single": ((1,), (-1,)),
    "s_single_2step": ((2,), (-2,)),
    "s_ec": ((1,), (0,), (0,), (-1,)),
    "s_ec_prime": ((2,), (1,), (-1,), (-2,)),
    "s_3a": ((1,), (0,), (0,), (0,), (0,), (0,), (0,), (-1,)),
    "s_3b": ((3,), (2,), (1,), (0,), (0,), (-1,), (-2,), (-3,)),
    "s_2d": (
        (1, 0),   # |000>
        (0, 0),   # |001>
        (0, 1),   # |010>
        (0, 0),   # |011>
        (0, 0),   # |100>
        (0, -1),  # |101>
        (0, 0),   # |110>
        (-1, 0),  # |111>
    ),
}


class _Layout(NamedTuple):
    # How a shift by one table moves a window.  Per axis: ``lo``, the
    # smallest displacement, which moves the window's origin, and ``span``,
    # the range of displacements, which grows the window.  Per coin state:
    # ``offsets``, its displacement minus ``lo``, where its plane lands.
    lo: tuple[int, ...]
    span: tuple[int, ...]
    offsets: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class DisplacementTable:
    """Per-coin-basis-state lattice displacements of a conditional shift.

    ``table[i]`` is the integer displacement vector (length ``dims``) applied
    to the walker when the coin is in basis state ``i``.
    """

    dims: int
    qubits: int
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.dims not in (1, 2):
            raise ValueError(f"lattice dimensionality must be 1 or 2, got {self.dims}")
        if not 1 <= self.qubits <= MAX_QUBITS:
            raise ValueError(f"coin register must hold 1..{MAX_QUBITS} qubits, got {self.qubits}")
        rows = tuple(tuple(int(x) for x in row) for row in self.table)
        if len(rows) != 2**self.qubits:
            raise ValueError(
                f"table has {len(rows)} entries, expected {2**self.qubits} for {self.qubits} qubit(s)"
            )
        if any(len(row) != self.dims for row in rows):
            raise ValueError(f"every displacement must have {self.dims} component(s)")
        object.__setattr__(self, "table", rows)

    @cached_property
    def _layout(self) -> _Layout:
        axes = list(zip(*self.table))
        lo = tuple(map(min, axes))
        span = tuple(max(axis) - low for axis, low in zip(axes, lo))
        return _Layout(lo, span, tuple(tuple(map(operator.sub, row, lo)) for row in self.table))

    @property
    def max_displacement(self) -> int:
        """Largest per-axis displacement magnitude; bounds the reachable window."""
        return max(abs(x) for row in self.table for x in row)

    def negated(self) -> "DisplacementTable":
        """Table of the inverse shift (every displacement sign-flipped)."""
        return DisplacementTable(
            dims=self.dims,
            qubits=self.qubits,
            table=tuple(tuple(-x for x in row) for row in self.table),
        )


def build_shift(preset: str, custom_table=None) -> DisplacementTable:
    """Construct a conditional shift by preset name.

    Parameters
    ----------
    preset : str
        One of the keys of ``SHIFT_PRESETS``, or ``"custom"``.
    custom_table : sequence, optional
        Required when ``preset == "custom"``: one displacement per coin basis
        state, each either an int (1D) or a pair of ints (2D), ``2**q``
        entries for q in 1..3.  Ignored otherwise.

    Returns
    -------
    DisplacementTable

    Raises
    ------
    ValueError
        Unknown preset name or a malformed custom table.
    """
    if preset == "custom":
        if custom_table is None:
            raise ValueError("custom shift requires a displacement table")
        rows = [(row,) if isinstance(row, int) else tuple(row) for row in custom_table]
        if not rows:
            raise ValueError("custom shift table is empty")
        qubits = len(rows).bit_length() - 1
        if 2**qubits != len(rows):
            raise ValueError(f"table length {len(rows)} is not a power of two")
        return DisplacementTable(dims=len(rows[0]), qubits=qubits, table=tuple(rows))
    try:
        rows = SHIFT_PRESETS[preset]
    except KeyError:
        raise ValueError(
            f"unknown shift preset {preset!r}; expected one of "
            f"{sorted(SHIFT_PRESETS)} or 'custom'"
        ) from None
    return DisplacementTable(dims=len(rows[0]), qubits=len(rows).bit_length() - 1, table=rows)


def _shifted_shape(shape: tuple[int, ...], table: DisplacementTable) -> tuple[int, ...]:
    # Shape of the coin-major window that shifting a window of ``shape`` fills.
    return shape[:1] + tuple(map(operator.add, shape[1:], table._layout.span))


def _shift_amplitudes(
    window: np.ndarray,
    origin: tuple[int, ...],
    table: DisplacementTable,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, tuple[int, ...]]:
    # ``out`` (a fresh window when None, else one of _shifted_shape) is
    # zero-filled and takes each coin plane by one slice copy; the input is
    # never written.  Returns the filled window and its origin.
    layout = table._layout
    extent = window.shape[1:]
    if out is None:
        out = np.empty(_shifted_shape(window.shape, table), dtype=window.dtype)
    out.fill(0)
    for c, offset in enumerate(layout.offsets):
        out[(c, *map(slice, offset, map(operator.add, offset, extent)))] = window[c]
    return out, tuple(map(operator.add, origin, layout.lo))


def apply_shift(state: WalkState, table: DisplacementTable) -> WalkState:
    """Translate every amplitude by its coin-conditioned displacement.

    The amplitude at ``(pos, c)`` moves to ``(pos + table.table[c], c)``
    unchanged in value.  Distinct (position, coin) pairs never collide, so
    the norm is preserved exactly.

    Raises
    ------
    ValueError
        State and table disagree on qubit count or lattice dimensionality.
    """
    if table.qubits != state.qubits:
        raise ValueError(f"shift acts on {table.qubits} qubit(s), state holds {state.qubits}")
    if table.dims != state.dims:
        raise ValueError(f"shift is {table.dims}D, state is {state.dims}D")
    window, origin = _shift_amplitudes(state.amplitudes.window, state.amplitudes.origin, table)
    return WalkState(dims=state.dims, qubits=state.qubits, amplitudes=SiteAmplitudes(window, origin))
