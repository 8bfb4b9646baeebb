"""Conditional shift operators as displacement tables.

A conditional shift translates the walker by an integer displacement chosen
by the coin basis state, leaving the coin untouched.  Any such operator is
fully described by its per-basis-state displacement table; unitarity is
structural (each (position, coin) basis state maps to a distinct one), so no
numeric check is needed.  On a dense coin-major window the shift is one
slice copy per coin plane into a zero-filled, larger window: a fresh one,
or the one a walk step allocated for it, which takes the planes one block
of rows at a time.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .core import SiteAmplitudes, WalkState, _coordinates, _preset_data, _register_qubits

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


# Updates charged for one step's fixed cost, so a walk whose window never
# grows is capped too.  On one 2-vCPU host (numpy 2.4.6) a one-site quantum
# step takes ~18-25 us with a 2-qubit coin and ~32-34 us with a 3-qubit one,
# the time of ~1600-3800 amplitude updates (engine.MAX_WALK_WORK); a
# classical step on a one-site window takes ~2.2-3 us.
_STEP_OVERHEAD = 4096


class _Layout(NamedTuple):
    # How a shift by one table moves a window.  Per axis: ``lo``, the
    # smallest displacement, which moves the window's origin; ``g``, the gcd
    # of the displacements' offsets from ``lo`` (1 when they are all equal),
    # the step of the lattice they reach; and ``span``, the range of
    # displacements, which grows the window.  Per coin state: ``offsets``,
    # its displacement minus ``lo``, where its plane lands.
    lo: tuple[int, ...]
    g: tuple[int, ...]
    span: tuple[int, ...]
    offsets: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class DisplacementTable:
    """Per-coin-basis-state lattice displacements of a conditional shift.

    ``table[i]`` is the integer displacement vector applied to the walker
    when the coin is in basis state ``i``; a 1D displacement may be a bare
    int.  An int is a Python or numpy integer; a float or a string raises
    ValueError.  The table's ``2**qubits`` rows set ``qubits``, and its first row's
    length sets ``dims``, 1 or 2, which every row must share.
    """

    table: tuple[tuple[int, ...], ...]
    dims: int = field(init=False)
    qubits: int = field(init=False)

    def __post_init__(self) -> None:
        rows = tuple(_coordinates(row, "displacement") for row in self.table)
        object.__setattr__(self, "qubits", _register_qubits(len(rows), "shift table length"))
        dims = len(rows[0])
        if dims not in (1, 2):
            raise ValueError(f"lattice dimensionality must be 1 or 2, got {dims}")
        if any(len(row) != dims for row in rows):
            raise ValueError(f"every displacement must have {dims} component(s)")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "table", rows)

    @cached_property
    def _layout(self) -> _Layout:
        axes = list(zip(*self.table))
        lo = tuple(map(min, axes))
        g = tuple(math.gcd(*(d - low for d in axis)) or 1 for axis, low in zip(axes, lo))
        span = tuple(max(axis) - low for axis, low in zip(axes, lo))
        return _Layout(lo, g, span, tuple(tuple(map(operator.sub, row, lo)) for row in self.table))


def _window_cost(n: int, growth: tuple[int, ...], per_site: int = 1) -> tuple[int, int]:
    # The cost of an n-step walk whose window starts as one site and grows by
    # ``growth[a]`` sites a step along axis a: ``per_site`` times the sites
    # of its final window, and its work, ``per_site`` times the sites each
    # step writes, prod_a (1 + t growth_a) at step t, summed over t = 1..n,
    # plus _STEP_OVERHEAD a step.
    r = [*growth, 0]
    s1, s2 = n * (n + 1) // 2, n * (n + 1) * (2 * n + 1) // 6
    sites = n + (r[0] + r[1]) * s1 + r[0] * r[1] * s2
    return per_site * math.prod(1 + n * x for x in growth), per_site * sites + n * _STEP_OVERHEAD


def build_shift(preset: str, custom_table=None) -> DisplacementTable:
    """Construct a conditional shift: preset ``SHIFT_PRESETS[preset]``, or,
    for ``preset == "custom"``, ``DisplacementTable(custom_table)``.

    ``custom_table`` holds one displacement per coin basis state, each an
    int (1D) or a pair of ints (2D), ``2**q`` entries for q in 1..3.  The
    choice follows the preset rule of ``core._preset_data``.
    """
    return DisplacementTable(_preset_data(SHIFT_PRESETS, preset, custom_table, "shift preset", "shift",
                                          "a displacement table"))


def _shifted_shape(shape: tuple[int, ...], table: DisplacementTable) -> tuple[int, ...]:
    # Shape of the coin-major window that shifting a window of ``shape`` fills.
    return shape[:1] + tuple(map(operator.add, shape[1:], table._layout.span))


def _shift_amplitudes(
    window: np.ndarray,
    origin: tuple[int, ...],
    table: DisplacementTable,
    out: np.ndarray | None = None,
    start: int = 0,
) -> tuple[np.ndarray, tuple[int, ...]]:
    # Copies each coin plane of ``window`` into ``out`` by one slice copy;
    # the input is never written.  ``window`` holds the rows from ``start``
    # on of a window whose index 0 sits at ``origin``; ``out`` is the
    # zero-filled window that shifting that whole window fills, a fresh one
    # when None.  Returns ``out`` and its origin.
    offsets = table._layout.offsets
    if out is None:
        out = np.zeros(_shifted_shape(window.shape, table), dtype=window.dtype)
    rows = window.shape[1]
    if window.ndim == 2:
        for c, (x,) in enumerate(offsets):
            out[c, start + x:start + x + rows] = window[c]
    else:
        cols = window.shape[2]
        for c, (x, y) in enumerate(offsets):
            out[c, start + x:start + x + rows, y:y + cols] = window[c]
    return out, tuple(map(operator.add, origin, table._layout.lo))


def apply_shift(state: WalkState, table: DisplacementTable) -> WalkState:
    """Translate every amplitude by its coin-conditioned displacement.

    The amplitude at ``(pos, c)`` moves to ``(pos + table.table[c], c)``
    unchanged in value.  Distinct (position, coin) pairs never collide, so
    the norm is preserved exactly.  A walk step shifts without it; it
    remains only because the benchmark's tracer times it.

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
