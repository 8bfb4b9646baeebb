"""Walk evolution: compose a coin operator and a conditional shift into one
step, iterate it, and read out marginal probability distributions.

A state is one dense coin-major window (see :class:`WalkState`).  One step
allocates one fresh window, grown by the shift's displacement range, and
applies the coin unitary to every site at once, one broadcast product per
coin column, into a workspace; the shift then copies each coin plane into
the grown window.  :func:`evolve` keeps one workspace for the whole walk.
A walk runs in numpy's promotion of its coin state and coin operator, so
one whose coin state and coin operator are both real runs on ``float64``
windows, half the memory of ``complex128`` ones, with the same bits.
A walk too large for a window is refused when its :class:`WalkConfig` is
built.  No renormalization is ever applied, so any unitarity defect
accumulates visibly in the state norm instead of being hidden.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CoinOperator, CoinState, Distribution, SiteAmplitudes, WalkState
from .core import _check_qubits, _coordinates, _step_count
from .shifts import DisplacementTable, _shift_amplitudes, _shifted_shape, _window_cost

__all__ = [
    "MAX_WALK_WORK",
    "MAX_WINDOW_AMPLITUDES",
    "WalkConfig",
    "evolve",
    "initial_state",
    "position_distribution",
    "step",
]

# Cap on a walk's amplitude updates, summed over its steps: about 100-170
# million a second on float64 windows and 45-90 million on complex128 ones
# (one 2-vCPU host, numpy 2.4.6), so one to four minutes of stepping.  With
# shifts._STEP_OVERHEAD sites charged a step, it stops a walk whose window
# never grows at ~9.7, ~4.9 and ~2.4 million steps with a 1-, 2- and 3-qubit
# coin, one to two minutes each.
MAX_WALK_WORK = 10**10

# Cap on the amplitudes of one walk-state window, 16 bytes each in
# complex128 and 8 in float64; a walk step holds two windows of about this
# size, and a workspace of two coin blocks (_BLOCK_AMPLITUDES).
MAX_WINDOW_AMPLITUDES = 2**23

# Amplitudes in one block of a step's coin: the coin runs block by block
# over rows of the window, so a step holds two windows and a workspace of
# two blocks.  On ghz3/s_2d N=50 (one 2-vCPU host), 2**13-amplitude blocks
# took 10.3 ms, 2**14 7.8, 2**15 7.3 and one block a step 7.8; at N=200,
# 2**15 blocks halve a walk's time, as the step's arrays then stay in cache.
_BLOCK_AMPLITUDES = 2**15

# numpy (2.4) runs the coin's (dim, 1) x (n,) broadcast multiply through its
# ufunc buffers when dim > 2 and n is at most a third of the buffer size
# (8192 elements by default): ~1.0-1.5 ns an element, against ~0.3 ns
# unbuffered (one 2-vCPU host).  So a dim > 2 step whose largest block holds
# more than _UFUNC_BUFSIZE // 3 sites runs its coin with buffers of
# _UFUNC_BUFSIZE elements, which numpy then leaves unused; a smaller block is
# buffered at either size, so its step skips the ~2 us of setting and
# resetting the size.  Buffering changes no product's bits.
_UFUNC_BUFSIZE = 512


@dataclass(frozen=True)
class WalkConfig:
    """Complete description of a walk run, checked once, when it is built.

    Fields must agree: coin state, coin operator and shift share one qubit
    count, ``steps`` is a nonnegative int (anything ``operator.index``
    takes, stored as a Python int), and the initial position (default:
    origin) has one coordinate per lattice dimension of the shift.  Last,
    without allocating anything, a walk whose final window would exceed
    ``MAX_WINDOW_AMPLITUDES`` or whose work would exceed ``MAX_WALK_WORK``
    is refused.  Every refusal is a ValueError; :func:`evolve` runs any
    config that was built.
    """

    coin_state: CoinState
    coin_op: CoinOperator
    shift: DisplacementTable
    steps: int
    initial_position: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        _check_qubits(self.coin_state.qubits, self.coin_op, self.shift)
        steps = _step_count(self.steps)
        object.__setattr__(self, "steps", steps)
        pos = self.initial_position
        pos = (0,) * self.shift.dims if pos is None else _coordinates(pos, "initial position")
        if len(pos) != self.shift.dims:
            raise ValueError(
                f"initial position {pos} does not have {self.shift.dims} component(s)"
            )
        object.__setattr__(self, "initial_position", pos)
        window, work = _walk_cost(self)
        if window > MAX_WINDOW_AMPLITUDES:
            raise ValueError(
                f"{steps} steps need a window of {window} amplitudes, over {MAX_WINDOW_AMPLITUDES=}"
            )
        if work > MAX_WALK_WORK:
            raise ValueError(f"{steps} steps need {work} amplitude updates, over {MAX_WALK_WORK=}")


def initial_state(cfg: WalkConfig) -> WalkState:
    """Product state: the coin state attached to a single lattice site.

    The window's dtype is ``np.result_type`` of the coin state's amplitudes
    and the coin operator's matrix: ``float64`` when both are real, so every
    amplitude of the walk is real, and ``complex128`` otherwise.
    """
    amplitudes = cfg.coin_state.amplitudes
    dtype = np.result_type(amplitudes, cfg.coin_op.matrix)
    window = amplitudes.astype(dtype).reshape((-1,) + (1,) * cfg.shift.dims)
    return WalkState(
        dims=cfg.shift.dims,
        qubits=cfg.coin_state.qubits,
        amplitudes=SiteAmplitudes(window, cfg.initial_position),
    )


def _blocks(shape: tuple[int, ...]) -> int:
    # How many blocks of rows the coin takes a window of ``shape`` in:
    # ceil(amplitudes / _BLOCK_AMPLITUDES), but no more than it has rows.
    # Their sizes differ by one row at most, so none holds more than
    # _BLOCK_AMPLITUDES plus one row.  A row is one site in 1D and one line
    # of sites along y in 2D.
    return min(shape[1], -(-math.prod(shape) // _BLOCK_AMPLITUDES))


def step(
    state: WalkState,
    coin_op: CoinOperator,
    shift: DisplacementTable,
    *,
    scratch: np.ndarray | None = None,
) -> WalkState:
    """One walk step: coin unitary on every site of the window, then the conditional shift.

    The returned window's dtype is ``np.result_type`` of the state's window
    and the operator's matrix: a ``float64`` state under a ``complex128``
    operator is promoted to ``complex128``, and a ``complex128`` state runs
    a ``float64`` operator cast to ``complex128`` (at most 8 x 8 entries).
    A real product rounds as the real part of the complex one, so a real
    walk has the bits of the same walk run in ``complex128``.

    The coin runs block by block over rows of the state's window, into a
    workspace of two blocks, and the shift copies each block's planes into
    the new window; so a step holds the state's window, the new one and the
    workspace.  A block holds at most ``_BLOCK_AMPLITUDES`` amplitudes plus
    one row of the window.  ``scratch`` is an optional workspace: a
    flat array of the returned window's dtype and of at least two blocks
    (twice the state's window size always suffices), which the coin
    overwrites.  It changes no result, and the returned state never shares
    its memory, so one workspace can serve every step of a walk.
    """
    _check_qubits(state.qubits, coin_op, shift)
    if shift.dims != state.dims:
        raise ValueError(f"shift is {shift.dims}D, state is {state.dims}D")
    sites = state.amplitudes
    window = sites.window
    dtype = np.result_type(window, coin_op.matrix)
    rows, blocks = window.shape[1], _blocks(window.shape)
    need = 2 * -(-rows // blocks) * (window.size // rows)
    if scratch is None:
        scratch = np.empty(need, dtype=dtype)
    elif scratch.dtype != dtype or scratch.size < need:
        raise ValueError(
            f"scratch holds {scratch.size} {scratch.dtype}, the step needs {need} {dtype}"
        )
    grown = np.zeros(_shifted_shape(window.shape, shift), dtype=dtype)
    # Coin column j times coin plane j, summed over j in ascending order,
    # each product rounded before it is added and no BLAS: fused
    # multiply-adds would leave rounding residues where a site's components
    # cancel exactly, and exact zeros define the support.
    columns = coin_op.matrix.astype(dtype, copy=False).reshape(coin_op.matrix.shape + (1,) * state.dims)
    widest = need // (2 * coin_op.dim)  # sites in the largest block
    unbuffered = coin_op.dim > 2 and widest > _UFUNC_BUFSIZE // 3
    bufsize = np.setbufsize(_UFUNC_BUFSIZE) if unbuffered else None
    try:
        for b in range(blocks):
            start = b * rows // blocks
            block = window[:, start:(b + 1) * rows // blocks]
            size = block.size
            tossed = scratch[:size].reshape(block.shape)
            product = scratch[size:2 * size].reshape(block.shape)
            np.multiply(columns[:, 0], block[0], out=tossed)
            for j in range(1, coin_op.dim):
                tossed += np.multiply(columns[:, j], block[j], out=product)
            grown, origin = _shift_amplitudes(tossed, sites.origin, shift, out=grown, start=start)
    finally:
        if bufsize is not None:
            np.setbufsize(bufsize)
    return WalkState(dims=state.dims, qubits=state.qubits, amplitudes=SiteAmplitudes(grown, origin))


def _walk_cost(cfg: WalkConfig) -> tuple[int, int]:
    """Amplitudes in the final window, and the walk's work in amplitude updates."""
    return _window_cost(cfg.steps, cfg.shift._layout.span, cfg.coin_op.dim)


def evolve(cfg: WalkConfig) -> WalkState:
    """State after ``cfg.steps`` applications of the step operator.

    The walk's caps were checked when ``cfg`` was built (:class:`WalkConfig`).
    """
    window = _walk_cost(cfg)[0]
    state = initial_state(cfg)
    # One workspace for every step's two coin blocks, in the dtype that
    # every step keeps: no step's block is larger than the final window, nor
    # than _BLOCK_AMPLITUDES plus one row of the final window.
    row = window // (1 + cfg.steps * cfg.shift._layout.span[0])
    scratch = np.empty(2 * min(window, _BLOCK_AMPLITUDES + row), dtype=state.amplitudes.window.dtype)
    for _ in range(cfg.steps):
        state = step(state, cfg.coin_op, cfg.shift, scratch=scratch)
    return state


def position_distribution(state: WalkState) -> Distribution:
    """Marginal over the coin: P(pos) = sum_c |amplitude(pos, c)|^2.

    The support is the sites with any nonzero coin component, held as the
    window indices of the state's window; see :class:`entwalk.core.Distribution`.
    """
    sites = state.amplitudes
    window = sites.window
    flat = np.flatnonzero(sites.occupied())
    # Only the occupied sites' coin rows, gathered site-major into one
    # contiguous array and squared in place.  numpy sums a contiguous row
    # pairwise, so a site's total does not depend on the window's layout; a
    # plane-by-plane sum would round differently.  A real window squares
    # once: re**2 + 0.0 is re**2.
    rows = window.reshape(len(window), -1).T[flat]
    if rows.dtype == np.float64:
        weights = np.square(rows, out=rows)
    else:
        parts = np.square(rows.view(np.float64), out=rows.view(np.float64))
        weights = np.add(parts[:, 0::2], parts[:, 1::2])
    offsets = (flat,) if state.dims == 1 else np.divmod(flat, window.shape[2])
    return Distribution(origin=sites.origin, offsets=offsets, values=weights.sum(axis=1))
