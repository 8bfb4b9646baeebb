"""Walk evolution: compose a coin operator and a conditional shift into one
step, iterate it, and read out marginal probability distributions.

A state is one dense coin-major window (see :class:`WalkState`).  One step
allocates one fresh window, grown by the shift's displacement range, and
applies the coin unitary to every site at once, one broadcast product per
coin column, into a workspace; the shift then copies each coin plane into
the grown window.  :func:`evolve` keeps one workspace for the whole walk.
A walk whose coin state and coin operator are both real runs on ``float64``
windows, half the memory of ``complex128`` ones, with the same bits.
A walk too large for a window is refused before it starts.  No
renormalization is ever applied, so any unitarity defect accumulates
visibly in the state norm instead of being hidden.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    MAX_WINDOW_AMPLITUDES,
    CoinOperator,
    CoinState,
    Distribution,
    SiteAmplitudes,
    WalkState,
)
from .shifts import DisplacementTable, _shift_amplitudes, _shifted_shape

__all__ = [
    "MAX_WALK_WORK",
    "WalkConfig",
    "check_walk_cost",
    "evolve",
    "initial_state",
    "position_distribution",
    "step",
]

# Cap on a walk's amplitude updates, summed over its steps: about 100-170
# million a second on float64 windows and 45-90 million on complex128 ones
# (one 2-vCPU host, numpy 2.4.6), so one to four minutes of stepping.
MAX_WALK_WORK = 10**10

# Amplitude updates charged for one step's fixed cost, so a walk whose window
# never grows is capped too.  A one-site step takes ~18-25 us with a 2-qubit
# coin and ~32-34 us with a 3-qubit one on that host, the time of ~1600-3800
# updates at the rates above; so the cap stops such a walk at ~2.4 million
# steps, under a minute and a half.
_STEP_OVERHEAD = 4096


@dataclass(frozen=True)
class WalkConfig:
    """Complete description of a walk run.

    Fields must agree: coin state, coin operator and shift share one qubit
    count, and the initial position (default: origin) has one coordinate per
    lattice dimension of the shift.
    """

    coin_state: CoinState
    coin_op: CoinOperator
    shift: DisplacementTable
    steps: int
    initial_position: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.coin_state.qubits != self.coin_op.qubits:
            raise ValueError(
                f"coin state has {self.coin_state.qubits} qubit(s) "
                f"but operator acts on {self.coin_op.qubits}"
            )
        if self.shift.qubits != self.coin_state.qubits:
            raise ValueError(
                f"shift conditions on {self.shift.qubits} qubit(s) "
                f"but coin holds {self.coin_state.qubits}"
            )
        if self.steps < 0:
            raise ValueError(f"step count must be nonnegative, got {self.steps}")
        pos = self.initial_position
        if pos is None:
            pos = (0,) * self.shift.dims
        elif isinstance(pos, int):
            pos = (pos,)
        else:
            pos = tuple(int(x) for x in pos)
        if len(pos) != self.shift.dims:
            raise ValueError(
                f"initial position {pos} does not have {self.shift.dims} component(s)"
            )
        object.__setattr__(self, "initial_position", pos)


def initial_state(cfg: WalkConfig) -> WalkState:
    """Product state: the coin state attached to a single lattice site.

    The window is ``float64`` when neither the coin state nor the coin
    operator has a nonzero imaginary part, so every amplitude of the walk
    is real; otherwise it is ``complex128``.
    """
    amplitudes = cfg.coin_state.amplitudes
    if cfg.coin_op._real_matrix is not None and not any(amplitudes.imag.tolist()):
        amplitudes = amplitudes.real
    window = amplitudes.reshape((-1,) + (1,) * cfg.shift.dims).copy()
    return WalkState(
        dims=cfg.shift.dims,
        qubits=cfg.coin_state.qubits,
        amplitudes=SiteAmplitudes(window, cfg.initial_position),
    )


def step(
    state: WalkState,
    coin_op: CoinOperator,
    shift: DisplacementTable,
    *,
    scratch: np.ndarray | None = None,
) -> WalkState:
    """One walk step: coin unitary on every site of the window, then the conditional shift.

    The returned window has the state's dtype, except that a ``float64``
    state under an operator with a nonzero imaginary part is promoted to
    ``complex128``.  A real product rounds as the real part of the complex
    one, so a real walk has the bits of the same walk run in ``complex128``.

    ``scratch`` is an optional workspace: a flat array of the returned
    window's dtype and of at least the state's window size, which the coin
    overwrites.  It changes no result, and the returned state never shares
    its memory, so one workspace can serve every step of a walk.
    """
    if coin_op.qubits != state.qubits:
        raise ValueError(f"operator acts on {coin_op.qubits} qubit(s), state holds {state.qubits}")
    if shift.qubits != state.qubits:
        raise ValueError(f"shift conditions on {shift.qubits} qubit(s), state holds {state.qubits}")
    if shift.dims != state.dims:
        raise ValueError(f"shift is {shift.dims}D, state is {state.dims}D")
    sites = state.amplitudes
    shape, size = sites.window.shape, sites.window.size
    matrix = coin_op.matrix
    if sites.window.dtype == np.float64 and coin_op._real_matrix is not None:
        matrix = coin_op._real_matrix
    if scratch is not None and scratch.dtype != matrix.dtype:
        raise ValueError(f"scratch is {scratch.dtype}, the step writes {matrix.dtype}")
    # The grown window comes first: until the shift fills it, its leading
    # amplitudes hold the coin's products.  So at most three window-sized
    # arrays are alive at once: this state's, the tossed planes and this.
    grown = np.empty(_shifted_shape(shape, shift), dtype=matrix.dtype)
    product = grown.reshape(-1)[:size].reshape(shape)
    tossed = np.empty(shape, dtype=matrix.dtype) if scratch is None else scratch[:size].reshape(shape)
    # Coin column j times coin plane j, summed over j in ascending order,
    # each product rounded before it is added and no BLAS: fused
    # multiply-adds would leave rounding residues where a site's components
    # cancel exactly, and exact zeros define the support.
    columns = matrix.reshape(matrix.shape + (1,) * state.dims)
    np.multiply(columns[:, 0], sites.window[0], out=tossed)
    for j in range(1, coin_op.dim):
        tossed += np.multiply(columns[:, j], sites.window[j], out=product)
    window, origin = _shift_amplitudes(tossed, sites.origin, shift, out=grown)
    return WalkState(dims=state.dims, qubits=state.qubits, amplitudes=SiteAmplitudes(window, origin))


def _walk_cost(cfg: WalkConfig) -> tuple[int, int]:
    """Amplitudes in the final window, and the walk's work in amplitude updates."""
    n, dim = cfg.steps, cfg.coin_op.dim
    r = [*cfg.shift._layout.span, 0]
    # Step t writes a window of prod_a (1 + t r_a) sites; sum it over t = 1..n.
    s1, s2 = n * (n + 1) // 2, n * (n + 1) * (2 * n + 1) // 6
    sites = n + (r[0] + r[1]) * s1 + r[0] * r[1] * s2
    return dim * math.prod(1 + n * x for x in r), dim * sites + n * _STEP_OVERHEAD


def check_walk_cost(cfg: WalkConfig) -> int:
    """Refuse a walk its window cannot hold; return the final window's amplitude count.

    Raises ValueError, without allocating anything, when the final window
    would exceed ``MAX_WINDOW_AMPLITUDES`` or the whole walk ``MAX_WALK_WORK``.
    """
    window, work = _walk_cost(cfg)
    if window > MAX_WINDOW_AMPLITUDES:
        raise ValueError(
            f"{cfg.steps} steps need a window of {window} amplitudes, over {MAX_WINDOW_AMPLITUDES=}"
        )
    if work > MAX_WALK_WORK:
        raise ValueError(f"{cfg.steps} steps need {work} amplitude updates, over {MAX_WALK_WORK=}")
    return window


def evolve(cfg: WalkConfig) -> WalkState:
    """State after ``cfg.steps`` applications of the step operator.

    Raises ValueError, before allocating anything, for a walk that
    :func:`check_walk_cost` refuses.
    """
    window = check_walk_cost(cfg)
    state = initial_state(cfg)
    # One workspace for every step's tossed planes: no step's window is
    # larger than the final one, and every step keeps the first's dtype.
    scratch = np.empty(window, dtype=state.amplitudes.window.dtype)
    for _ in range(cfg.steps):
        state = step(state, cfg.coin_op, cfg.shift, scratch=scratch)
    return state


def _weights(state: WalkState) -> np.ndarray:
    # |amplitude|^2 as a site-major contiguous array, shape (extent..., 2**q).
    # numpy sums a contiguous row pairwise, so a site's total does not
    # depend on the window layout; a plane-by-plane sum would round
    # differently.  A real window squares once: re**2 + 0.0 is re**2.
    window = state.amplitudes.window
    site_major = window.transpose(*range(1, window.ndim), 0)
    weights = np.square(site_major.real, out=np.empty(site_major.shape))
    if window.dtype != np.float64:
        weights += np.square(site_major.imag)
    return weights


def position_distribution(state: WalkState) -> Distribution:
    """Marginal over the coin: P(pos) = sum_c |amplitude(pos, c)|^2.

    The support is the sites with any nonzero coin component.  1D positions
    are labeled by plain ints, 2D positions by (x, y) tuples.
    """
    sites = state.amplitudes
    hits = sites.occupied().nonzero()
    probs = _weights(state).sum(axis=-1)[hits].tolist()
    axes = [[i + o for i in hit.tolist()] for hit, o in zip(hits, sites.origin)]
    labels = axes[0] if state.dims == 1 else zip(*axes)
    return Distribution(dict(zip(labels, probs)))
