"""Walk states and distributions for the tests, written as dicts by position.

A ``WalkState`` is built from a window only; :func:`site_state` packs
``{position: coin vector}`` sites into their bounding box and hands that
window over, and :func:`sites` reads a state's window back as that dict.
A ``Distribution`` holds label and value arrays only;
:func:`probs` reads them back as ``{position: probability}``.
"""

from __future__ import annotations

import numpy as np

from entwalk.core import Distribution, SiteAmplitudes, WalkState


def site_state(dims: int, qubits: int, sites: dict) -> WalkState:
    """A ``complex128`` state over the bounding box of ``sites``, zero elsewhere."""
    keys = [tuple(pos) for pos in sites]
    lo = tuple(min((k[a] for k in keys), default=0) for a in range(dims))
    extent = tuple(max((k[a] for k in keys), default=-1) - lo[a] + 1 for a in range(dims))
    window = np.zeros((2**qubits, *extent), dtype=complex)
    for key, vec in zip(keys, sites.values()):
        window[(slice(None), *(x - o for x, o in zip(key, lo)))] = vec
    return WalkState(dims=dims, qubits=qubits, amplitudes=SiteAmplitudes(window, lo))


def sites(state: WalkState) -> dict:
    """``{position: coin vector}`` over ``state``'s sites with any nonzero
    component, in sorted order: a position tuple, the window's column there."""
    window, origin = state.amplitudes.window, state.amplitudes.origin
    return {tuple(i + o for i, o in zip(hit, origin)): window[(slice(None), *hit)]
            for hit in np.argwhere(window.any(axis=0)).tolist()}


def probs(dist: Distribution) -> dict:
    """``{position: probability}`` over ``dist``'s support, in its row order:
    an int position in 1D, an ``(x, y)`` tuple in 2D."""
    axes = dist.labels([off.tolist() for off in dist.offsets])
    return dict(zip(axes[0] if len(axes) == 1 else zip(*axes), dist.values.tolist()))
