"""Walk states for the tests, written as ``{position: coin vector}`` sites.

A ``WalkState`` is built from a window only; :func:`site_state` packs the
sites into their bounding box and hands that window over.
"""

from __future__ import annotations

import numpy as np

from entwalk.core import SiteAmplitudes, WalkState


def site_state(dims: int, qubits: int, sites: dict) -> WalkState:
    """A ``complex128`` state over the bounding box of ``sites``, zero elsewhere."""
    keys = [tuple(pos) for pos in sites]
    lo = tuple(min((k[a] for k in keys), default=0) for a in range(dims))
    extent = tuple(max((k[a] for k in keys), default=-1) - lo[a] + 1 for a in range(dims))
    window = np.zeros((2**qubits, *extent), dtype=complex)
    for key, vec in zip(keys, sites.values()):
        window[(slice(None), *(x - o for x, o in zip(key, lo)))] = vec
    return WalkState(dims=dims, qubits=qubits, amplitudes=SiteAmplitudes(window, lo))
