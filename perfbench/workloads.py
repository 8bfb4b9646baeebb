"""The benchmark's workloads: which `entwalk run` requests each one sends.

Every request is a config file plus `--override` items.  Its set-up twin is
the same request with the walk length zeroed, so it pays interpreter start,
import, config parsing, coin/operator/shift validation and a trivial emit,
and no walk.

The coin states, coin matrix and shift table below are written out here,
not read from the program, so the output checks do not share its presets.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_R = 1.0 / math.sqrt(2.0)
_HADAMARD = np.array([[_R, _R], [_R, -_R]], dtype=complex)

PHI_PLUS = np.array([_R, 0, 0, _R], dtype=complex)
GHZ3 = np.array([_R, 0, 0, 0, 0, 0, 0, _R], dtype=complex)
HADAMARD_2 = np.kron(_HADAMARD, _HADAMARD)
S_EC = ((1,), (0,), (0,), (-1,))


@dataclass(frozen=True)
class Request:
    """One `entwalk run` request and what its output must be.

    ``config`` is a path relative to the repository root, or ``None`` when
    the benchmark writes ``text`` to a file of its own.  ``kind`` and
    ``params`` select the output check in :mod:`checks`; ``walk_key`` names
    the config value that the set-up twin sets to 0 ("both" for steps and
    classical.n, None when there is no walk).
    """

    name: str
    kind: str
    params: dict
    walk_key: str | None
    text: str | None = None
    config: str | None = None

    def config_file(self, root: Path, workdir: Path) -> Path:
        """The config to pass to `entwalk run`, written under workdir if needed."""
        if self.config is not None:
            return root / self.config
        path = workdir / "configs" / f"{self.name}.ini"
        if not path.is_file() or path.read_text() != self.text:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(self.text)
        return path

    def overrides(self, zeroed: bool) -> list[str]:
        if not zeroed or self.walk_key is None:
            return []
        keys = ["steps", "classical.n"] if self.walk_key == "both" else [self.walk_key]
        return [f"{key}=0" for key in keys]


WALK1D_BELL = Request(
    name="walk1d_bell",
    kind="walk1d",
    params={"steps": 400},
    walk_key="steps",
    text="""\
[experiment]
mode = quantum
coin = phi_plus
coin_operator = hadamard_n
shift = s_ec
steps = 400
output_format = csv
""",
)

WALK2D_GHZ = Request(
    name="walk2d_ghz",
    kind="walk2d",
    params={"steps": 50},
    walk_key="steps",
    text="""\
[experiment]
mode = quantum
coin = ghz3
coin_operator = hadamard_n
shift = s_2d
steps = 50
output_format = gnuplot
""",
)

COMPARE_100 = Request(
    name="compare_100",
    kind="compare",
    params={"steps": 100, "n": 100, "positions": (40, 50, 60, 70)},
    walk_key="both",
    config="demos/compare_100.ini",
)

COMPARE_FULL = Request(
    name="compare_full",
    kind="compare",
    params={"steps": 100, "n": 100, "positions": None},
    walk_key="both",
    text="""\
[experiment]
mode = compare
coin = phi_plus
coin_operator = hadamard_n
shift = s_ec
steps = 100
output_format = csv

[classical]
model = binomial
n = 100
p = 0.5
""",
)

ENTROPY_GHZ3 = Request(
    name="entropy_ghz3",
    kind="entropy",
    params={"qubits": 3},
    walk_key=None,
    text="""\
[experiment]
mode = entropy
coin = ghz3
output_format = csv
""",
)

CORRELATED_1000 = Request(
    name="correlated_1000",
    kind="correlated",
    params={"n": 1000, "rho": 0.5},
    walk_key="classical.n",
    text="""\
[experiment]
mode = classical
output_format = csv

[classical]
model = correlated
n = 1000
rho = 0.5
""",
)

# n = 2000 overflows float(math.comb(n, h)) in the program today, so this
# request exits 1.  It stays: the failure is a known defect that a fix
# should turn into a success in this workload.
BINOMIAL_2000 = Request(
    name="binomial_2000",
    kind="binomial",
    params={"n": 2000},
    walk_key="classical.n",
    text="""\
[experiment]
mode = classical
output_format = csv

[classical]
model = binomial
n = 2000
p = 0.5
""",
)

PAPER_BATCH = (COMPARE_100, COMPARE_FULL, ENTROPY_GHZ3, CORRELATED_1000, BINOMIAL_2000)

# Workload name -> its requests.  BENCHMARK.json says why each is here.
WORKLOADS: dict[str, tuple[Request, ...]] = {
    "walk1d_bell": (WALK1D_BELL,),
    "walk2d_ghz": (WALK2D_GHZ,),
    "paper_batch": PAPER_BATCH,
}

# Whole passes a run always makes, whatever the host's or program's speed.
# Each fits in 52 s at typical request times; the slowest measured stretch a
# paper_batch run to about 70 s.  paper_batch's 18 passes put its tail near
# the middle of its 18 correlated_1000 samples, not at their fast edge.  A workload
# that mixes request types takes latency_tail_s over exactly this many passes
# (see run.py).
MIN_PASSES = {"walk1d_bell": 14, "walk2d_ghz": 16, "paper_batch": 18}


def passes(workload: str, seed: int):
    """Endless sequence of request passes; the seed only orders paper_batch."""
    rng = random.Random(seed)
    requests = list(WORKLOADS[workload])
    while True:
        rng.shuffle(requests)
        yield tuple(requests)
