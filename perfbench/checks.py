"""Output checks: every request's output is compared with an independent
reference before it counts as a success.

References come from ``tests/oracles.py`` where they fit in memory: the dense
truncated-window evolution for 1D walks, exact rational binomials, and the
closed-form Gram entropy.  The correlated classical walk is checked against
its closed-form moments (mean 0, variance n(1+rho)/2).  The 2D GHZ walk is
too large for the dense oracle, so it is compared with a distribution the
program produced at a recorded commit (``reference/walk2d_ghz.json.gz``),
and its norm is checked.

csv and gnuplot print 12 significant digits and print values below 1e-15 as
0, so a value passes when it is within ``REL_TOL * expected + ABS_TOL`` of
the reference.  A probability moved by 1e-9 fails that test and the norm
test.
"""

from __future__ import annotations

import gzip
import hashlib
import importlib.util
import json
import math
import os
from fractions import Fraction
from pathlib import Path

import numpy as np

import workloads as wl

REL_TOL = 1e-11
ABS_TOL = 1e-14
NORM_TOL = 1e-10
MOMENT_TOL = 1e-9

REFERENCE_2D = Path(__file__).resolve().parent / "reference" / "walk2d_ghz.json.gz"


class CheckError(Exception):
    """An output that differs from its reference."""


def _load_oracles(root: Path):
    spec = importlib.util.spec_from_file_location("oracles", root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Checker:
    """Computes each reference once and checks request outputs against it.

    The dense 1D oracle takes tens of seconds at 400 steps, so its result is
    cached under ``cache_dir``, keyed by the oracle's source and arguments.
    """

    def __init__(self, root: Path, cache_dir: Path):
        self.cache_dir = cache_dir
        self.oracles = _load_oracles(root)
        self._oracle_sha = hashlib.sha256((root / "tests" / "oracles.py").read_bytes()).hexdigest()
        self._memo: dict = {}

    def verify(self, request: wl.Request, zeroed: bool, text: str) -> str | None:
        """None if ``text`` is the request's correct output, else the reason."""
        try:
            self.check(request, zeroed, text)
        except CheckError as exc:
            return f"{request.name}: {exc}"
        return None

    def check(self, request: wl.Request, zeroed: bool, text: str) -> None:
        """Raise CheckError unless ``text`` is the request's correct output."""
        params = dict(request.params)
        if zeroed:
            for key in ("steps", "n"):
                if key in params:
                    params[key] = 0
        getattr(self, "_check_" + request.kind)(params, text)

    # -- references ------------------------------------------------------

    def prepare(self, request: wl.Request) -> None:
        """Compute the request's references now, so no check waits on them."""
        params = request.params
        if request.kind in ("walk1d", "compare"):
            self.walk1d_probs(params["steps"])
        if request.kind in ("binomial", "compare"):
            self.binomial_probs(params["n"])
        if request.kind == "walk2d":
            self.walk2d_probs(params["steps"])

    def _memoized(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def walk1d_probs(self, steps: int) -> dict[int, float]:
        """P(x) of the phi_plus / Hadamard x2 / s_ec walk from the dense oracle."""
        return self._memoized(("walk1d", steps), lambda: self._dense_walk1d(steps))

    def _dense_walk1d(self, steps: int) -> dict[int, float]:
        tag = hashlib.sha256(f"{self._oracle_sha} phi_plus hadamard2 s_ec {steps}".encode())
        path = self.cache_dir / f"dense_walk1d_{steps}_{tag.hexdigest()[:16]}.json"
        if path.exists():
            return {int(k): v for k, v in json.loads(path.read_text()).items()}
        amps = self.oracles.dense_evolve(wl.PHI_PLUS, wl.HADAMARD_2, wl.S_EC, steps)
        probs = {pos[0]: float(np.vdot(vec, vec).real) for pos, vec in amps.items()}
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(probs))
        os.replace(tmp, path)
        return probs

    def binomial_probs(self, n: int) -> dict[int, float]:
        return self._memoized(
            ("binomial", n),
            lambda: {k: float(v) for k, v in self.oracles.exact_binomial_walk(n, Fraction(1, 2)).items()},
        )

    def walk2d_probs(self, steps: int) -> dict[tuple[int, int], float]:
        if steps == 0:
            return {(0, 0): 1.0}
        ref = self._memoized("walk2d", lambda: load_reference_2d())
        if steps != ref["steps"]:
            raise CheckError(f"no 2D reference for {steps} steps")
        return ref["probs"]

    # -- per-kind checks --------------------------------------------------

    def _check_walk1d(self, params, text):
        observed = _parse_csv(text, "position,probability")
        expected = self.walk1d_probs(params["steps"])
        _same_support(observed, expected)
        _close(observed, expected)
        _normalized(observed)

    def _check_walk2d(self, params, text):
        observed = _parse_gnuplot_2d(text)
        expected = self.walk2d_probs(params["steps"])
        xs = [x for x, _ in expected]
        ys = [y for _, y in expected]
        box = {(x, y) for x in range(min(xs), max(xs) + 1) for y in range(min(ys), max(ys) + 1)}
        if set(observed) != box:
            raise CheckError("gnuplot grid is not the bounding box of the support")
        _close(observed, expected)
        _normalized(observed)

    def _check_compare(self, params, text):
        rows = _parse_csv(text, "position,quantum,classical", columns=2)
        quantum = self.walk1d_probs(params["steps"])
        classical = self.binomial_probs(params["n"])
        if params["positions"] is not None:
            wanted = set(params["positions"])
        else:
            wanted = {k for k, p in quantum.items() if p > 0} | {k for k, p in classical.items() if p > 0}
        if set(rows) != wanted:
            raise CheckError(f"compare rows {sorted(rows)[:5]}... are not the expected positions")
        _close({k: v[0] for k, v in rows.items()}, {k: quantum.get(k, 0.0) for k in wanted})
        _close({k: v[1] for k, v in rows.items()}, {k: classical.get(k, 0.0) for k in wanted})

    def _check_entropy(self, params, text):
        observed = _parse_csv(text, "cut,entropy_bits")
        qubits = params["qubits"]
        expected = {cut: self.oracles.gram_entropy(wl.GHZ3, cut, qubits) for cut in range(1, qubits)}
        if set(observed) != set(expected):
            raise CheckError(f"entropy cuts {sorted(observed)}, expected {sorted(expected)}")
        _close(observed, expected)

    def _check_correlated(self, params, text):
        observed = _parse_csv(text, "position,probability")
        total = _normalized(observed)
        mean = sum(k * p for k, p in observed.items()) / total
        var = sum(k * k * p for k, p in observed.items()) / total - mean * mean
        want_var = params["n"] * (1.0 + params["rho"]) / 2.0
        if abs(mean) > MOMENT_TOL * max(1.0, math.sqrt(want_var)):
            raise CheckError(f"mean {mean!r}, expected 0")
        if abs(var - want_var) > MOMENT_TOL * max(1.0, want_var):
            raise CheckError(f"variance {var!r}, expected {want_var!r}")

    def _check_binomial(self, params, text):
        observed = _parse_csv(text, "position,probability")
        expected = self.binomial_probs(params["n"])
        _same_support(observed, expected)
        _close(observed, expected)
        _normalized(observed)


def load_reference_2d() -> dict:
    with gzip.open(REFERENCE_2D, "rt") as fh:
        doc = json.load(fh)
    return {
        "steps": doc["steps"],
        "probs": {(x, y): p for x, y, p in doc["distribution"]},
    }


def _parse_csv(text: str, header: str, columns: int = 1) -> dict:
    # Integer label in the first column, then `columns` float columns.
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise CheckError(f"expected header {header!r}, got {lines[:1]!r}")
    out = {}
    last = None
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != 1 + columns:
            raise CheckError(f"malformed row {line!r}")
        try:
            label = int(cells[0])
            values = [float(c) for c in cells[1:]]
        except ValueError:
            raise CheckError(f"malformed row {line!r}") from None
        if last is not None and label <= last:
            raise CheckError(f"rows not strictly ascending at {line!r}")
        last = label
        out[label] = values[0] if columns == 1 else tuple(values)
    return out


def _parse_gnuplot_2d(text: str) -> dict:
    lines = text.splitlines()
    if not lines or lines[0] != "# position_x position_y probability":
        raise CheckError(f"unexpected gnuplot header {lines[:1]!r}")
    out = {}
    for line in lines[1:]:
        if not line:
            continue
        cells = line.split()
        try:
            key, value = (int(cells[0]), int(cells[1])), float(cells[2])
        except (ValueError, IndexError):
            raise CheckError(f"malformed row {line!r}") from None
        if len(cells) != 3 or key in out:
            raise CheckError(f"malformed or repeated row {line!r}")
        out[key] = value
    return out


def _same_support(observed: dict, expected: dict) -> None:
    support = {k for k, p in expected.items() if p > 0}
    if set(observed) != support:
        extra = sorted(set(observed) - support)[:3]
        missing = sorted(support - set(observed))[:3]
        raise CheckError(f"support differs: extra {extra}, missing {missing}")


def _close(observed: dict, expected: dict) -> None:
    for key in set(observed) | set(expected):
        got, want = observed.get(key, 0.0), expected.get(key, 0.0)
        if not abs(got - want) <= REL_TOL * abs(want) + ABS_TOL:
            raise CheckError(f"value at {key}: got {got!r}, expected {want!r}")


def _normalized(observed: dict) -> float:
    total = math.fsum(observed.values())
    if not abs(total - 1.0) <= NORM_TOL:
        raise CheckError(f"probabilities sum to {total!r}")
    return total
