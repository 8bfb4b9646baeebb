"""In-process passes over a workload's requests, with and without tracing.

A pass sends each of the workload's requests once through ``entwalk.cli.run``
in this process, with stdout sent to a file, and checks every output like
the fresh-process client does.  Per-layer numbers come from traced passes;
the untraced passes next to them give the tracing overhead.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads as wl
from client import child_env

IMPORT_PROBE = "import time; t = time.perf_counter(); import entwalk.cli; print(time.perf_counter() - t)"

QUANTUM_LAYERS = ("cli", "coins", "shifts", "engine", "core")
LAYERS = {"walk1d_bell": QUANTUM_LAYERS, "walk2d_ghz": QUANTUM_LAYERS,
          "paper_batch": QUANTUM_LAYERS + ("classical",)}
BATCH_ONLY = ("coins.entropy_s", "classical.binomial_s", "classical.correlated_s", "classical.dp_updates")


def time_import(root: Path) -> float:
    """Seconds a fresh interpreter spends in ``import entwalk.cli``."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=child_env(root), capture_output=True,
                         text=True, check=True, timeout=60)
    return float(out.stdout)


def unit(key: str) -> str:
    if key.endswith("_per_s"):
        return "1/s"
    if key.endswith("_s"):
        return "s"
    if key.endswith("_bytes"):
        return "B"
    if key.endswith(("_fill", "_frac")):
        return "ratio"
    return "count"


def metric_keys(workload: str) -> list[str]:
    """Per-layer metric names of one workload, without the workload prefix."""
    keys = [
        "cli.run_s", "cli.emit_s", "cli.emit_bytes", "cli.emit_rows",
        "coins.build_s", "shifts.build_s",
        "engine.evolve_s", "engine.step_s", "engine.site_steps_per_s", "engine.site_steps",
        "engine.coin_macs", "engine.support_sites", "engine.window_fill", "engine.readout_s",
        "shifts.apply_shift_s", "core.walkstate_build_s", "shifts.amplitudes_moved",
        "core.distribution_build_s",
    ]
    if workload == "paper_batch":
        keys += BATCH_ONLY
    keys += [f"self.{layer}_s" for layer in LAYERS[workload]]
    return keys + ["trace.unattributed_s", "trace.overhead_frac"]


def per_layer_names() -> list[str]:
    """Every name a traced run reports, in report order."""
    return ["pkg.import_s"] + [f"{w}.{k}" for w in wl.WORKLOADS for k in metric_keys(w)]


@functools.lru_cache(maxsize=None)
def dp_updates(n: int, rho: float) -> int:
    """(position, move) updates made by the correlated walk's exact DP.

    The default move map goes +1 on hh, -1 on tt and 0 otherwise; a move
    whose outcome has probability 0 is skipped by the DP, so it is not counted.
    """
    moves = [d for d, weight in ((1, 1 + rho), (0, 1 - rho), (-1, 1 + rho)) if weight > 0]
    support, total = {0}, 0
    for _ in range(n):
        total += len(support) * len(moves)
        support = {p + d for p in support for d in moves}
    return total


def data_rows(text: str) -> int:
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    has_header = bool(lines) and not text.startswith("#")
    return len(lines) - has_header


class Runner:
    """Runs passes in this process and keeps each pass's numbers and spans."""

    def __init__(self, root: Path, checker, workdir: Path, seed: int):
        self.root = root
        self.cli = importlib.import_module("entwalk.cli")
        self.checker = checker
        self.workdir = workdir
        self.orders = {w: wl.passes(w, seed) for w in wl.WORKLOADS}
        self.traced: dict[str, list[dict]] = {w: [] for w in wl.WORKLOADS}
        self.untraced: dict[str, list[float]] = {w: [] for w in wl.WORKLOADS}
        self.spans: list[tuple[str, list]] = []
        self.requests = self.failed = self.wrong = 0

    def warm_up(self) -> None:
        """Send every request once with the walk length zeroed, uncounted, so
        first-call costs do not land in the first timed pass."""
        for requests in wl.WORKLOADS.values():
            for request in requests:
                self._send(request, zeroed=True)

    def _send(self, request: wl.Request, zeroed: bool = False) -> tuple[float, int, Path]:
        config = request.config_file(self.root, self.workdir)
        out_path = self.workdir / "inproc" / f"{request.name}.out"
        out_path.parent.mkdir(parents=True, exist_ok=True)
        with open(out_path, "w") as fh, contextlib.redirect_stdout(fh):
            start = time.perf_counter()
            try:
                code = self.cli.run(str(config), request.overrides(zeroed), quiet=True)
            except Exception:  # an uncaught error is a failed request, as exit 1 is
                code = 1
            wall = time.perf_counter() - start
        return wall, code, out_path

    def run_pass(self, workload: str, traced: bool) -> None:
        requests = next(self.orders[workload])
        tracer = tracing.Tracer()
        sent = []
        with tracer.instrument() if traced else contextlib.nullcontext():
            for request in requests:
                tracer.request = f"{workload}/{len(self.traced[workload])}/{request.name}"
                sent.append((request, *self._send(request)))
                if traced and sent[-1][2] == 0:
                    tracing.check_spans(tracer.spans, tracer.request, request.kind,
                                        request.params.get("steps", 0))
        texts = []
        for request, _, code, out_path in sent:
            text = out_path.read_text(errors="replace")
            texts.append(text)
            self.requests += 1
            if code != 0:
                self.failed += 1
            elif self.checker.verify(request, False, text) is not None:
                self.failed += 1
                self.wrong += 1
        walls = [wall for _, wall, _, _ in sent]
        if not traced:
            self.untraced[workload].append(math.fsum(walls))
            return
        self.spans.append((f"{workload}/{len(self.traced[workload])}", tracer.spans))
        self.traced[workload].append(self._layer_metrics(workload, requests, tracer, walls, texts))

    def _layer_metrics(self, workload, requests, tracer, walls, texts) -> dict:
        spans, walks = tracer.spans, tracer.walks
        selfs = tracing.self_times(spans)
        probes = tracing.probe_walks(walks)
        step_total = tracing.span_total(spans, "engine.step")
        site_steps = sum(w.site_steps for w in walks)
        sampled = tracing.sampled_step_times(spans, walks)
        boxes = sum(tracing.reachable_box(w.cfg) for w in walks)
        m = {
            "cli.run_s": math.fsum(walls),
            "cli.emit_s": tracing.span_total(spans, "cli.emit"),
            "cli.emit_bytes": sum(len(t.encode()) for t in texts),
            "cli.emit_rows": sum(data_rows(t) for t in texts),
            "coins.build_s": tracing.span_total(spans, "coins.build"),
            "shifts.build_s": tracing.span_total(spans, "shifts.build"),
            "engine.evolve_s": tracing.span_total(spans, "engine.evolve"),
            "engine.step_s": statistics.median(sampled) if sampled else 0.0,
            "engine.site_steps_per_s": site_steps / step_total if step_total else 0.0,
            "engine.site_steps": site_steps,
            "engine.coin_macs": sum(w.site_steps * w.cfg.coin_op.dim ** 2 for w in walks),
            "engine.support_sites": sum(w.support_sites for w in walks),
            "engine.window_fill": sum(w.support_sites for w in walks) / boxes if boxes else 0.0,
            "engine.readout_s": tracing.span_total(spans, "engine.readout"),
            "shifts.apply_shift_s": probes["apply_shift_s"],
            "core.walkstate_build_s": probes["walkstate_build_s"],
            "shifts.amplitudes_moved": probes["amplitudes_moved"],
            "core.distribution_build_s": tracing.span_total(spans, "core.distribution"),
            "coins.entropy_s": tracing.span_total(spans, "coins.entropy"),
            "classical.binomial_s": tracing.span_total(spans, "classical.binomial"),
            "classical.correlated_s": tracing.span_total(spans, "classical.correlated"),
            "classical.dp_updates": sum(dp_updates(r.params["n"], r.params["rho"])
                                        for r in requests if r.kind == "correlated"),
            "trace.unattributed_s": math.fsum(walls) - math.fsum(selfs.values()),
        }
        m.update({f"self.{layer}_s": selfs.get(layer, 0.0) for layer in LAYERS[workload]})
        return m

    def metrics(self) -> dict:
        out = {}
        for workload in wl.WORKLOADS:
            passes = self.traced[workload]
            for key in metric_keys(workload):
                if key == "trace.overhead_frac":
                    traced = statistics.median(p["cli.run_s"] for p in passes)
                    value = traced / statistics.median(self.untraced[workload]) - 1.0
                else:
                    # Counts repeat exactly, so median_low keeps them whole.
                    pick = statistics.median_low if unit(key) in ("count", "B") else statistics.median
                    value = pick(p[key] for p in passes)
                out[f"{workload}.{key}"] = (value, unit(key))
        return out

    def summary(self) -> dict:
        return {"requests": self.requests, "failed": self.failed, "wrong": self.wrong}

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for pass_id, spans in self.spans:
                for name, start, end, parent, request in spans:
                    fh.write(json.dumps({"pass": pass_id, "name": name, "start": start, "end": end,
                                         "parent": parent, "request": request}) + "\n")

