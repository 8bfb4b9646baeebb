"""In-process traced run: spans around calls into each entwalk module.

The benchmark records spans from its own files: while a traced pass runs,
the public functions named in ``SPANS`` are replaced, in every entwalk module
that holds them, by wrappers that record (name, start, end, parent, request
id), and the two value classes get wrapped ``__init__`` methods.  Nothing in
``src`` changes.  A name the program no longer has stops the traced run with
a :class:`TraceError`, and so does a pass whose spans miss a call its request
must make (:func:`check_spans`): a layer that silently read 0 would look like
a gain.  Renaming or bypassing a traced function therefore means updating
``SPANS`` here.

A span's layer is the text before its first dot.  A layer's self time is the
time its spans cover minus the time their child spans cover.  The request's
wall time minus the sum of all self times is reported as unattributed.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import time
from dataclasses import dataclass, field

# (span name, module, attribute).  Private names are included where they
# carry a layer's work inside a public call: the dict shift inside
# engine.step and the table writer behind compare and entropy output.
SPANS = (
    ("cli.run", "cli", "run"),
    ("cli.emit", "cli", "emit_distribution"),
    ("cli.emit", "cli", "_emit_table"),
    ("coins.build", "coins", "build_initial_coin"),
    ("coins.build", "coins", "build_coin_operator"),
    ("coins.entropy", "coins", "entanglement_entropy"),
    ("shifts.build", "shifts", "build_shift"),
    ("shifts.shift", "shifts", "_shift_amplitudes"),
    ("engine.evolve", "engine", "evolve"),
    ("engine.step", "engine", "step"),
    ("engine.readout", "engine", "position_distribution"),
    ("classical.binomial", "classical", "binomial_walk_distribution"),
    ("classical.correlated", "classical", "correlated_walk_distribution"),
)
CLASS_SPANS = (
    ("core.walkstate", "core", "WalkState"),
    ("core.distribution", "core", "Distribution"),
)
MODULES = ("core", "coins", "shifts", "engine", "classical", "cli")

# Spans every successful request of a kind must record, besides one
# engine.step and at least one shifts.shift per walk step.
QUANTUM_SPANS = ("cli.run", "cli.emit", "coins.build", "shifts.build", "engine.evolve",
                 "engine.step", "shifts.shift", "engine.readout", "core.walkstate", "core.distribution")
REQUIRED_SPANS = {
    "walk1d": QUANTUM_SPANS,
    "walk2d": QUANTUM_SPANS,
    "compare": QUANTUM_SPANS + ("classical.binomial",),
    "entropy": ("cli.run", "cli.emit", "coins.build", "coins.entropy"),
    "correlated": ("cli.run", "cli.emit", "classical.correlated", "core.distribution"),
    "binomial": ("cli.run", "cli.emit", "classical.binomial", "core.distribution"),
}

# Steps sampled per walk for engine.step_s and the shift / state-build probes.
SAMPLES_PER_WALK = 16


class TraceError(RuntimeError):
    """The traced run cannot attribute time as SPANS says it should."""


def missing_targets() -> list[str]:
    """SPANS and CLASS_SPANS entries that the importable entwalk lacks."""
    missing = []
    for _, mod, attr in SPANS + CLASS_SPANS:
        module = importlib.import_module(f"entwalk.{mod}")
        if getattr(module, attr, None) is None:
            missing.append(f"entwalk.{mod}.{attr}")
    return missing


def check_spans(spans: list[list], request_id: str, kind: str, steps: int) -> None:
    """Raise TraceError if a successful request's spans miss a required call."""
    counts: dict[str, int] = {}
    for span in spans:
        if span[4] == request_id:
            counts[span[0]] = counts.get(span[0], 0) + 1
    required = REQUIRED_SPANS[kind]
    if steps == 0:
        required = tuple(n for n in required if n not in ("engine.step", "shifts.shift"))
    missing = [name for name in required if not counts.get(name)]
    if missing:
        raise TraceError(f"{request_id}: no {', '.join(missing)} span; update tracing.SPANS")
    if "engine.step" in required and (counts["engine.step"] != steps or counts["shifts.shift"] < steps):
        raise TraceError(f"{request_id}: {counts['engine.step']} engine.step and {counts['shifts.shift']} "
                         f"shifts.shift spans for {steps} steps; update tracing.SPANS")


@dataclass
class Walk:
    """What the tracer saw of one evolve() call."""

    cfg: object
    steps_seen: int = 0
    site_steps: int = 0
    support_sites: int = 0
    samples: list = field(default_factory=list)

    @property
    def stride(self) -> int:
        return max(1, self.cfg.steps // SAMPLES_PER_WALK)


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, request id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.walks: list[Walk] = []
        self.request: str | None = None
        self._stack: list[int] = []

    def wrap(self, name, fn, before=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(*args)
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            span = [name, 0.0, 0.0, parent, self.request]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    # Hooks on evolve/step: O(1) work each, so they add little to the pass.
    def _on_evolve(self, cfg):
        self.walks.append(Walk(cfg))

    def _on_evolved(self, state):
        if self.walks:
            self.walks[-1].support_sites = len(state.amplitudes)

    def _on_step(self, state, *_):
        if not self.walks:
            return
        walk = self.walks[-1]
        walk.steps_seen += 1
        walk.site_steps += len(state.amplitudes)
        if walk.steps_seen % walk.stride == 0:
            walk.samples.append(state)

    @contextlib.contextmanager
    def instrument(self):
        """Install the wrappers for the duration of the block."""
        mods = {name: importlib.import_module(f"entwalk.{name}") for name in MODULES}
        holders = list(mods.values()) + [importlib.import_module("entwalk")]
        hooks = {
            "engine.evolve": (self._on_evolve, self._on_evolved),
            "engine.step": (self._on_step, None),
        }
        missing = missing_targets()
        if missing:
            raise TraceError(f"cannot trace {', '.join(missing)}: not in entwalk; update tracing.SPANS")
        undo = []
        try:
            for span, mod, attr in SPANS:
                original = getattr(mods[mod], attr)
                before, after = hooks.get(span, (None, None))
                wrapper = self.wrap(span, original, before, after)
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            undo.append((holder, key, value))
                            setattr(holder, key, wrapper)
            for span, mod, attr in CLASS_SPANS:
                cls = getattr(mods[mod], attr)
                undo.append((cls, "__init__", cls.__init__))
                cls.__init__ = self.wrap(span, cls.__init__)
            yield
        finally:
            for holder, key, value in reversed(undo):
                setattr(holder, key, value)


def self_times(spans: list[list]) -> dict[str, float]:
    """Per-layer self time: span duration minus its children's durations."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    out: dict[str, float] = {}
    for (name, start, end, _, _), inner in zip(spans, child):
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + (end - start) - inner
    return out


def span_total(spans: list[list], name: str) -> float:
    return sum(end - start for n, start, end, _, _ in spans if n == name)


def sampled_step_times(spans: list[list], walks: list[Walk]) -> list[float]:
    """Durations of the sampled steps, walk by walk, in call order."""
    evolves = [i for i, s in enumerate(spans) if s[0] == "engine.evolve"]
    out = []
    for walk, evolve_index in zip(walks, evolves):
        steps = [s for s in spans if s[0] == "engine.step" and s[3] == evolve_index]
        out += [s[2] - s[1] for k, s in enumerate(steps) if (k + 1) % walk.stride == 0]
    return out


def probe_walks(walks: list[Walk]) -> dict[str, float]:
    """Time apply_shift and WalkState construction on the sampled states.

    Runs outside any traced request, on the very states that entered the
    sampled steps, so (step - apply_shift) estimates the coin share.
    """
    shifts = importlib.import_module("entwalk.shifts")
    core = importlib.import_module("entwalk.core")
    shift_times, build_times, moved = [], [], 0
    for walk in walks:
        for state in walk.samples:
            t0 = time.perf_counter()
            shifts.apply_shift(state, walk.cfg.shift)
            t1 = time.perf_counter()
            core.WalkState(dims=state.dims, qubits=state.qubits, amplitudes=state.amplitudes)
            t2 = time.perf_counter()
            shift_times.append(t1 - t0)
            build_times.append(t2 - t1)
            moved += sum(int((vec != 0).sum()) for vec in state.amplitudes.values())
    return {
        "apply_shift_s": statistics.median(shift_times) if shift_times else 0.0,
        "walkstate_build_s": statistics.median(build_times) if build_times else 0.0,
        "amplitudes_moved": moved,
    }


def reachable_box(cfg) -> int:
    """Sites in the bounding box of every position reachable in cfg.steps."""
    size = 1
    for axis in range(cfg.shift.dims):
        ds = [row[axis] for row in cfg.shift.table]
        size *= cfg.steps * (max(ds) - min(ds)) + 1
    return size
