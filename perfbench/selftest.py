"""Fast self-test of the benchmark's own checks and failure accounting.

    python3 perfbench/run.py --self-test

It builds correct outputs from the references, confirms they pass, moves one
probability by 1e-9 and confirms that fails, and sends requests to stand-in
programs that exit 1 or print a wrong output, which must count as failed.
It also confirms that every function the traced run wraps exists in
entwalk, and that BENCHMARK.json names exactly the metrics the code reports.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import inprocess
import tracing
from client import Client
import workloads as wl

PERTURBATION = 1e-9


def _fmt(p: float) -> str:
    # The program's csv / gnuplot rule: 12 significant digits, 0 below 1e-15.
    return "0" if p < 1e-15 else f"{p:.12g}"


def _csv_1d(probs: dict) -> str:
    return "position,probability\n" + "".join(f"{k},{_fmt(p)}\n" for k, p in sorted(probs.items()))


def _gnuplot_2d(probs: dict) -> str:
    xs = [x for x, _ in probs]
    ys = [y for _, y in probs]
    lines = ["# position_x position_y probability"]
    for x in range(min(xs), max(xs) + 1):
        lines += [f"{x} {y} {_fmt(probs.get((x, y), 0.0))}" for y in range(min(ys), max(ys) + 1)]
        lines.append("")
    return "\n".join(lines) + "\n"


def _perturbed(probs: dict) -> dict:
    peak = max(probs, key=probs.get)
    return {**probs, peak: probs[peak] + PERTURBATION}


def main(checker, workdir: Path, e2e_names: list[str]) -> int:
    problems = []
    walk1d = replace(wl.WALK1D_BELL, params={"steps": 20})
    cases = [
        (walk1d, checker.walk1d_probs(20), _csv_1d),
        (wl.WALK2D_GHZ, checker.walk2d_probs(wl.WALK2D_GHZ.params["steps"]), _gnuplot_2d),
        (replace(wl.BINOMIAL_2000, params={"n": 60}), checker.binomial_probs(60), _csv_1d),
    ]
    for request, probs, render in cases:
        if checker.verify(request, False, render(probs)) is not None:
            problems.append(f"{request.name}: a correct output was rejected")
        if checker.verify(request, False, render(_perturbed(probs))) is None:
            problems.append(f"{request.name}: a probability moved by {PERTURBATION} passed")

    bad_output = workdir / "selftest" / "perturbed.csv"
    bad_output.parent.mkdir(parents=True, exist_ok=True)
    bad_output.write_text(_csv_1d(_perturbed(checker.walk1d_probs(20))))
    stand_ins = {
        "exit 1": "import sys; sys.exit(1)",
        "wrong output": f"import sys; sys.stdout.write(open({str(bad_output)!r}).read())",
    }
    for label, code in stand_ins.items():
        with Client(checker, workdir, [sys.executable, "-c", code]) as client:
            outcome = client.send(walk1d, zeroed=False)
        if outcome.ok:
            problems.append(f"a request whose program gave {label} counted as a success")

    missing = tracing.missing_targets()
    if missing:
        problems.append(f"traced functions missing from entwalk: {', '.join(missing)}")

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    if [m["name"] for m in spec["per_layer"]] != inprocess.per_layer_names():
        problems.append("BENCHMARK.json per_layer names differ from what the traced run reports")
    if sorted(m["name"] for m in spec["end_to_end"]) != sorted(e2e_names):
        problems.append("BENCHMARK.json end_to_end names differ from what the run reports")

    for problem in problems:
        print(f"self-test FAILED: {problem}", file=sys.stderr)
    if not problems:
        print("self-test passed")
    return 1 if problems else 0
