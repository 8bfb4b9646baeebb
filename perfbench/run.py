"""entwalk benchmark: fresh-process `entwalk run` latency on the paper's
workloads, and a traced in-process run that splits the time by module.

    python3 perfbench/run.py --workload walk2d_ghz --seed 1 --seconds 52 --trace 0
    python3 perfbench/run.py --self-test

Run it from the root of a checkout; it uses ``src`` and ``tests/oracles.py``
from there and writes only under ``.perfbench_out``.

--trace 0: one client in a closed loop, one request in flight at a time.
Each request is a fresh process running `entwalk run <config> --quiet`, timed
from spawn to exit with its output written, and its output is checked.  A
request that exits nonzero or writes a wrong output counts as failed and the
run goes on.  Set-up time is measured on the same requests with the walk
length set to 0, one after each pass of the workload.

--trace 1: a traced in-process run of one pass of every workload (the named
workload first), repeated while another round fits in the time, each traced
pass next to an untraced one; every per-layer metric is reported on every
such run.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Everything else, with the environment,
goes to ``.perfbench_out/results``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from client import Client, Outcome  # noqa: E402

SETUP_REQUESTS = 7
IMPORT_SAMPLES = 5
TAIL_BEYOND = 10
E2E_METRICS = ("latency_p50_s", "latency_tail_s", "goodput_rps", "setup_s", "peak_rss_mb")


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with TAIL_BEYOND samples
    above it, but never below the median when there are too few samples."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND, n // 2 + 1)
    return ordered[rank - 1], 100.0 * rank / n


def median_wall(outcomes: list[Outcome]) -> float:
    """Median wall time, a failed request counting as slower than any other."""
    return statistics.median(o.wall_s if o.ok else math.inf for o in outcomes)


def e2e_run(args, client: Client, report: dict) -> dict:
    requests = wl.WORKLOADS[args.workload]
    for request in requests:
        client.checker.prepare(request)
    # Warm-up, not counted: the first request writes the .pyc files, and a
    # whole pass brings every request's files and code paths in before timing.
    client.send(requests[0], zeroed=True)
    for request in requests:
        client.send(request, zeroed=False)
    orders = wl.passes(args.workload, args.seed)
    zeroed = itertools.cycle(requests)
    min_passes = wl.MIN_PASSES[args.workload]
    setup: list[Outcome] = []
    passes: list[list[Outcome]] = []
    start = time.perf_counter()
    # Whole passes only, and never fewer than min_passes.
    while len(passes) < min_passes or time.perf_counter() - start < args.seconds:
        passes.append([client.send(r, zeroed=False) for r in next(orders)])
        # One set-up request per pass spreads them over the run, so they see
        # the same machine as the timed requests, not one burst at the start.
        setup.append(client.send(next(zeroed), zeroed=True))
    while len(setup) < SETUP_REQUESTS:
        setup.append(client.send(next(zeroed), zeroed=True))
    timed = [o for p in passes for o in p]
    failed = [o for o in timed if not o.ok]
    # A failure counts as +inf in the medians.  The tail counts successes
    # only, since paper_batch's failed fifth would put it at +inf.  Where a
    # pass mixes request types, the tail is taken over the first min_passes
    # passes only: a fixed sample count fixes its rank, so the same request
    # type sets it on every run (on paper_batch the 62nd of 72 successes, its
    # eighth correlated_1000 sample).  A single-type workload has no such
    # boundary and takes it over every pass, for the most samples.
    tail_passes = passes[:min_passes] if len(requests) > 1 else passes
    tail_samples = [o.wall_s for p in tail_passes for o in p if o.ok]
    if not tail_samples:
        raise SystemExit(f"no request of {args.workload} succeeded; see {client.workdir / 'out'}")
    tail_s, tail_pct = tail(tail_samples)
    metrics = {
        "latency_p50_s": (median_wall(timed), "s"),
        "latency_tail_s": (tail_s, "s"),
        "goodput_rps": ((len(timed) - len(failed)) / math.fsum(o.wall_s for o in timed), "1/s"),
        "setup_s": (median_wall(setup), "s"),
        "peak_rss_mb": (max(o.rss_mb for o in timed), "MB"),
    }
    for name, what in (("latency_p50_s", "timed"), ("setup_s", "set-up")):
        if math.isinf(metrics[name][0]):
            raise SystemExit(f"half or more of the {what} requests of {args.workload} failed; "
                             f"see {client.workdir / 'out'}")
    report.update(
        requests=len(timed),
        passes=len(passes),
        failed=len(failed),
        failed_frac=len(failed) / len(timed),
        tail_percentile=tail_pct,
        tail_samples=len(tail_samples),
        setup_requests=len(setup),
        failures=sorted({(o.request, o.exit_code, o.wrong) for o in failed + [o for o in setup if not o.ok]}),
        outcomes=[o.__dict__ for o in setup + timed],
    )
    report["wrong"] = sum(o.wrong is not None for o in setup + timed)
    print(f"{args.workload}: {len(timed)} requests in {len(passes)} passes, {len(failed)} failed, "
          f"{len(setup)} set-up requests, tail = p{tail_pct:.1f} of {len(tail_samples)} successes "
          f"in {len(tail_passes)} passes")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<16} {value:.6g} {unit}")
    print(f"  {'failed_frac':<16} {report['failed_frac']:.6g} 1")
    return metrics


def trace_run(args, checker, report: dict) -> dict:
    import inprocess

    import_times = [inprocess.time_import(ROOT) for _ in range(IMPORT_SAMPLES)]
    order = [args.workload] + [w for w in wl.WORKLOADS if w != args.workload]
    for workload in order:
        for request in wl.WORKLOADS[workload]:
            checker.prepare(request)
    runner = inprocess.Runner(ROOT, checker, Path(report["workdir"]), args.seed)
    runner.warm_up()
    start = time.perf_counter()
    rounds = 0
    round_s = 0.0
    # A round is long (every workload, twice), so start one only if it fits.
    while rounds == 0 or time.perf_counter() - start + round_s <= args.seconds:
        round_start = time.perf_counter()
        for workload in order:
            runner.run_pass(workload, traced=rounds % 2 == 1)
            runner.run_pass(workload, traced=rounds % 2 == 0)
        round_s = time.perf_counter() - round_start
        rounds += 1
    metrics = {"pkg.import_s": (statistics.median(import_times), "s")}
    metrics.update(runner.metrics())
    report.update(rounds=rounds, **runner.summary())
    runner.write_spans(Path(report["workdir"]) / "results" / f"spans-seed{args.seed}.jsonl")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:.6g} {unit}")
    return metrics


def environment(args) -> dict:
    blas = {k: os.environ.get(k, "unset") for k in
            ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    try:
        config = np.show_config(mode="dicts")
        blas["library"] = config["Build Dependencies"]["blas"]["name"]
    except Exception:  # show_config's layout is not a stable API
        blas["library"] = "unknown"
    return {
        "seed": args.seed,
        "commit": git_commit(ROOT),
        "src_sha256": src_digest(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": blas,
    }


def git_commit(root: Path) -> str | None:
    """HEAD of the git checkout at root, or None if root is not one."""
    # The ceiling stops git from finding a repository that merely encloses root.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def src_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=52.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true", help="check the checks, then exit")
    args = ap.parse_args(argv)

    missing = [p for p in ("src/entwalk/cli.py", "tests/oracles.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {ROOT} is not an entwalk checkout (missing {', '.join(missing)})", file=sys.stderr)
        return 2
    from checks import Checker

    workdir = ROOT / ".perfbench_out"
    checker = Checker(ROOT, workdir / "cache")
    sys.path.insert(0, str(ROOT / "src"))
    if args.self_test:
        import selftest

        return selftest.main(checker, workdir, list(E2E_METRICS))
    if args.workload is None:
        ap.error("--workload is required")

    report = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "environment": environment(args), "workdir": str(workdir)}
    if args.trace:
        import tracing

        try:
            metrics = trace_run(args, checker, report)
        except tracing.TraceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    else:
        with Client(checker, workdir) as client:
            metrics = e2e_run(args, client, report)
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    results = workdir / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps(report, indent=1, default=str))
    print(f"environment: {json.dumps(report['environment'])}")
    print(json.dumps({
        "correct": report["wrong"] == 0,
        "attempted": report["requests"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
