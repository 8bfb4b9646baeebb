"""The benchmark's tracer reads entwalk through fixed names.

``perfbench/tracing.py`` wraps the functions its ``SPANS`` table names and
stops a traced run whose request misses a span that ``REQUIRED_SPANS``
asks for.  Each request of each benchmark workload runs here in-process
under the tracer, so a change that renames or bypasses a traced call fails
tier-1, not only the benchmark.  The perfbench files are read, never
changed.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import entwalk.cli

ROOT = Path(__file__).resolve().parents[1]


def _perfbench(name):
    # a perfbench module, loaded from its file without putting perfbench/ on sys.path
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


tracing = _perfbench("tracing")
workloads = _perfbench("workloads")

REQUESTS = {f"{workload}/{request.name}": request
            for workload, requests in workloads.WORKLOADS.items() for request in requests}


@pytest.mark.parametrize("name", REQUESTS)
def test_benchmark_request_records_the_spans_the_tracer_requires(tmp_path, capsys, name):
    bench = REQUESTS[name]
    config = bench.config_file(ROOT, tmp_path)
    tracer = tracing.Tracer()
    with tracer.instrument():
        tracer.request = name
        # looked up through the module, so the tracer's wrapper of run is called
        assert entwalk.cli.run(str(config), quiet=True) == 0
    assert capsys.readouterr().err == ""
    tracing.check_spans(tracer.spans, name, bench.kind, bench.params.get("steps", 0))
