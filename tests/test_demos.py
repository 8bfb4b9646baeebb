"""Every demo runs to exit 0 and prints something: each ``demos/*.py``
script in this process, as ``python demos/<script>.py`` would run it, and
each ``demos/*.ini`` config through ``entwalk.cli.run``.  The README's
example config runs too, and the CI workflow loads as YAML.

A demo config that a golden config pins prints the golden csv bytes:
``demos/compare_100.ini``, which the benchmark's ``paper_batch`` runs, is
``compare_positions`` of ``tests/golden/manifest.json``.
"""

import hashlib
import json
import runpy
from pathlib import Path

import pytest

from entwalk.cli import EXIT_OK, run
from golden.make_manifest import MANIFEST

ROOT = Path(__file__).resolve().parent.parent
DEMO_DIR = ROOT / "demos"
DEMOS = sorted(DEMO_DIR.glob("*.py")) + sorted(DEMO_DIR.glob("*.ini"))

# Demo config -> the golden config whose csv digest its stdout has.
PINNED = {"compare_100.ini": "compare_positions"}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_0_and_prints(capsys, demo):
    if demo.suffix == ".py":
        try:
            runpy.run_path(str(demo), run_name="__main__")
        except SystemExit as exc:  # a script may end in sys.exit(main())
            assert exc.code in (None, 0)
    else:
        assert run(str(demo), quiet=True) == EXIT_OK
    out = capsys.readouterr().out
    assert out
    if demo.name in PINNED:
        golden = json.loads(MANIFEST.read_text(encoding="utf-8"))[PINNED[demo.name]]["sha256"]["csv"]
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == golden


def test_readme_example_config_runs(tmp_path, monkeypatch):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    start = readme.index("```ini\n") + len("```ini\n")
    (tmp_path / "example.ini").write_text(readme[start:readme.index("```", start)], encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert run("example.ini", quiet=True) == EXIT_OK
    assert (tmp_path / "walk.csv").read_text(encoding="utf-8").startswith("position,quantum,classical\n")


def test_ci_workflow_loads():
    # a plain scalar holding ": " (say, in a grep pattern) makes the file
    # invalid, and CI then runs no job at all
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8"))
    assert workflow["jobs"]["tier1"]["timeout-minutes"] > 0
