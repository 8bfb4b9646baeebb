"""Every demo runs to exit 0 and prints something: each ``demos/*.py``
script in this process, as ``python demos/<script>.py`` would run it, and
each ``demos/*.ini`` config through ``entwalk.cli.run``.  The README's
library quickstart and example config run too, and the CI workflow loads
as YAML.

Every demo's stdout is pinned by its sha256.  A script's digest is written
here; a demo config that a golden config pins prints the golden csv bytes:
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

# Demo script -> the sha256 of its stdout.
SCRIPT_DIGESTS = {
    "bell_walk_small_steps.py": "44c5122662193683c9806716ce806a2dbadc508f57b9634b6516ca5d220e5dfd",
    "entropy_tour.py": "0790d14673a23577e598b9c1c1be2eecafcf0ca85cc4a21b662811429be04069",
    "quantum_vs_classical.py": "b1dac3db21b2e27703672c82eeb6f592677459cc35880abb206f030b86fcee7c",
    "shift_gallery.py": "cd70eed699fc89eabe44c04a0276de1346f9a5e124162200d1e0c0403f68f613",
}


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
        digest = json.loads(MANIFEST.read_text(encoding="utf-8"))[PINNED[demo.name]]["sha256"]["csv"]
    else:
        digest = SCRIPT_DIGESTS[demo.name]
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_readme_quickstart_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    start = readme.index("```python\n") + len("```python\n")
    exec(compile(readme[start:readme.index("```", start)], "README.md", "exec"), {})
    p0, entropy = capsys.readouterr().out.splitlines()
    assert p0.startswith("0.171245") and entropy == "1.0"


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
