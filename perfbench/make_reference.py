"""Write the 2D reference distribution that the walk2d_ghz check compares with.

The walk is too large for the dense oracle, so its reference is the
program's own json output (full float precision) at a recorded commit.  Run
it from the root of a git checkout whose ``src`` is the commit to record:

    python3 perfbench/make_reference.py

It only needs re-running if the reference itself is found to be wrong.
"""

from __future__ import annotations

import gzip
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads as wl
from checks import REFERENCE_2D
from run import git_commit


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    commit = git_commit(root)
    if commit is None:
        print(f"{root} is not a git checkout; the reference must record its commit", file=sys.stderr)
        return 1
    dirty = subprocess.run(
        ["git", "status", "--porcelain", "--", "src"], cwd=root, capture_output=True, text=True, check=True
    ).stdout.strip()
    if dirty:
        print("src/ has uncommitted changes; the reference must come from a commit", file=sys.stderr)
        return 1
    steps = wl.WALK2D_GHZ.params["steps"]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "walk2d.ini"
        config.write_text(wl.WALK2D_GHZ.text.replace("output_format = gnuplot", "output_format = json"))
        out = subprocess.run(
            [sys.executable, "-m", "entwalk.cli", "run", str(config), "--quiet"],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
    doc = json.loads(out)
    reference = {
        "commit": commit,
        "steps": steps,
        "config": doc["config"],
        "norm": doc["metadata"]["norm"],
        "distribution": [[x, y, p] for (x, y), p in doc["distribution"]],
    }
    REFERENCE_2D.parent.mkdir(exist_ok=True)
    with gzip.GzipFile(REFERENCE_2D, "wb", mtime=0) as fh:
        fh.write(json.dumps(reference, sort_keys=True).encode())
    print(f"wrote {REFERENCE_2D} from commit {commit}: {len(reference['distribution'])} sites")
    return 0


if __name__ == "__main__":
    sys.exit(main())
