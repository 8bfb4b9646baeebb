"""Fresh-process client: one `entwalk run` process per request, timed from
spawn to exit, with its peak RSS and a check of what it wrote."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
ENTRY = "import sys; from entwalk.cli import console_main; sys.exit(console_main())"
REQUEST_TIMEOUT_S = 60.0


def child_env(root: Path) -> dict:
    """Environment of a request: ``src`` on the path and bytecode caching on,
    as for an installed package, whatever the calling shell sets."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


@dataclass
class Outcome:
    request: str
    zeroed: bool
    wall_s: float
    rss_mb: float
    exit_code: int
    wrong: str | None = None

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and self.wrong is None


class Client:
    """Sends requests as fresh processes, through the launcher, and checks
    what they write.  Use it as a context manager: leaving the block ends the
    launcher and waits for it."""

    def __init__(self, checker, workdir: Path, command: list[str] | None = None):
        self.checker = checker
        self.workdir = workdir
        self.command = command or [sys.executable, "-c", ENTRY]
        self.env = child_env(ROOT)
        self.launcher = None

    def __enter__(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.launcher = subprocess.Popen(
            [sys.executable, "-S", str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=self.workdir,
        )
        return self

    def __exit__(self, *exc):
        self.launcher.stdin.close()
        try:
            self.launcher.wait(timeout=REQUEST_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.launcher.kill()
            self.launcher.wait()
        self.launcher.stdout.close()

    def send(self, request: wl.Request, zeroed: bool) -> Outcome:
        argv = self.command + ["run", str(request.config_file(ROOT, self.workdir)), "--quiet"]
        for item in request.overrides(zeroed):
            argv += ["--override", item]
        out_path = self.workdir / "out" / f"{request.name}.out"
        out_path.parent.mkdir(parents=True, exist_ok=True)
        job = {"argv": argv, "env": self.env, "stdout": str(out_path),
               "stderr": str(out_path.with_suffix(".err")), "timeout": REQUEST_TIMEOUT_S}
        self.launcher.stdin.write(json.dumps(job) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise RuntimeError("the request launcher exited")
        reply = json.loads(reply)
        outcome = Outcome(request.name, zeroed, reply["wall_s"], reply["rss_kb"] / 1024.0, reply["exit_code"])
        if outcome.exit_code == 0:
            outcome.wrong = self.checker.verify(request, zeroed, out_path.read_text(errors="replace"))
        return outcome
