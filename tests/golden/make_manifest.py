"""Write ``tests/golden/manifest.json``: the bytes ``entwalk run`` prints
for a fixed set of configs, as sha256 digests, plus a few readable anchors.

Each config runs once per output format (csv, json, gnuplot) through
``entwalk.cli.run`` in this process, writing to stdout.  The configs cover
what the paper compares: the Bell coin under both operators and both 1D
shifts, the GHZ coin on ``s_3a``, ``s_3b`` and ``s_2d``, the theta0/theta1
coins, the single Hadamard coin, the Inui-Konno coin under H x H (a complex
walk under a real operator), the Bell coin under a custom Grover matrix
whose entries are complex with zero imaginary parts, the maximally correlated (binomial) and
``rho`` classical walks, a ``rho`` walk on moves of step 3 (its gnuplot box
steps by 3), and the compare and entropy tables.

A change that moves a printed byte regenerates the manifest and says so::

    PYTHONPATH=src python tests/golden/make_manifest.py

``tests/test_golden.py`` recomputes the manifest and compares it with the
committed one.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

from entwalk.cli import EXIT_OK, run

MANIFEST = Path(__file__).with_name("manifest.json")

FORMATS = ("csv", "json", "gnuplot")


def _quantum(coin: str, operator: str, shift: str, steps: int) -> str:
    return (f"[experiment]\nmode = quantum\ncoin = {coin}\ncoin_operator = {operator}\n"
            f"shift = {shift}\nsteps = {steps}\n")


# Name -> config text, without output_format or output.
CONFIGS = {
    "bell_hadamard_s_ec": _quantum("phi_plus", "hadamard_n", "s_ec", 100),
    "bell_hadamard_s_ec_prime": _quantum("phi_plus", "hadamard_n", "s_ec_prime", 50),
    "bell_y_s_ec": _quantum("phi_plus", "y_n", "s_ec", 100),
    "bell_y_s_ec_prime": _quantum("phi_plus", "y_n", "s_ec_prime", 50),
    "ghz3_s_3a": _quantum("ghz3", "hadamard_n", "s_3a", 60),
    "ghz3_s_3b": _quantum("ghz3", "hadamard_n", "s_3b", 30),
    "ghz3_s_2d": _quantum("ghz3", "hadamard_n", "s_2d", 20),
    "inui_konno_hadamard_s_ec": _quantum("inui_konno", "hadamard_n", "s_ec", 100),
    "bell_custom_real_grover_s_ec": _quantum("phi_plus", "custom", "s_ec", 100)
    + "coin_matrix = (-0.5, 0) (0.5, 0) (0.5, 0) (0.5, 0); (0.5, 0) (-0.5, 0) (0.5, 0) (0.5, 0); "
    "(0.5, 0) (0.5, 0) (-0.5, 0) (0.5, 0); (0.5, 0) (0.5, 0) (0.5, 0) (-0.5, 0)\n",
    "theta0_s_ec": _quantum("theta0", "hadamard_n", "s_ec", 100),
    "theta1_s_ec": _quantum("theta1", "hadamard_n", "s_ec", 100),
    "single_s_single": _quantum("single_hadamard_bias", "hadamard_n", "s_single", 100),
    "classical_binomial": "[experiment]\nmode = classical\n[classical]\nmodel = binomial\nn = 100\np = 0.5\n",
    "classical_rho": "[experiment]\nmode = classical\n[classical]\nmodel = correlated\nn = 100\nrho = 0.5\n",
    "classical_commensurate": "[experiment]\nmode = classical\n[classical]\nmodel = correlated\nn = 50\n"
                             "rho = 0.5\nmoves = hh:3 ht:0 th:0 tt:-3\n",
    "compare_full": "[experiment]\nmode = compare\nsteps = 60\n[classical]\nn = 60\n",
    "compare_positions": "[experiment]\nmode = compare\nsteps = 100\npositions = 40 50 60 70\n",
    "entropy_theta1": "[experiment]\nmode = entropy\ncoin = theta1\n",
    "entropy_ghz3": "[experiment]\nmode = entropy\ncoin = ghz3\n",
}


def _run(config_path: str, output_format: str) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(config_path, overrides=[f"output_format={output_format}"], quiet=True)
    if code != EXIT_OK:
        raise RuntimeError(f"{config_path} ({output_format}) exited {code}")
    return out.getvalue().encode("utf-8")


def _moments(rows: list, column: int) -> dict:
    # Anchors of one probability column over its printed rows: variance
    # (summed over the axes in 2D), P(origin) and support size, each sum
    # rounded once by fsum.
    probs = [row[column] for row in rows]
    points = [pos if isinstance(pos, list) else [pos] for pos, *_ in rows]
    variance = 0.0
    for axis in zip(*points):
        xs = list(map(float, axis))
        mean = math.fsum(p * x for p, x in zip(probs, xs))
        variance += math.fsum(p * x * x for p, x in zip(probs, xs)) - mean * mean
    origin = [p for pos, p in zip(points, probs) if not any(pos)]
    return {
        "variance": variance,
        "p_origin": origin[0] if origin else 0.0,
        "support": sum(p > 0.0 for p in probs),
    }


def _anchors(doc: dict) -> dict:
    if "distribution" in doc:
        return _moments(doc["distribution"], 1)
    if "comparison" in doc:
        rows = doc["comparison"]
        return {"quantum": _moments(rows, 1), "classical": _moments(rows, 2)}
    return {"entropy_bits": [s for _, s in doc["entropies"]]}


def build_manifest() -> dict:
    """The manifest of the importable entwalk: config name -> text, digests, anchors."""
    manifest = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in CONFIGS.items():
            path = os.path.join(tmp, f"{name}.ini")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            outputs = {fmt: _run(path, fmt) for fmt in FORMATS}
            manifest[name] = {
                "config": text,
                "sha256": {fmt: hashlib.sha256(data).hexdigest() for fmt, data in outputs.items()},
                "anchors": _anchors(json.loads(outputs["json"])),
            }
    return manifest


if __name__ == "__main__":
    MANIFEST.write_text(json.dumps(build_manifest(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {MANIFEST}", file=sys.stderr)
