import gc
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entwalk

from entwalk.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VALIDATION,
    ParseError,
    ValidationError,
    _build_experiment,
    console_main,
    emit_distribution,
    run,
)
from entwalk.classical import JointCoinDistribution, binomial_walk_distribution
from entwalk.coins import build_coin_operator, build_initial_coin
from entwalk.core import Distribution
from entwalk.engine import WalkConfig, evolve, position_distribution
from entwalk.shifts import build_shift
from oracles import exact_binomial_walk

QUANTUM_BASE = """
[experiment]
mode = quantum
coin = phi_plus
coin_operator = hadamard_n
shift = s_ec
steps = {steps}
output_format = {fmt}
output = {out}
"""


def write_config(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def bell_distribution(steps):
    coin = build_initial_coin("phi_plus")
    cfg = WalkConfig(
        coin_state=coin,
        coin_op=build_coin_operator("hadamard_n", 2),
        shift=build_shift("s_ec"),
        steps=steps,
    )
    return position_distribution(evolve(cfg))


def test_quantum_csv_golden_rows(tmp_path):
    out = tmp_path / "walk.csv"
    cfg = write_config(tmp_path, QUANTUM_BASE.format(steps=2, fmt="csv", out=out))
    assert run(cfg, quiet=True) == EXIT_OK
    assert out.read_text() == (
        "position,probability\n"
        "-2,0.125\n"
        "-1,0.25\n"
        "0,0.25\n"
        "1,0.25\n"
        "2,0.125\n"
    )


def test_quantum_csv_twelve_significant_digits(tmp_path):
    out = tmp_path / "walk.csv"
    cfg = write_config(tmp_path, QUANTUM_BASE.format(steps=9, fmt="csv", out=out))
    assert run(cfg, quiet=True) == EXIT_OK
    d = bell_distribution(9)
    lines = out.read_text().splitlines()
    assert lines[0] == "position,probability"
    for line in lines[1:]:
        pos, prob = line.split(",")
        assert prob == f"{d[int(pos)]:.12g}"


def test_json_round_trip(tmp_path):
    out = tmp_path / "walk.json"
    cfg = write_config(tmp_path, QUANTUM_BASE.format(steps=25, fmt="json", out=out))
    assert run(cfg, quiet=True) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["metadata"]["steps"] == 25
    assert doc["metadata"]["norm"] == pytest.approx(1.0, abs=1e-10)
    assert doc["config"]["experiment"]["coin"] == "phi_plus"
    reloaded = Distribution({label: p for label, p in doc["distribution"]})
    direct = bell_distribution(25)
    for label in direct.support():
        assert reloaded[label] == pytest.approx(direct[label], rel=1e-12)


def test_gnuplot_zero_fills_window(tmp_path):
    out = tmp_path / "walk.dat"
    cfg = write_config(tmp_path, QUANTUM_BASE.format(steps=1, fmt="gnuplot", out=out))
    assert run(cfg, quiet=True) == EXIT_OK
    assert out.read_text() == "# position probability\n-1 0.5\n0 0\n1 0.5\n"


def test_gnuplot_2d_box_golden_bytes(tmp_path):
    # the whole box, zeros included, with a blank line after each x block
    out = tmp_path / "walk.dat"
    cfg = write_config(
        tmp_path,
        "[experiment]\nmode = quantum\ncoin = ghz3\ncoin_operator = hadamard_n\n"
        f"shift = s_2d\nsteps = 2\noutput_format = gnuplot\noutput = {out}\n",
    )
    assert run(cfg, quiet=True) == EXIT_OK
    assert out.read_text() == (
        "# position_x position_y probability\n"
        "-1 -2 0\n-1 -1 0.03125\n-1 0 0.125\n-1 1 0\n\n"
        "0 -2 0.03125\n0 -1 0.25\n0 0 0.0625\n0 1 0.125\n\n"
        "1 -2 0\n1 -1 0.0625\n1 0 0.25\n1 1 0.03125\n\n"
        "2 -2 0\n2 -1 0\n2 0 0.03125\n2 1 0\n\n"
    )


HUGE = 99999999999999999999999  # past int64: labels must stay Python ints


@pytest.mark.parametrize(
    "fmt,expected",
    [
        ("csv", f"position,probability\n{HUGE - 1},0.5\n{HUGE + 1},0.5\n"),
        ("gnuplot", f"# position probability\n{HUGE - 1} 0.5\n{HUGE} 0\n{HUGE + 1} 0.5\n"),
    ],
    ids=["csv", "gnuplot"],
)
def test_walk_far_past_int64_keeps_its_labels(tmp_path, fmt, expected):
    out = tmp_path / "walk.out"
    cfg = write_config(
        tmp_path,
        QUANTUM_BASE.format(steps=1, fmt=fmt, out=out) + f"initial_position = {HUGE}\n",
    )
    assert run(cfg, quiet=True) == EXIT_OK
    assert out.read_text() == expected


@pytest.mark.parametrize(
    "fmt,sep,header",
    [("csv", ",", "position,quantum,classical"), ("gnuplot", " ", "# position quantum classical")],
    ids=["csv", "gnuplot"],
)
def test_compare_far_past_int64_keeps_its_labels(tmp_path, fmt, sep, header):
    out = tmp_path / "cmp.out"
    cfg = write_config(
        tmp_path,
        "[experiment]\nmode = compare\ncoin = phi_plus\ncoin_operator = hadamard_n\n"
        f"shift = s_ec\nsteps = 2\ninitial_position = {HUGE}\n"
        f"positions = {HUGE + 2} 0 {HUGE} 2\noutput_format = {fmt}\noutput = {out}\n"
        "[classical]\nmodel = binomial\nn = 2\n",
    )
    assert run(cfg, quiet=True) == EXIT_OK
    rows = [[0, 0, 0.5], [2, 0, 0.25], [HUGE, 0.25, 0], [HUGE + 2, 0.125, 0]]
    assert out.read_text() == "".join(
        sep.join(str(x) for x in row) + "\n" for row in [[header]] + rows
    )


def test_identical_config_gives_byte_identical_output(tmp_path):
    out = tmp_path / "walk.json"
    text = QUANTUM_BASE.format(steps=40, fmt="json", out=out) + "seed = 11\n"
    cfg = write_config(tmp_path, text)
    assert run(cfg, quiet=True) == EXIT_OK
    first = out.read_bytes()
    assert run(cfg, quiet=True) == EXIT_OK
    assert out.read_bytes() == first


def test_json_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the 2D walk's window is large enough for a threaded BLAS reduction to
    # split it, which would move the last digits of metadata.norm
    out = tmp_path / "walk.json"
    cfg = write_config(
        tmp_path,
        "[experiment]\nmode = quantum\ncoin = ghz3\nshift = s_2d\nsteps = 50\n"
        f"output_format = json\noutput = {out}\n",
    )
    src = str(Path(entwalk.__file__).parent.parent)
    outputs = []
    for threads in ("1", "2"):
        env = os.environ | {
            "OPENBLAS_NUM_THREADS": threads,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        }
        subprocess.run(
            [sys.executable, "-m", "entwalk.cli", "run", cfg, "--quiet"], env=env, check=True, timeout=120
        )
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_stdout_emission_when_no_output_path(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "[experiment]\nmode = quantum\ncoin = phi_plus\n"
        "coin_operator = hadamard_n\nshift = s_ec\nsteps = 1\noutput_format = csv\n",
    )
    assert run(cfg, quiet=True) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out == "position,probability\n-1,0.5\n1,0.5\n"


def test_summary_goes_to_stderr_unless_quiet(tmp_path, capsys):
    out = tmp_path / "walk.csv"
    cfg = write_config(tmp_path, QUANTUM_BASE.format(steps=1, fmt="csv", out=out))
    assert run(cfg) == EXIT_OK
    assert "quantum walk" in capsys.readouterr().err
    assert run(cfg, quiet=True) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_classical_binomial_mode(tmp_path):
    out = tmp_path / "cls.csv"
    cfg = write_config(
        tmp_path,
        f"[experiment]\nmode = classical\noutput_format = csv\noutput = {out}\n"
        "[classical]\nmodel = binomial\nn = 100\np = 0.5\n",
    )
    assert run(cfg, quiet=True) == EXIT_OK
    rows = dict(
        line.split(",") for line in out.read_text().splitlines()[1:]
    )
    assert float(rows["0"]) == pytest.approx(0.0795, abs=1e-3)
    assert "1" not in rows


def test_classical_correlated_mode(tmp_path):
    out = tmp_path / "cls.json"
    cfg = write_config(
        tmp_path,
        f"[experiment]\nmode = classical\noutput_format = json\noutput = {out}\n"
        "[classical]\nrho = 1.0\nn = 60\nmoves = hh:1, ht:0, th:0, tt:-1\n",
    )
    assert run(cfg, quiet=True) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["metadata"]["model"] == "correlated"
    got = {label: p for label, p in doc["distribution"]}
    expected = binomial_walk_distribution(60, 0.5)
    for k in expected.support():
        assert got[k] == pytest.approx(expected[k], abs=1e-12)


def test_classical_binomial_past_float_overflow_of_binomial_coefficients(tmp_path):
    out = tmp_path / "cls.csv"
    cfg = write_config(
        tmp_path,
        f"[experiment]\nmode = classical\noutput_format = csv\noutput = {out}\n"
        "[classical]\nmodel = binomial\nn = 2000\np = 0.5\n",
    )
    assert run(cfg, quiet=True) == EXIT_OK
    rows = [int(line.split(",")[0]) for line in out.read_text().splitlines()[1:]]
    exact = exact_binomial_walk(2000, Fraction(1, 2))
    assert rows == sorted(k for k, p in exact.items() if float(p) > 0)


def test_classical_rows_have_positive_probability(tmp_path):
    out = tmp_path / "cls.json"
    cfg = write_config(
        tmp_path,
        f"[experiment]\nmode = classical\noutput_format = json\noutput = {out}\n"
        "[classical]\nmodel = correlated\nn = 1100\nrho = 0.5\n",
    )
    assert run(cfg, quiet=True) == EXIT_OK
    probs = [p for _, p in json.loads(out.read_text())["distribution"]]
    assert probs and all(p > 0.0 for p in probs)


def test_classical_window_over_cap_is_a_validation_error(tmp_path):
    cfg = write_config(
        tmp_path,
        "[experiment]\nmode = classical\noutput_format = csv\n"
        "[classical]\nn = 100\nrho = 1.0\nmoves = hh:1000000000, ht:1, th:0, tt:-1\n",
    )
    assert run(cfg, quiet=True) == EXIT_VALIDATION


def test_classical_run_over_time_cap_is_a_validation_error(tmp_path):
    # the window (10**7 - 1 sites) fits; 5 * 10**6 steps over it do not
    cfg = write_config(
        tmp_path,
        "[experiment]\nmode = classical\noutput_format = csv\n[classical]\nn = 4999999\n",
    )
    assert run(cfg, quiet=True) == EXIT_VALIDATION


@pytest.mark.parametrize(
    "walk",
    [
        "coin = ghz3\nshift = s_2d\nsteps = 1000000000\n",
        "shift = custom\nshift_table = 1000000 0 0 -1000000\nsteps = 10\n",
    ],
)
def test_quantum_walk_over_cap_is_a_validation_error(tmp_path, capsys, walk):
    cfg = write_config(tmp_path, "[experiment]\nmode = quantum\noutput_format = csv\n" + walk)
    assert run(cfg, quiet=True) == EXIT_VALIDATION
    assert "MAX_WINDOW_AMPLITUDES" in capsys.readouterr().err


def test_compare_mode_columns_match_standalone_runs(tmp_path):
    cmp_out = tmp_path / "cmp.json"
    cfg = write_config(
        tmp_path,
        f"""
[experiment]
mode = compare
coin = phi_plus
coin_operator = hadamard_n
shift = s_ec
steps = 100
positions = 40 50 60 70
output_format = json
output = {cmp_out}

[classical]
model = binomial
n = 100
p = 0.5
""",
    )
    assert run(cfg, quiet=True) == EXIT_OK
    doc = json.loads(cmp_out.read_text())
    quantum = bell_distribution(100)
    classical = binomial_walk_distribution(100, 0.5)
    assert [row[0] for row in doc["comparison"]] == [40, 50, 60, 70]
    for pos, q, c in doc["comparison"]:
        assert q == pytest.approx(quantum[pos], rel=1e-12)
        assert c == pytest.approx(classical[pos], rel=1e-12)


def test_compare_mode_defaults_to_support_union(tmp_path):
    cmp_out = tmp_path / "cmp.csv"
    cfg = write_config(
        tmp_path,
        f"""
[experiment]
mode = compare
coin = phi_plus
coin_operator = hadamard_n
shift = s_ec
steps = 2
output_format = csv
output = {cmp_out}

[classical]
model = binomial
n = 2
p = 0.5
""",
    )
    assert run(cfg, quiet=True) == EXIT_OK
    lines = cmp_out.read_text().splitlines()
    assert lines[0] == "position,quantum,classical"
    assert [line.split(",")[0] for line in lines[1:]] == ["-2", "-1", "0", "1", "2"]


def test_entropy_mode_all_cuts(tmp_path):
    out = tmp_path / "ent.csv"
    cfg = write_config(
        tmp_path,
        f"[experiment]\nmode = entropy\ncoin = ghz3\noutput_format = csv\noutput = {out}\n",
    )
    assert run(cfg, quiet=True) == EXIT_OK
    assert out.read_text() == "cut,entropy_bits\n1,1\n2,1\n"


def test_entropy_mode_single_cut_json(tmp_path):
    out = tmp_path / "ent.json"
    cfg = write_config(
        tmp_path,
        f"[experiment]\nmode = entropy\ncoin = theta1\ncut = 1\n"
        f"output_format = json\noutput = {out}\n",
    )
    assert run(cfg, quiet=True) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["entropies"][0][0] == 1
    assert doc["entropies"][0][1] == pytest.approx(0.3545789026652698, abs=1e-12)


def test_2d_walk_csv_header_and_labels(tmp_path):
    out = tmp_path / "walk2d.csv"
    cfg = write_config(
        tmp_path,
        f"[experiment]\nmode = quantum\ncoin = ghz3\ncoin_operator = hadamard_n\n"
        f"shift = s_2d\nsteps = 2\noutput_format = csv\noutput = {out}\n",
    )
    assert run(cfg, quiet=True) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "position,position_y,probability"
    labels = [tuple(int(v) for v in line.split(",")[:2]) for line in lines[1:]]
    assert labels == sorted(labels)
    assert sum(float(line.split(",")[2]) for line in lines[1:]) == pytest.approx(1.0, abs=1e-9)


def test_tiny_probabilities_floor_to_zero_in_csv_but_not_json(tmp_path):
    eps = 1e-8  # probability eps^2 = 1e-16 sits below the print floor
    big = math.sqrt(1.0 - eps * eps)
    base = (
        "[experiment]\nmode = quantum\ncoin = custom\n"
        f"coin_amplitudes = ({big!r}, 0) ({eps!r}, 0)\n"
        "coin_operator = custom\ncoin_matrix = (1, 0) (0, 0); (0, 0) (1, 0)\n"
        "shift = s_single\nsteps = 1\n"
    )
    csv_out = tmp_path / "tiny.csv"
    cfg = write_config(tmp_path, base + f"output_format = csv\noutput = {csv_out}\n")
    assert run(cfg, quiet=True) == EXIT_OK
    assert csv_out.read_text().splitlines()[1] == "-1,0"

    json_out = tmp_path / "tiny.json"
    cfg = write_config(
        tmp_path, base + f"output_format = json\noutput = {json_out}\n", name="exp2.ini"
    )
    assert run(cfg, quiet=True) == EXIT_OK
    doc = json.loads(json_out.read_text())
    tiny = dict((label, p) for label, p in doc["distribution"])[-1]
    assert 0.0 < tiny < 1e-15


def test_custom_shift_table_from_config(tmp_path):
    out = tmp_path / "cust.csv"
    cfg = write_config(
        tmp_path,
        f"[experiment]\nmode = quantum\ncoin = phi_plus\ncoin_operator = hadamard_n\n"
        f"shift = custom\nshift_table = 1 0 0 -1\nsteps = 2\n"
        f"output_format = csv\noutput = {out}\n",
    )
    assert run(cfg, quiet=True) == EXIT_OK
    ref = tmp_path / "ref.csv"
    ref_cfg = write_config(
        tmp_path, QUANTUM_BASE.format(steps=2, fmt="csv", out=ref), name="ref.ini"
    )
    assert run(ref_cfg, quiet=True) == EXIT_OK
    assert out.read_text() == ref.read_text()


def test_batch_outputs_suffixed_and_layered(tmp_path):
    out = tmp_path / "b.csv"
    cfg = write_config(
        tmp_path,
        QUANTUM_BASE.format(steps=1, fmt="csv", out=out)
        + "\n[experiment.1]\nsteps = 1\n\n[experiment.2]\nsteps = 2\n",
    )
    assert run(cfg, quiet=True) == EXIT_OK
    assert not out.exists()
    one = (tmp_path / "b.1.csv").read_text()
    two = (tmp_path / "b.2.csv").read_text()
    single = tmp_path / "single.csv"
    ref = write_config(tmp_path, QUANTUM_BASE.format(steps=2, fmt="csv", out=single), name="s.ini")
    assert run(ref, quiet=True) == EXIT_OK
    assert two == single.read_text()
    assert one.splitlines()[1:] == ["-1,0.5", "1,0.5"]


def test_override_experiment_and_classical_keys(tmp_path):
    out = tmp_path / "walk.csv"
    cfg = write_config(
        tmp_path,
        f"[experiment]\nmode = classical\noutput_format = csv\noutput = {out}\n"
        "[classical]\nmodel = binomial\nn = 100\np = 0.5\n",
    )
    assert run(cfg, overrides=["classical.n=2", "output_format=csv"], quiet=True) == EXIT_OK
    lines = out.read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["-2", "0", "2"]


def test_override_requires_key_value_shape(tmp_path):
    cfg = write_config(tmp_path, QUANTUM_BASE.format(steps=1, fmt="csv", out="x.csv"))
    assert run(cfg, overrides=["steps"], quiet=True) == EXIT_PARSE


def test_exit_code_missing_config():
    assert run("/definitely/not/here.ini", quiet=True) == EXIT_IO


def test_exit_code_unwritable_output(tmp_path):
    missing_dir = tmp_path / "no" / "such" / "dir" / "x.csv"
    cfg = write_config(tmp_path, QUANTUM_BASE.format(steps=1, fmt="csv", out=missing_dir))
    assert run(cfg, quiet=True) == EXIT_IO


# Config text -> the message after "error: config parse: " ({path}: the
# config's path).  Cases with several faults pin which one is reported.
PARSE_ERRORS = {
    # no section header
    "mode = quantum\n":
        "File contains no section headers. file: '{path}', line: 1 'mode = quantum\\n'",
    "[experiment]\nmode = quantum\nsteps = abc\n":  # bad int
        "experiment.steps: cannot parse 'abc' as int",
    "[experiment]\nmode = quantum\nwarp_drive = on\n":  # unknown key
        "experiment: unknown key(s) ['warp_drive']",
    "[mystery]\nmode = quantum\n": "unknown section [mystery]",
    "[experiment.x]\nsteps = 1\n": "batch section [experiment.x] must end in an integer index",
    # one spelling per index: no leading zero, ASCII digits only
    "[experiment]\nmode = quantum\n[experiment.1]\n[experiment.01]\n":
        "batch section [experiment.01] must end in an integer index",
    "[experiment]\nmode = quantum\n[experiment.\u00b2]\n":
        "batch section [experiment.\u00b2] must end in an integer index",
    "[classical]\nn = 5\n": "missing required section [experiment]",
    # each inline parser
    "[experiment]\nmode = quantum\ncoin = custom\ncoin_amplitudes = (1, 0, 0)\n":
        "experiment.coin_amplitudes: expected (re, im) pairs, got '1, 0, 0'",
    "[experiment]\nmode = quantum\ncoin = custom\ncoin_amplitudes = (1, x)\n":
        "experiment.coin_amplitudes: non-numeric entry '1, x'",
    "[experiment]\nmode = quantum\ncoin = custom\ncoin_amplitudes = ( )\n":
        "experiment.coin_amplitudes: empty value",
    "[experiment]\nmode = quantum\ncoin_operator = custom\ncoin_matrix = (1, 0) (0, 0); (1)\n":
        "experiment.coin_matrix: expected (re, im) pairs, got '1'",
    "[experiment]\nmode = quantum\nshift = custom\nshift_table = 1 0 x -1\n":
        "experiment.shift_table: expected integers, got '1 0 x -1'",
    "[experiment]\nmode = quantum\nshift = custom\nshift_table = (1, 0) (0, 1.5) (-1, 0)\n":
        "experiment.shift_table: non-integer displacement '0, 1.5'",
    "[experiment]\nmode = classical\n[classical]\nmoves = hh:1 ht\n":
        "classical.moves: expected outcome:displacement, got 'ht'",
    "[experiment]\nmode = classical\n[classical]\nmoves = hh:1 xx:0\n":
        "classical.moves: unknown outcome 'xx', expected one of ('hh', 'ht', 'th', 'tt')",
    "[experiment]\nmode = classical\n[classical]\nmoves = hh:1.5\n":
        "classical.moves: non-integer displacement '1.5'",
    "[experiment]\nmode = quantum\ninitial_position = 1 a\n":
        "experiment.initial_position: expected integers, got '1 a'",
    "[experiment]\nmode = compare\npositions = 1, 2.5\n":
        "experiment.positions: expected integers, got '1, 2.5'",
    "[experiment]\nmode = quantum\nseed = 1.0\n": "experiment.seed: cannot parse '1.0' as int",
    "[experiment]\nmode = entropy\ncut = one\n": "experiment.cut: cannot parse 'one' as int",
    "[experiment]\nmode = classical\n[classical]\nn = ten\n": "classical.n: cannot parse 'ten' as int",
    "[experiment]\nmode = classical\n[classical]\np = half\n":
        "classical.p: cannot parse 'half' as float",
    "[experiment]\nmode = classical\n[classical]\nrho = x\n": "classical.rho: cannot parse 'x' as float",
    # an unknown key wins over a bad value and a missing mode
    "[experiment]\nmode = quantum\nsteps = abc\nwarp = 1\n": "experiment: unknown key(s) ['warp']",
    "[experiment]\nwarp = 1\n": "experiment: unknown key(s) ['warp']",
    "[experiment]\nmode = quantum\n[classical]\nbogus = 1\nn = x\n":
        "classical: unknown key(s) ['bogus']",
    # the classical section before the experiment values, each in key order
    "[experiment]\nmode = quantum\nsteps = abc\n[classical]\nbogus = 1\n":
        "classical: unknown key(s) ['bogus']",
    "[experiment]\nmode = quantum\nsteps = abc\n[classical]\nn = x\n":
        "classical.n: cannot parse 'x' as int",
    "[experiment]\nmode = quantum\n[classical]\nn = x\np = y\n": "classical.n: cannot parse 'x' as int",
    "[experiment]\nmode = quantum\n[classical]\np = y\nrho = z\n":
        "classical.p: cannot parse 'y' as float",
    "[experiment]\nmode = quantum\n[classical]\nrho = z\nmoves = q\n":
        "classical.rho: cannot parse 'z' as float",
    "[experiment]\nmode = quantum\n[classical]\nmodel = bad\nn = -1\nmoves = q\n":
        "classical.moves: expected outcome:displacement, got 'q'",
    "[experiment]\nmode = quantum\ncoin_amplitudes = x\ncoin_matrix = y\n":
        "experiment.coin_amplitudes: expected (re, im) pairs, got 'x'",
    "[experiment]\nmode = quantum\ncoin_matrix = (1)\nshift_table = x\n":
        "experiment.coin_matrix: expected (re, im) pairs, got '1'",
    "[experiment]\nmode = quantum\nshift_table = x\nsteps = y\n":
        "experiment.shift_table: expected integers, got 'x'",
    "[experiment]\nmode = quantum\nsteps = y\ninitial_position = q\n":
        "experiment.steps: cannot parse 'y' as int",
    "[experiment]\nmode = quantum\ninitial_position = q\nseed = r\n":
        "experiment.initial_position: expected integers, got 'q'",
    "[experiment]\nmode = quantum\nseed = r\npositions = s\n": "experiment.seed: cannot parse 'r' as int",
    "[experiment]\nmode = quantum\npositions = s\ncut = t\n":
        "experiment.positions: expected integers, got 's'",
    "[experiment]\nmode = warp\nsteps = -1\ncut = t\n": "experiment.cut: cannot parse 't' as int",
}


@pytest.mark.parametrize("text", PARSE_ERRORS)
def test_exit_code_parse_errors(tmp_path, capsys, text):
    cfg = write_config(tmp_path, text)
    assert run(cfg, quiet=True) == EXIT_PARSE
    expected = "error: config parse: " + PARSE_ERRORS[text].replace("{path}", cfg) + "\n"
    assert capsys.readouterr().err == expected


def test_undecodable_config_is_a_parse_error(tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_bytes(b"[experiment]\nmode = quantum\ncoin = \xff\n")
    assert run(str(cfg), quiet=True) == EXIT_PARSE
    assert capsys.readouterr().err == (
        f"error: config parse: {cfg}: 'utf-8' codec can't decode byte 0xff in position 35: "
        "invalid start byte\n"
    )


def test_configparser_errors_are_one_stderr_line(tmp_path, capsys):
    # configparser puts each bad line of a ParsingError on a line of its own
    cfg = write_config(tmp_path, "[experiment]\nmode = quantum\nno equals sign\nnor here\n")
    assert run(cfg, quiet=True) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: config parse: Source contains parsing errors:")
    assert err.count("\n") == 1 and "'no equals sign\\n'" in err and "'nor here\\n'" in err


# Config text -> the message after "error: validation: ".
VALIDATION_ERRORS = {
    "[experiment]\nmode = warp\n":  # unknown mode
        "mode must be one of ('quantum', 'classical', 'compare', 'entropy'), got 'warp'",
    "[experiment]\nmode = quantum\ncoin = bogus\n":  # unknown preset
        "unknown coin preset 'bogus'; expected one of ['ghz3', 'inui_konno', 'phi_minus', "
        "'phi_plus', 'plus_i_product', 'psi_minus', 'psi_plus', 'single_hadamard_bias', "
        "'theta0', 'theta1'] or 'custom'",
    "[experiment]\nmode = quantum\ncoin = ghz3\nshift = s_ec\n":  # size mismatch
        "shift conditions on 2 qubit(s) but coin holds 3",
    "[experiment]\nmode = quantum\nsteps = -1\n":  # negative steps
        "steps must be nonnegative, got -1",
    "[experiment]\nmode = quantum\noutput_format = yaml\n":  # unknown format
        "output_format must be one of ('csv', 'json', 'gnuplot'), got 'yaml'",
    "[experiment]\nmode = classical\n[classical]\nmodel = quantum\n":  # bad model
        "classical.model must be 'binomial' or 'correlated', got 'quantum'",
    "[experiment]\nmode = entropy\ncoin = single_hadamard_bias\n":  # no bipartition
        "entropy mode requires a coin of at least two qubits",
    "[experiment]\nmode = quantum\ncoin = custom\ncoin_amplitudes = (1, 0) (1, 0)\n":
        "amplitudes are not normalized: |psi|^2 = 2.0",
    "[experiment]\nmode = classical\n[classical]\nn = -1\n": "classical.n must be nonnegative, got -1",
    "[experiment]\nmode = compare\nsteps = 3000\n[classical]\np = 1.5\n":  # p out of range
        "step probability must lie in [0, 1], got 1.5",
    "[experiment]\nmode = compare\nsteps = 3000\n[classical]\nn = 20000000\n":  # window cap
        "window of 40000001 sites exceeds MAX_WINDOW_SITES=10000000",
    "[experiment]\nmode = classical\n[classical]\nrho = -1.5\n":  # rho out of range
        "correlation must lie in [-1, 1], got -1.5",
    "[experiment]\nmode = compare\nsteps = 3000\n[classical]\nrho = -1.5\n":
        "correlation must lie in [-1, 1], got -1.5",
    # the whole request is checked: a quantum run refuses a bad classical section too
    "[experiment]\nmode = quantum\n[classical]\nmodel = binomial\np = -0.5\n":
        "step probability must lie in [0, 1], got -0.5",
    "[experiment]\nmode = quantum\nshift = custom\nshift_table = 0 0 0 0\nsteps = 3000000\n":
        # a walk that never grows still pays each step's fixed cost
        "3000000 steps need 12300000000 amplitude updates, over MAX_WALK_WORK=10000000000",
    "[experiment]\nmode = entropy\ncoin = ghz3\n[classical]\nn = 4999999\n":  # time cap
        "4999999 steps over a window of 9999999 sites exceed MAX_WINDOW_UPDATES=100000000000",
    # a missing mode wins over anything but an unknown experiment key
    "[experiment]\nsteps = abc\n[classical]\nbogus = 1\n": "experiment.mode is required",
    # the classical checks win over every experiment value
    "[experiment]\nmode = quantum\nsteps = abc\n[classical]\nmodel = bad\n":
        "classical.model must be 'binomial' or 'correlated', got 'bad'",
    "[experiment]\nmode = quantum\n[classical]\nmodel = bad\nn = -1\n":
        "classical.model must be 'binomial' or 'correlated', got 'bad'",
    "[experiment]\nmode = warp\nsteps = abc\n[classical]\nn = -1\n":
        "classical.n must be nonnegative, got -1",
    "[experiment]\nmode = quantum\n[classical]\nn = -1\np = 2\n":
        "classical.n must be nonnegative, got -1",
    # the experiment checks, in field order
    "[experiment]\nmode = warp\noutput_format = yaml\nsteps = -1\n":
        "mode must be one of ('quantum', 'classical', 'compare', 'entropy'), got 'warp'",
    "[experiment]\nmode = quantum\noutput_format = yaml\nsteps = -1\n":
        "output_format must be one of ('csv', 'json', 'gnuplot'), got 'yaml'",
}


@pytest.mark.parametrize("text", VALIDATION_ERRORS)
def test_exit_code_validation_errors(tmp_path, capsys, text):
    cfg = write_config(tmp_path, text)
    assert run(cfg, quiet=True) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: validation: {VALIDATION_ERRORS[text]}\n"


def test_compare_refuses_a_2d_walk_before_walking(tmp_path, capsys, monkeypatch):
    def no_evolve(cfg):
        raise AssertionError("compare mode evolved a 2D walk")

    monkeypatch.setattr("entwalk.cli.evolve", no_evolve)
    cfg = write_config(
        tmp_path, "[experiment]\nmode = compare\ncoin = ghz3\nshift = s_2d\nsteps = 300\n"
    )
    assert run(cfg, quiet=True) == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: validation: compare mode requires a 1D walk\n"


@pytest.mark.parametrize(
    "text",
    [
        "[experiment]\nmode = compare\nsteps = 3000\n[classical]\np = 1.5\n",
        "[experiment]\nmode = compare\nsteps = 3000\n[classical]\nrho = -1.5\n",
        "[experiment]\nmode = compare\nsteps = 3000\n[classical]\nn = 20000000\n",
    ],
    ids=["p", "rho", "window-cap"],
)
def test_compare_checks_classical_values_before_walking(tmp_path, capsys, monkeypatch, text):
    def no_evolve(cfg):
        raise AssertionError("compare mode walked before checking the classical walk")

    monkeypatch.setattr("entwalk.cli.evolve", no_evolve)
    cfg = write_config(tmp_path, text)
    assert run(cfg, quiet=True) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: validation: {VALIDATION_ERRORS[text]}\n"


@pytest.mark.parametrize(
    "model, builder", [("binomial", "from_bias"), ("correlated", "from_correlation")]
)
def test_cli_takes_classical_value_checks_from_classical(tmp_path, capsys, monkeypatch, model, builder):
    # The p and rho rules live in classical: whatever its pair builder
    # refuses, the CLI refuses with that message, before any walk.
    def refuse(value):
        raise ValueError("sentinel")

    def no_evolve(cfg):
        raise AssertionError("compare mode walked before checking the classical walk")

    monkeypatch.setattr(JointCoinDistribution, builder, refuse)
    monkeypatch.setattr("entwalk.cli.evolve", no_evolve)
    cfg = write_config(tmp_path, f"[experiment]\nmode = compare\n[classical]\nmodel = {model}\n")
    assert run(cfg, quiet=True) == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: validation: sentinel\n"


# A batch fault in [experiment.2] -> its error line, the one a single-job
# config with the same fault reports.
BATCH_FAULTS = {
    "coin": ("coin = bogus\n", VALIDATION_ERRORS["[experiment]\nmode = quantum\ncoin = bogus\n"]),
    "cut": ("mode = entropy\ncut = 2\n", "cut must lie in 1..1, got 2"),
    "window-cap": (
        "coin = ghz3\nshift = s_2d\nsteps = 1000000000\n",
        "1000000000 steps need a window of 32000000032000000008 amplitudes, "
        "over MAX_WINDOW_AMPLITUDES=8388608",
    ),
    "compare-2d": ("mode = compare\ncoin = ghz3\nshift = s_2d\n", "compare mode requires a 1D walk"),
}


@pytest.mark.parametrize("fault", BATCH_FAULTS)
def test_batch_fault_in_a_later_job_writes_no_file(tmp_path, capsys, fault):
    section, message = BATCH_FAULTS[fault]
    cfg = write_config(
        tmp_path,
        QUANTUM_BASE.format(steps=2, fmt="csv", out=tmp_path / "out.csv")
        + "\n[experiment.1]\nsteps = 1\n\n[experiment.2]\n" + section,
    )
    assert run(cfg, quiet=True) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: validation: {message}\n"
    assert list(tmp_path.glob("out*")) == []


def test_batch_reports_the_first_jobs_walk_fault_before_a_later_parse_fault(tmp_path, capsys):
    # every job is built in index order, walk included, so job 1's unknown
    # coin is found before job 2's unparsable steps
    cfg = write_config(
        tmp_path,
        QUANTUM_BASE.format(steps=2, fmt="csv", out=tmp_path / "out.csv")
        + "\n[experiment.1]\ncoin = bogus\n\n[experiment.2]\nsteps = abc\n",
    )
    assert run(cfg, quiet=True) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: validation: unknown coin preset 'bogus'")


@pytest.mark.parametrize(
    "exc",
    [MemoryError(), MemoryError("no room\nfor it"), OverflowError("math range error"),
     ZeroDivisionError("float division by zero")],
    ids=["memory", "memory-two-lines", "overflow", "zero-division"],
)
def test_resource_and_arithmetic_errors_exit_as_validation(tmp_path, capsys, monkeypatch, exc):
    def failing_evolve(cfg):
        raise exc

    monkeypatch.setattr("entwalk.cli.evolve", failing_evolve)
    cfg = write_config(tmp_path, QUANTUM_BASE.format(steps=1, fmt="csv", out=tmp_path / "x.csv"))
    assert run(cfg, quiet=True) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"error: {type(exc).__name__}")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.fixture
def unfreeze_gc():
    # console_main freezes the heap; the rest of the session collects normally
    yield
    gc.unfreeze()


def test_console_main_runs_subcommand(tmp_path, capsys, unfreeze_gc):
    out = tmp_path / "walk.csv"
    cfg = write_config(tmp_path, QUANTUM_BASE.format(steps=2, fmt="csv", out=out))
    assert console_main(["run", cfg, "--quiet"]) == EXIT_OK
    assert out.exists()
    assert (
        console_main(["run", cfg, "--override", "steps=3", "--override", "output_format=json"])
        == EXIT_OK
    )
    assert "3 step(s)" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_console_main_freezes_the_loaded_heap_and_imports_json_only_for_json(tmp_path, fmt):
    out = tmp_path / f"walk.{fmt}"
    cfg = write_config(tmp_path, QUANTUM_BASE.format(steps=2, fmt=fmt, out=out))
    probe = (
        "import gc, sys\n"
        "from entwalk.cli import console_main\n"
        "assert console_main(sys.argv[1:]) == 0\n"
        "print(gc.get_freeze_count(), 'json' in sys.modules)\n"
    )
    src = str(Path(entwalk.__file__).parent.parent)
    env = os.environ | {"PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-c", probe, "run", cfg, "--quiet"],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    frozen, json_loaded = result.stdout.split()
    assert int(frozen) > 0
    assert json_loaded == str(fmt == "json")
    assert out.exists()


def test_emit_distribution_rejects_unknown_format(tmp_path):
    with pytest.raises(ValidationError):
        emit_distribution(Distribution({0: 1.0}), "yaml", str(tmp_path / "x"))


def test_emit_distribution_single_site(tmp_path):
    path = tmp_path / "one.csv"
    emit_distribution(Distribution({0: 1.0}), "csv", str(path))
    assert path.read_text() == "position,probability\n0,1\n"


# Keys whose values the config parser reads inline, each with the settings
# under which the value is used.
INLINE_KEYS = {
    "coin_amplitudes": {"coin": "custom"},
    "coin_matrix": {"coin_operator": "custom"},
    "shift_table": {"shift": "custom"},
    "initial_position": {},
    "positions": {},
    "steps": {},
    "cut": {},
    "moves": {},
}


@pytest.mark.parametrize("key", sorted(INLINE_KEYS))
@settings(deadline=None, max_examples=150)
@given(text=st.text() | st.text(alphabet="0123456789 ()+-.,;:eEjinfaht"))
def test_inline_values_fail_only_as_config_errors(key, text):
    # builds the config and the walk description, but runs no walk
    exp = {"mode": "quantum", **INLINE_KEYS[key]}
    cls = {}
    (cls if key == "moves" else exp)[key] = text
    try:
        _build_experiment(exp, cls)
    except (ParseError, ValidationError):
        pass
