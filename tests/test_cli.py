import errno
import gc
import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entwalk
import entwalk.cli

from entwalk.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VALIDATION,
    MODES,
    USAGE,
    ParseError,
    ValidationError,
    _SECTIONS,
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
from states import probs

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


def run_process(*args, **env):
    # the CLI in a fresh interpreter, with this checkout's package first on the path
    src = str(Path(entwalk.__file__).parent.parent)
    env = os.environ | env | {
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    }
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def bell_distribution(steps):
    coin = build_initial_coin("phi_plus")
    cfg = WalkConfig(
        coin_state=coin,
        coin_op=build_coin_operator("hadamard_n", 2),
        shift=build_shift("s_ec"),
        steps=steps,
    )
    return probs(position_distribution(evolve(cfg)))


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
    reloaded = {label: p for label, p in doc["distribution"]}
    direct = bell_distribution(25)
    assert list(reloaded) == sorted(direct)
    for label in sorted(direct):
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


# How a compare table's rows are chosen -> (its keys, its rows).  Both walks
# start at the origin.
FAR_COMPARES = {
    # the far labels come from positions
    "positions": (
        f"positions = {HUGE + 2} 0 {-HUGE} {HUGE} 2\n[classical]\nmodel = binomial\nn = 2\n",
        [[-HUGE, 0, 0], [0, 0.25, 0.5], [2, 0.125, 0.25], [HUGE, 0, 0], [HUGE + 2, 0, 0]],
    ),
    # no positions: the rows are both supports, and the classical moves pass int64
    "supports": (
        f"[classical]\nmodel = correlated\nrho = 0.5\nn = 2\nmoves = hh:{HUGE}, ht:0, th:0, tt:{-HUGE}\n",
        [
            [-2 * HUGE, 0, 0.140625], [-HUGE, 0, 0.1875], [-2, 0.125, 0], [-1, 0.25, 0], [0, 0.25, 0.34375],
            [1, 0.25, 0], [2, 0.125, 0], [HUGE, 0, 0.1875], [2 * HUGE, 0, 0.140625],
        ],
    ),
}


@pytest.mark.parametrize("rows_from", FAR_COMPARES)
@pytest.mark.parametrize(
    "fmt,sep,header",
    [("csv", ",", "position,quantum,classical"), ("gnuplot", " ", "# position quantum classical")],
    ids=["csv", "gnuplot"],
)
def test_compare_far_past_int64_keeps_its_labels(tmp_path, fmt, sep, header, rows_from):
    keys, rows = FAR_COMPARES[rows_from]
    out = tmp_path / "cmp.out"
    cfg = write_config(
        tmp_path,
        "[experiment]\nmode = compare\ncoin = phi_plus\ncoin_operator = hadamard_n\n"
        f"shift = s_ec\nsteps = 2\noutput_format = {fmt}\noutput = {out}\n" + keys,
    )
    assert run(cfg, quiet=True) == EXIT_OK
    assert out.read_text() == "".join(
        sep.join(str(x) for x in row) + "\n" for row in [[header]] + rows
    )


def test_identical_config_gives_byte_identical_output(tmp_path):
    out = tmp_path / "walk.json"
    cfg = write_config(tmp_path, QUANTUM_BASE.format(steps=40, fmt="json", out=out))
    assert run(cfg, quiet=True) == EXIT_OK
    first = out.read_bytes()
    assert run(cfg, quiet=True) == EXIT_OK
    assert out.read_bytes() == first


@pytest.mark.parametrize(
    "experiment",
    [
        "mode = quantum\ncoin = ghz3\nshift = s_2d\nsteps = 50\n",
        "mode = quantum\ncoin = ghz3\ncoin_operator = y_n\nshift = s_2d\nsteps = 50\n",
        "mode = entropy\ncoin = theta1\n",
        "mode = entropy\ncoin = custom\ncoin_amplitudes = (0.5, 0.1) (0.4, -0.2) (-0.3, 0.4) (0.1, 0) "
        "(0.2, -0.3) (0, 0.2) (-0.1, 0.1) (0.3, 0)\n",
    ],
    ids=["ghz3-hadamard_n", "ghz3-y_n", "entropy-theta1", "entropy-complex3"],
)
def test_json_bytes_do_not_depend_on_the_blas_thread_count(tmp_path, experiment):
    # the 2D walk's window is large enough for a threaded BLAS reduction to
    # split it, which would move the last digits of metadata.norm; hadamard_n
    # keeps the ghz3 walk float64 and y_n makes it complex128.  Entropy mode
    # prints both cuts of the complex 3-qubit coin.
    out = tmp_path / "walk.json"
    cfg = write_config(tmp_path, f"[experiment]\n{experiment}output_format = json\noutput = {out}\n")
    outputs = []
    for threads in ("1", "2"):
        result = run_process("-m", "entwalk.cli", "run", cfg, "--quiet", OPENBLAS_NUM_THREADS=threads)
        assert result.returncode == EXIT_OK
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
    expected = probs(binomial_walk_distribution(60, 0.5))
    for k in sorted(expected):
        assert got[k] == pytest.approx(expected[k], abs=1e-12)


def test_classical_moves_without_model_imply_the_correlated_model(tmp_path):
    # as rho does: the moves are used, not dropped for the binomial walk
    outputs = []
    for model in ("", "model = correlated\n"):
        out = tmp_path / f"cls{len(outputs)}.csv"
        cfg = write_config(
            tmp_path,
            f"[experiment]\nmode = classical\noutput = {out}\n"
            f"[classical]\n{model}n = 2\nmoves = hh:5 ht:0 th:0 tt:-5\n",
        )
        assert run(cfg, quiet=True) == EXIT_OK
        outputs.append(out.read_text())
    assert outputs[0] == outputs[1] == "position,probability\n-10,0.25\n0,0.5\n10,0.25\n"


@pytest.mark.parametrize("mode", ["quantum", "classical", "compare", "entropy"])
@pytest.mark.parametrize("key", ["rho = 0.5", "moves = hh:5 ht:0 th:0 tt:-5"], ids=["rho", "moves"])
def test_correlated_keys_beside_a_binomial_model_are_refused(tmp_path, capsys, mode, key):
    out = tmp_path / "out.csv"
    cfg = write_config(
        tmp_path,
        f"[experiment]\nmode = {mode}\noutput = {out}\n[classical]\nmodel = binomial\nn = 2\n{key}\n",
    )
    assert run(cfg, quiet=True) == EXIT_VALIDATION
    name = key.partition(" ")[0]
    assert capsys.readouterr().err == (
        f"error: validation: classical.{name} applies only to model = 'correlated', "
        "got model = 'binomial'\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("mode", ["quantum", "classical", "compare", "entropy"])
@pytest.mark.parametrize("model", ["model = correlated", "rho = 0.5"], ids=["explicit", "implied"])
def test_p_beside_a_correlated_model_is_refused(tmp_path, capsys, mode, model):
    # p is the binomial model's bias; beside the correlated model it would be dropped
    out = tmp_path / "out.csv"
    cfg = write_config(
        tmp_path,
        f"[experiment]\nmode = {mode}\noutput = {out}\n[classical]\n{model}\nn = 1\np = 0.7\n",
    )
    assert run(cfg, quiet=True) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "error: validation: classical.p applies only to model = 'binomial', got model = 'correlated'\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "classical",
    ["model = binomial\nn = 100", "model = correlated\nn = 1000\nrho = 0.5"],
    ids=["binomial", "correlated"],
)
def test_classical_json_norm_is_the_exact_sum_of_its_rows(tmp_path, classical):
    # math.fsum rounds once, so the norm does not depend on the Python
    # version's float sum
    out = tmp_path / "cls.json"
    cfg = write_config(
        tmp_path,
        f"[experiment]\nmode = classical\noutput_format = json\noutput = {out}\n[classical]\n{classical}\n",
    )
    assert run(cfg, quiet=True) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["metadata"]["norm"] == math.fsum(p for _, p in doc["distribution"])


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


@pytest.mark.parametrize("step", [10**4, 10**6])
def test_classical_gnuplot_box_steps_by_the_moves_lattice(tmp_path, step):
    # 101 occupied sites on a lattice of step g: the box holds the 201 lattice
    # points from -100 g to 100 g, not every integer between them
    out = tmp_path / "cls.dat"
    cfg = write_config(
        tmp_path,
        f"[experiment]\nmode = classical\noutput_format = gnuplot\noutput = {out}\n"
        f"[classical]\nmodel = correlated\nn = 100\nmoves = hh:{step}, ht:0, th:0, tt:-{step}\n",
    )
    assert run(cfg, quiet=True) == EXIT_OK
    lines = out.read_text().splitlines()
    assert len(lines) == 202
    assert lines[:3] == ["# position probability", f"{-100 * step} 0", f"{-99 * step} 0"]
    assert lines[100:103] == [f"{-step} 0", "0 0.0795892373872", f"{step} 0"]
    assert lines[-1] == f"{100 * step} 0"


def test_classical_moves_missing_an_outcome_is_a_validation_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "[experiment]\nmode = classical\n[classical]\nmoves = hh:1 tt:-1\n")
    assert run(cfg, quiet=True) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "error: validation: classical.moves: every outcome needs a move, missing ['ht', 'th']\n"
    )


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
    classical = probs(binomial_walk_distribution(100, 0.5))
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


# A complex 3-qubit state entangled at both cuts; its squared parts sum to 1.
COMPLEX3 = "(0.5, 0.1) (0.4, -0.2) (-0.3, 0.4) (0.1, 0) (0.2, -0.3) (0, 0.2) (-0.1, 0.1) (0.3, 0)"


@pytest.mark.parametrize(
    "coin,expected",
    [
        ("phi_plus", "1,1\n"),
        ("phi_minus", "1,1\n"),
        ("psi_plus", "1,1\n"),
        ("psi_minus", "1,1\n"),
        ("ghz3", "1,1\n2,1\n"),
        ("theta0", "1,0\n"),
        ("theta1", "1,0.354578902665\n"),
        ("plus_i_product", "1,0\n"),
        ("inui_konno", "1,0\n"),
        pytest.param(
            f"custom\ncoin_amplitudes = {COMPLEX3}\ncut = 1", "1,0.781880974587\n", id="complex3-cut1"
        ),
        pytest.param(
            f"custom\ncoin_amplitudes = {COMPLEX3}\ncut = 2", "2,0.82517382567\n", id="complex3-cut2"
        ),
    ],
)
def test_entropy_mode_makes_no_linalg_call(tmp_path, monkeypatch, coin, expected):
    # the expected rows are the ones an SVD of the coefficient matrix gives
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg called on the entropy path")

    for name in np.linalg.__all__:
        if not isinstance(getattr(np.linalg, name), type):
            monkeypatch.setattr(np.linalg, name, refuse)
    out = tmp_path / "ent.csv"
    cfg = write_config(tmp_path, f"[experiment]\nmode = entropy\ncoin = {coin}\noutput = {out}\n")
    assert run(cfg, quiet=True) == EXIT_OK
    assert out.read_text() == "cut,entropy_bits\n" + expected


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


@pytest.mark.parametrize("table", ["1 0 0 -1", "1, 0, 0, -1"], ids=["spaces", "commas"])
def test_custom_shift_table_from_config(tmp_path, table):
    out = tmp_path / "cust.csv"
    cfg = write_config(
        tmp_path,
        f"[experiment]\nmode = quantum\ncoin = phi_plus\ncoin_operator = hadamard_n\n"
        f"shift = custom\nshift_table = {table}\nsteps = 2\n"
        f"output_format = csv\noutput = {out}\n",
    )
    assert run(cfg, quiet=True) == EXIT_OK
    ref = tmp_path / "ref.csv"
    ref_cfg = write_config(
        tmp_path, QUANTUM_BASE.format(steps=2, fmt="csv", out=ref), name="ref.ini"
    )
    assert run(ref_cfg, quiet=True) == EXIT_OK
    assert out.read_text() == ref.read_text()


@pytest.mark.parametrize(
    "name, first, second",
    [("b.csv", "b.1.csv", "b.2.csv"), ("b", "b.1", "b.2"), (".walk", ".walk.1", ".walk.2")],
    ids=["extension", "extensionless", "dotfile"],
)
def test_batch_outputs_suffixed_and_layered(tmp_path, name, first, second):
    out = tmp_path / name
    cfg = write_config(
        tmp_path,
        QUANTUM_BASE.format(steps=1, fmt="csv", out=out)
        + "\n[experiment.1]\n\n[experiment.2]\nsteps = 2\n",
    )
    assert run(cfg, quiet=True) == EXIT_OK
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["exp.ini", first, second])
    one = (tmp_path / first).read_text()
    two = (tmp_path / second).read_text()
    single = tmp_path / "single.csv"
    ref = write_config(tmp_path, QUANTUM_BASE.format(steps=2, fmt="csv", out=single), name="s.ini")
    assert run(ref, quiet=True) == EXIT_OK
    assert two == single.read_text()
    assert one.splitlines()[1:] == ["-1,0.5", "1,0.5"]


@pytest.mark.parametrize(
    "jobs", ["", "\n[experiment.1]\n\n[experiment.2]\nsteps = 2\n"], ids=["single", "batch"]
)
def test_an_empty_output_is_refused(tmp_path, capsys, monkeypatch, jobs):
    # an empty name is no file: a single job walked and then failed to open
    # it, and a batch wrote the dotfiles .1, .2 into the working directory
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, QUANTUM_BASE.format(steps=1, fmt="csv", out="") + jobs)
    assert run(cfg, quiet=True) == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: validation: output is empty; omit the key to write to stdout\n"
    assert [path.name for path in tmp_path.iterdir()] == ["exp.ini"]


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


@pytest.mark.parametrize("override, section", [("DEFAULT.steps=3", "DEFAULT"), (".steps=1", "")])
def test_an_override_of_an_unknown_section_is_a_parse_error(tmp_path, capsys, override, section):
    cfg = write_config(tmp_path, QUANTUM_BASE.format(steps=1, fmt="csv", out=tmp_path / "x.csv"))
    assert run(cfg, overrides=[override], quiet=True) == EXIT_PARSE
    assert capsys.readouterr().err == f"error: config parse: unknown section [{section}]\n"


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
    "[experiment]\nmode = quantum\nseed = 1\n": "experiment: unknown key(s) ['seed']",
    "[mystery]\nmode = quantum\n": "unknown section [mystery]",
    # an ordinary section, not defaults for every section
    "[DEFAULT]\nsteps = 3\n[experiment]\nmode = quantum\n": "unknown section [DEFAULT]",
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
    "[experiment]\nmode = classical\n[classical]\nmoves = hh:1 hh:5 ht:0 th:0 tt:-1\n":
        "classical.moves: outcome 'hh' given twice",
    "[experiment]\nmode = quantum\ninitial_position = 1 a\n":
        "experiment.initial_position: expected integers, got '1 a'",
    "[experiment]\nmode = compare\npositions = 1, 2.5\n":
        "experiment.positions: expected integers, got '1, 2.5'",
    "[experiment]\nmode = quantum\nsteps = 1.0\n": "experiment.steps: cannot parse '1.0' as int",
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
    "[experiment]\nmode = quantum\ninitial_position = q\npositions = r\n":
        "experiment.initial_position: expected integers, got 'q'",
    "[experiment]\nmode = quantum\nsteps = r\npositions = s\n": "experiment.steps: cannot parse 'r' as int",
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
    # coin states, coin operators and shifts resolve a name by one rule
    "[experiment]\nmode = quantum\ncoin_operator = bogus\n":
        "unknown coin operator kind 'bogus'; expected one of ['hadamard_n', 'y_n'] or 'custom'",
    "[experiment]\nmode = quantum\ncoin = custom\n": "custom coin state requires amplitudes",
    "[experiment]\nmode = quantum\ncoin_operator = custom\n": "custom coin operator requires a matrix",
    "[experiment]\nmode = quantum\nshift = custom\n": "custom shift requires a displacement table",
    "[experiment]\nmode = quantum\ncoin = ghz3\nshift = s_ec\n":  # size mismatch
        "shift conditions on 2 qubit(s) but coin holds 3",
    "[experiment]\nmode = quantum\ncoin_operator = custom\ncoin_matrix = (1, 0) (0, 0); (0, 0) (1, 0)\n":
        "coin state has 2 qubit(s) but operator acts on 1",
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
    "[experiment]\nmode = compare\npositions = 2 2 -2\n":  # a repeated position
        "positions must be distinct, got [2] more than once",
    "[experiment]\nmode = compare\npositions = 3 -1 3 0 -1\n":
        "positions must be distinct, got [-1, 3] more than once",
    # an empty table is no request: omitting the key lists both supports
    "[experiment]\nmode = compare\npositions =\n":
        "positions is empty; omit the key for the union of both supports",
    "[experiment]\nmode = compare\npositions = ,\n":
        "positions is empty; omit the key for the union of both supports",
    "[experiment]\nmode = compare\ninitial_position = 5\n":  # the classical walk starts at 0
        "compare mode starts both walks at the origin, got initial_position = 5",
    # a walk's caps are checked when it is built, before compare's lattice rules
    "[experiment]\nmode = compare\ncoin = ghz3\nshift = s_2d\nsteps = 1000000000\n":
        "1000000000 steps need a window of 32000000032000000008 amplitudes, "
        "over MAX_WINDOW_AMPLITUDES=8388608",
    "[experiment]\nmode = compare\ninitial_position = 5\nshift = custom\n"
    "shift_table = 1000000 0 0 -1000000\nsteps = 10\n":
        "10 steps need a window of 80000004 amplitudes, over MAX_WINDOW_AMPLITUDES=8388608",
    "[experiment]\nmode = quantum\nshift = custom\nshift_table = 0 0 0 0\nsteps = 3000000\n":
        # a walk that never grows still pays each step's fixed cost
        "3000000 steps need 12300000000 amplitude updates, over MAX_WALK_WORK=10000000000",
    "[experiment]\nmode = entropy\ncoin = ghz3\n[classical]\nn = 4999999\n":  # time cap
        "4999999 steps need 25020479995903 site updates, over MAX_WINDOW_UPDATES=50000000000",
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
    # custom data beside a preset: the preset's data is used, so the data is refused
    "[experiment]\nmode = quantum\ncoin_amplitudes = (1, 0)\ncoin_matrix = (1, 0) (0, 0); (0, 0) (1, 0)\n"
    "shift_table = 1 -1\nsteps = 2\n":
        "experiment.coin_amplitudes applies only to coin = 'custom', got coin = 'phi_plus'",
    "[experiment]\nmode = quantum\ncoin_operator = y_n\ncoin_matrix = (1, 0) (0, 0); (0, 0) (1, 0)\n":
        "experiment.coin_matrix applies only to coin_operator = 'custom', got coin_operator = 'y_n'",
    "[experiment]\nmode = quantum\ncoin = ghz3\nshift = s_2d\nshift_table = 1 -1\n":
        "experiment.shift_table applies only to shift = 'custom', got shift = 's_2d'",
    "[experiment]\nmode = entropy\ncoin = theta1\ncoin_amplitudes = (1, 0) (0, 0) (0, 0) (0, 0)\n":
        "experiment.coin_amplitudes applies only to coin = 'custom', got coin = 'theta1'",
    # ... and it is checked after the classical section, before the other experiment checks
    "[experiment]\nmode = warp\nshift_table = 1 -1\n":
        "experiment.shift_table applies only to shift = 'custom', got shift = 's_ec'",
    "[experiment]\nmode = quantum\nshift_table = 1 -1\n[classical]\nn = -1\n":
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


@pytest.mark.parametrize(
    "coin, message",
    [
        ("coin = custom\ncoin_amplitudes = (1e308, 0) (1e308, 0)\n",
         "amplitudes are not normalized: |psi|^2 = inf"),
        ("coin = single_hadamard_bias\ncoin_operator = custom\n"
         "coin_matrix = (1e200, 0) (1e200, 0); (1e200, 0) (-1e200, 0)\n",
         "matrix is not unitary: max |U U^dag - I| = inf"),
    ],
    ids=["amplitudes", "matrix"],
)
def test_a_coin_past_float64_is_one_stderr_line(tmp_path, coin, message):
    # in a fresh process, where a numpy RuntimeWarning would reach stderr
    cfg = write_config(tmp_path, "[experiment]\nmode = quantum\nshift = s_single\nsteps = 3\n" + coin)
    result = run_process("-m", "entwalk.cli", "run", cfg, "--quiet")
    assert result.returncode == EXIT_VALIDATION
    assert result.stderr == f"error: validation: {message}\n"


def test_custom_data_inherited_beside_a_preset_is_refused(tmp_path, capsys):
    # a base-section table reaches every batch job; job 2 names a preset beside it
    cfg = write_config(
        tmp_path,
        "[experiment]\nmode = quantum\nshift = custom\nshift_table = 1 0 0 -1\nsteps = 2\n"
        f"output = {tmp_path / 'out.csv'}\n[experiment.1]\n[experiment.2]\nshift = s_ec_prime\n",
    )
    assert run(cfg, quiet=True) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "error: validation: experiment.shift_table applies only to shift = 'custom', "
        "got shift = 's_ec_prime'\n"
    )
    assert not list(tmp_path.glob("out*"))


# The keys each mode reads, by section, and a config line (or two) that sets
# each key to a value every mode accepts: a key read only beside another
# key's value follows that line.
MODE_READS = {
    "quantum": {"experiment": {"mode", "coin", "coin_amplitudes", "coin_operator", "coin_matrix",
                               "shift", "shift_table", "steps", "initial_position",
                               "output_format", "output"},
                "classical": set()},
    "classical": {"experiment": {"mode", "output_format", "output"},
                  "classical": {"model", "n", "p", "rho", "moves"}},
    "compare": {"experiment": {"mode", "coin", "coin_amplitudes", "coin_operator", "coin_matrix",
                               "shift", "shift_table", "steps", "initial_position", "positions",
                               "output_format", "output"},
                "classical": {"model", "n", "p", "rho", "moves"}},
    "entropy": {"experiment": {"mode", "coin", "coin_amplitudes", "cut", "output_format", "output"},
                "classical": set()},
}
KEY_LINES = {
    ("experiment", "coin"): ["coin = phi_minus"],
    ("experiment", "coin_amplitudes"): ["coin = custom", "coin_amplitudes = (0, 1) (0, 0) (0, 0) (0, 0)"],
    ("experiment", "coin_operator"): ["coin_operator = y_n"],
    ("experiment", "coin_matrix"): [
        "coin_operator = custom",
        "coin_matrix = (1, 0) (0, 0) (0, 0) (0, 0); (0, 0) (1, 0) (0, 0) (0, 0); "
        "(0, 0) (0, 0) (1, 0) (0, 0); (0, 0) (0, 0) (0, 0) (1, 0)",
    ],
    ("experiment", "shift"): ["shift = s_ec_prime"],
    ("experiment", "shift_table"): ["shift = custom", "shift_table = 1 0 0 -1"],
    ("experiment", "steps"): ["steps = 3"],
    ("experiment", "initial_position"): ["initial_position = 0"],
    ("experiment", "positions"): ["positions = 1"],
    ("experiment", "cut"): ["cut = 1"],
    ("classical", "model"): ["model = binomial"],
    ("classical", "n"): ["n = 3"],
    ("classical", "p"): ["p = 0.5"],
    ("classical", "rho"): ["rho = 0.5"],
    ("classical", "moves"): ["moves = hh:1 ht:0 th:0 tt:-1"],
}
UNREAD = [
    (mode, section, key)
    for mode in MODE_READS
    for section, key in KEY_LINES
    if key not in MODE_READS[mode][section]
]


def mode_config(mode, out, keys):
    # One job of ``mode`` writing ``out``, with the config lines of ``keys``.
    lines = {"experiment": [f"mode = {mode}", f"output = {out}"], "classical": []}
    for section, key in keys:
        lines[section] += KEY_LINES[section, key]
    return "".join(f"[{name}]\n" + "".join(f"{line}\n" for line in body)
                   for name, body in lines.items() if body)


def unread_message(section, key, mode):
    modes = tuple(m for m in MODE_READS if key in MODE_READS[m][section])
    return f"error: validation: {section}.{key} applies only to mode in {modes}, got mode = {mode!r}\n"


@pytest.mark.parametrize("mode, section, key", UNREAD, ids=[f"{m}-{k}" for m, _, k in UNREAD])
def test_a_key_the_mode_does_not_read_is_refused(tmp_path, capsys, mode, section, key):
    # the first unread key is named: a key read only beside a preset key's
    # value comes after that key, which the mode may not read either
    out = tmp_path / "out.csv"
    cfg = write_config(tmp_path, mode_config(mode, out, [(section, key)]))
    assert run(cfg, quiet=True) == EXIT_VALIDATION
    first = next(line.partition(" ")[0] for line in KEY_LINES[section, key]
                 if line.partition(" ")[0] not in MODE_READS[mode][section])
    assert capsys.readouterr().err == unread_message(section, first, mode)
    assert not out.exists()


@pytest.mark.parametrize("mode", MODE_READS)
def test_every_key_the_mode_reads_is_accepted(tmp_path, mode):
    out = tmp_path / "out.csv"
    # the custom data keys set coin, coin_operator and shift; p is the binomial model's
    keys = [(section, key) for section, key in KEY_LINES if key in MODE_READS[mode][section]
            and key not in ("coin", "coin_operator", "shift", "p")]
    text = mode_config(mode, out, keys).replace("model = binomial", "model = correlated")
    assert run(write_config(tmp_path, text), quiet=True) == EXIT_OK
    assert out.exists()


# Every key with a default, spelled out at it.
DEFAULT_SPELLINGS = {
    ("experiment", "coin"): "phi_plus",
    ("experiment", "coin_operator"): "hadamard_n",
    ("experiment", "shift"): "s_ec",
    ("experiment", "steps"): "100",
    ("experiment", "output_format"): "csv",
    ("classical", "model"): "binomial",
    ("classical", "n"): "100",
    ("classical", "p"): "0.5",
    ("classical", "rho"): "1.0",
    ("classical", "moves"): "hh:1 ht:0 th:0 tt:-1",
}


def test_the_default_spellings_are_the_key_tables_defaults():
    assert set(DEFAULT_SPELLINGS) == {(name, key) for name, table in _SECTIONS.items()
                                      for key, row in table.items() if row[1] is not None}
    for (name, key), text in DEFAULT_SPELLINGS.items():
        parse, default, _, _ = _SECTIONS[name][key]
        assert parse(text, f"{name}.{key}") == default


@pytest.mark.parametrize("mode, model", [(mode, "binomial") for mode in MODE_READS] + [
    (mode, "correlated") for mode in MODE_READS if MODE_READS[mode]["classical"]])
@pytest.mark.parametrize("fmt", ["csv", "gnuplot", "json"])
def test_an_omitted_key_means_its_default(tmp_path, capsys, mode, model, fmt):
    # the bare config sets mode, and the correlated model where it is not the default
    bare = {"experiment": {"mode": mode}, "classical": {}}
    if model == "correlated":
        bare["classical"]["model"] = model
    spelled = {name: dict(keys) for name, keys in bare.items()}
    for (name, key), text in DEFAULT_SPELLINGS.items():
        gate = _SECTIONS[name][key][3]
        if key in MODE_READS[mode][name] and key not in spelled[name] and gate in (None, ("model", model)):
            spelled[name][key] = text
    overrides = [] if fmt == "csv" else [f"output_format={fmt}"]
    printed = []
    for sections in (bare, spelled):
        text = "".join(f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
                       for name, keys in sections.items() if keys)
        assert run(write_config(tmp_path, text), overrides, quiet=True) == EXIT_OK
        printed.append(capsys.readouterr().out)
    if fmt == "json":
        printed = [{k: v for k, v in json.loads(out).items() if k != "config"} for out in printed]
    assert printed[0] and printed[1] == printed[0]


def test_the_readme_key_table_is_the_key_table():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    lines = readme[readme.index("| key | read in mode | read only beside | default |"):].splitlines()
    rows = {}  # (section, key) -> (modes, beside, default cell)
    for line in itertools.takewhile(lambda line: line.startswith("|"), lines[2:]):
        key, modes, beside, default = (cell.strip() for cell in line.strip("|").split("|"))
        section = "classical" if key.startswith("`[classical]`") else "experiment"
        modes = MODES if modes == "every mode" else tuple(m.strip() for m in modes.split(","))
        beside = tuple(beside.strip("`").split(" = ")) if beside else None
        rows[section, key.rpartition(" ")[2].strip("`")] = (modes, beside, default)
    assert list(rows) == [(name, key) for name, table in _SECTIONS.items() for key in table]
    for (name, key), (modes, beside, default) in rows.items():
        parse, value, readers, gate = _SECTIONS[name][key]
        assert (modes, beside) == (readers, gate), key
        if value is None:
            assert "`" not in default, key
        else:
            assert default.startswith("`") and parse(default.strip("`"), key) == value, key


def test_the_module_docstring_gives_the_usage():
    assert f"Usage: ``{USAGE}``" in entwalk.cli.__doc__


# Batch configs with a key that no job reads -> the error line.
UNREAD_IN_BATCH = {
    # a job's own key, read by the base's mode but not the job's
    "own-key": (
        "[experiment]\nmode = quantum\nsteps = 2\noutput = {out}\n"
        "[experiment.1]\n[experiment.2]\nmode = entropy\nsteps = 3\n",
        unread_message("experiment", "steps", "entropy"),
    ),
    # a base key that each job takes and none reads: the first job's mode is named
    "base-key": (
        "[experiment]\nmode = quantum\npositions = 1\noutput = {out}\n"
        "[experiment.1]\nmode = entropy\n[experiment.2]\n",
        unread_message("experiment", "positions", "entropy"),
    ),
    # a base key that the job which reads it sets for itself
    "base-key-overridden": (
        "[experiment]\nmode = entropy\nsteps = 2\noutput = {out}\n"
        "[experiment.1]\n[experiment.2]\nmode = quantum\nsteps = 3\n",
        unread_message("experiment", "steps", "entropy"),
    ),
    # a base classical key that two jobs take: the compare job sets its own
    "base-classical-key": (
        "[experiment]\nmode = quantum\noutput = {out}\n[classical]\nn = 3\n[experiment.1]\n"
        "[experiment.2]\nmode = entropy\n[experiment.3]\nmode = compare\n[classical.3]\nn = 2\n",
        unread_message("classical", "n", "quantum"),
    ),
}


@pytest.mark.parametrize("case", UNREAD_IN_BATCH)
def test_a_batch_key_no_job_reads_is_refused(tmp_path, capsys, case):
    text, message = UNREAD_IN_BATCH[case]
    cfg = write_config(tmp_path, text.replace("{out}", str(tmp_path / "out.csv")))
    assert run(cfg, quiet=True) == EXIT_VALIDATION
    assert capsys.readouterr().err == message
    assert list(tmp_path.glob("out*")) == []


@pytest.mark.parametrize(
    "mode, override, section, key",
    [("entropy", "steps=1", "experiment", "steps"), ("classical", "steps=1", "experiment", "steps"),
     ("quantum", "classical.n=1", "classical", "n"), ("entropy", "classical.n=1", "classical", "n")],
)
def test_an_override_lands_in_the_base_section(tmp_path, capsys, mode, override, section, key):
    out = tmp_path / "out.csv"
    cfg = write_config(tmp_path, mode_config(mode, out, []))
    assert run(cfg, overrides=[override], quiet=True) == EXIT_VALIDATION
    assert capsys.readouterr().err == unread_message(section, key, mode)
    assert not out.exists()


@pytest.mark.parametrize("overrides", [[], ["steps=3"]], ids=["config", "override"])
def test_a_base_key_every_batch_job_sets_is_refused(tmp_path, capsys, overrides):
    # no job takes the base steps, so neither its value nor an override of it
    # reaches a walk
    out = tmp_path / "out.csv"
    cfg = write_config(
        tmp_path,
        f"[experiment]\nmode = quantum\nsteps = 7\noutput = {out}\n"
        "[experiment.1]\nsteps = 1\n[experiment.2]\nsteps = 2\n",
    )
    assert run(cfg, overrides=overrides, quiet=True) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "error: validation: experiment.steps is read by no job: every batch job sets its own\n"
    )
    assert list(tmp_path.glob("out*")) == []


# batch3 prints three jobs' json to stdout, its base steps reaching the
# entropy job too; unread names the first of its unread keys in table order
HASH_SEED_CONFIGS = {
    "batch3": "[experiment]\nmode = quantum\nsteps = 20\noutput_format = json\n[experiment.1]\n"
              "coin = ghz3\nshift = s_2d\n[experiment.2]\nmode = compare\n[experiment.10]\n"
              "mode = entropy\ncoin = theta1\n",
    "unread": "[experiment]\nmode = classical\ncut = 1\ninitial_position = 5\npositions = 3\n",
}


def test_output_and_errors_do_not_depend_on_the_hash_seed(tmp_path):
    results = {}
    for name, text in HASH_SEED_CONFIGS.items():
        cfg = write_config(tmp_path, text, name=f"{name}.ini")
        runs = [run_process("-m", "entwalk.cli", "run", cfg, "--quiet", PYTHONHASHSEED=seed)
                for seed in ("0", "1")]
        assert runs[0].stdout == runs[1].stdout and runs[0].stderr == runs[1].stderr
        results[name] = runs[0]
    assert results["batch3"].returncode == EXIT_OK and results["batch3"].stderr == ""
    text, docs, end = results["batch3"].stdout, [], 0
    while end < len(text):
        doc, end = json.JSONDecoder().raw_decode(text, end)
        docs.append(doc["metadata"]["mode"])
        end += 1
    assert docs == ["quantum", "compare", "entropy"]
    assert results["unread"].returncode == EXIT_VALIDATION
    assert results["unread"].stderr == unread_message("experiment", "initial_position", "classical")


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


def test_batch_write_failure_in_a_later_job_leaves_no_file(tmp_path, capsys):
    # job 1's output is renamed into place only after every job has run
    out = tmp_path / "out.csv"
    missing = tmp_path / "missing" / "out.csv"
    cfg = write_config(
        tmp_path,
        QUANTUM_BASE.format(steps=2, fmt="csv", out=out)
        + f"\n[experiment.1]\nsteps = 1\n\n[experiment.2]\noutput = {missing}\n",
    )
    assert run(cfg) == EXIT_IO
    missing_2 = tmp_path / "missing" / "out.2.csv"
    assert capsys.readouterr().err == (
        f"error: i/o: [Errno 2] No such file or directory: '{missing_2}'\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.ini"]


def test_batch_rename_failure_names_the_output_and_leaves_no_file(tmp_path, capsys, monkeypatch):
    # a temporary that fails to take its output's place is reported as
    # that output, and removed
    out = tmp_path / "out.csv"
    cfg = write_config(
        tmp_path,
        QUANTUM_BASE.format(steps=2, fmt="csv", out=out) + "\n[experiment.1]\nsteps = 1\n\n[experiment.2]\n",
    )

    def refuse(src, dst):
        raise PermissionError(errno.EACCES, "Permission denied", src)

    monkeypatch.setattr(os, "replace", refuse)
    assert run(cfg) == EXIT_IO
    assert capsys.readouterr().err == (
        f"error: i/o: [Errno 13] Permission denied: '{tmp_path / 'out.1.csv'}'\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.ini"]


def test_batch_rename_failure_keeps_the_outputs_renamed_before_it(tmp_path, capsys, monkeypatch):
    # every job runs and every temporary is written before the first
    # rename; the renames then run one by one, so a failing second one
    # leaves the first output in place and removes its own temporary
    cfg = write_config(
        tmp_path,
        QUANTUM_BASE.format(steps=2, fmt="csv", out=tmp_path / "out.csv")
        + "\n[experiment.1]\nsteps = 1\n\n[experiment.2]\n",
    )
    replace, calls = os.replace, []

    def second_fails(src, dst):
        calls.append(dst)
        if len(calls) == 2:
            raise PermissionError(errno.EACCES, "Permission denied", src)
        replace(src, dst)

    monkeypatch.setattr(os, "replace", second_fails)
    assert run(cfg) == EXIT_IO
    assert capsys.readouterr().err == (
        f"error: i/o: [Errno 13] Permission denied: '{tmp_path / 'out.2.csv'}'\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.ini", "out.1.csv"]
    assert (tmp_path / "out.1.csv").read_text() == "position,probability\n-1,0.5\n1,0.5\n"


def test_output_whose_temporary_is_refused_is_written_in_place(tmp_path, monkeypatch):
    # a directory that refuses a new file, as a read-only one does for a
    # user whom file modes bind: the output is written in place
    out = tmp_path / "walk.csv"
    out.write_text("old\n")
    inode = out.stat().st_ino
    cfg = write_config(tmp_path, QUANTUM_BASE.format(steps=1, fmt="csv", out=out))
    real_open = os.open

    def refuse_temporaries(path, flags, *args, **kwargs):
        if os.fspath(path).endswith(".tmp"):
            raise PermissionError(errno.EACCES, "Permission denied", path)
        return real_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", refuse_temporaries)
    assert run(cfg, quiet=True) == EXIT_OK
    assert out.read_text() == "position,probability\n-1,0.5\n1,0.5\n"
    assert out.stat().st_ino == inode
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.ini", "walk.csv"]


def test_output_to_a_device_is_written_in_place(tmp_path):
    cfg = write_config(tmp_path, QUANTUM_BASE.format(steps=2, fmt="csv", out=os.devnull))
    assert run(cfg, quiet=True) == EXIT_OK
    assert Path(os.devnull).is_char_device()


def test_output_through_a_symlink_replaces_its_target(tmp_path):
    target = tmp_path / "target.csv"
    target.write_text("old\n")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    cfg = write_config(tmp_path, QUANTUM_BASE.format(steps=1, fmt="csv", out=link))
    assert run(cfg, quiet=True) == EXIT_OK
    assert link.is_symlink()
    assert target.read_text() == "position,probability\n-1,0.5\n1,0.5\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.ini", "link.csv", "target.csv"]


def _permission_bits_bind(tmp_path):
    # False for a user, such as root, whom a file's mode does not stop
    probe = tmp_path / "probe"
    probe.write_text("")
    probe.chmod(0o444)
    try:
        os.close(os.open(probe, os.O_WRONLY))
    except PermissionError:
        return True
    finally:
        probe.unlink()
    return False


def test_batch_with_a_read_only_output_fails_and_keeps_it(tmp_path, capsys):
    if not _permission_bits_bind(tmp_path):
        pytest.skip("file modes do not bind this user")
    out_2 = tmp_path / "out.2.csv"
    out_2.write_text("old\n")
    out_2.chmod(0o444)
    cfg = write_config(
        tmp_path,
        QUANTUM_BASE.format(steps=2, fmt="csv", out=tmp_path / "out.csv")
        + "\n[experiment.1]\nsteps = 1\n\n[experiment.2]\n",
    )
    assert run(cfg) == EXIT_IO
    assert capsys.readouterr().err == f"error: i/o: [Errno 13] Permission denied: '{out_2}'\n"
    assert out_2.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.ini", "out.2.csv"]


def test_output_in_a_read_only_directory_is_written_in_place(tmp_path):
    if not _permission_bits_bind(tmp_path):
        pytest.skip("file modes do not bind this user")
    locked = tmp_path / "locked"
    locked.mkdir()
    out = locked / "walk.csv"
    out.write_text("old\n")
    cfg = write_config(tmp_path, QUANTUM_BASE.format(steps=1, fmt="csv", out=out))
    locked.chmod(0o555)
    try:
        assert run(cfg, quiet=True) == EXIT_OK
        assert out.read_text() == "position,probability\n-1,0.5\n1,0.5\n"
        assert [p.name for p in locked.iterdir()] == ["walk.csv"]
    finally:
        locked.chmod(0o755)


def test_replaced_output_keeps_its_mode(tmp_path):
    out = tmp_path / "walk.csv"
    out.write_text("old\n")
    out.chmod(0o640)
    cfg = write_config(tmp_path, QUANTUM_BASE.format(steps=1, fmt="csv", out=out))
    assert run(cfg, quiet=True) == EXIT_OK
    assert out.read_text() == "position,probability\n-1,0.5\n1,0.5\n"
    assert out.stat().st_mode & 0o7777 == 0o640


def test_new_output_gets_the_umask_mode(tmp_path):
    out = tmp_path / "walk.csv"
    cfg = write_config(tmp_path, QUANTUM_BASE.format(steps=1, fmt="csv", out=out))
    umask = os.umask(0o027)
    try:
        assert run(cfg, quiet=True) == EXIT_OK
    finally:
        os.umask(umask)
    assert out.stat().st_mode & 0o7777 == 0o640


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


MODE_CONFIGS = {
    "quantum-csv": QUANTUM_BASE.format(steps=2, fmt="csv", out="{out}"),
    "quantum-json": QUANTUM_BASE.format(steps=2, fmt="json", out="{out}"),
    "quantum-2d-gnuplot": "[experiment]\nmode = quantum\ncoin = ghz3\nshift = s_2d\nsteps = 2\n"
                          "output_format = gnuplot\noutput = {out}\n",
    "classical": "[experiment]\nmode = classical\noutput = {out}\n[classical]\nn = 3\n",
    "compare": "[experiment]\nmode = compare\nsteps = 2\noutput = {out}\n[classical]\nn = 2\n",
    "entropy": "[experiment]\nmode = entropy\ncoin = ghz3\noutput = {out}\n",
}


@pytest.mark.parametrize("mode", MODE_CONFIGS)
def test_console_main_freezes_the_loaded_heap_and_imports_only_what_it_uses(tmp_path, mode):
    # json only for json output; argparse, gettext and locale never
    out = tmp_path / "walk.out"
    cfg = write_config(tmp_path, MODE_CONFIGS[mode].replace("{out}", str(out)))
    probe = (
        "import gc, sys\n"
        "from entwalk.cli import console_main\n"
        "assert console_main(sys.argv[1:]) == 0\n"
        "modules = ('json', 'argparse', 'gettext', 'locale')\n"
        "print(gc.get_freeze_count(), *(m in sys.modules for m in modules))\n"
    )
    result = run_process("-c", probe, "run", cfg, "--quiet")
    assert result.returncode == 0, result.stderr
    frozen, *loaded = result.stdout.split()
    assert int(frozen) > 0
    assert loaded == [str(mode == "quantum-json"), "False", "False", "False"]
    assert out.exists()


def test_console_main_help_goes_to_stdout(capsys, unfreeze_gc):
    for argv in (["--help"], ["-h"], ["run", "--help"], ["run", "x.ini", "-h"]):
        assert console_main(argv) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: entwalk run CONFIG [--override KEY=VALUE]... [--quiet]\n")
        assert captured.err == ""


def test_console_main_takes_options_before_or_after_the_config(tmp_path, capsys, unfreeze_gc):
    out = tmp_path / "walk.csv"
    cfg = write_config(tmp_path, QUANTUM_BASE.format(steps=2, fmt="csv", out=out))
    argvs = [
        ["run", "--quiet", cfg, "--override", "steps=1"],
        ["run", "--override=steps=1", "--quiet", cfg],
        ["run", "--quiet", "--override", "steps=1", "--", cfg],
    ]
    for argv in argvs:
        out.unlink(missing_ok=True)
        assert console_main(argv) == EXIT_OK
        assert out.read_text() == "position,probability\n-1,0.5\n1,0.5\n"
        assert capsys.readouterr().err == ""


USAGE_ERRORS = {
    "none": [],
    "run-alone": ["run"],
    "unknown-option": ["run", "{cfg}", "--bogus"],
    "abbreviated-option": ["run", "{cfg}", "--quie"],
    "override-without-value": ["run", "{cfg}", "--override"],
    "override-before-an-option": ["run", "{cfg}", "--override", "--quiet"],
    "two-configs": ["run", "{cfg}", "{cfg}"],
    "unknown-command": ["walk", "{cfg}"],
}


@pytest.mark.parametrize("case", USAGE_ERRORS)
def test_console_main_usage_errors_are_one_stderr_line(tmp_path, capsys, unfreeze_gc, case):
    out = tmp_path / "walk.csv"
    cfg = write_config(tmp_path, QUANTUM_BASE.format(steps=1, fmt="csv", out=out))
    argv = [cfg if word == "{cfg}" else word for word in USAGE_ERRORS[case]]
    assert console_main(argv) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: usage: ") and captured.err.count("\n") == 1
    assert captured.err.endswith("; expected entwalk run CONFIG [--override KEY=VALUE]... [--quiet]\n")
    assert not out.exists()


def test_a_usage_error_in_a_fresh_process_has_no_traceback():
    result = run_process("-m", "entwalk.cli", "run")
    assert result.returncode == EXIT_PARSE
    assert result.stdout == ""
    assert result.stderr == (
        "error: usage: missing CONFIG; expected entwalk run CONFIG [--override KEY=VALUE]... [--quiet]\n"
    )


ONE_SITE = Distribution(origin=(0,), offsets=(np.array([0]),), values=[1.0])


def test_emit_distribution_rejects_unknown_format(tmp_path):
    with pytest.raises(ValidationError):
        emit_distribution(ONE_SITE, "yaml", str(tmp_path / "x"))


def test_emit_distribution_single_site(tmp_path):
    path = tmp_path / "one.csv"
    emit_distribution(ONE_SITE, "csv", str(path))
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


# Values a key of a multi-key fuzz case draws: some that open the other
# keys and the deeper checks, then its parser's grammar and junk.
FUZZ_VALUES = {
    "coin": ["phi_plus", "ghz3", "theta1", "single_hadamard_bias", "custom"],
    "coin_amplitudes": ["(1, 0) (0, 0)", "(0.6, 0) (0, 0.8) (0, 0) (0, 0)", "(1, 0) (1, 0)", "(1, 0)"],
    "coin_operator": ["hadamard_n", "y_n", "custom"],
    "coin_matrix": ["(1, 0) (0, 0); (0, 0) (1, 0)", "(0, 0) (1, 0); (1, 0) (0, 0)",
                    "(1, 0) (1, 0); (0, 0) (1, 0)"],
    "shift": ["s_ec", "s_single", "s_3b", "s_2d", "custom"],
    "shift_table": ["1 -1", "1, 0, 0, -1", "(1, 0) (0, 1) (-1, 0) (0, -1)", "(1, 0) (0)"],
    "steps": ["0", "3", "-1", "100000000"],
    "initial_position": ["0", "2", "1, -1", ""],
    "output_format": ["csv", "json", "gnuplot", "yaml"],
    "output": ["out.csv", ""],
    "positions": ["0", "1 -1", "2 2", ", "],
    "cut": ["1", "2", "0"],
    "model": ["binomial", "correlated", "quantum"],
    "n": ["3", "-1", "100000000"],
    "p": ["0.5", "0", "1.5", "nan"],
    "rho": ["0.5", "-1", "2", "inf"],
    "moves": ["hh:1 ht:0 th:0 tt:-1", "hh:2, ht:1, th:-1, tt:-2", "hh:1 ht:0", "hh:1 hh:1"],
}


def fuzz_section(name):
    return st.fixed_dictionaries({}, optional={
        key: st.sampled_from(FUZZ_VALUES[key]) for key in _SECTIONS[name] if key in FUZZ_VALUES})


@settings(deadline=None, max_examples=300)
@given(
    mode=st.sampled_from(MODES),
    exp=fuzz_section("experiment"),
    cls=fuzz_section("classical"),
    # at most one value from the parsers' grammar or junk; it most often fails to parse
    junk=st.none() | st.tuples(st.sampled_from(sorted(FUZZ_VALUES)),
                               st.text() | st.text(alphabet="0123456789 ()+-.,;:eEjinfaht")),
)
def test_several_keys_at_once_fail_only_as_config_errors(mode, exp, cls, junk):
    # keys of both sections in every mode; builds the job, but runs no walk
    if junk is not None:
        key, text = junk
        (exp if key in _SECTIONS["experiment"] else cls)[key] = text
    try:
        _build_experiment({"mode": mode, **exp}, cls)
    except (ParseError, ValidationError):
        pass
