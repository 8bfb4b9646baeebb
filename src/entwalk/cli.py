"""Config-driven command line: run a walk described by an INI file and write
its distribution in a machine- or plot-friendly format.

Usage: ``entwalk run <config> [--override key=value ...] [--quiet]``

The config file has an ``[experiment]`` section (mode, presets, steps,
output) and an optional ``[classical]`` section (binomial / correlated-pair
parameters).  Numbered sections ``[experiment.1]``, ``[classical.1]``, ...
define batch sub-configs layered over the base sections; each sub-config
writes its own output file with the index inserted before the extension.

Exit codes: 0 success, 2 config parse error, 3 validation error (also out of
memory or an arithmetic error), 4 I/O error.

Output formats:

csv
    Header ``position,probability`` (1D) or ``position,position_y,probability``
    (2D), rows sorted ascending, probabilities to 12 significant digits.
json
    Object with the resolved config echo, run metadata and the sorted
    (position, probability) pairs at full float precision.
gnuplot
    Whitespace-separated columns, ready for ``plot``/``splot``.  A distribution
    fills its support's bounding box, zero-probability grid points included;
    compare and entropy tables print only their own rows.

In csv and gnuplot output, probabilities below 1e-15 print as 0; json keeps
every value exact.
"""

from __future__ import annotations

import argparse
import configparser
import io
import json
import sys
from dataclasses import dataclass, field
from itertools import islice

from .classical import (
    DEFAULT_MOVES,
    OUTCOMES,
    JointCoinDistribution,
    binomial_walk_distribution,
    check_walk_cost,
    correlated_walk_distribution,
)
from .coins import build_coin_operator, build_initial_coin, entanglement_entropy
from .core import Distribution, state_norm
from .engine import WalkConfig, evolve, position_distribution
from .shifts import SHIFT_PRESETS, build_shift

__all__ = [
    "EXIT_IO",
    "EXIT_OK",
    "EXIT_PARSE",
    "EXIT_VALIDATION",
    "ClassicalParams",
    "ExperimentConfig",
    "console_main",
    "emit_distribution",
    "run",
]

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_IO = 4

# Human-readable formats print probabilities below this as 0; json never does.
PRINT_FLOOR = 1e-15

MODES = ("quantum", "classical", "compare", "entropy")
OUTPUT_FORMATS = ("csv", "json", "gnuplot")

class ParseError(Exception):
    """Malformed config file or field value; maps to EXIT_PARSE."""


class ValidationError(Exception):
    """Well-formed config that violates a contract; maps to EXIT_VALIDATION."""


@dataclass(frozen=True)
class ClassicalParams:
    """Parameters of the classical reference walk."""

    model: str = "binomial"
    n: int = 100
    p: float = 0.5
    rho: float = 1.0
    moves: dict = field(default_factory=lambda: dict(DEFAULT_MOVES))

    def __post_init__(self) -> None:
        if self.model not in ("binomial", "correlated"):
            raise ValidationError(
                f"classical.model must be 'binomial' or 'correlated', got {self.model!r}"
            )
        if self.n < 0:
            raise ValidationError(f"classical.n must be nonnegative, got {self.n}")
        # The walks' own messages, so a bad value reads the same whether it
        # is caught here or by the classical module.
        if self.model == "binomial" and not 0.0 <= self.p <= 1.0:
            raise ValidationError(f"step probability must lie in [0, 1], got {self.p}")
        if self.model == "correlated" and not -1.0 <= self.rho <= 1.0:
            raise ValidationError(f"correlation must lie in [-1, 1], got {self.rho}")
        try:
            check_walk_cost(self.n, self.moves if self.model == "correlated" else DEFAULT_MOVES)
        except ValueError as exc:
            raise ValidationError(str(exc)) from None


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved experiment description, independent of config syntax."""

    mode: str
    coin: str = "phi_plus"
    coin_amplitudes: tuple | None = None
    coin_operator: str = "hadamard_n"
    coin_matrix: tuple | None = None
    shift: str = "s_ec"
    shift_table: tuple | None = None
    steps: int = 100
    initial_position: tuple | None = None
    classical: ClassicalParams = field(default_factory=ClassicalParams)
    output_format: str = "csv"
    output_path: str | None = None
    seed: int | None = None
    positions: tuple | None = None
    cut: int | None = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValidationError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.output_format not in OUTPUT_FORMATS:
            raise ValidationError(
                f"output_format must be one of {OUTPUT_FORMATS}, got {self.output_format!r}"
            )
        if self.steps < 0:
            raise ValidationError(f"steps must be nonnegative, got {self.steps}")


def _format_prob(p: float) -> str:
    return "0" if p < PRINT_FLOOR else format(p, ".12g")


# Rows go out this many to a write, except that a 2D gnuplot box goes out
# one x block to a write.
_BLOCK_ROWS = 4096


def _rows(labels, values, sep: str):
    # csv and table rows, as texts of _BLOCK_ROWS rows.
    rows = zip(*[map(str, axis) for axis in labels], *[map(_format_prob, v) for v in values])
    while text := "".join([sep.join(row) + "\n" for row in islice(rows, _BLOCK_ROWS)]):
        yield text


def _box_rows(labels, probs):
    # gnuplot positions: every grid point of the support's bounding box,
    # zeros included, with a blank line after each x block in 2D.  Labels
    # are sorted Python ints of any size; only their offsets from the box
    # corner index the dense grid.
    ys = labels[-1]
    y0 = min(ys)
    width = max(ys) - y0 + 1
    if len(labels) == 1:
        grid = [0.0] * width
        for y, p in zip(ys, probs):
            grid[y - y0] = p
        yield from _rows([range(y0, y0 + width)], [grid], " ")
        return
    xs = labels[0]
    x0 = xs[0]
    grid = [0.0] * ((xs[-1] - x0 + 1) * width)
    for x, y, p in zip(xs, ys, probs):
        grid[(x - x0) * width + y - y0] = p
    heads = [f" {y} " for y in range(y0, y0 + width)]
    for start in range(0, len(grid), width):
        x = str(x0 + start // width)
        block = grid[start:start + width]
        yield "".join([x + head + _format_prob(p) + "\n" for head, p in zip(heads, block)]) + "\n"


def _write_table(
    header: list[str],
    labels: list,
    values: list,
    output_format: str,
    path: str | None,
    config_echo: dict,
    metadata: dict,
    json_key: str,
    box: bool = False,
) -> None:
    # The one table writer.  Rows are sorted by label; ``labels`` holds one
    # column of ints per label and ``values`` one column of floats per value
    # cell.  csv and gnuplot print values through PRINT_FLOOR; json keeps
    # them exact, with a row's labels folded into one list when it has
    # several.  ``box`` zero-fills the labels' bounding box in gnuplot.
    def write(out: io.TextIOBase) -> None:
        if output_format == "json":
            keys = labels[0] if len(labels) == 1 else [list(k) for k in zip(*labels)]
            doc = {"config": config_echo, "metadata": metadata,
                   json_key: [list(row) for row in zip(keys, *values)]}
            json.dump(doc, out, indent=2, sort_keys=True)
            out.write("\n")
            return
        if output_format == "csv":
            out.write(",".join(header) + "\n")
            out.writelines(_rows(labels, values, ","))
        else:
            out.write("# " + " ".join(header) + "\n")
            out.writelines(_box_rows(labels, values[0]) if box else _rows(labels, values, " "))

    if path is None:
        write(sys.stdout)
    else:
        with open(path, "w", newline="\n") as out:
            write(out)


def emit_distribution(
    dist: Distribution,
    output_format: str,
    path: str | None,
    config_echo: dict | None = None,
    metadata: dict | None = None,
) -> None:
    """Write one distribution to ``path`` (or stdout when ``path`` is None).

    See the module docstring for the three formats.  Raises OSError on an
    unwritable path and ValidationError on an unknown format.
    """
    if output_format not in OUTPUT_FORMATS:
        raise ValidationError(f"unknown output format {output_format!r}")
    keys = dist.support()
    probs = list(map(dist.probs.__getitem__, keys))
    if keys and isinstance(keys[0], tuple):
        labels = list(zip(*keys))
        first = "position_x" if output_format == "gnuplot" else "position"
        header = [first, "position_y", "probability"]
    else:
        labels = [keys]
        header = ["position", "probability"]
    _write_table(header, labels, [probs], output_format, path, config_echo or {}, metadata or {},
                 "distribution", box=True)


def _emit_table(
    header: list[str],
    labels: list[int],
    values: list[list[float]],
    output_format: str,
    path: str | None,
    config_echo: dict,
    metadata: dict,
    json_key: str,
) -> None:
    # Compare and entropy tables: one column of integer labels, then value
    # columns; gnuplot prints only the given rows.
    _write_table(header, [labels], values, output_format, path, config_echo, metadata, json_key)


def _groups(text: str) -> list[tuple[str, list[str]]]:
    # "(a, b) (c, d) ..." -> [(group text, its fields), ...]
    groups = [t.strip() for t in text.replace("(", " ").split(")")]
    return [(group, group.replace(",", " ").split()) for group in groups if group]


def _parse_complex_pairs(text: str, where: str) -> tuple[complex, ...]:
    # "(re, im) (re, im) ..." -> complex tuple.
    values = []
    for group, parts in _groups(text):
        if len(parts) != 2:
            raise ParseError(f"{where}: expected (re, im) pairs, got {group!r}")
        try:
            values.append(complex(float(parts[0]), float(parts[1])))
        except ValueError:
            raise ParseError(f"{where}: non-numeric entry {group!r}") from None
    if not values:
        raise ParseError(f"{where}: empty value")
    return tuple(values)


def _parse_matrix(text: str, where: str) -> tuple:
    rows = [r for r in text.split(";") if r.strip()]
    return tuple(_parse_complex_pairs(r, where) for r in rows)


def _parse_shift_table(text: str, where: str):
    if "(" in text:
        rows = []
        for group, parts in _groups(text):
            try:
                rows.append(tuple(int(x) for x in parts))
            except ValueError:
                raise ParseError(f"{where}: non-integer displacement {group!r}") from None
        return tuple(rows)
    try:
        return tuple(int(x) for x in text.split())
    except ValueError:
        raise ParseError(f"{where}: expected integers, got {text!r}") from None


def _parse_moves(text: str, where: str) -> dict:
    moves = {}
    for tok in text.replace(",", " ").split():
        if ":" not in tok:
            raise ParseError(f"{where}: expected outcome:displacement, got {tok!r}")
        key, _, val = tok.partition(":")
        if key not in OUTCOMES:
            raise ParseError(f"{where}: unknown outcome {key!r}, expected one of {OUTCOMES}")
        try:
            moves[key] = int(val)
        except ValueError:
            raise ParseError(f"{where}: non-integer displacement {val!r}") from None
    return moves


def _parse_int_list(text: str, where: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.replace(",", " ").split())
    except ValueError:
        raise ParseError(f"{where}: expected integers, got {text!r}") from None


def _parse_text(text: str, where: str) -> str:
    return text.strip()


def _scalar(kind):
    def parse(text: str, where: str):
        try:
            return kind(text)
        except ValueError:
            raise ParseError(f"{where}: cannot parse {text!r} as {kind.__name__}") from None

    return parse


# Section -> config key -> (config field, value parser).  A table names every
# key its section accepts and parses values in its order, which picks the
# error a config with several bad values reports: an unknown experiment key,
# a missing mode, the classical section, then the experiment values.
_SECTIONS = {
    "experiment": {
        "mode": ("mode", _parse_text),
        "coin": ("coin", _parse_text),
        "coin_amplitudes": ("coin_amplitudes", _parse_complex_pairs),
        "coin_operator": ("coin_operator", _parse_text),
        "coin_matrix": ("coin_matrix", _parse_matrix),
        "shift": ("shift", _parse_text),
        "shift_table": ("shift_table", _parse_shift_table),
        "steps": ("steps", _scalar(int)),
        "initial_position": ("initial_position", _parse_int_list),
        "output_format": ("output_format", _parse_text),
        "output": ("output_path", _parse_text),
        "seed": ("seed", _scalar(int)),
        "positions": ("positions", _parse_int_list),
        "cut": ("cut", _scalar(int)),
    },
    "classical": {
        "model": ("model", _parse_text),
        "n": ("n", _scalar(int)),
        "p": ("p", _scalar(float)),
        "rho": ("rho", _scalar(float)),
        "moves": ("moves", _parse_moves),
    },
}


def _check_keys(name: str, section: dict) -> None:
    unknown = set(section) - _SECTIONS[name].keys()
    if unknown:
        raise ParseError(f"{name}: unknown key(s) {sorted(unknown)}")


def _parse_fields(name: str, section: dict) -> dict:
    return {
        fld: parse(section[key], f"{name}.{key}")
        for key, (fld, parse) in _SECTIONS[name].items()
        if key in section
    }


def _build_classical_params(section: dict) -> ClassicalParams:
    _check_keys("classical", section)
    kwargs = _parse_fields("classical", section)
    if "rho" in section and "model" not in section:
        kwargs["model"] = "correlated"
    return ClassicalParams(**kwargs)


def _build_experiment(exp: dict, cls: dict) -> ExperimentConfig:
    _check_keys("experiment", exp)
    if "mode" not in exp:
        raise ValidationError("experiment.mode is required")
    classical = _build_classical_params(cls)
    return ExperimentConfig(classical=classical, **_parse_fields("experiment", exp))


def _config_echo(exp: dict, cls: dict) -> dict:
    echo = {"experiment": dict(sorted(exp.items()))}
    if cls:
        echo["classical"] = dict(sorted(cls.items()))
    return echo


def _walk_config(cfg: ExperimentConfig) -> WalkConfig:
    try:
        coin_state = build_initial_coin(cfg.coin, cfg.coin_amplitudes)
        shift = build_shift(cfg.shift, cfg.shift_table)
        coin_op = build_coin_operator(cfg.coin_operator, coin_state.qubits, cfg.coin_matrix)
        return WalkConfig(
            coin_state=coin_state,
            coin_op=coin_op,
            shift=shift,
            steps=cfg.steps,
            initial_position=cfg.initial_position,
        )
    except ValueError as exc:
        raise ValidationError(str(exc)) from None


def _classical_distribution(params: ClassicalParams) -> Distribution:
    try:
        if params.model == "binomial":
            return binomial_walk_distribution(params.n, params.p)
        pair = JointCoinDistribution.from_correlation(params.rho)
        return correlated_walk_distribution(params.n, pair, params.moves)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None


def _base_metadata(cfg: ExperimentConfig) -> dict:
    meta = {"mode": cfg.mode}
    if cfg.seed is not None:
        meta["seed"] = cfg.seed
    return meta


def _run_quantum(cfg: ExperimentConfig, echo: dict, path: str | None) -> str:
    state = evolve(_walk_config(cfg))
    dist = position_distribution(state)
    norm = state_norm(state)
    meta = _base_metadata(cfg) | {"steps": cfg.steps, "norm": norm}
    emit_distribution(dist, cfg.output_format, path, echo, meta)
    return f"quantum walk: {cfg.steps} step(s), norm {norm:.12f}"


def _run_classical(cfg: ExperimentConfig, echo: dict, path: str | None) -> str:
    dist = _classical_distribution(cfg.classical)
    meta = _base_metadata(cfg) | {
        "steps": cfg.classical.n,
        "norm": float(sum(p for _, p in dist.items_sorted())),
        "model": cfg.classical.model,
    }
    emit_distribution(dist, cfg.output_format, path, echo, meta)
    return f"classical walk: {cfg.classical.n} step(s), model {cfg.classical.model}"


def _run_compare(cfg: ExperimentConfig, echo: dict, path: str | None) -> str:
    walk = _walk_config(cfg)
    if walk.shift.dims != 1:
        raise ValidationError("compare mode requires a 1D walk")
    state = evolve(walk)
    qdist = position_distribution(state)
    cdist = _classical_distribution(cfg.classical)
    if cfg.positions is not None:
        labels = sorted(cfg.positions)
    else:
        labels = sorted(set(qdist.support()) | set(cdist.support()))
    values = [[qdist[k] for k in labels], [cdist[k] for k in labels]]
    meta = _base_metadata(cfg) | {
        "steps": cfg.steps,
        "classical_steps": cfg.classical.n,
        "norm": state_norm(state),
        "model": cfg.classical.model,
    }
    _emit_table(
        ["position", "quantum", "classical"], labels, values, cfg.output_format, path, echo, meta,
        "comparison",
    )
    return f"compare: {len(labels)} position(s), quantum {cfg.steps} vs classical {cfg.classical.n} step(s)"


def _run_entropy(cfg: ExperimentConfig, echo: dict, path: str | None) -> str:
    try:
        coin_state = build_initial_coin(cfg.coin, cfg.coin_amplitudes)
        if coin_state.qubits < 2:
            raise ValueError("entropy mode requires a coin of at least two qubits")
        cuts = [cfg.cut] if cfg.cut is not None else list(range(1, coin_state.qubits))
        entropies = [entanglement_entropy(coin_state, cut) for cut in cuts]
    except ValueError as exc:
        raise ValidationError(str(exc)) from None
    meta = _base_metadata(cfg) | {"coin": cfg.coin, "qubits": coin_state.qubits}
    _emit_table(["cut", "entropy_bits"], cuts, [entropies], cfg.output_format, path, echo, meta,
                "entropies")
    return f"entropy: coin {cfg.coin}, {len(cuts)} cut(s)"


_MODE_RUNNERS = {
    "quantum": _run_quantum,
    "classical": _run_classical,
    "compare": _run_compare,
    "entropy": _run_entropy,
}


def _suffixed_path(path: str | None, tag: str | None) -> str | None:
    if path is None or tag is None:
        return path
    stem, dot, ext = path.rpartition(".")
    if dot and "/" not in ext:
        return f"{stem}.{tag}.{ext}"
    return f"{path}.{tag}"


def _read_sections(path: str) -> configparser.ConfigParser:
    with open(path) as fh:
        text = fh.read()
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=path)
    except configparser.Error as exc:
        # configparser's messages span lines; an error is one stderr line.
        raise ParseError(" ".join(line.strip() for line in str(exc).splitlines())) from None
    return parser


def _apply_overrides(parser: configparser.ConfigParser, overrides) -> None:
    for item in overrides:
        key, eq, value = item.partition("=")
        if not eq or not key.strip():
            raise ParseError(f"override must look like key=value, got {item!r}")
        key = key.strip()
        section, dot, name = key.rpartition(".")
        if not dot:
            section = "experiment"
            name = key
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, name, value.strip())


def _assemble_jobs(parser: configparser.ConfigParser):
    sections = set(parser.sections())
    tags = set()
    for name in sections:
        base, dot, tag = name.partition(".")
        if base not in _SECTIONS:
            raise ParseError(f"unknown section [{name}]")
        if dot:
            if not tag.isdigit():
                raise ParseError(f"batch section [{name}] must end in an integer index")
            tags.add(tag)
    if "experiment" not in sections:
        raise ParseError("missing required section [experiment]")

    base_exp = dict(parser["experiment"])
    base_cls = dict(parser["classical"]) if parser.has_section("classical") else {}
    if not tags:
        cfg = _build_experiment(base_exp, base_cls)
        return [(cfg, _config_echo(base_exp, base_cls), None)]
    jobs = []
    for tag in sorted(tags, key=int):
        exp = dict(base_exp)
        exp.update(dict(parser[f"experiment.{tag}"]) if parser.has_section(f"experiment.{tag}") else {})
        cls = dict(base_cls)
        cls.update(dict(parser[f"classical.{tag}"]) if parser.has_section(f"classical.{tag}") else {})
        jobs.append((_build_experiment(exp, cls), _config_echo(exp, cls), tag))
    return jobs


def run(config_path: str, overrides=(), quiet: bool = False) -> int:
    """Execute the experiment(s) described by a config file.

    Returns the process exit code instead of raising: 0 on success, 2 on a
    parse error, 3 on a validation error, a MemoryError or an
    ArithmeticError, 4 on an I/O error.  Diagnostics go to stderr as one
    line each; per-run summaries also go to stderr unless ``quiet``.
    """
    try:
        parser = _read_sections(config_path)
        _apply_overrides(parser, overrides)
        jobs = _assemble_jobs(parser)
        for cfg, echo, tag in jobs:
            path = _suffixed_path(cfg.output_path, tag)
            summary = _MODE_RUNNERS[cfg.mode](cfg, echo, path)
            if not quiet:
                where = path if path is not None else "stdout"
                print(f"{summary} -> {where}", file=sys.stderr)
    except ParseError as exc:
        print(f"error: config parse: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValidationError, ValueError) as exc:
        print(f"error: validation: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (MemoryError, ArithmeticError) as exc:
        detail = " ".join(str(exc).split())
        print(f"error: {type(exc).__name__}{': ' + detail if detail else ''}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: i/o: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def console_main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="entwalk",
        description="Quantum walks with multi-qubit coins: config-driven experiment runner.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run the experiment(s) described by a config file")
    runp.add_argument("config", help="path to an INI experiment config")
    runp.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config value; bare keys target [experiment], "
        "dotted keys (classical.n=50) target that section; repeatable",
    )
    runp.add_argument("--quiet", action="store_true", help="suppress per-run summaries")
    args = ap.parse_args(argv)
    return run(args.config, overrides=args.override, quiet=args.quiet)


if __name__ == "__main__":
    sys.exit(console_main())
