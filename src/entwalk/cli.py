"""Config-driven command line: run a walk described by an INI file and write
its distribution in a machine- or plot-friendly format.

Usage: ``entwalk run CONFIG [--override KEY=VALUE]... [--quiet]``

The config file (UTF-8) has an ``[experiment]`` section (mode, presets,
steps, output) and an optional ``[classical]`` section (binomial /
correlated-pair parameters).  Numbered sections ``[experiment.1]``,
``[classical.1]``, ... (no leading zeros) define batch sub-configs layered
over the base sections; each sub-config writes its own output file with the
index inserted before the extension.  Any other section, ``[DEFAULT]``
included, is a parse error.  Every job is checked before the first
runs, and every job runs and writes its output to a temporary file before
the first is renamed into place, so a failing config, job or write leaves
no output file.  The renames run one by one: one that fails leaves the
outputs renamed before it in place.

Exit codes: 0 success, 2 config parse error, 3 validation error (also out of
memory or an arithmetic error), 4 I/O error.  A key that its job's mode does
not read, such as ``steps`` in entropy mode, exits 3 (see ``_SECTIONS``).  In
a batch, a job takes a key from its own section when that sets it, else from
the base section; a base key exits 3 when no job that takes it reads it, and
when no job takes it, because every job sets the key for itself.

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

import configparser
import gc
import io
import math
import os
import stat
import sys
from collections import defaultdict
from itertools import islice
from types import SimpleNamespace

import numpy as np

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
from .shifts import DisplacementTable, build_shift

__all__ = [
    "EXIT_IO",
    "EXIT_OK",
    "EXIT_PARSE",
    "EXIT_VALIDATION",
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


def _column(array: np.ndarray):
    # The entries of an array as Python numbers, converted one _BLOCK_ROWS
    # block at a time.
    for start in range(0, len(array), _BLOCK_ROWS):
        yield from array[start:start + _BLOCK_ROWS].tolist()


def _box_rows(dist: Distribution):
    # gnuplot positions: every point of the distribution's lattice in its
    # support's bounding box, zeros included, with a blank line after each x
    # block in 2D.  Only the offsets from the box corner index the
    # zero-filled grid; the distribution labels the grid's offsets.
    corner = [int(off.min()) for off in dist.offsets]
    grid = np.zeros([int(off.max()) - c + 1 for off, c in zip(dist.offsets, corner)])
    grid[tuple(off - c for off, c in zip(dist.offsets, corner))] = dist.values
    labels = dist.labels([range(c, c + size) for c, size in zip(corner, grid.shape)])
    if grid.ndim == 1:
        yield from _rows(labels, [_column(grid)], " ")
        return
    heads = [f" {y} " for y in labels[1]]
    for x, block in zip(labels[0], grid):
        yield "".join([f"{x}{head}{_format_prob(p)}\n" for head, p in zip(heads, block.tolist())]) + "\n"


def _write_table(
    header: list[str],
    labels: list,
    values: list,
    output_format: str,
    path: str | None,
    config_echo: dict,
    metadata: dict,
    json_key: str,
    box_rows=None,
) -> None:
    # The one table writer.  Rows are sorted by label; ``labels`` holds one
    # column of ints per label and ``values`` one column of floats per value
    # cell, each an iterable read once.  csv and gnuplot print values
    # through PRINT_FLOOR; json keeps them exact, with a row's labels folded
    # into one list when it has several.  gnuplot writes ``box_rows`` instead
    # of the rows when given.
    def write(out: io.TextIOBase) -> None:
        if output_format == "json":
            import json  # only json output pays for the import

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
            out.writelines(box_rows if box_rows is not None else _rows(labels, values, " "))

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

    See the module docstring for the three formats.  csv and gnuplot rows
    are made from the distribution's arrays one block at a time.  Raises
    OSError on an unwritable path and ValidationError on an unknown format.
    """
    if output_format not in OUTPUT_FORMATS:
        raise ValidationError(f"unknown output format {output_format!r}")
    labels = dist.labels([_column(off) for off in dist.offsets])
    if len(labels) == 2:
        first = "position_x" if output_format == "gnuplot" else "position"
        header = [first, "position_y", "probability"]
    else:
        header = ["position", "probability"]
    _write_table(header, labels, [_column(dist.values)], output_format, path, config_echo or {},
                 metadata or {}, "distribution", _box_rows(dist))


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
    return _parse_int_list(text, where)


def _parse_moves(text: str, where: str) -> DisplacementTable:
    moves = {}
    for tok in text.replace(",", " ").split():
        if ":" not in tok:
            raise ParseError(f"{where}: expected outcome:displacement, got {tok!r}")
        key, _, val = tok.partition(":")
        if key not in OUTCOMES:
            raise ParseError(f"{where}: unknown outcome {key!r}, expected one of {OUTCOMES}")
        if key in moves:
            raise ParseError(f"{where}: outcome {key!r} given twice")
        try:
            moves[key] = int(val)
        except ValueError:
            raise ParseError(f"{where}: non-integer displacement {val!r}") from None
    missing = [o for o in OUTCOMES if o not in moves]
    if missing:
        raise ValidationError(f"{where}: every outcome needs a move, missing {missing}")
    return DisplacementTable(tuple(moves[o] for o in OUTCOMES))


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


# The modes that read a key.
_COIN_MODES = ("quantum", "compare", "entropy")
_WALK_MODES = ("quantum", "compare")
_CLASSICAL_MODES = ("classical", "compare")

# Section -> config key -> (value parser, default, the modes that read the
# key, the (key, value) it is read beside or None).  A table names every key
# its section accepts and parses values in its order, which picks the error
# a config with several bad values reports: an unknown experiment key, a
# missing mode, the classical section, then the experiment values.  A key
# beside another value of its (key, value), given or by default, is refused
# in every mode before its section's values are checked; a key that no job
# reads is refused once every job is built (_assemble_jobs).
_SECTIONS = {
    "experiment": {
        "mode": (_parse_text, None, MODES, None),
        "coin": (_parse_text, "phi_plus", _COIN_MODES, None),
        "coin_amplitudes": (_parse_complex_pairs, None, _COIN_MODES, ("coin", "custom")),
        "coin_operator": (_parse_text, "hadamard_n", _WALK_MODES, None),
        "coin_matrix": (_parse_matrix, None, _WALK_MODES, ("coin_operator", "custom")),
        "shift": (_parse_text, "s_ec", _WALK_MODES, None),
        "shift_table": (_parse_shift_table, None, _WALK_MODES, ("shift", "custom")),
        "steps": (_scalar(int), 100, _WALK_MODES, None),
        "initial_position": (_parse_int_list, None, _WALK_MODES, None),
        "output_format": (_parse_text, "csv", MODES, None),
        "output": (_parse_text, None, MODES, None),
        "positions": (_parse_int_list, None, ("compare",), None),
        "cut": (_scalar(int), None, ("entropy",), None),
    },
    "classical": {
        "model": (_parse_text, "binomial", _CLASSICAL_MODES, None),
        "n": (_scalar(int), 100, _CLASSICAL_MODES, None),
        "p": (_scalar(float), 0.5, _CLASSICAL_MODES, ("model", "binomial")),
        "rho": (_scalar(float), 1.0, _CLASSICAL_MODES, ("model", "correlated")),
        "moves": (_parse_moves, DEFAULT_MOVES, _CLASSICAL_MODES, ("model", "correlated")),
    },
}


def _check_keys(name: str, section: dict) -> None:
    unknown = set(section) - _SECTIONS[name].keys()
    if unknown:
        raise ParseError(f"{name}: unknown key(s) {sorted(unknown)}")


def _parse_fields(name: str, section: dict, **given) -> dict:
    # Every key of the section's table: its parsed value, else ``given``,
    # else its default.  Then the section's value gates.
    table = _SECTIONS[name]
    fields = {key: parse(section[key], f"{name}.{key}") if key in section else given.get(key, default)
              for key, (parse, default, _, _) in table.items()}
    for key, (_, _, _, gate) in table.items():
        if gate is not None and key in section:
            other, wanted = gate
            if fields[other] != wanted:
                raise ValidationError(
                    f"{name}.{key} applies only to {other} = {wanted!r}, got {other} = {fields[other]!r}"
                )
    return fields


def _build_experiment(exp: dict, cls: dict) -> SimpleNamespace:
    # One job: every key of both sections as an attribute, and what is built,
    # and so checked, from them: the classical coin pair, then quantum and
    # compare's walk or entropy's coin state.
    _check_keys("experiment", exp)
    if "mode" not in exp:
        raise ValidationError("experiment.mode is required")
    _check_keys("classical", cls)
    # Without a model key, a key read only beside the correlated model selects it.
    gates = [_SECTIONS["classical"][key][3] for key in cls]
    given = {"model": "correlated"} if "model" not in cls and ("model", "correlated") in gates else {}
    job = SimpleNamespace(**_parse_fields("classical", cls, **given))
    if job.model not in ("binomial", "correlated"):
        raise ValidationError(f"classical.model must be 'binomial' or 'correlated', got {job.model!r}")
    if job.n < 0:
        raise ValidationError(f"classical.n must be nonnegative, got {job.n}")
    try:
        if job.model == "binomial":
            job.pair = JointCoinDistribution.from_bias(job.p)
        else:
            job.pair = JointCoinDistribution.from_correlation(job.rho)
        check_walk_cost(job.n, job.moves)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None
    vars(job).update(_parse_fields("experiment", exp))
    if job.mode not in MODES:
        raise ValidationError(f"mode must be one of {MODES}, got {job.mode!r}")
    if job.output_format not in OUTPUT_FORMATS:
        raise ValidationError(f"output_format must be one of {OUTPUT_FORMATS}, got {job.output_format!r}")
    if job.steps < 0:
        raise ValidationError(f"steps must be nonnegative, got {job.steps}")
    if job.output == "":
        raise ValidationError("output is empty; omit the key to write to stdout")
    if job.positions is not None:
        if not job.positions:
            raise ValidationError("positions is empty; omit the key for the union of both supports")
        ordered = sorted(job.positions)
        repeated = sorted({a for a, b in zip(ordered, ordered[1:]) if a == b})
        if repeated:
            raise ValidationError(f"positions must be distinct, got {repeated} more than once")
    try:
        if job.mode in _WALK_MODES:
            coin_state = build_initial_coin(job.coin, job.coin_amplitudes)
            shift = build_shift(job.shift, job.shift_table)
            coin_op = build_coin_operator(job.coin_operator, coin_state.qubits, job.coin_matrix)
            job.walk = WalkConfig(
                coin_state=coin_state,
                coin_op=coin_op,
                shift=shift,
                steps=job.steps,
                initial_position=job.initial_position,
            )
            if job.mode == "compare" and shift.dims != 1:
                raise ValidationError("compare mode requires a 1D walk")
            if job.mode == "compare" and job.walk.initial_position != (0,):
                raise ValidationError(
                    "compare mode starts both walks at the origin, "
                    f"got initial_position = {job.walk.initial_position[0]}"
                )
        elif job.mode == "entropy":
            job.coin_state = build_initial_coin(job.coin, job.coin_amplitudes)
            if job.coin_state.qubits < 2:
                raise ValidationError("entropy mode requires a coin of at least two qubits")
            if job.cut is not None and not 1 <= job.cut < job.coin_state.qubits:
                raise ValidationError(f"cut must lie in 1..{job.coin_state.qubits - 1}, got {job.cut}")
    except ValueError as exc:
        raise ValidationError(str(exc)) from None
    return job


def _classical_distribution(job: SimpleNamespace) -> Distribution:
    if job.model == "binomial":
        return binomial_walk_distribution(job.n, job.p)
    return correlated_walk_distribution(job.n, job.pair, job.moves)


def _quantum_walk(cfg: SimpleNamespace) -> tuple[Distribution, float]:
    state = evolve(cfg.walk)
    return position_distribution(state), state_norm(state)


def _run_quantum(cfg: SimpleNamespace, echo: dict, path: str | None) -> str:
    dist, norm = _quantum_walk(cfg)
    meta = {"mode": cfg.mode, "steps": cfg.steps, "norm": norm}
    emit_distribution(dist, cfg.output_format, path, echo, meta)
    return f"quantum walk: {cfg.steps} step(s), norm {norm:.12f}"


def _run_classical(cfg: SimpleNamespace, echo: dict, path: str | None) -> str:
    dist = _classical_distribution(cfg)
    meta = {
        "mode": cfg.mode,
        "steps": cfg.n,
        "norm": math.fsum(dist.values.tolist()),
        "model": cfg.model,
    }
    emit_distribution(dist, cfg.output_format, path, echo, meta)
    return f"classical walk: {cfg.n} step(s), model {cfg.model}"


def _run_compare(cfg: SimpleNamespace, echo: dict, path: str | None) -> str:
    qdist, norm = _quantum_walk(cfg)
    cdist = _classical_distribution(cfg)
    probs = [dict(zip(*d.labels([d.offsets[0].tolist()]), d.values.tolist())) for d in (qdist, cdist)]
    labels = sorted(cfg.positions if cfg.positions is not None else probs[0].keys() | probs[1].keys())
    values = [[p.get(k, 0.0) for k in labels] for p in probs]
    meta = {
        "mode": cfg.mode,
        "steps": cfg.steps,
        "classical_steps": cfg.n,
        "norm": norm,
        "model": cfg.model,
    }
    _emit_table(
        ["position", "quantum", "classical"], labels, values, cfg.output_format, path, echo, meta,
        "comparison",
    )
    return f"compare: {len(labels)} position(s), quantum {cfg.steps} vs classical {cfg.n} step(s)"


def _run_entropy(cfg: SimpleNamespace, echo: dict, path: str | None) -> str:
    cuts = [cfg.cut] if cfg.cut is not None else list(range(1, cfg.coin_state.qubits))
    entropies = [entanglement_entropy(cfg.coin_state, cut) for cut in cuts]
    meta = {"mode": cfg.mode, "coin": cfg.coin, "qubits": cfg.coin_state.qubits}
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
    stem, ext = os.path.splitext(path)
    return f"{stem}.{tag}{ext}"


def _read_sections(path: str) -> configparser.ConfigParser:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: {exc}") from None
    # No header or override can name a section "\n", so [DEFAULT] is an
    # ordinary section, refused as unknown, not defaults for every section.
    parser = configparser.ConfigParser(interpolation=None, default_section="\n")
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
    # Every job, built and so checked, before the first one runs.
    for name in parser.sections():
        base, dot, tag = name.partition(".")
        if base not in _SECTIONS:
            raise ParseError(f"unknown section [{name}]")
        # One spelling per index, so no two sections share one.
        if dot and not (tag.isascii() and tag.isdigit() and str(int(tag)) == tag):
            raise ParseError(f"batch section [{name}] must end in an integer index")
    if not parser.has_section("experiment"):
        raise ParseError("missing required section [experiment]")
    # Each section's keys, read once; a section the config lacks has none.
    sections = defaultdict(dict, {name: dict(parser[name]) for name in parser.sections()})

    # No batch section: one job of the base sections ([experiment.None] is refused above).
    jobs = []
    for tag in sorted({name.partition(".")[2] for name in parser.sections()} - {""}, key=int) or [None]:
        merged = {name: sections[name] | sections[f"{name}.{tag}"] for name in _SECTIONS}
        echo = {name: dict(sorted(keys.items())) for name, keys in merged.items() if keys}
        jobs.append((_build_experiment(merged["experiment"], merged["classical"]), echo, tag))
    # A key no job reads is refused.  A job takes a key from its own section
    # when that sets it, else from the base section.  First, in job, section
    # and table order: a job's own key that its mode does not read, and a
    # base key that no job taking it reads.  Then a base key that no job
    # takes, as every job sets it for itself.
    takers = {(name, key): {job.mode for job, _, t in jobs if key not in sections[f"{name}.{t}"]}
              for name, table in _SECTIONS.items() for key in table if key in sections[name]}
    for cfg, _, tag in jobs:
        for name, table in _SECTIONS.items():
            own = sections[f"{name}.{tag}"]
            for key, (_, _, modes, _) in table.items():
                readers = {cfg.mode} if key in own else takers.get((name, key), set())
                if readers and not readers & set(modes):
                    raise ValidationError(
                        f"{name}.{key} applies only to mode in {modes}, got mode = {cfg.mode!r}"
                    )
    for (name, key), modes in takers.items():
        if not modes:
            raise ValidationError(f"{name}.{key} is read by no job: every batch job sets its own")
    return jobs


def _stage(path: str | None, staged: dict) -> str | None:
    # The file a job writes for ``path``.  A regular output file (a symlink's
    # target) gets a new temporary file beside it, with the mode of the file
    # it will replace, recorded in ``staged`` as {temporary: (file it
    # replaces, path as configured)}.  Anything else, such as /dev/null or a
    # pipe, and any file in a directory we may not write to, is written in
    # place: ``path`` itself.
    if path is None:
        return None
    target = os.path.realpath(path)
    try:
        st = os.stat(target)
    except OSError:  # nothing there yet
        st = None
    if st is not None:
        if not stat.S_ISREG(st.st_mode):
            return path
        os.close(os.open(path, os.O_WRONLY))  # the PermissionError open(path, "w") would raise
    temp = f"{target}.{os.urandom(6).hex()}.tmp"
    try:
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except PermissionError:
        return path
    except OSError as exc:  # name the output, not its temporary
        raise type(exc)(exc.errno, exc.strerror, path) from None
    staged[temp] = (target, path)
    try:
        if st is not None:
            os.fchmod(fd, stat.S_IMODE(st.st_mode))
    finally:
        os.close(fd)
    return temp


def run(config_path: str, overrides=(), quiet: bool = False) -> int:
    """Execute the experiment(s) described by a config file.

    Returns the process exit code instead of raising: 0 on success, 2 on a
    parse error, 3 on a validation error, a MemoryError or an
    ArithmeticError, 4 on an I/O error.  Diagnostics go to stderr as one
    line each; per-run summaries also go to stderr unless ``quiet``, once
    every job has run.  Each output file is written to a temporary file in
    its directory.  Every job runs and every temporary is written before
    the first is renamed into place, one by one; on any failure the
    temporaries not yet renamed are removed.  So a failure before the
    renames leaves no output file, and a rename that fails leaves the
    outputs renamed before it.  An output that is not a regular file, or
    whose directory may not be written, is written in place.
    """
    staged: dict[str, tuple[str, str]] = {}
    try:
        parser = _read_sections(config_path)
        _apply_overrides(parser, overrides)
        summaries = []
        for cfg, echo, tag in _assemble_jobs(parser):
            path = _suffixed_path(cfg.output, tag)
            summary = _MODE_RUNNERS[cfg.mode](cfg, echo, _stage(path, staged))
            summaries.append(f"{summary} -> {path if path is not None else 'stdout'}")
        for temp, (target, _) in list(staged.items()):
            os.replace(temp, target)
            del staged[temp]  # after the rename, so a failed one is named and removed
        if not quiet:
            for line in summaries:
                print(line, file=sys.stderr)
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
        if exc.filename in staged:  # name the output, not its temporary
            exc.filename = staged[exc.filename][1]
        print(f"error: i/o: {exc}", file=sys.stderr)
        return EXIT_IO
    finally:
        for temp in staged:
            try:
                os.remove(temp)
            except OSError:
                pass
    return EXIT_OK


USAGE = "entwalk run CONFIG [--override KEY=VALUE]... [--quiet]"

HELP = f"""usage: {USAGE}

Quantum walks with multi-qubit coins: config-driven experiment runner.

  CONFIG                path to an INI experiment config
  --override KEY=VALUE  override a config value; bare keys target [experiment],
                        dotted keys (classical.n=50) target that section;
                        repeatable, also as --override=KEY=VALUE
  --quiet               suppress per-run summaries
  -h, --help            show this help and exit

Options may come before or after CONFIG; after --, the next argument is
CONFIG even if it starts with -.
"""


def _parse_argv(argv: list[str]) -> tuple[str, list[str], bool] | None:
    # (config, overrides, quiet) of ``run``, or None for -h/--help.  Raises
    # ParseError, one line, on any other command line.
    words = iter(argv)
    command = next(words, None)
    if command in ("-h", "--help"):
        return None
    configs, overrides, quiet = [], [], False
    for word in words:
        if word == "--":
            configs += words
        elif word in ("-h", "--help"):
            return None
        elif word == "--quiet":
            quiet = True
        elif word == "--override":
            value = next(words, None)
            if value is None or value.startswith("-"):
                raise ParseError("--override needs a KEY=VALUE argument")
            overrides.append(value)
        elif word.startswith("--override="):
            overrides.append(word.partition("=")[2])
        elif word.startswith("-") and word != "-":
            raise ParseError(f"unrecognized argument {word!r}")
        else:
            configs.append(word)
    if command != "run":
        raise ParseError("missing the command 'run'" if command is None else f"unknown command {command!r}")
    if len(configs) != 1:
        raise ParseError("missing CONFIG" if not configs else f"one CONFIG expected, got {len(configs)}")
    return configs[0], overrides, quiet


def console_main(argv=None) -> int:
    """Process entry point of the ``entwalk`` command: parse ``argv``
    (default ``sys.argv[1:]``) and call :func:`run`.

    The one grammar is ``entwalk run CONFIG [--override KEY=VALUE]...
    [--quiet]``.  ``-h``/``--help`` prints the usage to stdout and returns
    0; any other command line prints one ``error: usage:`` line to stderr
    and returns 2.

    It first calls ``gc.freeze()``, which moves the caller's whole heap to
    the collector's permanent generation and leaves it there: cyclic garbage
    made before the call is never collected.  An in-process caller that
    wants no such side effect calls :func:`run` directly.
    """
    # Everything imported so far lives until exit: freezing it spares every
    # later collection, and the one at interpreter teardown, from walking
    # numpy's objects.  Frozen after run() instead, the run's garbage would
    # stay alive too.
    gc.freeze()
    try:
        args = _parse_argv(sys.argv[1:] if argv is None else list(argv))
    except ParseError as exc:
        print(f"error: usage: {exc}; expected {USAGE}", file=sys.stderr)
        return EXIT_PARSE
    if args is None:
        sys.stdout.write(HELP)
        return EXIT_OK
    config, overrides, quiet = args
    return run(config, overrides=overrides, quiet=quiet)


if __name__ == "__main__":
    sys.exit(console_main())
