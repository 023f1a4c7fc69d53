"""Command-line experiment runner.

Each subcommand reproduces one study as machine-readable data: trajectory
dumps, precession measurements against theory, step-size scans, error
curves and closed-form versus quadrature checks.
Outputs are deterministic CSV ("%.17g" floats, LF endings, single header
row) or JSON mirrors (shortest-repr floats, laid out as json.dumps with
indent=2 and sorted keys); effective settings are embedded in JSON payloads
and echoed to stderr for CSV.

Two tables drive the parser, the --config check and the metadata: _OPTIONS
declares every setting once, and _COMMANDS gives each subcommand its
handler and its settings with their defaults.  Handlers hand _emit a row
count and the columns of any row range; _emit asks for, formats and writes
a fixed number of rows at a time, so the memory that simulate and
error-curve hold beyond the trajectory does not grow with the run.  A chunk
is written through one row template, a field per column, not a string per cell.
A table of two or more chunks is derived and formatted on two CPUs where two
are free: a forked child takes every second chunk, this process the others and
writes the child's text among them in order, so the bytes are one process's.

Exit codes: 0 success, 1 usage/configuration error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import codecs
import contextlib
import functools
import gc
import json
import math
import os
import sys
import threading
from typing import Any, Callable, Iterator, NamedTuple, Optional

import numpy as np

from . import analysis, theory
from .errors import ConfigurationError, KeplerLabError, NumericalFailure
from .integrators import NEWTON_MAX_ITERATIONS, NEWTON_TOLERANCE, MethodId, Trajectory, integrate
from .kepler import OrbitElements, PlanarVector, State, elements_from_state

DEFAULT_X0 = (-3.0, 0.0)
DEFAULT_V0 = (0.0, 0.45)
DEFAULT_H = 0.5
DEFAULT_STEPS = 1000
DEFAULT_SCAN_H = (0.0625, 0.125, 0.25, 0.5)
# The scan fixes one physical time span across step sizes, long enough that
# the linear fit's bias (it absorbs part of the O(h^2) orbital oscillation of
# the LRL angle) falls below the h^4 methods' rates at the smallest step.
DEFAULT_SCAN_REVOLUTIONS = 100
DEFAULT_ERROR_T_END = 500.0

_ALL_METHODS = tuple(m.value for m in MethodId)


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on usage errors; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_pair(text: str) -> tuple[float, float]:
    try:
        pair = tuple(map(float, text.split(",")))
    except ValueError:
        pair = ()
    if len(pair) != 2 or not all(map(math.isfinite, pair)):
        raise argparse.ArgumentTypeError(
            f"expected two comma-separated finite reals, got {text!r}")
    return pair


def _parse_float_list(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated reals, got {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("empty list")
    return values


def _parse_method_list(text: str) -> tuple[str, ...]:
    names = tuple(p.strip().lower() for p in text.split(",") if p.strip())
    if not names:
        raise argparse.ArgumentTypeError("empty method list")
    for name in names:
        MethodId.parse(name)
    return names


class _Option(NamedTuple):
    """One setting: the parser of its flag's text (None keeps the text), its
    help, its metadata key when that differs from the setting's name, and
    the values it may take."""

    type: Optional[Callable[[str], Any]]
    help: str
    key: Optional[str] = None
    choices: Optional[tuple[str, ...]] = None


# Every setting of every subcommand, in help order.  Setting k has the flag
# --k (dashes for underscores) and the config-file key k.
_OPTIONS = {
    "method": _Option(str, f"integrator, one of: {', '.join(_ALL_METHODS)}"),
    "methods": _Option(_parse_method_list, "comma-separated integrators (default: all)"),
    "h": _Option(float, "step size"),
    "h_list": _Option(_parse_float_list, "comma-separated step sizes", "hList"),
    "steps": _Option(int, "number of steps"),
    "t_end": _Option(float, "physical time span (overrides --steps)", "tEnd"),
    "a": _Option(float, "semimajor axis (with --e)"),
    "e": _Option(float, "eccentricity (with --a)"),
    "x0": _Option(_parse_pair, "initial position a,b (default -3,0)"),
    "v0": _Option(_parse_pair, "initial velocity a,b (default 0,0.45)"),
    "out": _Option(str, "output file (default stdout)"),
    "format": _Option(None, "output format", choices=("csv", "json")),
}

# The default of a setting that its subcommand cannot run without.
_REQUIRED = object()


class _Command(NamedTuple):
    handler: Callable[[dict], None]
    help: str
    settings: dict  # setting name -> default


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process; parsing leaves it as it is."""
    parser = _Parser(prog="keplerlab",
                     description="Experiment runner for planar Kepler integrators.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for key, option in _OPTIONS.items():
            if key in command.settings:
                p.add_argument(_flag(key), type=option.type, choices=option.choices,
                               help=option.help)
        p.add_argument("--config", help="JSON config file; flags override its keys")
    return parser


def _load_config_file(path: str, allowed: set[str]) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as err:
        raise ConfigurationError(f"cannot read config file {path!r}: {err}") from None
    except json.JSONDecodeError as err:
        raise ConfigurationError(f"config file {path!r} is not valid JSON: {err}") from None
    if not isinstance(data, dict):
        raise ConfigurationError(f"config file {path!r} must hold a JSON object")
    unknown = set(data) - allowed
    if unknown:
        raise ConfigurationError(
            f"config file {path!r} has unknown keys: {', '.join(sorted(unknown))}")
    return data


def _config_value(option: _Option, key: str, value):
    """A config-file value converted and checked as its flag's text would be.

    A JSON string stands for the flag's text, a number only for a numeric
    flag (an integral one for an int flag), and a list for the comma-separated
    text of a list or pair flag only.  Booleans, objects, null and lists for a
    single value are rejected: omit a key to keep its default.
    """
    if value is None:
        raise ConfigurationError(f"config key {key!r}: null is not a value; omit the key")
    listed = option.type in (_parse_method_list, _parse_float_list, _parse_pair)
    if listed and isinstance(value, list):
        value = ",".join(str(v) for v in value)
    numeric = option.type in (int, float)
    try:
        if not isinstance(value, str) and not (numeric and type(value) in (int, float)):
            expected = "a number" if numeric else "a string or a list" if listed else "a string"
            raise ValueError(f"expected {expected}, got {json.dumps(value)}")
        if option.type is int and not isinstance(value, str) and not float(value).is_integer():
            raise ValueError(f"expected an integer, got {value!r}")
        if option.type is not None:
            value = option.type(value)
    except (TypeError, ValueError, argparse.ArgumentTypeError) as err:
        raise ConfigurationError(f"config key {key!r}: {err}") from None
    if option.choices is not None and value not in option.choices:
        raise ConfigurationError(
            f"config key {key!r}: invalid choice {value!r} "
            f"(choose from {', '.join(option.choices)})")
    return value


def _resolve(args) -> dict:
    """Effective settings: built-in defaults, then config file, then flags."""
    defaults = _COMMANDS[args.command].settings
    cfg = dict(defaults)
    if args.config:
        for key, value in _load_config_file(args.config, set(defaults)).items():
            cfg[key] = _config_value(_OPTIONS[key], key, value)
    for key in defaults:
        flag = getattr(args, key)
        if flag is not None:
            cfg[key] = flag
    for key, value in cfg.items():
        if value is _REQUIRED:
            raise ConfigurationError(f"{_flag(key)} is required")
    return cfg


def _initial_state(cfg: dict) -> tuple[PlanarVector, PlanarVector]:
    return PlanarVector(*cfg["x0"]), PlanarVector(*cfg["v0"])


def _positive_finite(name: str, value: float) -> float:
    if not 0.0 < value < math.inf:
        raise ConfigurationError(f"{name} must be positive and finite, got {value}")
    return value


def _t_end(cfg: dict) -> Optional[float]:
    """The t-end span, when one is set: positive and finite."""
    t_end = cfg.get("t_end")
    return None if t_end is None else _positive_finite("t-end", t_end)


def _steps_from(cfg: dict) -> int:
    """t-end / h rounded when t-end is set, else steps; a t-end / h beyond the
    float range stays inf, which integrate's MAX_STEPS check refuses."""
    h = _positive_finite("h", cfg["h"])
    t_end = _t_end(cfg)
    if t_end is not None:
        steps = t_end / h
        return max(1, round(steps)) if steps < math.inf else steps
    steps = cfg["steps"]
    if steps < 1:
        raise ConfigurationError(f"steps must be >= 1, got {steps}")
    return steps


def _fmt(value) -> str:
    """One CSV cell: empty for None, str for a string or an int, so that a
    cell reads the same whichever chunk of its column it falls in."""
    if value is None:
        return ""
    if isinstance(value, (str, int)):
        return str(value)
    return format(float(value), ".17g")


def _csv_field(column) -> tuple[str, list]:
    """One column's field of the CSV row template and the values it takes:
    "%.17g" over floats (a numpy float array is not scanned cell by cell),
    "%s" over ints and strings, and "%s" over _fmt's text of anything else."""
    if isinstance(column, np.ndarray):
        if column.dtype.kind == "f":
            return "%.17g", column.tolist()
        column = column.tolist()
    kinds = set(map(type, column))
    if kinds <= {float}:
        return "%.17g", column
    if kinds <= {int} or kinds <= {str}:
        return "%s", column
    return "%s", list(map(_fmt, column))


def _json_field(column) -> tuple[str, list]:
    """One column's field of the JSON row template and the values it takes.
    The str() of an int or a finite float is its JSON text, so a range, an
    integer array and a finite float array give their Python scalars; any
    other column is encoded in one json.dumps call, whose cells a newline
    separates, because no encoded scalar can hold one."""
    if isinstance(column, range):
        return "%s", column
    if isinstance(column, np.ndarray):
        if column.dtype.kind in "iu" or column.dtype.kind == "f" and np.isfinite(column).all():
            return "%s", column.tolist()
        column = column.tolist()
    text = json.dumps(list(column), separators=("\n", ": "))
    return "%s", text[1:-1].split("\n") if len(text) > 2 else []


# Rows derived, formatted and written at a time, so that the columns and the
# text held at once are bounded by a chunk, not by the run length.
_CHUNK_ROWS = 1024

# Bytes of the formatting child's text read at a time: one pipe buffer.
_BLOCK = 1 << 16

_Columns = Callable[[int, int], list]


def _cpus() -> int:
    """The CPUs this process may run on; 1 where the platform cannot tell."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _fork(send: Callable[[Any], None]) -> Optional[tuple[int, Any]]:
    """Fork a child that runs send(pipe); return its pid and the pipe up from
    it, or None where this process cannot fork (now), may run on one CPU
    only, or runs another Python thread: from Python 3.12 on, whose fork
    warns of them, any thread; before, an idle OpenBLAS pool does not
    matter, as the child calls no BLAS.  The child exits 0 once send returns
    and 1 if it raises, by os._exit: it never unwinds this stack nor flushes
    the parent's files and stdout buffer.
    """
    if not hasattr(os, "fork") or _cpus() < 2 or threading.active_count() > 1 or (
            sys.version_info >= (3, 12) and len(os.listdir("/proc/self/task")) > 1):
        return None
    up_r, up_w = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: this one writes alone
        os.close(up_r)
        os.close(up_w)
        return None
    if pid:
        os.close(up_w)
        return pid, os.fdopen(up_r, "rb")
    try:
        gc.disable()  # no finalizer of the parent's objects runs here
        os.close(up_r)
        with os.fdopen(up_w, "wb") as up:
            send(up)
    except BaseException:
        os._exit(1)
    os._exit(0)


def _chunks(n_rows: int, columns: _Columns, field: Callable[[Any], tuple[str, list]],
            row: Callable[[tuple[str, ...]], str], sep: str) -> Iterator[str]:
    """The table's rows as text, _CHUNK_ROWS rows at a time: each column of a
    chunk becomes a field and its values, and row(fields) is the template that
    writes the chunk's rows, joined by `sep`, which also leads every chunk but
    the first.  A numerical failure while chunk k is derived is raised after
    chunks 0 to k - 1 are written.

    A child that _fork starts derives, formats and sends every second chunk
    until it cannot: each as a length and its text, which this process reads
    in, in order, at most _BLOCK bytes at a time.  This process derives every
    chunk the child did not send, so a chunk the child cannot derive raises
    here, at its place in the table.  The child is reaped before the
    generator ends or is closed; a child that fails raises ChildProcessError.
    """
    def text(lo: int) -> str:
        fields, values = zip(*map(field, columns(lo, min(lo + _CHUNK_ROWS, n_rows))))
        return (sep if lo else "") + sep.join(map(row(fields).__mod__, zip(*values)))

    def send(up) -> None:  # the child's part
        for lo in range(_CHUNK_ROWS, n_rows, 2 * _CHUNK_ROWS):
            data = text(lo).encode()
            up.write(len(data).to_bytes(8, "little") + data)
            up.flush()

    pid, up = (_fork(send) if n_rows > _CHUNK_ROWS else None) or (0, None)
    decode = codecs.getincrementaldecoder("utf-8")().decode
    try:
        for lo in range(0, n_rows, _CHUNK_ROWS):
            head = up.read(8) if pid and lo // _CHUNK_ROWS % 2 else b""
            if len(head) < 8:  # this process's chunk, or one the child did not send
                yield text(lo)
                continue
            size = int.from_bytes(head, "little")
            while size:  # the decoder holds back a character that a read splits
                data = up.read(min(size, _BLOCK))
                if not data:
                    raise ChildProcessError("the process formatting every second chunk stopped")
                size -= len(data)
                yield decode(data)
    finally:
        if pid:
            up.close()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if pid and status:
        raise ChildProcessError(f"the process formatting every second chunk exited with {status}")


def _rows(rows: list) -> tuple[int, _Columns]:
    """A small table held as a list of rows, as _emit takes a table."""
    return len(rows), lambda lo, hi: list(zip(*rows[lo:hi]))


def _json_text(meta: dict, names: list[str], n_rows: int, columns: _Columns,
               report: bool) -> Iterator[str]:
    """The JSON payload in pieces, laid out as json.dumps(payload, indent=2,
    sort_keys=True): a `report` row is merged into the payload; other rows,
    one object per row with keys sorted, replace its top-level "rows": null
    line chunk by chunk."""
    if report:
        row = {name: column[0] for name, column in zip(names, columns(0, 1))}
        yield json.dumps(dict(row, metadata=meta), indent=2, sort_keys=True) + "\n"
        return
    text = json.dumps(dict(rows=None, metadata=meta), indent=2, sort_keys=True)
    head, tail = text.split('\n  "rows": null', 1)
    order = sorted(range(len(names)), key=names.__getitem__)
    keys = ["      " + json.dumps(names[i]).replace("%", "%%") + ": " for i in order]

    def sorted_columns(lo: int, hi: int) -> list:
        return list(map(columns(lo, hi).__getitem__, order))

    def row(fields: tuple[str, ...]) -> str:
        return "\n    {\n" + ",\n".join(map(str.__add__, keys, fields)) + "\n    }"

    yield head + '\n  "rows": ['
    yield from _chunks(n_rows, sorted_columns, _json_field, row, ",")
    yield ("\n  ]" if n_rows else "]") + tail + "\n"


def _csv_text(names: list[str], n_rows: int, columns: _Columns) -> Iterator[str]:
    """The CSV table in pieces: the header line, then one chunk of lines at a time."""
    yield ",".join(names) + "\n"
    yield from _chunks(n_rows, columns, _csv_field, lambda fields: ",".join(fields) + "\n", "")


def _emit(cfg: dict, meta: dict, names: list[str], n_rows: int, columns: _Columns,
          report: bool = False) -> None:
    """Write a table of n_rows rows as CSV, with the metadata on stderr, or as JSON.

    columns(lo, hi) gives the table's columns, in the order of `names`, at
    rows [lo, hi) (lists, ranges, tuples or numpy arrays of scalars).  They
    are asked for, formatted and written _CHUNK_ROWS rows at a time, so no
    whole column and no whole text is built, each through one row template
    (_csv_field, _json_field): CSV cells as _fmt writes them, JSON laid out
    exactly as json.dumps(payload, indent=2, sort_keys=True).  A child that
    _chunks forks, and reaps before _emit returns or raises, may derive every
    second chunk; this process derives every chunk the child did not send.
    The payload holds the metadata and the rows as objects keyed by column;
    a `report` is one row, merged into the payload itself.
    """
    if cfg["format"] == "json":
        pieces = _json_text(meta, names, n_rows, columns, report)
    else:
        print(f"# metadata: {json.dumps(meta, sort_keys=True)}", file=sys.stderr)
        pieces = _csv_text(names, n_rows, columns)
    with contextlib.closing(pieces):  # a failed write still reaps _chunks' child
        if cfg.get("out"):
            with open(cfg["out"], "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(pieces)
        else:
            sys.stdout.writelines(pieces)


# The Newton budget of the implicit solves, in the metadata of every
# subcommand that integrates.
_NEWTON = {"tolerance": NEWTON_TOLERANCE, "maxIterations": NEWTON_MAX_ITERATIONS}


def _metadata(cfg: dict, **extra) -> dict:
    """The settings that have a value, under their metadata keys, then `extra`.
    The output path is left out, so that the bytes written do not depend on it."""
    meta = {_OPTIONS[key].key or key: list(value) if isinstance(value, tuple) else value
            for key, value in cfg.items() if value is not None and key != "out"}
    meta.update(extra)
    return meta


def _elements(cfg: dict) -> OrbitElements:
    """The orbit: from --a/--e when given, else through the initial state."""
    a, e = cfg.get("a"), cfg.get("e")
    if (a is None) != (e is None):
        raise ConfigurationError("--a and --e must be given together")
    if a is not None:
        return OrbitElements.from_shape(a, e)
    x0, v0 = _initial_state(cfg)
    return elements_from_state(State(x0, v0, 0.0))


def _run(cfg: dict, period: Optional[float] = None) -> tuple[Trajectory, dict]:
    """The one integration of every subcommand, and the metadata of the run,
    with the run's exact work counters under "work".  A run to be measured
    passes its orbit's period and is gated before it is integrated."""
    method = MethodId.parse(cfg["method"])
    x0, v0 = _initial_state(cfg)
    steps = _steps_from(cfg)
    if period is not None:
        analysis.require_measurable(period, cfg["h"], steps)
    traj = integrate(method, x0, v0, cfg["h"], steps)
    stats = traj.stats
    work = {"gradientEvaluations": stats.gradient_evaluations,
            "implicitSolves": stats.implicit_solves, "newtonIterations": stats.newton_iterations}
    return traj, _metadata(cfg, method=method.value, steps=steps, work=work, **_NEWTON)


def cmd_simulate(cfg: dict) -> None:
    traj, meta = _run(cfg)

    def columns(lo: int, hi: int) -> list:
        t, X, V = analysis.trajectory_arrays(traj, lo, hi)
        energy, angmom, lrl_a, lrl_b = analysis.observable_series(X, V)
        return [range(lo, hi), t, X[:, 0], X[:, 1], V[:, 0], V[:, 1],
                energy, angmom, lrl_a, lrl_b, np.arctan2(lrl_b, lrl_a)]

    _emit(cfg, meta, ["step", "t", "x1", "x2", "v1", "v2",
                      "energy", "angmom", "lrlA", "lrlB", "omega"],
          len(traj.positions), columns)


def cmd_precession(cfg: dict) -> None:
    elements = _elements(cfg)
    traj, meta = _run(cfg, elements.T)
    method, h = traj.method, traj.h
    estimate = analysis.measure_precession(traj)
    quad = theory.precession_quadrature(method, elements, h)
    closed = theory.precession_closed_form(method, elements, h)
    row = [method.value, h, closed.rate_per_revolution, quad, estimate.rate_per_revolution,
           estimate.fit_residual_rms, estimate.revolutions_observed]
    _emit(cfg, meta, ["method", "h", "predictedClosedForm", "predictedQuadrature",
                      "measured", "fitResidualRms", "revolutions"], *_rows([row]),
          report=True)


def cmd_scan(cfg: dict) -> None:
    h_list = cfg["h_list"]
    if len(h_list) < 2:
        raise ConfigurationError("scan needs at least 2 step sizes")
    for h in h_list:
        _positive_finite("h-list entry", h)
    methods = [MethodId.parse(m) for m in cfg["methods"]]
    # a repeated entry integrates its cells twice and leaves no slope to fit
    for flag, entries in (("--h-list", h_list), ("--methods", cfg["methods"])):
        repeated = next((x for i, x in enumerate(entries) if x in entries[:i]), None)
        if repeated is not None:
            raise ConfigurationError(f"{flag} repeats the entry {repeated}")
    elements = _elements(cfg)
    raw_span = _t_end(cfg) or DEFAULT_SCAN_REVOLUTIONS * elements.T
    h_max = max(h_list)
    if h_max > raw_span:
        raise ConfigurationError(
            f"--h-list entry {h_max} exceeds the scan span {raw_span} "
            f"(--t-end, or {DEFAULT_SCAN_REVOLUTIONS} revolutions)")
    # common physical span, aligned to the coarsest step the fit accepts
    h_align = max((h for h in h_list if analysis.well_sampled(elements.T, h)), default=h_max)
    t_span = math.ceil(raw_span / h_align) * h_align
    rows = []
    for method in methods:
        for h in h_list:
            predicted = theory.precession_closed_form(method, elements, h).rate_per_revolution
            measured = None
            try:
                traj, _ = _run(dict(cfg, method=method.value, h=h, t_end=t_span), elements.T)
                measured = analysis.measure_precession(traj).rate_per_revolution
            except KeplerLabError as err:
                print(f"warning: {method.value} at h={h:g} failed: {err}",
                      file=sys.stderr)
            rows.append([method.value, h, measured, predicted])
    meta = _metadata(cfg, tSpan=t_span, revolutions=t_span / elements.T, **_NEWTON)
    _emit(cfg, meta, ["method", "h", "measuredRate", "predictedRate"], *_rows(rows))


def cmd_error_curve(cfg: dict) -> None:
    if cfg["steps"] is None and cfg["t_end"] is None:
        cfg = dict(cfg, t_end=DEFAULT_ERROR_T_END)
    traj, meta = _run(cfg)
    _emit(cfg, meta, ["method", "t", "errorNorm"], len(traj.positions),
          lambda lo, hi: [[traj.method.value] * (hi - lo), *analysis.error_curve(traj, lo, hi)])


def cmd_predict(cfg: dict) -> None:
    method = MethodId.parse(cfg["method"])
    h = _positive_finite("h", cfg["h"])
    elements = _elements(cfg)
    quad = theory.precession_quadrature(method, elements, h)
    closed = theory.precession_closed_form(method, elements, h)
    row = [method.value, h, closed.rate_per_revolution, quad, closed.leading_order]
    meta = _metadata(cfg, method=method.value,
                     elements={"a": elements.a, "e": elements.e, "L": elements.L})
    _emit(cfg, meta, ["method", "h", "predictedClosedForm", "predictedQuadrature",
                      "leadingOrder"], *_rows([row]), report=True)


def cmd_averages(cfg: dict) -> None:
    elements = _elements(cfg)
    rows = []
    for power in (5, 6, 7):
        closed = theory.orbit_average_closed_form(power, elements)
        quad = theory.orbit_average(
            lambda X, V, p=power: X[:, 1] / np.hypot(X[:, 0], X[:, 1]) ** p, elements)
        denom = abs(closed) if closed != 0.0 else 1.0
        rows.append([power, closed, quad, abs(quad - closed) / denom])
    meta = _metadata(cfg, elements={"a": elements.a, "e": elements.e, "L": elements.L})
    _emit(cfg, meta, ["power", "closedForm", "quadrature", "relDiff"], *_rows(rows))


def _settings(output_format: str, **own) -> dict:
    """A subcommand's settings and their defaults: its own, then the initial
    state and the output, which every subcommand has."""
    return dict(own, x0=DEFAULT_X0, v0=DEFAULT_V0, out=None, format=output_format)


_RUN = dict(method=_REQUIRED, h=DEFAULT_H, steps=DEFAULT_STEPS, t_end=None)

_COMMANDS = {
    "simulate": _Command(cmd_simulate, "dump one trajectory with observables",
                         _settings("csv", **_RUN)),
    "precession": _Command(cmd_precession, "measured vs predicted precession for one run",
                           _settings("json", **_RUN)),
    "scan": _Command(cmd_scan, "precession rates across methods and step sizes",
                     _settings("csv", methods=_ALL_METHODS, h_list=DEFAULT_SCAN_H,
                               t_end=None)),
    "error-curve": _Command(cmd_error_curve, "position error against the exact orbit",
                            _settings("csv", **dict(_RUN, steps=None))),
    "predict": _Command(cmd_predict, "closed-form and quadrature precession predictions",
                        _settings("json", method=_REQUIRED, h=DEFAULT_H, a=None, e=None)),
    "averages": _Command(cmd_averages, "closed-form vs quadrature orbit averages",
                         _settings("json", a=None, e=None)),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _COMMANDS[args.command].handler(_resolve(args))
    except NumericalFailure as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (KeplerLabError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
