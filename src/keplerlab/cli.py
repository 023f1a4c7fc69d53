"""Command-line experiment runner.

Each subcommand reproduces one study as machine-readable data: trajectory
dumps, precession measurements against theory, step-size scans, error
curves, closed-form versus quadrature checks, and a timing benchmark.
Outputs are deterministic CSV ("%.17g" floats, LF endings, single header
row) or JSON mirrors (shortest-repr floats, laid out as json.dumps with
indent=2 and sorted keys); effective settings are embedded in JSON payloads
and echoed to stderr for CSV.

Two tables drive the parser, the --config check and the metadata: _OPTIONS
declares every setting once, and _COMMANDS gives each subcommand its
handler and its settings with their defaults.  Handlers hand _emit their
tables column by column; it formats each column in one pass.

Exit codes: 0 success, 1 usage/configuration error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from typing import Any, Callable, NamedTuple, Optional

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
DEFAULT_BENCH_STEPS = 20000
DEFAULT_BENCH_H = 0.1
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


def _steps_from(cfg: dict, h: float) -> int:
    _positive_finite("h", h)
    t_end = _t_end(cfg)
    if t_end is not None:
        return max(1, round(t_end / h))
    steps = cfg["steps"]
    if steps is None or steps < 1:
        raise ConfigurationError(f"steps must be >= 1, got {steps}")
    return steps


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return format(float(value), ".17g")


def _csv_cells(column) -> list[str]:
    """One column's CSV cells, formatted in one pass: "%.17g" for floats,
    str for ints, and _fmt cell by cell for anything else (None, strings)."""
    kinds = set(map(type, column))
    if kinds <= {float}:
        return list(map("%.17g".__mod__, column))
    if kinds <= {int}:
        return list(map(str, column))
    return list(map(_fmt, column))


def _json_cells(column) -> list[str]:
    """One column's JSON cells, encoded in one json.dumps call.  A newline
    separates the cells, because no encoded scalar can hold one."""
    text = json.dumps(list(column), separators=("\n", ": "))
    return text[1:-1].split("\n") if len(text) > 2 else []


def _json_rows(columns: list[str], table: list) -> str:
    """The "rows" list as json.dumps(..., indent=2, sort_keys=True) lays it
    out at the top level of a payload: one object per row, keys sorted."""
    order = sorted(range(len(columns)), key=columns.__getitem__)
    fields = ",\n".join("      " + json.dumps(columns[i]).replace("%", "%%") + ": %s"
                        for i in order)
    cells = zip(*(_json_cells(table[i]) for i in order))
    rows = ",\n".join(map(("    {\n" + fields + "\n    }").__mod__, cells))
    return "[\n" + rows + "\n  ]" if rows else "[]"


def _emit(cfg: dict, meta: dict, columns: list[str], table: list,
          report: bool = False, **extra) -> None:
    """Write a table as CSV, with the metadata on stderr, or as JSON.

    `table` holds one sequence of scalars per column, in the order of
    `columns`.  Each column is formatted in one pass and each row joined
    from its cells: CSV cells as _fmt writes them, JSON laid out exactly as
    json.dumps(payload, indent=2, sort_keys=True).  The payload holds the
    metadata, any `extra` fields and the rows as objects keyed by column: a
    `report` is one row, merged into the payload itself; other rows replace
    the payload's top-level "rows": null line.
    """
    if cfg["format"] == "json":
        if report:
            row = {name: column[0] for name, column in zip(columns, table)}
            text = json.dumps(dict(row, metadata=meta, **extra), indent=2, sort_keys=True)
        else:
            text = json.dumps(dict(rows=None, metadata=meta, **extra), indent=2,
                              sort_keys=True)
            text = text.replace('\n  "rows": null',
                                '\n  "rows": ' + _json_rows(columns, table), 1)
        text += "\n"
    else:
        lines = map(",".join, zip(*map(_csv_cells, table)))
        text = "\n".join([",".join(columns), *lines]) + "\n"
        print(f"# metadata: {json.dumps(meta, sort_keys=True)}", file=sys.stderr)
    if cfg.get("out"):
        with open(cfg["out"], "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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


def _elements_for_report(cfg: dict) -> OrbitElements:
    """Elements from --a/--e when given, else from the initial state."""
    a, e = cfg.get("a"), cfg.get("e")
    if (a is None) != (e is None):
        raise ConfigurationError("--a and --e must be given together")
    if a is not None:
        return OrbitElements.from_shape(a, e)
    x0, v0 = _initial_state(cfg)
    return elements_from_state(State(x0, v0, 0.0))


def _run(cfg: dict, measured: bool = False) -> tuple[Trajectory, dict]:
    """The one integration of simulate, precession and error-curve, and the
    metadata of the run; a run to be measured is gated before it is integrated."""
    method = MethodId.parse(cfg["method"])
    x0, v0 = _initial_state(cfg)
    steps = _steps_from(cfg, cfg["h"])
    if measured:
        analysis.require_measurable(elements_from_state(State(x0, v0, 0.0)).T, cfg["h"], steps)
    traj = integrate(method, x0, v0, cfg["h"], steps)
    return traj, _metadata(cfg, method=method.value, steps=steps, **_NEWTON)


def cmd_simulate(cfg: dict) -> None:
    traj, meta = _run(cfg)
    t, X, V = analysis.trajectory_arrays(traj)
    energy, angmom, lrl_a, lrl_b = analysis.observable_series(X, V)
    omega = np.arctan2(lrl_b, lrl_a)
    table = np.column_stack([t, X, V, energy, angmom, lrl_a, lrl_b, omega])
    _emit(cfg, meta, ["step", "t", "x1", "x2", "v1", "v2",
                      "energy", "angmom", "lrlA", "lrlB", "omega"],
          [range(len(t))] + table.T.tolist())


def cmd_precession(cfg: dict) -> None:
    traj, meta = _run(cfg, measured=True)
    method, h = traj.method, traj.h
    estimate = analysis.measure_precession(traj)
    quad = theory.precession_quadrature(method, traj.elements, h)
    closed = theory.precession_closed_form(method, traj.elements, h)
    row = [method.value, h, closed.rate_per_revolution, quad, estimate.rate_per_revolution,
           estimate.fit_residual_rms, estimate.revolutions_observed]
    _emit(cfg, meta, ["method", "h", "predictedClosedForm", "predictedQuadrature",
                      "measured", "fitResidualRms", "revolutions"], list(zip(row)),
          report=True)


def cmd_scan(cfg: dict) -> None:
    h_list = cfg["h_list"]
    if len(h_list) < 2:
        raise ConfigurationError("scan needs at least 2 step sizes")
    for h in h_list:
        _positive_finite("h-list entry", h)
    methods = [MethodId.parse(m) for m in cfg["methods"]]
    x0, v0 = _initial_state(cfg)
    elements = elements_from_state(State(x0, v0, 0.0))
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
            steps = round(t_span / h)
            try:
                analysis.require_measurable(elements.T, h, steps)  # before integrating h
                traj = integrate(method, x0, v0, h, steps)
                measured = analysis.measure_precession(traj).rate_per_revolution
            except KeplerLabError as err:
                print(f"warning: {method.value} at h={h:g} failed: {err}",
                      file=sys.stderr)
            rows.append([method.value, h, measured, predicted])
    meta = _metadata(cfg, tSpan=t_span, revolutions=t_span / elements.T, **_NEWTON)
    _emit(cfg, meta, ["method", "h", "measuredRate", "predictedRate"], list(zip(*rows)))


def cmd_error_curve(cfg: dict) -> None:
    if cfg["steps"] is None and cfg["t_end"] is None:
        cfg = dict(cfg, t_end=DEFAULT_ERROR_T_END)
    traj, meta = _run(cfg)
    t, err = analysis.error_curve(traj)
    _emit(cfg, meta, ["method", "t", "errorNorm"],
          [[traj.method.value] * len(t), t.tolist(), err.tolist()])


def cmd_predict(cfg: dict) -> None:
    method = MethodId.parse(cfg["method"])
    h = _positive_finite("h", cfg["h"])
    elements = _elements_for_report(cfg)
    quad = theory.precession_quadrature(method, elements, h)
    closed = theory.precession_closed_form(method, elements, h)
    row = [method.value, h, closed.rate_per_revolution, quad, closed.leading_order]
    meta = _metadata(cfg, method=method.value,
                     elements={"a": elements.a, "e": elements.e, "L": elements.L})
    _emit(cfg, meta, ["method", "h", "predictedClosedForm", "predictedQuadrature",
                      "leadingOrder"], list(zip(row)), report=True)


def cmd_averages(cfg: dict) -> None:
    elements = _elements_for_report(cfg)
    rows = []
    for power in (5, 6, 7):
        closed = theory.orbit_average_closed_form(power, elements)
        quad = theory.orbit_average(
            lambda X, V, p=power: X[:, 1] / np.hypot(X[:, 0], X[:, 1]) ** p, elements)
        denom = abs(closed) if closed != 0.0 else 1.0
        rows.append([power, closed, quad, abs(quad - closed) / denom])
    meta = _metadata(cfg, elements={"a": elements.a, "e": elements.e, "L": elements.L})
    _emit(cfg, meta, ["power", "closedForm", "quadrature", "relDiff"], list(zip(*rows)))


def cmd_bench(cfg: dict) -> None:
    methods = [MethodId.parse(m) for m in cfg["methods"]]
    x0, v0 = _initial_state(cfg)
    steps = _steps_from(cfg, cfg["h"])
    rows = []
    for method in methods:
        start = time.perf_counter()
        traj = integrate(method, x0, v0, cfg["h"], steps)
        wall = time.perf_counter() - start
        rows.append([method.value, steps, wall, traj.stats.implicit_solves,
                     traj.stats.avg_newton_iterations])
    _emit(cfg, _metadata(cfg, **_NEWTON), ["method", "steps", "wallSeconds",
                                           "implicitSolveCount", "avgNewtonIterations"],
          list(zip(*rows)),
          note="wall-clock timings are machine-dependent and informative only")


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
    "bench": _Command(cmd_bench, "wall-clock and Newton-iteration benchmark",
                      _settings("json", methods=_ALL_METHODS, h=DEFAULT_BENCH_H,
                                steps=DEFAULT_BENCH_STEPS)),
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
