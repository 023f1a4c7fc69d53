"""Command-line experiment runner.

Each subcommand reproduces one study as machine-readable data: trajectory
dumps, precession measurements against theory, step-size scans, error
curves, closed-form versus quadrature checks, and a timing benchmark.
Outputs are deterministic CSV (17-significant-digit decimals, LF endings,
single header row) or JSON mirrors; effective settings are embedded in JSON
payloads and echoed to stderr for CSV.

Exit codes: 0 success, 1 usage/configuration error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import analysis, theory
from .errors import ConfigurationError, KeplerLabError, NumericalFailure
from .integrators import MethodId, SolverConfig, Trajectory, integrate
from .kepler import OrbitElements, PlanarVector, State, elements_from_state

DEFAULT_X0 = (-3.0, 0.0)
DEFAULT_V0 = (0.0, 0.45)
DEFAULT_H = 0.5
DEFAULT_STEPS = 1000
DEFAULT_SCAN_H = (0.0625, 0.125, 0.25, 0.5)
# The scan fixes one physical time span across step sizes.  Well above the
# 25-period floor: the h^4 methods' rates at the smallest step are below the
# measurement floor of short runs.
DEFAULT_SCAN_REVOLUTIONS = 100
DEFAULT_BENCH_STEPS = 20000
DEFAULT_BENCH_H = 0.1
DEFAULT_ERROR_T_END = 500.0

_ALL_METHODS = tuple(m.value for m in MethodId)
_QUADRATURE_METHODS = (MethodId.SV, MethodId.MP)


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on usage errors; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_pair(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected two comma-separated reals, got {text!r}")
    try:
        return (float(parts[0]), float(parts[1]))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected two comma-separated reals, got {text!r}") from None


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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="keplerlab",
                     description="Experiment runner for planar Kepler integrators.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_common(p, method_arg=True, methods_arg=False, h_arg=True,
                   steps_arg=True, t_end_arg=True, h_list_arg=False):
        if method_arg:
            p.add_argument("--method", type=str, default=None,
                           help=f"integrator, one of: {', '.join(_ALL_METHODS)}")
        if methods_arg:
            p.add_argument("--methods", type=_parse_method_list, default=None,
                           help="comma-separated integrators (default: all)")
        if h_arg:
            p.add_argument("--h", type=float, default=None, help="step size")
        if h_list_arg:
            p.add_argument("--h-list", type=_parse_float_list, default=None,
                           help="comma-separated step sizes")
        if steps_arg:
            p.add_argument("--steps", type=int, default=None, help="number of steps")
        if t_end_arg:
            p.add_argument("--t-end", type=float, default=None,
                           help="physical time span (overrides --steps)")
        p.add_argument("--x0", type=_parse_pair, default=None,
                       help="initial position a,b (default -3,0)")
        p.add_argument("--v0", type=_parse_pair, default=None,
                       help="initial velocity a,b (default 0,0.45)")
        p.add_argument("--tol", type=float, default=None,
                       help="Newton residual tolerance (default 1e-12)")
        p.add_argument("--max-iter", type=int, default=None,
                       help="Newton iteration cap (default 50)")
        p.add_argument("--out", type=str, default=None,
                       help="output file (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default=None,
                       help="output format")
        p.add_argument("--config", type=str, default=None,
                       help="JSON config file; flags override its keys")

    p = sub.add_parser("simulate", help="dump one trajectory with observables")
    add_common(p)

    p = sub.add_parser("precession", help="measured vs predicted precession for one run")
    add_common(p)

    p = sub.add_parser("scan", help="precession rates across methods and step sizes")
    add_common(p, method_arg=False, methods_arg=True, h_arg=False,
               steps_arg=False, h_list_arg=True)

    p = sub.add_parser("error-curve", help="position error against the exact orbit")
    add_common(p)

    p = sub.add_parser("predict", help="closed-form and quadrature precession predictions")
    add_common(p, steps_arg=False, t_end_arg=False)
    p.add_argument("--a", type=float, default=None, help="semimajor axis (with --e)")
    p.add_argument("--e", type=float, default=None, help="eccentricity (with --a)")

    p = sub.add_parser("averages", help="closed-form vs quadrature orbit averages")
    add_common(p, method_arg=False, h_arg=False, steps_arg=False, t_end_arg=False)
    p.add_argument("--a", type=float, default=None, help="semimajor axis (with --e)")
    p.add_argument("--e", type=float, default=None, help="eccentricity (with --a)")

    p = sub.add_parser("bench", help="wall-clock and Newton-iteration benchmark")
    add_common(p, method_arg=False, methods_arg=True, t_end_arg=False)

    for p in sub.choices.values():
        # config-file values are checked by the actions of the same-named flags
        p.set_defaults(actions={a.dest: a for a in p._actions})
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


def _config_value(action: argparse.Action, key: str, value):
    """A config-file value converted and checked as its flag's text would be.

    A JSON list stands for the flag's comma-separated text; an int flag
    takes only integral numbers.  null is rejected: leave a key out to keep
    its default.
    """
    if value is None:
        raise ConfigurationError(f"config key {key!r}: null is not a value; omit the key")
    if isinstance(value, list):
        value = ",".join(str(v) for v in value)
    try:
        if action.type is int and not isinstance(value, str) and (
                isinstance(value, bool) or not float(value).is_integer()):
            raise ValueError(f"expected an integer, got {value!r}")
        if action.type is not None:
            value = action.type(value)
    except (TypeError, ValueError, argparse.ArgumentTypeError) as err:
        raise ConfigurationError(f"config key {key!r}: {err}") from None
    if action.choices is not None and value not in action.choices:
        raise ConfigurationError(
            f"config key {key!r}: invalid choice {value!r} "
            f"(choose from {', '.join(action.choices)})")
    return value


def _resolve(args, defaults: dict) -> dict:
    """Effective settings: built-in defaults, then config file, then flags."""
    cfg = dict(defaults)
    if getattr(args, "config", None):
        file_cfg = _load_config_file(args.config, set(defaults))
        for key, value in file_cfg.items():
            cfg[key] = _config_value(args.actions[key], key, value)
    for key in defaults:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    return cfg


def _solver_from(cfg: dict) -> SolverConfig:
    return SolverConfig(tolerance=cfg["tol"], max_iterations=cfg["max_iter"])


def _initial_state(cfg: dict) -> tuple[PlanarVector, PlanarVector]:
    return PlanarVector(*cfg["x0"]), PlanarVector(*cfg["v0"])


def _steps_from(cfg: dict, h: float) -> int:
    if cfg.get("t_end") is not None:
        if cfg["t_end"] <= 0:
            raise ConfigurationError(f"t-end must be positive, got {cfg['t_end']}")
        return max(1, round(cfg["t_end"] / h))
    steps = cfg["steps"]
    if steps is None or steps < 1:
        raise ConfigurationError(f"steps must be >= 1, got {steps}")
    return int(steps)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _csv_text(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


def _emit(cfg: dict, payload: dict, header: list[str], rows: list[list]) -> None:
    if cfg["format"] == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        text = _csv_text(header, rows)
        print(f"# metadata: {json.dumps(payload['metadata'], sort_keys=True)}",
              file=sys.stderr)
    if cfg.get("out"):
        with open(cfg["out"], "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _metadata(cfg: dict, **extra) -> dict:
    meta = {}
    for key, value in cfg.items():
        if value is None:
            continue
        name = {"tol": "tolerance", "max_iter": "maxIterations", "t_end": "tEnd",
                "h_list": "hList"}.get(key, key)
        if isinstance(value, tuple):
            value = list(value)
        meta[name] = value
    meta.update(extra)
    return meta


def _require_method(cfg: dict) -> MethodId:
    if not cfg.get("method"):
        raise ConfigurationError("--method is required")
    return MethodId.parse(cfg["method"])


def _elements_for_report(cfg: dict) -> OrbitElements:
    """Elements from --a/--e when given, else from the initial state."""
    a, e = cfg.get("a"), cfg.get("e")
    if (a is None) != (e is None):
        raise ConfigurationError("--a and --e must be given together")
    if a is not None:
        return OrbitElements.from_shape(a, e)
    x0, v0 = _initial_state(cfg)
    return elements_from_state(State(x0, v0, 0.0))


_SIMULATE_DEFAULTS = {
    "method": None, "h": DEFAULT_H, "steps": DEFAULT_STEPS, "t_end": None,
    "x0": DEFAULT_X0, "v0": DEFAULT_V0, "tol": 1e-12, "max_iter": 50,
    "out": None, "format": "csv",
}

_SIMULATE_COLUMNS = ["step", "t", "x1", "x2", "v1", "v2",
                     "energy", "angmom", "lrlA", "lrlB", "omega"]


def _simulate_rows(traj: Trajectory) -> list[list]:
    t, X, V = analysis.trajectory_arrays(traj)
    energy, angmom, lrl_a, lrl_b = analysis.observable_series(X, V)
    omega = np.arctan2(lrl_b, lrl_a)
    table = np.column_stack([t, X, V, energy, angmom, lrl_a, lrl_b, omega])
    return [[k] + [float(v) for v in table[k]] for k in range(len(t))]


def cmd_simulate(args) -> None:
    cfg = _resolve(args, _SIMULATE_DEFAULTS)
    method = _require_method(cfg)
    x0, v0 = _initial_state(cfg)
    h = float(cfg["h"])
    steps = _steps_from(cfg, h)
    traj = integrate(method, x0, v0, h, steps, _solver_from(cfg))
    rows = _simulate_rows(traj)
    meta = _metadata(cfg, method=method.value, steps=steps)
    payload = {"metadata": meta,
               "rows": [dict(zip(_SIMULATE_COLUMNS, row)) for row in rows]}
    _emit(cfg, payload, _SIMULATE_COLUMNS, rows)


_PRECESSION_DEFAULTS = dict(_SIMULATE_DEFAULTS, format="json")

_PRECESSION_COLUMNS = ["method", "h", "predictedClosedForm", "predictedQuadrature",
                       "measured", "fitResidualRms", "revolutions"]


def _precession_report(method: MethodId, traj: Trajectory, h: float) -> dict:
    estimate = analysis.measure_precession(traj)
    closed = theory.precession_closed_form(method, traj.elements, h)
    quad = None
    if method in _QUADRATURE_METHODS:
        quad = theory.precession_quadrature(method, traj.elements, h).rate_per_revolution
    return {
        "method": method.value,
        "h": h,
        "predictedClosedForm": closed.rate_per_revolution,
        "predictedQuadrature": quad,
        "measured": estimate.rate_per_revolution,
        "fitResidualRms": estimate.fit_residual_rms,
        "revolutions": estimate.revolutions_observed,
    }


def cmd_precession(args) -> None:
    cfg = _resolve(args, _PRECESSION_DEFAULTS)
    method = _require_method(cfg)
    x0, v0 = _initial_state(cfg)
    h = float(cfg["h"])
    steps = _steps_from(cfg, h)
    traj = integrate(method, x0, v0, h, steps, _solver_from(cfg))
    report = _precession_report(method, traj, h)
    meta = _metadata(cfg, method=method.value, steps=steps)
    payload = dict(report, metadata=meta)
    rows = [[report[col] for col in _PRECESSION_COLUMNS]]
    _emit(cfg, payload, _PRECESSION_COLUMNS, rows)


_SCAN_DEFAULTS = {
    "methods": _ALL_METHODS, "h_list": DEFAULT_SCAN_H, "t_end": None,
    "x0": DEFAULT_X0, "v0": DEFAULT_V0, "tol": 1e-12, "max_iter": 50,
    "out": None, "format": "csv",
}

_SCAN_COLUMNS = ["method", "h", "measuredRate", "predictedRate"]


def cmd_scan(args) -> None:
    cfg = _resolve(args, _SCAN_DEFAULTS)
    h_list = tuple(float(h) for h in cfg["h_list"])
    if len(h_list) < 2:
        raise ConfigurationError("scan needs at least 2 step sizes")
    if any(h <= 0 for h in h_list):
        raise ConfigurationError("step sizes must be positive")
    methods = [MethodId.parse(m) for m in cfg["methods"]]
    x0, v0 = _initial_state(cfg)
    elements = elements_from_state(State(x0, v0, 0.0))
    h_max = max(h_list)
    if cfg.get("t_end") is not None:
        raw_span = float(cfg["t_end"])
        if raw_span <= 0:
            raise ConfigurationError(f"t-end must be positive, got {raw_span}")
    else:
        raw_span = DEFAULT_SCAN_REVOLUTIONS * elements.T
    # common physical span, aligned to the coarsest step
    t_span = math.ceil(raw_span / h_max) * h_max
    solver = _solver_from(cfg)
    rows = []
    for method in methods:
        for h in h_list:
            predicted = theory.precession_closed_form(method, elements, h).rate_per_revolution
            measured = None
            try:
                traj = integrate(method, x0, v0, h, round(t_span / h), solver)
                measured = analysis.measure_precession(traj).rate_per_revolution
            except (NumericalFailure, KeplerLabError) as err:
                print(f"warning: {method.value} at h={h:g} failed: {err}",
                      file=sys.stderr)
            rows.append([method.value, h, measured, predicted])
    meta = _metadata(cfg, methods=[m.value for m in methods], hList=list(h_list),
                     tSpan=t_span, revolutions=t_span / elements.T)
    payload = {"metadata": meta,
               "rows": [dict(zip(_SCAN_COLUMNS, row)) for row in rows]}
    _emit(cfg, payload, _SCAN_COLUMNS, rows)


_ERROR_DEFAULTS = dict(_SIMULATE_DEFAULTS, steps=None, t_end=DEFAULT_ERROR_T_END)

_ERROR_COLUMNS = ["method", "t", "errorNorm"]


def cmd_error_curve(args) -> None:
    cfg = _resolve(args, _ERROR_DEFAULTS)
    method = _require_method(cfg)
    x0, v0 = _initial_state(cfg)
    h = float(cfg["h"])
    steps = _steps_from(cfg, h)
    traj = integrate(method, x0, v0, h, steps, _solver_from(cfg))
    t, err = analysis.error_curve(traj)
    rows = [[method.value, float(t[k]), float(err[k])] for k in range(len(t))]
    meta = _metadata(cfg, method=method.value, steps=steps)
    payload = {"metadata": meta,
               "rows": [dict(zip(_ERROR_COLUMNS, row)) for row in rows]}
    _emit(cfg, payload, _ERROR_COLUMNS, rows)


_PREDICT_DEFAULTS = {
    "method": None, "h": DEFAULT_H, "x0": DEFAULT_X0, "v0": DEFAULT_V0,
    "a": None, "e": None, "tol": 1e-12, "max_iter": 50, "out": None,
    "format": "json",
}

_PREDICT_COLUMNS = ["method", "h", "predictedClosedForm", "predictedQuadrature",
                    "leadingOrder"]


def cmd_predict(args) -> None:
    cfg = _resolve(args, _PREDICT_DEFAULTS)
    method = _require_method(cfg)
    h = float(cfg["h"])
    elements = _elements_for_report(cfg)
    closed = theory.precession_closed_form(method, elements, h)
    quad = None
    if method in _QUADRATURE_METHODS and elements.e > 0:
        quad = theory.precession_quadrature(method, elements, h).rate_per_revolution
    report = {
        "method": method.value,
        "h": h,
        "predictedClosedForm": closed.rate_per_revolution,
        "predictedQuadrature": quad,
        "leadingOrder": closed.leading_order,
    }
    meta = _metadata(cfg, method=method.value,
                     elements={"a": elements.a, "e": elements.e, "L": elements.L})
    payload = dict(report, metadata=meta)
    _emit(cfg, payload, _PREDICT_COLUMNS, [[report[c] for c in _PREDICT_COLUMNS]])


_AVERAGES_DEFAULTS = {
    "x0": DEFAULT_X0, "v0": DEFAULT_V0, "a": None, "e": None,
    "tol": 1e-12, "max_iter": 50, "out": None, "format": "json",
}

_AVERAGES_COLUMNS = ["power", "closedForm", "quadrature", "relDiff"]


def cmd_averages(args) -> None:
    cfg = _resolve(args, _AVERAGES_DEFAULTS)
    elements = _elements_for_report(cfg)
    oriented = elements.with_apsis_angle(0.5 * math.pi)
    rows = []
    for power in (5, 6, 7):
        closed = theory.orbit_average_closed_form(power, oriented)
        quad = theory.orbit_average(
            lambda X, V, p=power: X[:, 1] / np.hypot(X[:, 0], X[:, 1]) ** p, oriented)
        denom = abs(closed) if closed != 0.0 else 1.0
        rows.append([power, closed, quad, abs(quad - closed) / denom])
    meta = _metadata(cfg, elements={"a": elements.a, "e": elements.e, "L": elements.L})
    payload = {"metadata": meta,
               "rows": [dict(zip(_AVERAGES_COLUMNS, row)) for row in rows]}
    _emit(cfg, payload, _AVERAGES_COLUMNS, rows)


_BENCH_DEFAULTS = {
    "methods": _ALL_METHODS, "h": DEFAULT_BENCH_H, "steps": DEFAULT_BENCH_STEPS,
    "x0": DEFAULT_X0, "v0": DEFAULT_V0, "tol": 1e-12, "max_iter": 50,
    "out": None, "format": "json",
}

_BENCH_COLUMNS = ["method", "steps", "wallSeconds", "implicitSolveCount",
                  "avgNewtonIterations"]


def cmd_bench(args) -> None:
    cfg = _resolve(args, _BENCH_DEFAULTS)
    methods = [MethodId.parse(m) for m in cfg["methods"]]
    x0, v0 = _initial_state(cfg)
    h = float(cfg["h"])
    steps = int(cfg["steps"])
    if steps < 1:
        raise ConfigurationError(f"steps must be >= 1, got {steps}")
    solver = _solver_from(cfg)
    rows = []
    for method in methods:
        start = time.perf_counter()
        traj = integrate(method, x0, v0, h, steps, solver)
        wall = time.perf_counter() - start
        rows.append([method.value, steps, wall, traj.stats.implicit_solves,
                     traj.stats.avg_newton_iterations])
    meta = _metadata(cfg, methods=[m.value for m in methods], steps=steps)
    payload = {"metadata": meta,
               "note": "wall-clock timings are machine-dependent and informative only",
               "rows": [dict(zip(_BENCH_COLUMNS, row)) for row in rows]}
    _emit(cfg, payload, _BENCH_COLUMNS, rows)


_HANDLERS = {
    "simulate": cmd_simulate,
    "precession": cmd_precession,
    "scan": cmd_scan,
    "error-curve": cmd_error_curve,
    "predict": cmd_predict,
    "averages": cmd_averages,
    "bench": cmd_bench,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _HANDLERS[args.command](args)
    except NumericalFailure as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (KeplerLabError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
