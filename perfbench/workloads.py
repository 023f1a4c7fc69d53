"""The benchmark's three workloads: seeded inputs, one pass, output checks.

Each workload follows one of keplerlab's three paths to a precession rate:

    scan    measurement: every method at every default step size
    dump    trajectory output: single-lane runs that write large tables
    theory  closed form, quadrature and the RK4 run of the modified flow

The seed only generates inputs (an orbit, or a grid of shapes); the program
receives them through ``--x0/--v0`` or ``--a/--e`` and the public
``keplerlab.theory`` functions.  A pass drives ``keplerlab.cli.main`` in
process, writing ``--out`` files into a scratch directory; the checks read
those files back afterwards, outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import statistics
import sys
import traceback
from pathlib import Path

METHODS = ("sv", "mp", "ml", "lc", "dec", "fr")

# Semimajor axis of keplerlab's default orbit, x0 = (-3, 0), v0 = (0, 0.45).
DEFAULT_A = -1.0 / (2.0 * (0.5 * 0.45 ** 2 - 1.0 / 3.0))


def seeded_orbit(rng: random.Random) -> dict:
    """A clockwise orbit with the default semimajor axis, started at aphelion.

    Eccentricity is drawn from [0.3, 0.5] and the apsis angle from the full
    circle, so the step counts and time spans do not depend on the seed.
    """
    e = rng.uniform(0.3, 0.5)
    apsis = rng.uniform(0.0, 2.0 * math.pi)
    r = DEFAULT_A * (1.0 + e)
    speed = math.sqrt((1.0 - e) / r)
    c, s = math.cos(apsis + math.pi), math.sin(apsis + math.pi)
    return {"a": DEFAULT_A, "e": e, "apsis": apsis,
            "x0": [r * c, r * s], "v0": [speed * s, -speed * c]}


def period_of(x0, v0) -> float:
    """Kepler period of the orbit through (x0, v0), from its energy."""
    energy = 0.5 * (v0[0] ** 2 + v0[1] ** 2) - 1.0 / math.hypot(*x0)
    return 2.0 * math.pi * (-1.0 / (2.0 * energy)) ** 1.5


def _pair(flag: str, value) -> str:
    # the --flag=value form keeps argparse from reading "-3.0,..." as a flag
    return f"{flag}={value[0]!r},{value[1]!r}"


def _rel(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


class Checks:
    """Named pass/fail results of one pass's output checks."""

    def __init__(self):
        self.results: list[tuple[str, bool]] = []

    def add(self, label: str, ok: bool) -> bool:
        self.results.append((label, bool(ok)))
        return bool(ok)


class Schemas:
    """The repository's JSON Schemas, loaded on first use."""

    def __init__(self, directory: Path):
        self.directory = directory
        self._validators = {}

    def errors(self, name: str, payload) -> list[str]:
        if name not in self._validators:
            import jsonschema

            schema = json.loads((self.directory / f"{name}.schema.json").read_text())
            self._validators[name] = jsonschema.Draft7Validator(schema)
        return [err.message for err in self._validators[name].iter_errors(payload)]


class Workload:
    """One pass is a list of CLI commands plus optional direct library calls."""

    name = ""
    steps = 0          # integrator steps of one pass, derived from the inputs
    rk4_substeps = 0   # RK4 substeps of the modified flow in one pass

    def commands(self, out: Path) -> list[tuple[str, list[str]]]:
        raise NotImplementedError

    def direct(self, kl) -> dict | None:
        return None

    def check(self, outputs: dict[str, bytes], schemas: Schemas, checks: Checks) -> dict:
        """Add this workload's checks; return its accuracy and row facts."""
        raise NotImplementedError

    def outputs(self, out: Path) -> dict[str, Path]:
        """The --out file of each command, by command label."""
        return {label: Path(argv[argv.index("--out") + 1])
                for label, argv in self.commands(out)}

    def execute(self, kl, out: Path) -> tuple[list[tuple[str, bool]], dict | None]:
        """Run one pass.  Returns (operation results, direct-call results)."""
        ops = []
        for label, argv in self.commands(out):
            err = io.StringIO()
            try:
                with contextlib.redirect_stderr(err):
                    ok = kl.cli.main(argv) == 0
            except Exception:  # keep measuring; the failure is counted
                ok = False
                traceback.print_exc()
            if not ok:
                print(f"perfbench: {label} failed: {err.getvalue().strip()}", file=sys.stderr)
            ops.append((label, ok))
        direct = None
        try:
            direct = self.direct(kl)
        except Exception:  # counted as one failed operation
            traceback.print_exc()
            ops.append(("direct calls", False))
        else:
            if direct is not None:
                ops.append(("direct calls", True))
        return ops, direct


class Scan(Workload):
    """``keplerlab scan``: six methods x the default --h-list over 100 revolutions."""

    name = "scan"
    H_LIST = (0.0625, 0.125, 0.25, 0.5)  # the CLI's default --h-list
    REVOLUTIONS = 100                     # the CLI's default span

    def __init__(self, seed: int, kl):
        self.orbit = seeded_orbit(random.Random(seed))
        h_max = max(self.H_LIST)
        raw = self.REVOLUTIONS * period_of(self.orbit["x0"], self.orbit["v0"])
        self.t_span = math.ceil(raw / h_max) * h_max
        self.steps = len(METHODS) * sum(round(self.t_span / h) for h in self.H_LIST)
        self.inputs = dict(self.orbit, tSpan=self.t_span)

    def commands(self, out):
        return [("scan", ["scan", _pair("--x0", self.orbit["x0"]),
                          _pair("--v0", self.orbit["v0"]),
                          "--format", "json", "--out", str(out / "scan.json")])]

    def check(self, outputs, schemas, checks):
        payload = json.loads(outputs["scan"])
        checks.add("scan: schema", not schemas.errors("scan", payload))
        meta, rows = payload["metadata"], payload["rows"]
        checks.add("scan: tSpan derived from the inputs", meta["tSpan"] == self.t_span)
        checks.add("scan: default h-list", tuple(meta["hList"]) == self.H_LIST)
        checks.add("scan: one cell per method and step",
                   len(rows) == len(METHODS) * len(self.H_LIST))
        cells = [checks.add(f"scan: cell {r['method']} h={r['h']}",
                            r["measuredRate"] is not None) for r in rows]
        finest = {r["method"]: r for r in rows if r["h"] == min(self.H_LIST)}
        errors = []
        for method in ("sv", "mp"):
            row = finest.get(method, {})
            rate, closed = row.get("measuredRate"), row.get("predictedRate")
            ok = rate is not None and closed
            if ok:
                errors.append(_rel(rate, closed))
            checks.add(f"scan: {method} within 1% of the closed form",
                       ok and errors[-1] <= 0.01)
        # An h^4 rate over an h^2 rate goes as C h^2; at h = 1/16 fr has
        # C of order 1 (ratio 2e-3 to 5e-3 for e in [0.3, 0.5]), so 1e-2
        # still fails any scheme that precesses at second order.
        sv_rate = finest.get("sv", {}).get("measuredRate")
        for method in ("ml", "lc", "dec", "fr"):
            rate = finest.get(method, {}).get("measuredRate")
            checks.add(f"scan: {method} |rate| <= 1e-2 |sv rate|",
                       rate is not None and sv_rate is not None
                       and abs(rate) <= 1e-2 * abs(sv_rate))
        return {
            "rows": len(rows),
            "cells_ok_frac": sum(cells) / len(cells) if cells else 0.0,
            "rate_rel_err": statistics.median(errors) if errors else math.inf,
        }


class Dump(Workload):
    """Three single-lane commands that write about 60k rows between them."""

    name = "dump"
    STEPS = 20000
    H = 0.1
    T_END = 2000.0

    def __init__(self, seed: int, kl):
        self.orbit = seeded_orbit(random.Random(seed))
        self.error_steps = max(1, round(self.T_END / self.H))
        self.steps = 2 * self.STEPS + self.error_steps
        self.inputs = dict(self.orbit)

    def commands(self, out):
        orbit = [_pair("--x0", self.orbit["x0"]), _pair("--v0", self.orbit["v0"])]
        steps = ["--steps", str(self.STEPS)]
        return [
            ("simulate-fr", ["simulate", "--method", "fr", *steps, *orbit,
                             "--format", "json", "--out", str(out / "simulate-fr.json")]),
            ("simulate-mp", ["simulate", "--method", "mp", "--h", repr(self.H), *steps,
                             *orbit, "--out", str(out / "simulate-mp.csv")]),
            ("error-curve-dec", ["error-curve", "--method", "dec", "--h", repr(self.H),
                                 "--t-end", repr(self.T_END), *orbit,
                                 "--out", str(out / "error-curve-dec.csv")]),
        ]

    def check(self, outputs, schemas, checks):
        payload = json.loads(outputs["simulate-fr"])
        checks.add("simulate fr: schema", not schemas.errors("simulate", payload))
        fr_rows = len(payload["rows"])
        checks.add("simulate fr: steps + 1 rows", fr_rows == self.STEPS + 1)
        mp_rows = outputs["simulate-mp"].count(b"\n") - 1
        checks.add("simulate mp: steps + 1 rows", mp_rows == self.STEPS + 1)
        curve = outputs["error-curve-dec"]
        curve_rows = curve.count(b"\n") - 1
        checks.add("error-curve dec: steps + 1 rows", curve_rows == self.error_steps + 1)
        final = float(curve.rstrip(b"\n").rsplit(b"\n", 1)[-1].split(b",")[2])
        checks.add("error-curve dec: finite final error", math.isfinite(final))
        return {"rows": fr_rows + mp_rows + curve_rows, "pos_err_final": final}


class Theory(Workload):
    """predict and averages over a grid of shapes, then the modified flow."""

    name = "theory"
    A_RANGE = (1.5, 2.5)
    E_RANGE = (0.2, 0.6)
    GRID = 3            # GRID x GRID shapes, one drawn in each cell
    H = 0.1
    T_END = 100.0
    SAMPLES = 1000      # modified-flow samples; equals the discrete steps

    def __init__(self, seed: int, kl):
        rng = random.Random(seed)
        self.orbit = seeded_orbit(rng)
        (a_lo, a_hi), (e_lo, e_hi), n = self.A_RANGE, self.E_RANGE, self.GRID
        self.shapes = [(a_lo + (a_hi - a_lo) * (i + rng.random()) / n,
                        e_lo + (e_hi - e_lo) * (j + rng.random()) / n)
                       for i in range(n) for j in range(n)]
        self.steps = 2 * self.SAMPLES
        segment = self.T_END / self.SAMPLES
        self.rk4_substeps = 2 * self.SAMPLES * max(
            1, math.ceil(segment / kl.theory.REFERENCE_STEP))
        self.inputs = dict(self.orbit, shapes=[list(s) for s in self.shapes])

    def commands(self, out):
        commands = []
        for k, (a, e) in enumerate(self.shapes):
            shape = ["--a", repr(a), "--e", repr(e)]
            for method in ("sv", "mp"):
                commands.append((f"predict-{method}-{k}",
                                 ["predict", "--method", method, *shape,
                                  "--out", str(out / f"predict-{method}-{k}.json")]))
            commands.append((f"averages-{k}", ["averages", *shape,
                                               "--out", str(out / f"averages-{k}.json")]))
        return commands

    def direct(self, kl):
        """Modified-flow rate against the discrete rate, for sv and mp."""
        kepler, integrators = kl.kepler, kl.integrators
        x0 = kepler.PlanarVector(*self.orbit["x0"])
        v0 = kepler.PlanarVector(*self.orbit["v0"])
        elements = kepler.elements_from_state(kepler.State(x0, v0, 0.0))
        rates = {}
        for name in ("sv", "mp"):
            method = integrators.MethodId(name)
            model = kl.theory.ModifiedModel(method, self.H)
            _, X, V = kl.theory.integrate_modified(model, x0, v0, self.T_END, self.SAMPLES)
            flow = integrators.Trajectory(method, self.T_END / self.SAMPLES, X, v0,
                                          elements, velocities=V)
            discrete = integrators.integrate(method, x0, v0, self.H, self.SAMPLES)
            rates[name] = {
                "flow": kl.analysis.measure_precession(flow).rate_per_revolution,
                "discrete": kl.analysis.measure_precession(discrete).rate_per_revolution,
            }
        return rates

    def check(self, outputs, schemas, checks):
        gaps = []
        rows = 0
        for name, data in outputs.items():
            if name == "direct":
                continue
            payload = json.loads(data)
            kind = name.split("-")[0]
            checks.add(f"{name}: schema", not schemas.errors(kind, payload))
            if kind == "predict":
                rows += 1
                quad, closed = payload["predictedQuadrature"], payload["predictedClosedForm"]
                ok = quad is not None and closed
                if ok:
                    gaps.append(_rel(quad, closed))
                checks.add(f"{name}: quadrature within 1% of the closed form",
                           ok and gaps[-1] <= 0.01)
            else:
                rows += len(payload["rows"])
                checks.add(f"{name}: three powers", len(payload["rows"]) == 3)
                for row in payload["rows"]:
                    gaps.append(row["relDiff"])
                    checks.add(f"{name}: power {row['power']} within 1e-6",
                               row["relDiff"] <= 1e-6)
        direct = json.loads(outputs["direct"]) if "direct" in outputs else {}
        for method in ("sv", "mp"):
            rate = direct.get(method)
            checks.add(f"modified flow {method}: within 10% of the discrete rate",
                       rate is not None and _rel(rate["flow"], rate["discrete"]) < 0.10)
        return {"rows": rows, "quad_rel_err": max(gaps) if gaps else math.inf}


WORKLOADS = {cls.name: cls for cls in (Scan, Dump, Theory)}
