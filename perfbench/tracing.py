"""Per-layer spans for the traced benchmark passes.

A traced pass rebinds the names that keplerlab's callers look up (module
attributes such as ``keplerlab.cli.integrate`` and the ``ExactOrbit``
methods) to wrappers that time every call.  A span's busy time is the sum of
its calls' durations; its self time is that minus the busy time of the spans
opened inside it.  Nothing is rebound outside ``Tracer.installed()``, so the
untraced passes run the program unchanged.
"""

from __future__ import annotations

import contextlib
import inspect
import math
import time
from collections import defaultdict

from workloads import METHODS


class Tracer:
    """Span and work-counter totals for one traced pass."""

    def __init__(self, kl):
        self.kl = kl
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)
        self._open = []  # busy time of the children of each open span

    def wrap(self, name, fn, account=None):
        def traced(*args, **kwargs):
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = self._open.pop()
                self.calls[name] += 1
                self.busy[name] += elapsed
                self.self_time[name] += elapsed - children
                if self._open:
                    self._open[-1] += elapsed
            if account is not None:
                account(args, kwargs, result, elapsed)
            return result

        return traced

    def _count_integrate(self, args, kwargs, traj, elapsed):
        method = traj.method.value
        self.counts["integrators.steps"] += traj.n_steps
        self.counts["integrators.implicit_solves"] += traj.stats.implicit_solves
        self.counts["integrators.newton_iters"] += traj.stats.newton_iterations
        self.counts[f"steps.{method}"] += traj.n_steps
        self.counts[f"busy_s.{method}"] += elapsed

    def _rk4_counter(self, integrate_modified):
        signature = inspect.signature(integrate_modified)

        def count(args, kwargs, result, elapsed):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            arg = bound.arguments
            # the substep rule of integrate_modified: each sample segment is
            # split so that no RK4 step exceeds reference_step
            segment = arg["t_end"] / arg["n_samples"]
            substeps = max(1, math.ceil(segment / arg["reference_step"]))
            self.counts["theory.rk4_substeps"] += arg["n_samples"] * substeps

        return count

    def _bindings(self):
        kl = self.kl
        cli, integrators, analysis = kl.cli, kl.integrators, kl.analysis
        kepler, theory = kl.kepler, kl.theory
        integrate = self.wrap("integrators.integrate", integrators.integrate,
                              self._count_integrate)
        elements = self.wrap("kepler.elements_from_state", kepler.elements_from_state)
        table = [
            (cli, "main", self.wrap("cli", cli.main)),
            (cli, "integrate", integrate),
            (integrators, "integrate", integrate),
            (cli, "elements_from_state", elements),
            (integrators, "elements_from_state", elements),
            (kepler, "elements_from_state", elements),
        ]
        spans = [
            (integrators, "init_second_point", "integrators.init_second_point"),
            (analysis, "measure_precession", "analysis.measure_precession"),
            (analysis, "trajectory_arrays", "analysis.trajectory_arrays"),
            (analysis, "observable_series", "analysis.observable_series"),
            (analysis, "error_curve", "analysis.error_curve"),
            (kepler.ExactOrbit, "state_at", "kepler.state_at"),
            (kepler.ExactOrbit, "states_at", "kepler.states_at"),
            (theory, "precession_closed_form", "theory.precession_closed_form"),
            (theory, "precession_quadrature", "theory.precession_quadrature"),
            (theory, "orbit_average", "theory.orbit_average"),
        ]
        table += [(owner, attr, self.wrap(name, getattr(owner, attr)))
                  for owner, attr, name in spans]
        table.append((theory, "integrate_modified",
                      self.wrap("theory.integrate_modified", theory.integrate_modified,
                                self._rk4_counter(theory.integrate_modified))))
        return table

    @contextlib.contextmanager
    def installed(self):
        table = self._bindings()
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in table]
        try:
            for owner, attr, wrapper in table:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def layer_metrics(self, scale: float) -> dict:
        """Per-layer metrics of this pass, keyed as in BENCHMARK.json, with
        every time multiplied by `scale` (to reference seconds)."""
        busy = defaultdict(float, {k: v * scale for k, v in self.busy.items()})
        own = defaultdict(float, {k: v * scale for k, v in self.self_time.items()})
        calls, counts = self.calls, self.counts
        solves = counts["integrators.implicit_solves"]
        rk4 = counts["theory.rk4_substeps"]
        metrics = {
            "cli.self_s": own["cli"],
            "integrators.integrate.calls": calls["integrators.integrate"],
            "integrators.integrate.busy_s": busy["integrators.integrate"],
            "integrators.integrate.self_s": own["integrators.integrate"],
            "integrators.init_second_point.busy_s": busy["integrators.init_second_point"],
            "integrators.steps": int(counts["integrators.steps"]),
            "integrators.implicit_solves": int(solves),
            "integrators.newton_iters": int(counts["integrators.newton_iters"]),
            "integrators.newton_per_solve":
                counts["integrators.newton_iters"] / solves if solves else 0.0,
            "analysis.measure_precession.calls": calls["analysis.measure_precession"],
            "analysis.measure_precession.busy_s": busy["analysis.measure_precession"],
            "analysis.trajectory_arrays.busy_s": busy["analysis.trajectory_arrays"],
            "analysis.observable_series.busy_s": busy["analysis.observable_series"],
            "analysis.error_curve.self_s": own["analysis.error_curve"],
            "kepler.states_at.busy_s": busy["kepler.states_at"],
            "kepler.state_at.calls": calls["kepler.state_at"],
            "kepler.state_at.busy_s": busy["kepler.state_at"],
            "kepler.elements_from_state.calls": calls["kepler.elements_from_state"],
            "theory.precession_quadrature.calls": calls["theory.precession_quadrature"],
            "theory.precession_quadrature.busy_s": busy["theory.precession_quadrature"],
            "theory.orbit_average.calls": calls["theory.orbit_average"],
            "theory.orbit_average.self_s": own["theory.orbit_average"],
            "theory.precession_closed_form.busy_s": busy["theory.precession_closed_form"],
            "theory.integrate_modified.busy_s": busy["theory.integrate_modified"],
            "theory.rk4_substeps": int(rk4),
            "theory.us_per_rk4_substep":
                1e6 * busy["theory.integrate_modified"] / rk4 if rk4 else 0.0,
        }
        for method in METHODS:
            steps = counts[f"steps.{method}"]
            metrics[f"integrators.us_per_step.{method}"] = (
                1e6 * scale * counts[f"busy_s.{method}"] / steps if steps else 0.0)
        return metrics


# Counters that must repeat exactly between passes and between runs with
# one seed; a difference is a failed check.
EXACT_COUNTERS = (
    "integrators.steps",
    "integrators.implicit_solves",
    "integrators.newton_iters",
    "cli.rows",
    "cli.out_bytes",
    "kepler.state_at.calls",
    "theory.rk4_substeps",
)
