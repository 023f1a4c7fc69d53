"""The benchmark's tracer rebinds keplerlab functions by name (module
attributes and ExactOrbit methods).  A deleted or renamed target breaks the
traced pass, so the bindings are resolved here, without running the
benchmark.  The theory workload also calls the library directly; a changed
signature breaks that pass, so its calls are run here too."""

import math
from pathlib import Path

import keplerlab
import keplerlab.cli  # the benchmark imports it too; the tracer rebinds cli.main
from keplerlab import ExactOrbit, MethodId, State

from conftest import V0, X0

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_bindings_resolve_install_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.Tracer(keplerlab)
    originals = [getattr(owner, attr) for owner, attr, _ in tracer._bindings()]
    with tracer.installed():
        keplerlab.integrators.integrate(MethodId.MP, X0, V0, 0.1, 3)
        ExactOrbit(State(X0, V0, 0.0)).state_at(1.0)
    assert [getattr(owner, attr) for owner, attr, _ in tracer._bindings()] == originals
    # integrate looks init_second_point up by name, so the span sees it
    assert tracer.calls["integrators.integrate"] == 1
    assert tracer.calls["integrators.init_second_point"] == 1
    assert tracer.calls["kepler.state_at"] == 1
    assert tracer.counts["integrators.steps"] == 3


def test_rk4_counter_follows_the_substep_rule(monkeypatch):
    # the counter binds integrate_modified's reference_step, t_end and
    # n_samples by name; a renamed or dropped one breaks the traced theory pass
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    t_end, n_samples = 1.0, 7
    tracer = tracing.Tracer(keplerlab)
    with tracer.installed():
        keplerlab.theory.integrate_modified(
            keplerlab.ModifiedModel(MethodId.SV, 0.1), X0, V0, t_end, n_samples)
    segment = t_end / n_samples
    want = n_samples * math.ceil(segment / keplerlab.theory.REFERENCE_STEP)
    assert tracer.calls["theory.integrate_modified"] == 1
    assert tracer.counts["theory.rk4_substeps"] == want == 7 * 29


def test_theory_workload_direct_calls(monkeypatch):
    # State, the five-argument Trajectory, ModifiedModel and integrate_modified
    # as the workload calls them, and its check: each modified-flow rate
    # within 10% of the discrete rate
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    rates = workloads.Theory(1, keplerlab).direct(keplerlab)
    assert sorted(rates) == ["mp", "sv"]
    for rate in rates.values():
        assert abs(rate["flow"] - rate["discrete"]) < 0.10 * abs(rate["discrete"])
