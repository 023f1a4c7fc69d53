"""The benchmark's tracer rebinds keplerlab functions by name (module
attributes and ExactOrbit methods).  A deleted or renamed target breaks the
traced pass, so the bindings are resolved here, without running the
benchmark."""

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
