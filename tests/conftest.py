import dataclasses
import math

import pytest
from hypothesis import strategies as st

from keplerlab import ExactOrbit, OrbitElements, PlanarVector, State, integrators
from keplerlab.kepler import elements_from_state

from reference import perihelion_state

# Reference orbit used throughout: aphelion start at x=(-3,0), v=(0,0.45).
# Everything about it is exactly representable: E = -557/2400, a = 1200/557,
# e = 157/400, L = -1.35, perihelion radius 729/557.
X0 = PlanarVector(-3.0, 0.0)
V0 = PlanarVector(0.0, 0.45)

REF_E = -557.0 / 2400.0
REF_A = 1200.0 / 557.0
REF_ECC = 0.3925
REF_L = -1.35
REF_B = 1.9815123977421249
REF_T = 19.868676773967703
REF_R_PERI = 729.0 / 557.0
REF_SPEED_PERI = 1.35 * 557.0 / 729.0


@pytest.fixture(scope="session")
def default_state() -> State:
    return State(X0, V0, 0.0)


@pytest.fixture(scope="session")
def default_elements(default_state) -> OrbitElements:
    return elements_from_state(default_state)


class KernelReached(Exception):
    """Raised by the `stub_kernels` stubs with the step count of a long run."""


@pytest.fixture
def stub_kernels(monkeypatch):
    """integrate's step kernels, stubbed for runs of more than 1000 steps:
    such a run raises KernelReached(steps) instead of stepping, so a test can
    send a run at or above the step bound without paying for it.  Shorter
    runs, and the initializer's one-step calls, step as usual."""
    stencil, fr = integrators._stencil, integrators._fr

    def stub_stencil(xs, n, *args):
        if n + 1 > 1000:  # n points after the first two: a run of n + 1 steps
            raise KernelReached(n + 1)
        return stencil(xs, n, *args)

    def stub_fr(xs, vs, n, *args):
        if n > 1000:
            raise KernelReached(n)
        return fr(xs, vs, n, *args)

    monkeypatch.setattr(integrators, "_stencil", stub_stencil)
    monkeypatch.setattr(integrators, "_fr", stub_fr)


def isclose(got, want, rtol=1e-12, atol=0.0):
    return abs(got - want) <= atol + rtol * abs(want)


def assert_close(got, want, rtol=1e-12, atol=0.0, label=""):
    assert isclose(got, want, rtol, atol), f"{label} got {got!r}, want {want!r}"


def assert_vector_close(got, want, tol=1e-12, label=""):
    dist = math.hypot(got[0] - want[0], got[1] - want[1])
    scale = max(1.0, math.hypot(want[0], want[1]))
    assert dist <= tol * scale, f"{label} got {tuple(got)}, want {tuple(want)}"


# strategies for generic bound, non-radial states: sample shape + phase
# and construct the state from the closed-form orbit so boundedness is
# guaranteed by construction
@st.composite
def bound_states(draw):
    a = draw(st.floats(0.5, 8.0))
    e = draw(st.floats(0.0, 0.9))
    apsis = draw(st.floats(-math.pi, math.pi))
    ccw = draw(st.booleans())
    phase = draw(st.floats(0.0, 1.0))
    el = OrbitElements.from_shape(a, e)
    el = el if ccw else dataclasses.replace(el, L=-el.L)
    return ExactOrbit(perihelion_state(el, apsis)).state_at(phase * el.T)
