import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keplerlab import (
    DegenerateOrbit,
    ExactOrbit,
    NearSingularity,
    NumericalFailure,
    OrbitElements,
    PlanarVector,
    SolverFailure,
    State,
    UnboundOrbit,
    observable_series,
)
from keplerlab import kepler
from keplerlab.kepler import CIRCULAR_ECCENTRICITY, elements_from_state, solve_kepler

from conftest import (
    REF_A,
    REF_B,
    REF_E,
    REF_ECC,
    REF_L,
    REF_R_PERI,
    REF_SPEED_PERI,
    REF_T,
    assert_close,
    assert_vector_close,
    bound_states,
)
from reference import gradient_jacobian_xy, perihelion_state, potential_gradient_xy

TWO_PI = 2.0 * math.pi


def rotated(v, angle):
    c, s = math.cos(angle), math.sin(angle)
    return PlanarVector(c * v[0] - s * v[1], s * v[0] + c * v[1])


def invariants(state):
    """(E, L, A1, A2) of one State, through the array kernel on a (2,) point."""
    return observable_series(np.asarray(state.position), np.asarray(state.velocity))


class TestPointwiseFunctions:
    def test_potential_and_gradient_spot_values(self):
        # U = -1/|x| is the energy at rest
        assert invariants(State(PlanarVector(0.0, 2.0), PlanarVector(0.0, 0.0)))[0] == -0.5
        g1, g2 = potential_gradient_xy(0.0, 2.0)
        assert_vector_close((g1, g2), (0.0, 0.25))
        assert_vector_close((-g1, -g2), (0.0, -0.25))

    def test_energy_spot_value(self):
        state = State(PlanarVector(3.0, 0.0), PlanarVector(0.0, 0.5))
        assert_close(invariants(state)[0], 0.125 - 1.0 / 3.0)

    def test_angular_momentum_is_cross_product(self):
        state = State(PlanarVector(-3.0, 0.0), PlanarVector(0.0, 0.45))
        assert invariants(state)[1] == -1.35

    def test_gradient_jacobian_spot_value(self):
        j11, j12, j22 = gradient_jacobian_xy(0.0, 2.0)
        assert (j11, j12, j22) == (0.125, 0.0, -0.25)

    @pytest.mark.parametrize("x", [PlanarVector(1.1, -0.7), PlanarVector(-0.3, 2.4),
                                   PlanarVector(0.05, 0.02)])
    def test_gradient_jacobian_matches_finite_differences(self, x):
        delta = 1e-6
        j11, j12, j22 = gradient_jacobian_xy(*x)
        gp = potential_gradient_xy(x.x1 + delta, x.x2)
        gm = potential_gradient_xy(x.x1 - delta, x.x2)
        assert_close((gp[0] - gm[0]) / (2 * delta), j11, rtol=1e-6, atol=1e-8)
        assert_close((gp[1] - gm[1]) / (2 * delta), j12, rtol=1e-6, atol=1e-8)
        gp = potential_gradient_xy(x.x1, x.x2 + delta)
        gm = potential_gradient_xy(x.x1, x.x2 - delta)
        assert_close((gp[1] - gm[1]) / (2 * delta), j22, rtol=1e-6, atol=1e-8)

    def test_collision_guard(self):
        with pytest.raises(NearSingularity):
            observable_series(np.array([1e-15, 0.0]), np.array([0.0, 1.0]))
        with pytest.raises(NearSingularity):
            potential_gradient_xy(0.0, 0.0)
        with pytest.raises(NearSingularity):
            gradient_jacobian_xy(1e-13, 1e-13)

    @given(x1=st.floats(-5, 5), x2=st.floats(-5, 5),
           v1=st.floats(-3, 3), v2=st.floats(-3, 3))
    def test_lagrange_identity(self, x1, x2, v1, v2):
        # |x|^2 |v|^2 = <x,v>^2 + (x cross v)^2, the identity behind b^2 = L^2 a
        lhs = (x1 * x1 + x2 * x2) * (v1 * v1 + v2 * v2)
        rhs = (x1 * v1 + x2 * v2) ** 2 + (x1 * v2 - x2 * v1) ** 2
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


class TestLrlVector:
    def test_reference_state_lrl(self, default_state):
        _, _, a1, a2 = invariants(default_state)
        assert_vector_close((a1, a2), (0.3925, 0.0))
        assert math.atan2(a2, a1) == 0.0

    # atol: round-off in |A| and, above the switch to |A|, in sqrt(1 - (b/a)^2)
    @given(bound_states())
    @settings(max_examples=60)
    def test_magnitude_equals_eccentricity(self, state):
        el = elements_from_state(state)
        assert_close(math.hypot(*invariants(state)[2:]), el.e, rtol=1e-9, atol=1e-14)

    # sqrt(1 - (b/a)^2) reads 1.49e-8, the square root of one ulp, for this
    # state, whose LRL vector is 3.1e-10 long
    def test_near_circular_eccentricity_is_the_lrl_magnitude(self):
        state = State(PlanarVector(-3.0, 0.0), PlanarVector(0.0, 0.5773502691))
        lrl = math.hypot(*invariants(state)[2:])
        assert lrl < 1e-9
        assert_close(elements_from_state(state).e, lrl, rtol=0.0, atol=1e-15)

    @given(bound_states(), st.floats(-math.pi, math.pi))
    @settings(max_examples=40)
    def test_rotation_equivariance(self, state, angle):
        turned = State(rotated(state.position, angle),
                       rotated(state.velocity, angle), state.time)
        E, L, *lrl = invariants(state)
        E_turned, L_turned, *lrl_turned = invariants(turned)
        assert_close(E_turned, E, rtol=1e-10, atol=1e-12)
        assert_close(L_turned, L, rtol=1e-10, atol=1e-12)
        assert_vector_close(lrl_turned, rotated(lrl, angle), tol=1e-10)

    @given(bound_states())
    @settings(max_examples=30)
    def test_point_equals_its_row_of_the_batch(self, state):
        # one code path: a (2,) point gives bit for bit its row of (n, 2)
        orbit = ExactOrbit(state)
        X, V = orbit.states_at(np.linspace(0.0, 1.5 * orbit.elements.T, 11))
        batch = observable_series(X, V)
        for k in range(len(X)):
            point = observable_series(X[k], V[k])
            assert all(p == b[k] for p, b in zip(point, batch))


class TestOrbitElements:
    def test_reference_orbit_elements(self, default_elements):
        el = default_elements
        assert_close(-1.0 / (2.0 * el.a), REF_E)
        assert_close(el.a, REF_A)
        assert_close(el.b, REF_B)
        assert_close(el.e, REF_ECC)
        assert_close(el.T, REF_T)
        assert el.L == REF_L

    def test_inconsistent_elements_rejected(self):
        good = OrbitElements.from_shape(2.0, 0.5)
        OrbitElements(a=good.a, b=good.b, e=good.e, L=good.L)
        for field, bad in [("b", good.b * 1.001), ("e", good.e + 1e-3), ("L", good.L * 1.001)]:
            kw = dict(a=good.a, b=good.b, e=good.e, L=good.L)
            kw[field] = bad
            with pytest.raises(ValueError):
                OrbitElements(**kw)

    # four fields; the period is derived from a, with the expression both
    # constructors stored before it became a property
    def test_fields_and_period(self):
        assert [f.name for f in dataclasses.fields(OrbitElements)] == ["a", "b", "e", "L"]
        for el in (OrbitElements.from_shape(2.0, 0.5), OrbitElements.from_shape(1e-300, 0.1),
                   elements_from_state(State(PlanarVector(-3.0, 0.0), PlanarVector(0.0, 0.45)))):
            assert el.T == 2.0 * math.pi * el.a ** 1.5

    # built directly, past from_shape's own checks of a and e
    @pytest.mark.parametrize("field, bad, message", [
        ("a", 0.0, "semi-major axis must be positive"),
        ("a", -2.0, "semi-major axis must be positive"),
        ("a", math.inf, "semi-major axis must be positive"),
        ("b", 0.0, r"semi-minor axis must lie in \(0, a\]"),
        ("b", 2.01, r"semi-minor axis must lie in \(0, a\]"),
        ("e", -0.1, r"eccentricity must lie in \[0, 1\)"),
        ("e", 1.0, r"eccentricity must lie in \[0, 1\)")])
    def test_constructor_domain_validation(self, field, bad, message):
        good = OrbitElements.from_shape(2.0, 0.5)
        kw = dict(a=good.a, b=good.b, e=good.e, L=good.L)
        kw[field] = bad
        with pytest.raises(ValueError, match=message):
            OrbitElements(**kw)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            OrbitElements.from_shape(-1.0, 0.5)
        with pytest.raises(ValueError):
            OrbitElements.from_shape(2.0, 1.0)
        with pytest.raises(ValueError):
            OrbitElements.from_shape(2.0, -0.1)

    # L overflows through b * b at a = 1e200 and a = 1e162 near e = 1, before
    # a ** 1.5 does at 1e300; E = -1/(2a) overflows at a = 1e-309
    @pytest.mark.parametrize("a, e", [(1e200, 0.5), (1e162, 0.9999999999999999),
                                      (1e300, 0.0), (1e-309, 0.5)])
    def test_shape_beyond_the_float_range(self, a, e):
        message = f"a = {a}, e = {e} is beyond the floating-point range"
        with pytest.raises(NumericalFailure, match=re.escape(message)):
            OrbitElements.from_shape(a, e)

    # 2 pi a^1.5 is inf from a = 9.4e204 on, and a ** 1.5 raises from 3.2e205
    @pytest.mark.parametrize("x", [9e204, 2e205, 1e250])
    def test_state_with_overflowing_period(self, x):
        state = State(PlanarVector(x, 0.0), PlanarVector(0.0, math.sqrt(1.0 / x)))
        if x < 9.4e204:
            assert math.isfinite(elements_from_state(state).T)
        else:
            with pytest.raises(NumericalFailure, match="is beyond the floating-point range"):
                elements_from_state(state)

    def test_unbound_and_degenerate_rejected(self):
        with pytest.raises(UnboundOrbit):
            elements_from_state(State(PlanarVector(3.0, 0.0), PlanarVector(0.0, 1.0)))
        with pytest.raises(DegenerateOrbit):
            elements_from_state(State(PlanarVector(2.0, 0.0), PlanarVector(0.3, 0.0)))

    # from x0 = (1, 0) (a = 0.5): L = 0, b = 0 (L^2 a underflows), e = 1.0,
    # and an e that no longer gives b back are one refusal, naming L
    @pytest.mark.parametrize("v2, L", [(0.0, "0"), (1e-200, "1e-200"), (1e-9, "1e-09"),
                                       (1e-6, "1e-06")])
    def test_a_numerically_radial_state_is_degenerate(self, v2, L):
        message = (f"angular momentum L = {L} is too small for a = 0.5: "
                   f"the orbit is radial to double precision")
        with pytest.raises(DegenerateOrbit, match=f"^{re.escape(message)}$"):
            elements_from_state(State(PlanarVector(1.0, 0.0), PlanarVector(0.0, v2)))

    # states that are not radial to double precision keep every bit of their
    # elements; |v0| = 4.3e-7 from x0 = (1, 0) lies among refused neighbours
    @pytest.mark.parametrize("x0, v0, bits", [
        ((1.0, 0.0), (0.0, 4.281332398719396e-07),
         ("0x1.000000000019dp-1", "0x1.450f6a4ef0d5ap-22", "0x1.ffffffffff98dp-1",
          "0x1.cbb45e6e35716p-22")),
        ((1.0, 0.0), (0.0, 1e-5),
         ("0x1.0000000036f9cp-1", "0x1.da88051edb332p-18", "0x1.ffffffff24190p-1",
          "0x1.4f8b588e368f1p-17")),
        ((1.0, 0.0), (0.0, 3e-5),
         ("0x1.00000001eec7cp-1", "0x1.63e603d8561d4p-16", "0x1.fffffff844e10p-1",
          "0x1.f75104d551d69p-16")),
        ((-3.0, 0.0), (0.0, 0.45),
         ("0x1.13c35506e4e23p+1", "0x1.fb446580ebc4dp+0", "0x1.91eb851eb8521p-2",
          "-0x1.599999999999ap+0"))], ids=["4.3e-7", "1e-5", "3e-5", "default"])
    def test_accepted_states_keep_their_elements(self, x0, v0, bits):
        el = elements_from_state(State(PlanarVector(*x0), PlanarVector(*v0)))
        assert (el.a.hex(), el.b.hex(), el.e.hex(), el.L.hex()) == bits

    @given(a=st.floats(0.5, 8.0), e=st.floats(0.0, 0.95),
           ccw=st.booleans(), apsis=st.floats(-3.0, 3.0))
    @settings(max_examples=60)
    def test_shape_roundtrip_through_perihelion_state(self, a, e, ccw, apsis):
        el = OrbitElements.from_shape(a, e)
        el = el if ccw else dataclasses.replace(el, L=-el.L)
        state = perihelion_state(el, apsis)
        back = elements_from_state(state)
        assert_close(back.a, a, rtol=1e-10)
        assert_close(back.e, e, rtol=1e-9, atol=1e-14)
        assert_close(back.L, el.L, rtol=1e-10)
        if e > 1e-6:
            # the LRL angle, the apsis, is defined only above the circular threshold
            _, _, A1, A2 = invariants(state)
            diff = (math.atan2(A2, A1) - apsis + math.pi) % TWO_PI - math.pi
            assert abs(diff) < 1e-8


class TestKeplerEquation:
    # frozen against a 50-digit Newton solve of M = Ecc - e sin Ecc
    ORACLE = [
        (1.2, 0.3925, 1.5924083392975004),
        (5.5, 0.9, 4.6051683630957314),
        (3.0, 0.99, 3.0704106691175017),
    ]

    @pytest.mark.parametrize("mean, e, want", ORACLE)
    def test_frozen_solutions(self, mean, e, want):
        assert_close(solve_kepler(mean, e), want, rtol=1e-13)

    def test_circular_identity(self):
        assert solve_kepler(1.234, 0.0) == 1.234

    def test_zero_anomaly(self):
        assert solve_kepler(0.0, 0.7) == 0.0

    def test_wraps_mean_anomaly(self):
        assert_close(solve_kepler(1.2 + TWO_PI, 0.3925),
                     solve_kepler(1.2, 0.3925), rtol=1e-12)

    def test_rejects_eccentricity_outside_unit_interval(self):
        with pytest.raises(ValueError):
            solve_kepler(1.0, 1.0)
        with pytest.raises(ValueError):
            solve_kepler(1.0, -0.2)

    def test_failure_names_the_stuck_anomaly(self, monkeypatch):
        monkeypatch.setattr(kepler, "KEPLER_MAX_ITERATIONS", 1)
        with pytest.raises(SolverFailure) as info:
            solve_kepler(np.array([0.0, 3.0]), 0.99)
        msg = str(info.value)
        for part in ("1 of 2 mean anomalies", "M=3.0", "e=0.99", "1e-13", "iteration cap 1"):
            assert part in msg, msg

    @given(mean=st.floats(0.0, TWO_PI, exclude_max=True), e=st.floats(0.0, 0.99))
    @settings(max_examples=150)
    def test_residual_below_tolerance(self, mean, e):
        ecc = solve_kepler(mean, e)
        assert abs(ecc - e * math.sin(ecc) - mean) < 1e-13
        assert 0.0 <= ecc < TWO_PI + 1e-12


class TestExactOrbit:
    def test_initial_state_is_aphelion(self, default_state):
        el = elements_from_state(default_state)
        assert_close(math.hypot(*default_state.position), el.a * (1.0 + el.e), rtol=1e-13)

    def test_perihelion_at_half_period(self, default_state):
        # by symmetry the perihelion passage is T/2 after the aphelion start;
        # its radius and speed are exact rationals for the reference orbit
        state = ExactOrbit(default_state).state_at(REF_T / 2.0)
        assert_close(math.hypot(*state.position), REF_R_PERI, rtol=1e-10)
        assert_close(math.hypot(*state.velocity), REF_SPEED_PERI, rtol=1e-10)
        assert_vector_close(state.position, (REF_R_PERI, 0.0), tol=1e-9)
        assert_vector_close(state.velocity, (0.0, -REF_SPEED_PERI), tol=1e-9)

    def test_period_return(self, default_state):
        orbit = ExactOrbit(default_state)
        back = orbit.state_at(orbit.elements.T)
        assert_vector_close(back.position, default_state.position, tol=1e-10)
        assert_vector_close(back.velocity, default_state.velocity, tol=1e-10)

    def test_time_zero_reproduces_initial(self, default_state):
        got = ExactOrbit(default_state).state_at(0.0)
        assert_vector_close(got.position, default_state.position, tol=1e-13)
        assert_vector_close(got.velocity, default_state.velocity, tol=1e-13)

    def test_samples_satisfy_equation_of_motion(self, default_state):
        orbit = ExactOrbit(default_state)
        # delta balances second-difference truncation (delta^2) against
        # roundoff amplification (eps/delta^2); 1e-4 is roundoff-dominated
        delta = 5e-4
        for t in (1.0, 5.3, 12.7):
            xm = orbit.state_at(t - delta).position
            x0 = orbit.state_at(t).position
            xp = orbit.state_at(t + delta).position
            acc1 = (xp.x1 - 2 * x0.x1 + xm.x1) / delta ** 2
            acc2 = (xp.x2 - 2 * x0.x2 + xm.x2) / delta ** 2
            g1, g2 = potential_gradient_xy(*x0)
            assert_close(acc1, -g1, rtol=1e-6, atol=1e-8)
            assert_close(acc2, -g2, rtol=1e-6, atol=1e-8)

    def test_invariants_constant_along_orbit(self, default_state):
        orbit = ExactOrbit(default_state)
        el = orbit.elements
        for t in np.linspace(0.0, 2.5 * el.T, 40):
            s = orbit.state_at(float(t))
            E, L, a1, a2 = invariants(s)
            assert_close(E, -1.0 / (2.0 * el.a), rtol=1e-11)
            assert_close(L, el.L, rtol=1e-11)
            assert_close(math.hypot(a1, a2), el.e, rtol=1e-10)

    def test_batch_matches_scalar_propagation(self, default_state):
        orbit = ExactOrbit(default_state)
        times = np.linspace(0.0, 30.0, 17)
        X, V = orbit.states_at(times)
        assert X.shape == (17, 2) and V.shape == (17, 2)
        for k, t in enumerate(times):
            s = orbit.state_at(float(t))
            assert_vector_close(X[k], s.position, tol=1e-12)
            assert_vector_close(V[k], s.velocity, tol=1e-12)

    def test_time_translation_invariance(self, default_state):
        # an orbit rebuilt from a later sample maps absolute times the same
        # way (the sample carries its own epoch); re-zeroing the epoch makes
        # the relative-time form hold as well
        orbit = ExactOrbit(default_state)
        t1, t2 = 3.7, 16.2
        mid = orbit.state_at(t1)
        want = orbit.state_at(t2)
        got = ExactOrbit(mid).state_at(t2)
        assert_vector_close(got.position, want.position, tol=1e-9)
        assert_vector_close(got.velocity, want.velocity, tol=1e-9)
        rezeroed = ExactOrbit(State(mid.position, mid.velocity, 0.0))
        got2 = rezeroed.state_at(t2 - t1)
        assert_vector_close(got2.position, want.position, tol=1e-9)
        assert_vector_close(got2.velocity, want.velocity, tol=1e-9)

    def test_circular_orbit_constant_radius(self):
        el = OrbitElements.from_shape(2.0, 0.0)
        orbit = ExactOrbit(perihelion_state(el, 0.0))
        for t in np.linspace(0.0, el.T, 9):
            assert_close(math.hypot(*orbit.state_at(float(t)).position), 2.0, rtol=1e-12)

    def test_clockwise_orbit_turns_clockwise(self, default_state):
        # reference orbit has L < 0: the position angle must decrease
        orbit = ExactOrbit(default_state)
        s1 = orbit.state_at(0.4)
        ang0 = math.atan2(default_state.position.x2, default_state.position.x1)
        ang1 = math.atan2(s1.position.x2, s1.position.x1)
        diff = (ang1 - ang0 + math.pi) % TWO_PI - math.pi
        assert diff < 0.0

    def test_perihelion_state_matches_elements(self, default_elements):
        state = perihelion_state(default_elements, 0.0)
        assert_close(math.hypot(*state.position), REF_R_PERI, rtol=1e-12)
        E, L, _, _ = invariants(state)
        assert_close(L, REF_L, rtol=1e-12)
        assert_close(E, REF_E, rtol=1e-12)
