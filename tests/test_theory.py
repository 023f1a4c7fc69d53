import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keplerlab import (
    ConfigurationError,
    ExactOrbit,
    MethodId,
    ModifiedModel,
    NearSingularity,
    NumericalFailure,
    OrbitElements,
    PlanarVector,
    SingularMassMatrix,
    State,
    Trajectory,
    integrate_modified,
    measure_precession,
    observable_series,
    orbit_average,
    orbit_average_closed_form,
    precession_closed_form,
    precession_quadrature,
)

from keplerlab import theory
from keplerlab.integrators import STENCILS, Stencil
from keplerlab.kepler import CIRCULAR_ECCENTRICITY, SINGULARITY_FLOOR, elements_from_state
from keplerlab.theory import (lagrangian_bracket, lrl_symmetry_field, mean_midpoint_weight,
                              perturbation_field)

import reference
from conftest import (REF_A, REF_ECC, REF_R_PERI, REF_SPEED_PERI, V0, X0, assert_close,
                      assert_vector_close)
from reference import (modified_acceleration_xy, modified_lagrangian, potential_gradient_xy,
                       reduced_acceleration, reduced_flow, reference_flow)

# frozen against a 50-digit evaluation of the corrected Lagrangian at
# x=(1.1,-0.3), v=(0.2,0.8), h=0.4
MODLAG_STATE = State(PlanarVector(1.1, -0.3), PlanarVector(0.2, 0.8))
MODLAG_BASE = 1.2170580193070292
MODLAG_SV = 1.2148941785224592
MODLAG_MP = 1.2240570994626278

# frozen closed-form rates for the reference orbit at h = 0.5
RATE_SV_HALF = 0.067370482295781551
RATE_MP_HALF = -0.1347409645915631

# frozen orbit averages of x2/r^power for the reference shape, apsis on +x2
AVG_ORACLE = {5: 0.02768099789439036, 6: 0.023660169199471011,
              7: 0.018593564858287481}


TWO_STEP = (MethodId.SV, MethodId.MP, MethodId.ML, MethodId.LC, MethodId.DEC)


def modified_acceleration(model, state):
    return PlanarVector(*modified_acceleration_xy(
        model.epsilon, *model.bracket, *state.position, *state.velocity))


def mass_matrix_and_rhs(eps, bracket, x, v):
    """M xddot = rhs in long form: the velocity Hessian of L_h entry by entry,
    and the position gradient minus the mixed term (d/dx dL/dv) v."""
    alpha, beta, gamma = bracket
    r = math.hypot(*x)
    u, s = v @ v, x @ v
    mass = np.eye(2) + eps * (2.0 * beta / r**3 * np.eye(2) + 2.0 * gamma * np.outer(x, x) / r**5)
    grad = -x / r**3 + eps * (-4.0 * alpha * x / r**6 - 3.0 * beta * u * x / r**5
                              + 2.0 * gamma * s * v / r**5 - 5.0 * gamma * s * s * x / r**7)
    mixed = eps * (-6.0 * beta * s * v / r**5 + 2.0 * gamma * (u * x + s * v) / r**5
                   - 10.0 * gamma * s * s * x / r**7)
    return mass, grad - mixed


def random_states(seed, count):
    """Phase-space points at radius 0.7 to 3 in every direction, speed up to 1.5."""
    rng = np.random.default_rng(seed)
    radius_, angle = rng.uniform(0.7, 3.0, count), rng.uniform(0.0, 2.0 * math.pi, count)
    X = np.stack([radius_ * np.cos(angle), radius_ * np.sin(angle)], axis=-1)
    return X, rng.uniform(-1.5, 1.5, (count, 2))


class TestModifiedModel:
    def test_epsilon(self):
        assert ModifiedModel(MethodId.SV, 0.5).epsilon == 0.25 / 24.0
        assert ModifiedModel(MethodId.MP, 0.0).epsilon == 0.0

    def test_every_two_step_stencil_but_not_fr(self):
        for m in TWO_STEP:
            ModifiedModel(m, 0.5)
        with pytest.raises(ConfigurationError):
            ModifiedModel(MethodId.FR, 0.5)

    def test_step_validation(self):
        with pytest.raises(ConfigurationError):
            ModifiedModel(MethodId.SV, -0.1)
        with pytest.raises(ConfigurationError):
            ModifiedModel(MethodId.SV, math.nan)


class TestStencilTheory:
    def test_mean_midpoint_weight(self):
        assert mean_midpoint_weight(MethodId.SV) == 0.0
        assert mean_midpoint_weight(MethodId.MP) == 0.5
        for m in (MethodId.ML, MethodId.LC, MethodId.DEC):
            assert 1.0 - 6.0 * mean_midpoint_weight(m) == 0.0
        with pytest.raises(ConfigurationError):
            mean_midpoint_weight(MethodId.FR)

    def test_bracket_is_sv_and_mp_at_the_ends(self):
        assert lagrangian_bracket(0.0) == (1.0, -2.0, 6.0)
        assert lagrangian_bracket(0.5) == (1.0, 1.0, -3.0)
        assert ModifiedModel(MethodId.MP, 0.5).bracket == (1.0, 1.0, -3.0)

    def test_weights_enter_only_through_their_cycle_mean(self, monkeypatch):
        # a cycle of sv and mp steps has mp's bracket scaled by its share
        monkeypatch.setitem(STENCILS, MethodId.ML, Stencil(STENCILS[MethodId.SV].init, (
            STENCILS[MethodId.SV].cycle[0], STENCILS[MethodId.MP].cycle[0])))
        assert mean_midpoint_weight(MethodId.ML) == 0.25
        assert ModifiedModel(MethodId.ML, 0.5).bracket == (1.0, -0.5, 1.5)

    @pytest.mark.parametrize("method", TWO_STEP)
    def test_rates_are_one_minus_six_beta_times_sv(self, default_elements, method):
        factor = 1.0 - 6.0 * mean_midpoint_weight(method)
        sv_closed = precession_closed_form(MethodId.SV, default_elements, 0.5)
        sv_quad = precession_quadrature(MethodId.SV, default_elements, 0.5)
        closed = precession_closed_form(method, default_elements, 0.5)
        quad = precession_quadrature(method, default_elements, 0.5)
        assert closed.rate_per_revolution == factor * sv_closed.rate_per_revolution
        assert abs(quad - factor * sv_quad) <= 1e-12 * abs(sv_quad)


class TestModifiedLagrangian:
    def test_frozen_values(self):
        assert_close(modified_lagrangian(ModifiedModel(MethodId.SV, 0.0), MODLAG_STATE),
                     MODLAG_BASE, rtol=1e-14)
        assert_close(modified_lagrangian(ModifiedModel(MethodId.SV, 0.4), MODLAG_STATE),
                     MODLAG_SV, rtol=1e-14)
        assert_close(modified_lagrangian(ModifiedModel(MethodId.MP, 0.4), MODLAG_STATE),
                     MODLAG_MP, rtol=1e-14)

    def test_correction_scales_with_h_squared(self):
        base = modified_lagrangian(ModifiedModel(MethodId.SV, 0.0), MODLAG_STATE)
        d1 = modified_lagrangian(ModifiedModel(MethodId.SV, 0.2), MODLAG_STATE) - base
        d2 = modified_lagrangian(ModifiedModel(MethodId.SV, 0.4), MODLAG_STATE) - base
        assert_close(d2, 4.0 * d1, rtol=1e-10)


class TestModifiedAcceleration:
    def test_reduces_to_kepler_force_at_zero_step(self):
        model = ModifiedModel(MethodId.SV, 0.0)
        for state in (MODLAG_STATE, State(X0, V0)):
            acc = modified_acceleration(model, state)
            g1, g2 = potential_gradient_xy(*state.position)
            assert_vector_close(acc, (-g1, -g2), tol=1e-14)

    def test_stays_within_three_percent_of_force(self, default_state):
        # even at the coarse headline step the correction is a small perturbation
        orbit = ExactOrbit(default_state)
        for method in (MethodId.SV, MethodId.MP):
            model = ModifiedModel(method, 0.5)
            for t in np.linspace(0.0, orbit.elements.T, 24, endpoint=False):
                s = orbit.state_at(float(t))
                acc = modified_acceleration(model, s)
                g1, g2 = potential_gradient_xy(*s.position)
                assert math.hypot(acc.x1 + g1, acc.x2 + g2) <= 0.03 * math.hypot(g1, g2)

    @pytest.mark.parametrize("method", [MethodId.SV, MethodId.MP, MethodId.ML])
    def test_euler_lagrange_residual_vanishes(self, method):
        # independent check of the whole algebra: along a trajectory driven by
        # modified_acceleration, d/dt dL/dv - dL/dx must vanish, with both
        # derivatives taken from modified_lagrangian by finite differences
        model = ModifiedModel(method, 0.4)
        delta = 1e-5

        def lag(x1, x2, v1, v2):
            return modified_lagrangian(
                model, State(PlanarVector(x1, x2), PlanarVector(v1, v2)))

        def grad_v(x, v):
            return np.array([
                (lag(x[0], x[1], v[0] + delta, v[1]) - lag(x[0], x[1], v[0] - delta, v[1])),
                (lag(x[0], x[1], v[0], v[1] + delta) - lag(x[0], x[1], v[0], v[1] - delta)),
            ]) / (2 * delta)

        def grad_x(x, v):
            return np.array([
                (lag(x[0] + delta, x[1], v[0], v[1]) - lag(x[0] - delta, x[1], v[0], v[1])),
                (lag(x[0], x[1] + delta, v[0], v[1]) - lag(x[0], x[1] - delta, v[0], v[1])),
            ]) / (2 * delta)

        def rk4(x, v, dt):
            def acc(x_, v_):
                a = modified_acceleration(model, State(PlanarVector(*x_), PlanarVector(*v_)))
                return np.array([a.x1, a.x2])
            k1x, k1v = v, acc(x, v)
            k2x, k2v = v + 0.5 * dt * k1v, acc(x + 0.5 * dt * k1x, v + 0.5 * dt * k1v)
            k3x, k3v = v + 0.5 * dt * k2v, acc(x + 0.5 * dt * k2x, v + 0.5 * dt * k2v)
            k4x, k4v = v + dt * k3v, acc(x + dt * k3x, v + dt * k3v)
            return (x + dt * (k1x + 2 * k2x + 2 * k3x + k4x) / 6,
                    v + dt * (k1v + 2 * k2v + 2 * k3v + k4v) / 6)

        x0 = np.array([1.4, -0.5])
        u0 = np.array([0.3, 0.7])
        dt = 1e-3
        xp, vp = rk4(x0, u0, dt)
        xm, vm = rk4(x0, u0, -dt)
        dp_dt = (grad_v(xp, vp) - grad_v(xm, vm)) / (2 * dt)
        residual = dp_dt - grad_x(x0, u0)
        assert np.abs(residual).max() < 1e-5

    def test_singular_mass_matrix_detected(self):
        # at r^3 = 4 eps the sv velocity Hessian has a zero eigenvalue
        model = ModifiedModel(MethodId.SV, 0.5)
        r = (4.0 * model.epsilon) ** (1.0 / 3.0)
        with pytest.raises(SingularMassMatrix):
            modified_acceleration(model, State(PlanarVector(r, 0.0), PlanarVector(0.0, 1.0)))

    def test_singular_along_x_detected(self):
        # mp's zero eigenvalue is lam_par = 1 - 4 eps/r^3, along x; lam_perp
        # = 1 + 2 eps/r^3 stays at 3/2
        model = ModifiedModel(MethodId.MP, 0.5)
        r = (4.0 * model.epsilon) ** (1.0 / 3.0)
        with pytest.raises(SingularMassMatrix, match="1.500e"):
            modified_acceleration(model, State(PlanarVector(0.0, r), PlanarVector(1.0, 0.0)))
        modified_acceleration(model, State(PlanarVector(0.0, 1.01 * r), PlanarVector(1.0, 0.0)))

    @pytest.mark.parametrize("method", TWO_STEP)
    def test_closed_form_eigenvalues(self, method):
        # lam_perp = 1 + 2 eps beta/r^3 normal to x and lam_par = lam_perp +
        # 2 eps gamma/r^3 along x are the eigenvalues of the explicit M
        model = ModifiedModel(method, 0.5)
        eps, (_, beta, gamma) = model.epsilon, model.bracket
        X, V = random_states(11, 40)
        for x, v in zip(X, V):
            mass, _ = mass_matrix_and_rhs(eps, model.bracket, x, v)
            r3 = math.hypot(*x) ** 3
            lam_perp = 1.0 + 2.0 * eps * beta / r3
            lam_par = lam_perp + 2.0 * eps * gamma / r3
            np.testing.assert_allclose(np.linalg.eigvalsh(mass),
                                       sorted((lam_perp, lam_par)), rtol=1e-14)
            np.testing.assert_allclose(mass @ x, lam_par * x, rtol=1e-14)

    @pytest.mark.parametrize("method", TWO_STEP)
    def test_solves_the_long_form_system(self, method):
        model = ModifiedModel(method, 0.5)
        X, V = random_states(12, 40)
        for x, v in zip(X, V):
            mass, rhs = mass_matrix_and_rhs(model.epsilon, model.bracket, x, v)
            want = np.linalg.solve(mass, rhs)
            got = np.array(modified_acceleration_xy(model.epsilon, *model.bracket, *x, *v))
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
            assert np.linalg.norm(mass @ got - rhs) <= 1e-13 * np.linalg.norm(rhs)


class TestSymmetryAndPerturbationFields:
    def test_lrl_symmetry_field_spot_value(self):
        xi = lrl_symmetry_field(np.array([1.5, -0.4]), np.array([0.3, 0.9]))
        assert_vector_close(xi, (0.18, 1.41), tol=1e-15)

    def test_perturbation_field_spot_values(self):
        # x on the x1 axis, velocity transverse: the s-dependent terms drop
        x, v = np.array([2.0, 0.0]), np.array([0.0, 0.7])
        f_sv = perturbation_field(MethodId.SV, x, v)
        f_mp = perturbation_field(MethodId.MP, x, v)
        assert_vector_close(f_sv, (4.0 / 2 ** 5 - 6.0 * 0.49 / 2 ** 4, 0.0), tol=1e-15)
        assert_vector_close(f_mp, (-8.0 / 2 ** 5 + 3.0 * 0.49 / 2 ** 4, 0.0), tol=1e-15)

    def test_perturbation_field_collision_guard(self):
        X = np.array([[2.0, 0.0], [0.0, 1e-13]])
        with pytest.raises(NearSingularity):
            perturbation_field(MethodId.SV, X, np.ones_like(X))

    def test_perturbation_field_needs_a_two_step_stencil(self):
        x, v = np.array([2.0, 0.0]), np.array([0.0, 0.7])
        for m in TWO_STEP:
            perturbation_field(m, x, v)
        with pytest.raises(ConfigurationError):
            perturbation_field(MethodId.FR, x, v)


class TestOrbitAverage:
    def test_frozen_closed_forms(self, default_elements):
        for power, want in AVG_ORACLE.items():
            assert_close(orbit_average_closed_form(power, default_elements), want,
                         rtol=1e-12)

    # near e = 1 nodes uniform in time would miss the perihelion passage;
    # uniform in the true anomaly the rule is exact at every eccentricity
    @pytest.mark.parametrize("ccw", [False, True])
    @pytest.mark.parametrize("e", [REF_ECC, 0.99])
    def test_quadrature_matches_closed_forms(self, e, ccw):
        elements = OrbitElements.from_shape(REF_A, e)
        elements = elements if ccw else dataclasses.replace(elements, L=-elements.L)
        for power in AVG_ORACLE:
            got = orbit_average(
                lambda X, V, p=power: X[:, 1] / np.hypot(X[:, 0], X[:, 1]) ** p, elements)
            assert_close(got, orbit_average_closed_form(power, elements), rtol=1e-12)

    def test_unsupported_power(self, default_elements):
        with pytest.raises(ConfigurationError):
            orbit_average_closed_form(4, default_elements)

    def test_apsis_on_x2_axis_kills_odd_integrand(self, default_elements):
        # with the apsis on +x2 the orbit is symmetric under x1 -> -x1
        got = orbit_average(lambda X, V: X[:, 0] / np.hypot(X[:, 0], X[:, 1]) ** 5,
                            default_elements)
        assert abs(got) < 1e-12

    def test_node_doubling_is_converged(self, default_elements, monkeypatch):
        f = lambda X, V: X[:, 1] / np.hypot(X[:, 0], X[:, 1]) ** 5
        a = orbit_average(f, default_elements)
        monkeypatch.setattr(theory, "DEFAULT_AVERAGE_NODES", 2 * theory.DEFAULT_AVERAGE_NODES)
        b = orbit_average(f, default_elements)
        assert abs(a - b) < 1e-9

    def test_total_derivative_averages_to_zero(self, default_elements):
        # <d/dt f> = 0 for periodic motion; f = v2/r^3 gives
        # df/dt = -x2/r^6 - 3 v2 <x,v> / r^5
        def ddt(X, V):
            r = np.hypot(X[:, 0], X[:, 1])
            svel = np.sum(X * V, axis=1)
            return -X[:, 1] / r ** 6 - 3.0 * V[:, 1] * svel / r ** 5
        assert abs(orbit_average(ddt, default_elements)) < 1e-12

    def test_constant_averages_to_itself(self, default_elements):
        assert_close(orbit_average(lambda X, V: np.full(len(X), 2.5), default_elements),
                     2.5, rtol=1e-15)

    def test_unconverged_average_raises(self):
        # a constant times r^2 is no trigonometric polynomial in the true
        # anomaly: at e = 1 - 1e-6 the rule is off by 0.48, and its half
        # rule differs from it by 0.88 of sum |f r^2|
        elements = OrbitElements.from_shape(1.0, 1.0 - 1e-6)
        with pytest.raises(NumericalFailure, match="not converged in 2048 nodes"):
            orbit_average(lambda X, V: np.ones(len(X)), elements)


class TestPrecessionClosedForm:
    def test_frozen_rates(self, default_elements):
        sv = precession_closed_form(MethodId.SV, default_elements, 0.5)
        mp = precession_closed_form(MethodId.MP, default_elements, 0.5)
        assert_close(sv.rate_per_revolution, RATE_SV_HALF, rtol=1e-13)
        assert_close(mp.rate_per_revolution, RATE_MP_HALF, rtol=1e-13)
        assert sv.leading_order == 2 and mp.leading_order == 2

    def test_mp_is_exactly_minus_two_sv(self, default_elements):
        for h in (0.125, 0.25, 0.5, 1.0):
            sv = precession_closed_form(MethodId.SV, default_elements, h)
            mp = precession_closed_form(MethodId.MP, default_elements, h)
            assert mp.rate_per_revolution == -2.0 * sv.rate_per_revolution

    def test_higher_order_methods_have_zero_leading_rate(self, default_elements):
        # +0.0 on both orbit senses: a counterclockwise orbit's sv rate is
        # negative, and 0 times it would be -0.0
        ccw = OrbitElements.from_shape(default_elements.a, default_elements.e)
        for elements in (default_elements, ccw):
            for m in (MethodId.ML, MethodId.LC, MethodId.DEC, MethodId.FR):
                pred = precession_closed_form(m, elements, 0.5)
                assert pred.rate_per_revolution == 0.0
                assert math.copysign(1.0, pred.rate_per_revolution) == 1.0
                assert pred.leading_order == 4

    def test_quadratic_step_scaling(self, default_elements):
        r1 = precession_closed_form(MethodId.SV, default_elements, 0.25).rate_per_revolution
        r2 = precession_closed_form(MethodId.SV, default_elements, 0.5).rate_per_revolution
        assert_close(r2, 4.0 * r1, rtol=1e-12)

    def test_sign_follows_orbit_sense(self, default_elements):
        # the reference orbit is clockwise (L < 0) and precesses forward (+);
        # the mirror-image counterclockwise orbit precesses backward
        ccw = OrbitElements.from_shape(default_elements.a, default_elements.e)
        rate_cw = precession_closed_form(MethodId.SV, default_elements, 0.5)
        rate_ccw = precession_closed_form(MethodId.SV, ccw, 0.5)
        assert rate_cw.rate_per_revolution > 0.0
        assert_close(rate_ccw.rate_per_revolution, -rate_cw.rate_per_revolution,
                     rtol=1e-14)

    # the rate overflows from h = 2.6e154 in the closed form and from 1e154
    # in the quadrature, where ml's round-off times h^2 overflows too
    @pytest.mark.parametrize("predict, method, h", [
        (precession_closed_form, MethodId.SV, 1e155),
        (precession_closed_form, MethodId.MP, 1e155),
        (precession_quadrature, MethodId.SV, 1e154),
        (precession_quadrature, MethodId.ML, 1e154)])
    def test_overflowing_rate_raises(self, default_elements, predict, method, h):
        message = f"{method.value} precession rate at h = {h:g} is not finite"
        with pytest.raises(NumericalFailure, match=re.escape(message)):
            predict(method, default_elements, h)

    def test_zero_step(self, default_elements):
        assert precession_closed_form(MethodId.SV, default_elements, 0.0).rate_per_revolution == 0.0
        with pytest.raises(ConfigurationError):
            precession_closed_form(MethodId.SV, default_elements, -0.5)


class TestPrecessionQuadrature:
    # both senses, and eccentricities up to 0.999, where nodes uniform in
    # time would miss the perihelion passage
    @pytest.mark.parametrize("ccw", [False, True])
    @pytest.mark.parametrize("e", [REF_ECC, 0.95, 0.99, 0.999])
    def test_matches_closed_form(self, e, ccw):
        elements = OrbitElements.from_shape(REF_A, e)
        elements = elements if ccw else dataclasses.replace(elements, L=-elements.L)
        for method in (MethodId.SV, MethodId.MP):
            for h in (0.25, 0.5):
                quad = precession_quadrature(method, elements, h)
                closed = precession_closed_form(method, elements, h)
                assert_close(quad, closed.rate_per_revolution, rtol=1e-12)

    # rates at h = 0.1 as computed by the per-node scalar quadrature that
    # preceded the array one
    PINNED = [
        (MethodId.SV, 1.5, 0.2, -0.005313170767367999),
        (MethodId.SV, 2.0, 0.39, -0.0033435190156765986),
        (MethodId.SV, 2.5, 0.6, -0.004180097646988698),
        (MethodId.MP, 1.5, 0.2, 0.010626341534735921),
        (MethodId.MP, 2.0, 0.39, 0.006687038031353168),
        (MethodId.MP, 2.5, 0.6, 0.008360195293976757),
    ]

    @pytest.mark.parametrize("method, a, e, want", PINNED)
    def test_pinned_rates(self, method, a, e, want):
        el = OrbitElements.from_shape(a, e)
        got = precession_quadrature(method, el, 0.1)
        assert_close(got, want, rtol=1e-12)

    def test_rejects_circular_orbit(self):
        el = OrbitElements.from_shape(2.0, 0.0)
        assert precession_quadrature(MethodId.SV, el, 0.5) is None

    def test_rejects_fr(self, default_elements):
        assert precession_quadrature(MethodId.FR, default_elements, 0.5) is None

    # the step is checked before fr or a circular orbit returns None, as
    # precession_closed_form and ModifiedModel check it
    @pytest.mark.parametrize("predict", [precession_closed_form, precession_quadrature],
                             ids=lambda f: f.__name__)
    @pytest.mark.parametrize("method, e, h", [(MethodId.FR, 0.3, -1.0),
                                              (MethodId.SV, 0.0, math.nan),
                                              (MethodId.MP, 0.3, math.inf)])
    def test_an_invalid_step_is_refused_first(self, predict, method, e, h):
        with pytest.raises(ConfigurationError) as refused:
            predict(method, OrbitElements.from_shape(1.0, e), h)
        assert str(refused.value) == f"step size must be nonnegative, got {h}"

    # the rate's round-off is about 1.5e-17/e relative: 3e-6 at e = 1e-11
    # (sv), and past 1% somewhere below 1e-15, where the apsis is lost
    @pytest.mark.parametrize("method", [MethodId.SV, MethodId.MP])
    def test_exists_above_circular_eccentricity_only(self, method):
        above = OrbitElements.from_shape(1.0, 1e-11)
        closed = precession_closed_form(method, above, 0.1).rate_per_revolution
        assert_close(precession_quadrature(method, above, 0.1), closed, rtol=1e-5)
        for e in (CIRCULAR_ECCENTRICITY, 1e-13, 1e-30):
            below = OrbitElements.from_shape(1.0, e)
            assert precession_quadrature(method, below, 0.1) is None


class TestKeplerScaling:
    """x -> lam x, v -> lam^(-1/2) v, t -> lam^(3/2) t maps Kepler orbits onto
    Kepler orbits and a stencil's steps of h onto its steps of lam^(3/2) h, so
    the rate per revolution at (lam a, e, lam^(3/2) h) is the rate at (a, e, h),
    and the period scales like the step.  The period cancels from the
    quadrature's rate, so it is checked on its own.
    lam = 4^k scales a and h exactly (h by 8^k); any other lam rounds them.
    Neither is bit-exact: libm's b ** 6 in the closed form, for one, can miss
    4^6 b^6 by an ulp.  The bound is 1e-13 of sv's rate, the scale of every
    rate and of the round-off that ml, lc and dec read as their rate; the
    largest gap in a sweep of 4000 cases was 5.7e-15 of it."""

    @given(method=st.sampled_from(TWO_STEP), a=st.floats(0.5, 8.0), e=st.floats(0.01, 0.95),
           h=st.floats(0.01, 0.5), k=st.sampled_from([-3, -1, 1, 2, 5]),
           lam=st.one_of(st.none(), st.floats(0.1, 10.0)))
    @settings(max_examples=60, deadline=None)
    def test_rate_per_revolution_is_scale_free(self, method, a, e, h, k, lam):
        lam, h_lam = (4.0 ** k, 8.0 ** k * h) if lam is None else (lam, lam ** 1.5 * h)
        base, scaled = OrbitElements.from_shape(a, e), OrbitElements.from_shape(lam * a, e)
        bound = 1e-13 * abs(precession_closed_form(MethodId.SV, base, h).rate_per_revolution)
        runs = ((base, h), (scaled, h_lam))
        closed = [precession_closed_form(method, el, step).rate_per_revolution
                  for el, step in runs]
        quad = [precession_quadrature(method, el, step) for el, step in runs]
        assert abs(closed[1] - closed[0]) <= bound
        assert abs(quad[1] - quad[0]) <= bound
        assert_close(scaled.T, lam ** 1.5 * base.T, rtol=1e-13)


# the brackets behind the folded guard's tests: sv's (c_v, c_s) = (-2, 6) and
# ml's (-1, 3) make lam_perp fall toward the centre, mp's (1, -3) lam_par
GUARD_METHODS = (MethodId.SV, MethodId.MP, MethodId.ML)


def guard_radius(model):
    """integrate_modified's per-run guard radius, from its docstring:
    max(SINGULARITY_FLOOR, (4 S eps)^(1/3) (1 + 1e-9)), S = 2|c_v| + 2|c_s|."""
    _, c_v, c_s = model.bracket
    s = abs(2.0 * c_v) + abs(2.0 * c_s)
    return max(SINGULARITY_FLOOR, (4.0 * s * model.epsilon) ** (1.0 / 3.0) * (1.0 + 1e-9))


def run_against_reference(monkeypatch, model, x0, v0, t_end, n_samples, reference_step):
    """Run integrate_modified and the reduced reference loop from one start and
    assert the same samples, bit for bit, or the same SingularMassMatrix
    message.  Returns the lowest stage radius of the reference loop, the
    refusal's message ("" if none) and how many times integrate_modified ran
    the exact tests."""
    radii, exact_runs = [], []

    def recorded(*args):
        radii.append(args[-2])
        return reduced_acceleration(*args)

    def counted(*args):
        exact_runs.append(None)
        return refuse(*args)

    refuse = theory._refuse_singular
    monkeypatch.setattr(reference, "reduced_acceleration", recorded)
    monkeypatch.setattr(theory, "_refuse_singular", counted)
    try:
        want = reduced_flow(model, x0, v0, t_end, n_samples, reference_step)
    except SingularMassMatrix as err:
        with pytest.raises(SingularMassMatrix) as excinfo:
            integrate_modified(model, x0, v0, t_end, n_samples, reference_step)
        assert str(excinfo.value) == str(err)
        return min(radii), str(err), len(exact_runs)
    _, X, V = integrate_modified(model, x0, v0, t_end, n_samples, reference_step)
    assert np.array_equal(np.hstack((X, V)), np.array(want))
    return min(radii), "", len(exact_runs)


class TestIntegrateModified:
    def test_sample_layout(self):
        model = ModifiedModel(MethodId.SV, 0.5)
        t, X, V = integrate_modified(model, X0, V0, 10.0, 20)
        assert t.shape == (21,) and X.shape == (21, 2) and V.shape == (21, 2)
        assert np.allclose(t, 0.5 * np.arange(21))
        assert np.array_equal(X[0], [X0.x1, X0.x2])
        assert np.array_equal(V[0], [V0.x1, V0.x2])

    def test_zero_step_model_reproduces_exact_orbit(self, default_state):
        model = ModifiedModel(MethodId.SV, 0.0)
        orbit = ExactOrbit(default_state)
        t_end = 2.0 * orbit.elements.T
        t, X, V = integrate_modified(model, X0, V0, t_end, 100)
        Xe, Ve = orbit.states_at(t)
        assert np.hypot(*(X - Xe).T).max() < 1e-7
        assert np.hypot(*(V - Ve).T).max() < 1e-7

    def test_energy_of_modified_flow_is_conserved(self):
        # the modified system is autonomous Lagrangian: its own energy
        # v . dL/dv - L must stay constant along the RK4 solution
        model = ModifiedModel(MethodId.SV, 0.5)
        t, X, V = integrate_modified(model, X0, V0, 40.0, 80)
        delta = 1e-6
        values = []
        for k in range(0, 81, 8):
            x = PlanarVector(*X[k])
            v = PlanarVector(*V[k])
            lag = modified_lagrangian(model, State(x, v))
            dv1 = (modified_lagrangian(model, State(x, PlanarVector(v.x1 + delta, v.x2)))
                   - modified_lagrangian(model, State(x, PlanarVector(v.x1 - delta, v.x2)))) / (2 * delta)
            dv2 = (modified_lagrangian(model, State(x, PlanarVector(v.x1, v.x2 + delta)))
                   - modified_lagrangian(model, State(x, PlanarVector(v.x1, v.x2 - delta)))) / (2 * delta)
            values.append(v.x1 * dv1 + v.x2 * dv2 - lag)
        values = np.array(values)
        assert np.abs(values - values[0]).max() < 1e-8

    # final state at h = 0.1, t = 100, 1000 samples, recorded from the
    # reduced flow
    PINNED_FINAL = {
        MethodId.SV: ((-2.978883692388269, 0.2602594116417298),
                      (0.06838395550718891, 0.44721559784993153)),
        MethodId.MP: ((-2.967777970280438, 0.3708735534940078),
                      (0.08399901425462152, 0.4443885685571097)),
    }

    @pytest.mark.parametrize("method", list(PINNED_FINAL))
    def test_pinned_final_state(self, method):
        _, X, V = integrate_modified(ModifiedModel(method, 0.1), X0, V0, 100.0, 1000)
        x_want, v_want = self.PINNED_FINAL[method]
        np.testing.assert_allclose(X[-1], x_want, rtol=1e-10)
        np.testing.assert_allclose(V[-1], v_want, rtol=1e-10)

    @pytest.mark.parametrize("reference_step", [theory.REFERENCE_STEP, 0.03])
    @pytest.mark.parametrize("h", [0.1, 0.5])
    @pytest.mark.parametrize("method", TWO_STEP)
    def test_equals_the_reference_loop(self, method, h, reference_step):
        # the inline stages against four reduced_acceleration calls per
        # substep, bit for bit
        model = ModifiedModel(method, h)
        t, X, V = integrate_modified(model, X0, V0, 10.0, 20, reference_step=reference_step)
        want = reduced_flow(model, X0, V0, 10.0, 20, reference_step)
        assert np.array_equal(t, 0.5 * np.arange(21))
        assert np.array_equal(np.hstack((X, V)), np.array(want))

    # the first failure at each of the four stages: radial infall at h = 0
    # with v0 tuned so that only that stage lands within 1e-12 of the origin
    # (stage 1 only from a start inside the guard), and sv at h = 0.5 falling
    # into r^3 <= 4 eps
    @pytest.mark.parametrize("h, x0, v0, t_end, n_samples, reference_step, stage, detail", [
        (0.0, (5e-13, 0.0), (1.0, 0.0), 2.0, 4, 0.1, 1,
         "substep from t = 0: |x| = 5.000e-13 inside the collision guard 1.000e-12"),
        (0.0, (1.0, 0.0), (-0.5554356603050397, 0.0), 2.0, 4, 0.1, 2,
         "substep from t = 0.7: |x| = 0.000e+00 inside the collision guard 1.000e-12"),
        (0.0, (1.0, 0.0), (-0.5279471606038294, 0.0), 2.0, 4, 0.1, 3,
         "substep from t = 0.7: |x| = 1.943e-16 inside the collision guard 1.000e-12"),
        (0.0, (1.0, 0.0), (-0.43201006369242767, 0.0), 2.0, 4, 0.1, 4,
         "substep from t = 0.7: |x| = 5.551e-17 inside the collision guard 1.000e-12"),
        (0.5, (1.0, 0.0), (-0.76, 0.05), 10.0, 100, 0.1, 1,
         "substep from t = 0.6: velocity Hessian not safely invertible at |x| = 3.464e-01 "
         "(eigenvalues -2.155e-03, 3.004e+00)"),
        (0.5, (1.0, 0.0), (-0.47, 0.05), 10.0, 100, 0.1, 2,
         "substep from t = 0.7: velocity Hessian not safely invertible at |x| = 3.189e-01 "
         "(eigenvalues -2.844e-01, 3.569e+00)"),
        (0.5, (1.0, 0.0), (-0.43, 0.05), 10.0, 100, 0.1, 3,
         "substep from t = 0.7: velocity Hessian not safely invertible at |x| = 3.460e-01 "
         "(eigenvalues -5.734e-03, 3.011e+00)"),
        (0.5, (1.0, 0.0), (-0.37, 0.05), 10.0, 100, 0.1, 4,
         "substep from t = 0.7: velocity Hessian not safely invertible at |x| = 3.284e-01 "
         "(eigenvalues -1.766e-01, 3.353e+00)")],
        ids=[f"{guard}-stage-{k}" for guard in ("collision", "eigenvalues") for k in range(1, 5)])
    def test_first_failure_at_each_stage(self, monkeypatch, h, x0, v0, t_end, n_samples,
                                         reference_step, stage, detail):
        model = ModifiedModel(MethodId.SV, h)
        with pytest.raises(SingularMassMatrix) as excinfo:
            integrate_modified(model, x0, v0, t_end, n_samples, reference_step)
        assert str(excinfo.value) == f"sv modified flow at h = {h:g}, {detail}"
        calls = []

        def counted(*args):
            calls.append(None)
            return reduced_acceleration(*args)

        monkeypatch.setattr(reference, "reduced_acceleration", counted)
        with pytest.raises(SingularMassMatrix) as want:
            reduced_flow(model, x0, v0, t_end, n_samples, reference_step)
        assert str(want.value) == str(excinfo.value)
        assert (len(calls) - 1) % 4 + 1 == stage

    # a radial infall from |x| = 1 (E < 0, no angular momentum) falls into
    # the centre: the stage that steps through it reaches r < 0, where a
    # Cartesian flow would come out of the far side with the wrong energy;
    # in one substep of 0.84 every stage stays outside, but the substep's
    # end, the last sample, lands at r < 0
    @pytest.mark.parametrize("v1, t_end, n_samples, reference_step, detail", [
        (-1.0, 2.0, 4, 0.1, "substep from t = 0.5: radius r = -2.016e-01 < 0: "
                            "the flow stepped through the centre"),
        (-2.0, 2.0, 4, 0.1, "substep from t = 0.3: radius r = -1.439e-01 < 0: "
                            "the flow stepped through the centre"),
        (-0.5, 0.84, 1, 1.0, "substep from t = 0: radius r = -3.838e-02 < 0: "
                             "the flow stepped through the centre")])
    def test_radial_infall_is_refused_at_the_centre(self, v1, t_end, n_samples, reference_step,
                                                    detail):
        model = ModifiedModel(MethodId.SV, 0.0)
        with pytest.raises(SingularMassMatrix) as excinfo:
            integrate_modified(model, (1.0, 0.0), (v1, 0.0), t_end, n_samples, reference_step)
        assert str(excinfo.value) == f"sv modified flow at h = 0, {detail}"
        with pytest.raises(SingularMassMatrix) as want:
            reduced_flow(model, (1.0, 0.0), (v1, 0.0), t_end, n_samples, reference_step)
        assert str(want.value) == str(excinfo.value)

    def test_start_at_the_centre_is_a_collision(self):
        # the start is tested before its radial speed and charge divide by |x0|
        with pytest.raises(SingularMassMatrix) as excinfo:
            integrate_modified(ModifiedModel(MethodId.SV, 0.1), (0.0, 0.0), (1.0, 0.0), 1.0, 2)
        assert str(excinfo.value) == ("sv modified flow at h = 0.1, substep from t = 0: "
                                      "|x| = 0.000e+00 inside the collision guard 1.000e-12")

    def test_non_finite_flow_raises(self):
        # |v| = 1e200 squares to inf: the state turns NaN, which no guard refuses
        with pytest.raises(NumericalFailure) as excinfo:
            integrate_modified(ModifiedModel(MethodId.SV, 0.1), (1.0, 0.0), (1e200, 0.0), 1.0, 2)
        assert type(excinfo.value) is NumericalFailure
        assert str(excinfo.value) == "sv modified flow at h = 0.1: non-finite state at t = 0.5"

    def test_infinite_angle_is_a_non_finite_sample(self):
        # |v| = 1e308 at |x| = 0.5 overflows the angle rate, and the one
        # substep ends at an infinite angle, whose cosine math.cos refuses
        with pytest.raises(NumericalFailure) as excinfo:
            integrate_modified(ModifiedModel(MethodId.SV, 0.1), (0.5, 0.0), (0.0, 1e308), 1.0, 1,
                               reference_step=1.0)
        assert type(excinfo.value) is NumericalFailure
        assert str(excinfo.value) == "sv modified flow at h = 0.1: non-finite state at t = 1"

    def test_singular_flow_names_method_h_and_time(self):
        # mp at h = 1 falls inside r^3 = 4 eps = 1/6 on its way in from 0.6
        model = ModifiedModel(MethodId.MP, 1.0)
        with pytest.raises(SingularMassMatrix) as excinfo:
            integrate_modified(model, PlanarVector(0.6, 0.0), PlanarVector(0.0, 1.5), 10.0, 100)
        message = str(excinfo.value)
        assert message.startswith("mp modified flow at h = 1, substep from t = 0.08: ")
        assert "|x| = 5.490e-01" in message

    def test_validation(self):
        model = ModifiedModel(MethodId.SV, 0.5)
        with pytest.raises(ConfigurationError):
            integrate_modified(model, X0, V0, 0.0, 10)
        with pytest.raises(ConfigurationError):
            integrate_modified(model, X0, V0, 10.0, 0)
        with pytest.raises(ConfigurationError):
            integrate_modified(model, X0, V0, 10.0, 10, reference_step=0.0)

    # numpy is taken from theory for the call, so a refusal that fails to come
    # stops at the first array instead of allocating it
    @pytest.fixture
    def no_arrays(self, monkeypatch):
        class NoArrays:
            def __getattr__(self, name):
                raise AssertionError(f"np.{name} reached before the refusal")

        monkeypatch.setattr(theory, "np", NoArrays())

    # runs beyond integrate's MAX_STEPS = 10^6 are refused before any array is
    # allocated: a substep ratio that overflows to inf, 10^9 samples (8 GB of
    # times), 10^400 samples (beyond the float range, so t_end / n_samples
    # would overflow), one segment of 10^6 + 1 substeps, and 2001 segments of
    # ceil(499.7) = 500 substeps (999,899.7 before rounding up)
    @pytest.mark.parametrize("t_end, n_samples, reference_step", [
        (10.0, 10, 1e-310), (10.0, 10**9, 0.005), (500000.5, 1, 0.5), (2001 * 4.997, 2001, 0.01),
        pytest.param(10.0, 10**400, 0.005, id="10.0-1e400-0.005")])
    def test_work_bound(self, no_arrays, t_end, n_samples, reference_step):
        with pytest.raises(ConfigurationError) as excinfo:
            integrate_modified(ModifiedModel(MethodId.SV, 0.1), X0, V0, t_end, n_samples,
                               reference_step)
        assert str(excinfo.value) == f"{n_samples} samples exceed MAX_STEPS = 1000000 RK4 substeps"

    @pytest.mark.parametrize("n_samples", [2.5, 20.0, "20"])
    def test_sample_count_must_be_an_integer(self, no_arrays, n_samples):
        with pytest.raises(ConfigurationError) as excinfo:
            integrate_modified(ModifiedModel(MethodId.SV, 0.1), X0, V0, 10.0, n_samples)
        assert str(excinfo.value) == f"n_samples must be an integer, got {n_samples!r}"

    # The folded guard: a stage runs the exact tests only below the per-run
    # radius, so it must refuse exactly what the reference loop, which runs
    # them at every stage, refuses.  sv, mp and ml cover both sign patterns of
    # (c_v, c_s) and two sizes of S; the starts are pericentres 0.2% above and
    # below the guard radius, which the orbit leaves and comes back to, and a
    # radial infall from rest that the mass-matrix test refuses.
    @pytest.mark.parametrize("where", ["above", "below", "inside"])
    @pytest.mark.parametrize("h", [0.5, 1.0])
    @pytest.mark.parametrize("method", GUARD_METHODS)
    def test_folded_guard_refuses_what_the_exact_tests_refuse(self, monkeypatch, method, h,
                                                              where):
        model = ModifiedModel(method, h)
        r_guard = guard_radius(model)
        if where == "inside":
            x0, v0 = (2.0, 0.0), (0.0, 0.0)
        else:
            p = r_guard * (1.002 if where == "above" else 0.998)
            x0, v0 = (p, 0.0), (0.0, 1.2 / math.sqrt(p))
        lowest, refused, exact_runs = run_against_reference(monkeypatch, model, x0, v0,
                                                            40.0, 40, 0.05)
        if where == "above":
            assert 1.0 <= lowest / r_guard < 1.01 and not refused and exact_runs == 0
        elif where == "below":
            assert 0.99 <= lowest / r_guard < 1.0 and not refused and exact_runs > 0
        else:
            assert refused and "velocity Hessian not safely invertible" in refused

    # at h = 0 the guard radius is the collision floor: a start just above it
    # never runs the exact tests, one just below is refused as a collision
    @pytest.mark.parametrize("scale", [1.001, 0.999])
    @pytest.mark.parametrize("method", GUARD_METHODS)
    def test_zero_step_guard_is_the_collision_floor(self, monkeypatch, method, scale):
        model = ModifiedModel(method, 0.0)
        assert guard_radius(model) == SINGULARITY_FLOOR
        x0, v0 = (scale * SINGULARITY_FLOOR, 0.0), (0.0, 1.0)
        _, refused, exact_runs = run_against_reference(monkeypatch, model, x0, v0,
                                                       1e-20, 1, 0.005)
        if scale > 1.0:
            assert not refused and exact_runs == 0
        else:
            assert "inside the collision guard" in refused and exact_runs == 1

    @pytest.mark.parametrize("h", [0.0, 0.1, 0.5, 1.0, 10.0])
    @pytest.mark.parametrize("method", GUARD_METHODS)
    def test_exact_tests_pass_at_the_guard_radius(self, method, h):
        model = ModifiedModel(method, h)
        _, c_v, c_s = model.bracket
        r = guard_radius(model)
        assert theory._refuse_singular(r, r * r, model.epsilon, 2.0 * c_v, 2.0 * c_s) is None


# The reduced flow against the Cartesian RK4 loop of tests/reference.py, which
# shares no stage arithmetic with it, from the default orbit's pericentre,
# where the step's error is largest, for a quarter of its period: at an eighth
# of the default step both forms reach one converged flow, and at the default
# step the reduced form is no farther from it than the Cartesian loop is
@pytest.mark.parametrize("h", [0.1, 0.5])
@pytest.mark.parametrize("method", [MethodId.SV, MethodId.MP, MethodId.ML])
def test_converges_to_the_cartesian_flow(method, h):
    model = ModifiedModel(method, h)
    x0, v0, fine = (REF_R_PERI, 0.0), (0.0, -REF_SPEED_PERI), theory.REFERENCE_STEP / 8
    converged = np.array(reference_flow(model, x0, v0, 5.0, 10, fine))

    def gap(X, V):
        return np.abs(np.hstack((X, V)) - converged).max()

    assert gap(*integrate_modified(model, x0, v0, 5.0, 10, fine)[1:]) <= 1e-12
    cartesian = np.abs(np.array(reference_flow(model, x0, v0, 5.0, 10, theory.REFERENCE_STEP))
                       - converged).max()
    assert gap(*integrate_modified(model, x0, v0, 5.0, 10)[1:]) <= cartesian


class TestModifiedFlowSymmetries:
    """The modified flow of every two-step stencil keeps the Kepler problem's
    rotation, reflection and scaling symmetries and its own Noether charge.
    Three revolutions at h = 0.5, at a step coarser than the default: the
    symmetries hold at any step."""

    T_END, SAMPLES, STEP = 60.0, 120, 0.02

    def flow(self, method, x0, v0, lam=1.0):
        """Samples from (x0, v0) at h = 0.5, with time, h and the step scaled by lam^(3/2)."""
        k = lam ** 1.5
        _, X, V = integrate_modified(ModifiedModel(method, 0.5 * k), x0, v0,
                                     self.T_END * k, self.SAMPLES, self.STEP * k)
        return X, V

    def rate(self, method, x0, v0):
        X, V = self.flow(method, x0, v0)
        start = State(PlanarVector(*x0), PlanarVector(*v0))
        traj = Trajectory(method, self.T_END / self.SAMPLES, X, start.velocity,
                          elements_from_state(start), velocities=V)
        return measure_precession(traj).rate_per_revolution

    @pytest.mark.parametrize("method", TWO_STEP)
    def test_a_rotated_start_rotates_every_sample(self, method):
        turn = np.array([[math.cos(0.7), -math.sin(0.7)], [math.sin(0.7), math.cos(0.7)]])
        X, V = self.flow(method, X0, V0)
        Xr, Vr = self.flow(method, turn @ X0, turn @ V0)
        assert np.abs(Xr - X @ turn.T).max() <= 1e-12 * np.abs(X).max()
        assert np.abs(Vr - V @ turn.T).max() <= 1e-12 * np.abs(V).max()

    @pytest.mark.parametrize("method", TWO_STEP)
    def test_a_reflected_start_flips_the_precession(self, method):
        x0, v0 = (-3.0, 0.3), (0.0, 0.45)
        rate = self.rate(method, x0, v0)
        mirrored = self.rate(method, (x0[0], -x0[1]), (v0[0], -v0[1]))
        assert rate != 0.0 and abs(mirrored + rate) <= 1e-12 * abs(rate)

    @pytest.mark.parametrize("method", TWO_STEP)
    def test_kepler_scaling_scales_every_sample(self, method):
        lam = 3.0
        X, V = self.flow(method, X0, V0)
        Xs, Vs = self.flow(method, lam * np.array(X0), np.array(V0) / math.sqrt(lam), lam)
        assert np.abs(Xs / lam - X).max() <= 1e-12 * np.abs(X).max()
        assert np.abs(Vs * math.sqrt(lam) - V).max() <= 1e-12 * np.abs(V).max()

    @pytest.mark.parametrize("method", TWO_STEP)
    def test_noether_charge_is_constant(self, method):
        # l = lam_perp(|x|) (x x v), lam_perp = 1 + 2 eps c_v/|x|^3
        model = ModifiedModel(method, 0.5)
        X, V = self.flow(method, X0, V0)
        lam_perp = 1.0 + 2.0 * model.epsilon * model.bracket[1] / np.hypot(*X.T) ** 3
        charge = lam_perp * (X[:, 0] * V[:, 1] - X[:, 1] * V[:, 0])
        assert np.abs(charge / charge[0] - 1.0).max() <= 1e-14


def _circular(r):
    """State on the circular orbit of radius r, starting on the +x1 axis."""
    return State(PlanarVector(r, 0.0), PlanarVector(0.0, r ** -0.5))


# Every entry point behind the collision guard, called at |x| = r, with the
# class it raises.  h = 0 keeps the modified mass matrix at the identity, so
# only the guard can fail there.
_EXACT = ModifiedModel(MethodId.SV, 0.0)
GUARDED = {
    "observable_series point": (NearSingularity, lambda r: observable_series(
        np.array(_circular(r).position), np.array(_circular(r).velocity))),
    "observable_series batch": (NearSingularity, lambda r: observable_series(
        np.array([[1.0, 0.0], _circular(r).position, [0.0, 2.0]]),
        np.array([[0.0, 1.0], _circular(r).velocity, [-0.5, 0.0]]))),
    "elements_from_state": (NearSingularity, lambda r: elements_from_state(_circular(r))),
    "ExactOrbit": (NearSingularity, lambda r: ExactOrbit(_circular(r))),
    "integrate_modified": (SingularMassMatrix, lambda r: integrate_modified(
        _EXACT, _circular(r).position, _circular(r).velocity, 1e-20, 1)),
    "perturbation_field": (NearSingularity, lambda r: perturbation_field(
        MethodId.SV, np.array(_circular(r).position), np.array(_circular(r).velocity))),
}


@pytest.mark.parametrize("name", GUARDED)
def test_one_collision_guard_at_every_entry_point(name):
    error, call = GUARDED[name]
    with pytest.raises(error, match="inside the collision guard 1.000e-12"):
        call(0.5 * SINGULARITY_FLOOR)
    call(2.0 * SINGULARITY_FLOOR)
