import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keplerlab import (
    ConfigurationError,
    ExactOrbit,
    FR_THETA,
    STENCILS,
    MethodId,
    NearSingularity,
    PlanarVector,
    SolverConfig,
    SolverFailure,
    State,
    Trajectory,
    UnboundOrbit,
    init_second_point,
    integrate,
    reconstruct_velocities,
)
from keplerlab.integrators import DEFAULT_SOLVER, _fr, _stencil
from keplerlab.kepler import potential_gradient_xy

from conftest import V0, X0, assert_close, assert_vector_close

ALL_METHODS = list(MethodId)
TWO_STEP_METHODS = [m for m in MethodId if m is not MethodId.FR]

# step weights from the table: one triple for sv, mp, ml; one per phase for lc, dec
SV, MP, ML = (STENCILS[m].cycle[0] for m in (MethodId.SV, MethodId.MP, MethodId.ML))
LC = STENCILS[MethodId.LC].cycle
DEC = STENCILS[MethodId.DEC].cycle


def step(xp, xc, h, weights, cfg=DEFAULT_SOLVER):
    """x_next of the weighted two-step stencil from x_prev, x_cur."""
    (p1, p2), (q1, q2) = xp, xc
    z1, z2, _ = _stencil(p1, p2, q1, q2, 2.0 * q1 - p1, 2.0 * q2 - p2, h * h, *weights,
                         cfg, "implicit step")
    return PlanarVector(z1, z2)


def grad(x):
    """U'(x) as a PlanarVector."""
    return PlanarVector(*potential_gradient_xy(*x))


def orbit_pair(t, h):
    """Two consecutive samples of the reference exact orbit."""
    orbit = ExactOrbit(State(X0, V0, 0.0))
    return orbit.state_at(t).position, orbit.state_at(t + h).position


class TestMethodId:
    def test_parse_known_names(self):
        for m in MethodId:
            assert MethodId.parse(m.value) is m
        assert MethodId.parse(" SV ") is MethodId.SV

    def test_parse_unknown_name(self):
        with pytest.raises(ConfigurationError):
            MethodId.parse("rk4")


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.tolerance == 1e-12
        assert cfg.max_iterations == 50

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SolverConfig(tolerance=0.0)
        with pytest.raises(ConfigurationError):
            SolverConfig(max_iterations=0)


class TestSingleSteps:
    def test_sv_step_hand_value(self):
        # 2(1,0) - (0.9,0.1) - 0.04 * (1,0)/1 = (1.06, -0.1)
        got = step(PlanarVector(0.9, 0.1), PlanarVector(1.0, 0.0), 0.2, SV)
        assert_vector_close(got, (1.06, -0.1), tol=1e-15)

    def test_sv_step_free_flight_limit(self):
        # in a negligible field the recurrence continues the straight line
        got = step(PlanarVector(1e8, 0.0), PlanarVector(1e8 + 1.0, 0.0), 1.0, SV)
        assert abs(got.x1 - (1e8 + 2.0)) < 1e-6
        assert got.x2 == 0.0

    def _relation_residual_mp(self, xp, xc, z, h):
        g_b = grad(PlanarVector(0.5 * (xp.x1 + xc.x1), 0.5 * (xp.x2 + xc.x2)))
        g_f = grad(PlanarVector(0.5 * (xc.x1 + z.x1), 0.5 * (xc.x2 + z.x2)))
        r1 = z.x1 - 2 * xc.x1 + xp.x1 + 0.5 * h * h * (g_b.x1 + g_f.x1)
        r2 = z.x2 - 2 * xc.x2 + xp.x2 + 0.5 * h * h * (g_b.x2 + g_f.x2)
        return math.hypot(r1, r2)

    def test_mp_step_satisfies_its_relation(self):
        xp, xc = orbit_pair(2.0, 0.3)
        z = step(xp, xc, 0.3, MP)
        assert self._relation_residual_mp(xp, xc, z, 0.3) < 1e-11

    def test_mp_step_time_reversal(self):
        # the relation is symmetric in (x_prev, x_next); stepping back returns
        xp, xc = orbit_pair(4.1, 0.25)
        z = step(xp, xc, 0.25, MP)
        back = step(z, xc, 0.25, MP)
        assert_vector_close(back, xp, tol=1e-9)

    def _relation_residual_ml(self, xp, xc, z, h):
        g_c = grad(xc)
        g_b = grad(PlanarVector(0.5 * (xp.x1 + xc.x1), 0.5 * (xp.x2 + xc.x2)))
        g_f = grad(PlanarVector(0.5 * (xc.x1 + z.x1), 0.5 * (xc.x2 + z.x2)))
        h2 = h * h
        r1 = z.x1 - 2 * xc.x1 + xp.x1 + h2 * (2 * g_c.x1 / 3 + g_b.x1 / 6 + g_f.x1 / 6)
        r2 = z.x2 - 2 * xc.x2 + xp.x2 + h2 * (2 * g_c.x2 / 3 + g_b.x2 / 6 + g_f.x2 / 6)
        return math.hypot(r1, r2)

    def test_ml_step_satisfies_its_relation(self):
        xp, xc = orbit_pair(1.3, 0.3)
        z = step(xp, xc, 0.3, ML)
        assert self._relation_residual_ml(xp, xc, z, 0.3) < 1e-11

    def test_ml_step_time_reversal(self):
        xp, xc = orbit_pair(7.6, 0.25)
        z = step(xp, xc, 0.25, ML)
        back = step(z, xc, 0.25, ML)
        assert_vector_close(back, xp, tol=1e-9)

    def test_lc_phase_one_is_sv(self):
        xp, xc = orbit_pair(3.0, 0.4)
        assert step(xp, xc, 0.4, LC[4 % 3]) == step(xp, xc, 0.4, SV)
        assert step(xp, xc, 0.4, LC[1 % 3]) == step(xp, xc, 0.4, SV)

    def test_lc_phase_zero_explicit_formula(self):
        xp, xc = orbit_pair(3.0, 0.4)
        h2 = 0.16
        g_b = grad(PlanarVector(0.5 * (xp.x1 + xc.x1), 0.5 * (xp.x2 + xc.x2)))
        g_c = grad(xc)
        want = (2 * xc.x1 - xp.x1 - 0.5 * h2 * (g_b.x1 + g_c.x1),
                2 * xc.x2 - xp.x2 - 0.5 * h2 * (g_b.x2 + g_c.x2))
        assert_vector_close(step(xp, xc, 0.4, LC[3 % 3]), want, tol=1e-14)

    def test_lc_phase_two_satisfies_its_relation(self):
        xp, xc = orbit_pair(3.0, 0.4)
        z = step(xp, xc, 0.4, LC[2 % 3])
        g_c = grad(xc)
        g_f = grad(PlanarVector(0.5 * (xc.x1 + z.x1), 0.5 * (xc.x2 + z.x2)))
        r1 = z.x1 - 2 * xc.x1 + xp.x1 + 0.08 * (g_c.x1 + g_f.x1)
        r2 = z.x2 - 2 * xc.x2 + xp.x2 + 0.08 * (g_c.x2 + g_f.x2)
        assert math.hypot(r1, r2) < 1e-11

    def test_lc_implicit_and_explicit_phases_are_adjoint(self):
        # undoing an implicit (phase 2) step is exactly an explicit (phase 0) step
        xp, xc = orbit_pair(5.2, 0.35)
        z = step(xp, xc, 0.35, LC[2 % 3])
        back = step(z, xc, 0.35, LC[0 % 3])
        assert_vector_close(back, xp, tol=1e-10)

    def test_dec_dispatch(self):
        xp, xc = orbit_pair(2.4, 0.3)
        for j in (0, 1, 3, 4, 6):
            assert step(xp, xc, 0.3, DEC[j % 3]) == step(xp, xc, 0.3, SV)
        for j in (2, 5, 8):
            assert step(xp, xc, 0.3, DEC[j % 3]) == step(xp, xc, 0.3, MP)

    def test_mp_minus_sv_is_fourth_order_locally(self):
        # both steps share the h^2 leading term; their difference shrinks as h^4
        diffs = []
        steps = (0.2, 0.1, 0.05)
        for h in steps:
            xp, xc = orbit_pair(2.0, h)
            z, w = step(xp, xc, h, MP), step(xp, xc, h, SV)
            diffs.append(math.hypot(z.x1 - w.x1, z.x2 - w.x2))
        slope = np.polyfit(np.log(steps), np.log(diffs), 1)[0]
        assert 3.7 < slope < 4.3


class TestForestRuth:
    def test_theta_value(self):
        assert_close(FR_THETA, 1.0 / (2.0 - 2.0 ** (1.0 / 3.0)), rtol=1e-15)
        # substep weights sum to one
        assert_close(2.0 * FR_THETA + (1.0 - 2.0 * FR_THETA), 1.0, rtol=1e-15)

    @given(t=st.floats(0.0, 19.0), h=st.floats(0.05, 0.5))
    @settings(max_examples=50)
    def test_time_symmetry(self, t, h):
        orbit = ExactOrbit(State(X0, V0, 0.0))
        s0 = orbit.state_at(t)
        s1 = _fr(*s0.position, *s0.velocity, h)
        back = _fr(*s1, -h)
        assert_vector_close(back[:2], s0.position, tol=1e-12)
        assert_vector_close(back[2:], s0.velocity, tol=1e-12)

    def test_local_error_is_fifth_order(self):
        orbit = ExactOrbit(State(X0, V0, 0.0))
        steps = (0.2, 0.1, 0.05)
        errs = []
        for h in steps:
            s0 = orbit.state_at(3.0)
            got = _fr(*s0.position, *s0.velocity, h)
            want = orbit.state_at(3.0 + h).position
            errs.append(math.hypot(got[0] - want.x1, got[1] - want.x2))
        slope = np.polyfit(np.log(steps), np.log(errs), 1)[0]
        assert 4.5 < slope < 5.5


class TestInitialization:
    def test_sv_explicit_formula(self):
        h = 0.3
        g = grad(X0)
        want = (X0.x1 + h * V0.x1 - 0.5 * h * h * g.x1,
                X0.x2 + h * V0.x2 - 0.5 * h * h * g.x2)
        for method in (MethodId.SV, MethodId.LC, MethodId.DEC):
            assert_vector_close(init_second_point(method, X0, V0, h), want, tol=1e-15)

    @pytest.mark.parametrize("method", TWO_STEP_METHODS)
    def test_discrete_momentum_matches_v0(self, method):
        # defining property: the scheme's own discrete momentum at step 0 is v0
        h = 0.3
        x1 = init_second_point(method, X0, V0, h)
        mid = PlanarVector(0.5 * (X0.x1 + x1.x1), 0.5 * (X0.x2 + x1.x2))
        if method is MethodId.MP:
            g = grad(mid)
            p = ((x1.x1 - X0.x1) / h + 0.5 * h * g.x1,
                 (x1.x2 - X0.x2) / h + 0.5 * h * g.x2)
        elif method is MethodId.ML:
            g0 = grad(X0)
            gm = grad(mid)
            p = ((x1.x1 - X0.x1) / h + h * g0.x1 / 3 + h * gm.x1 / 6,
                 (x1.x2 - X0.x2) / h + h * g0.x2 / 3 + h * gm.x2 / 6)
        else:
            g0 = grad(X0)
            p = ((x1.x1 - X0.x1) / h + 0.5 * h * g0.x1,
                 (x1.x2 - X0.x2) / h + 0.5 * h * g0.x2)
        assert_vector_close(PlanarVector(*p), V0, tol=1e-10)

    def test_fr_initialization_is_one_step(self):
        traj = integrate(MethodId.FR, X0, V0, 0.25, 1)
        want = _fr(*X0, *V0, 0.25)
        assert_vector_close(traj.positions[1], want[:2], tol=1e-15)
        assert_vector_close(traj.velocities[1], want[2:], tol=1e-15)


class TestIntegrate:
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_shapes_and_metadata(self, method):
        traj = integrate(method, X0, V0, 0.2, 12)
        assert traj.method is method
        assert traj.h == 0.2
        assert traj.n_steps == 12
        assert traj.positions.shape == (13, 2)
        assert_vector_close(traj.positions[0], X0, tol=0.0)
        assert traj.start_velocity == V0
        assert np.array_equal(traj.times, 0.2 * np.arange(13))
        assert_close(traj.elements.e, 0.3925, rtol=1e-12)
        if method is MethodId.FR:
            assert traj.velocities.shape == (13, 2)
            assert_vector_close(traj.velocities[0], V0, tol=0.0)
        else:
            assert traj.velocities is None

    def test_implicit_solve_counts(self):
        # mp/ml solve every point including initialization; lc/dec solve at
        # steps k = 2 (mod 3), which compute points 3, 6 and 9; sv/fr never solve
        n = 9
        counts = {m: integrate(m, X0, V0, 0.2, n).stats.implicit_solves
                  for m in ALL_METHODS}
        assert counts[MethodId.SV] == 0
        assert counts[MethodId.FR] == 0
        assert counts[MethodId.MP] == n
        assert counts[MethodId.ML] == n
        assert counts[MethodId.LC] == 3  # points 3, 6, 9
        assert counts[MethodId.DEC] == 3

    # final point and (implicit solves, Newton iterations) after 20k steps at
    # h = 0.1, recorded from the per-method steppers the stencil replaced
    PINNED = {
        MethodId.SV: ((0.004561690668758225, -2.0354191067359113), (0, 0)),
        MethodId.MP: ((-1.3456579201234935, -1.4489014981679165), (20000, 40000)),
        MethodId.ML: ((-0.4940532853271621, -1.95492838061848), (20000, 40000)),
        MethodId.LC: ((-0.4933907622882394, -1.955298523308498), (6666, 13332)),
        MethodId.DEC: ((-0.43560522113387184, -1.94545539337288), (6666, 13332)),
        MethodId.FR: ((-0.47205466802258966, -1.9531100056677566), (0, 0)),
    }

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_pinned_final_point_and_counts(self, method):
        traj = integrate(method, X0, V0, 0.1, 20000)
        point, counts = self.PINNED[method]
        if method is MethodId.ML:
            # ml's weights 2/3, 1/6 round differently from the old h^2/6 form
            assert np.abs(traj.positions[-1] - point).max() <= 1e-12
        else:
            assert tuple(traj.positions[-1]) == point
        assert (traj.stats.implicit_solves, traj.stats.newton_iterations) == counts

    # SHA-256 of positions.tobytes() (and velocities.tobytes() for fr) after
    # 5000 steps at h = 0.25, recorded from the PlanarVector steppers that
    # the float kernels replaced: every point of every trajectory is pinned
    DIGESTS = {
        MethodId.SV: ("b6403cde774ea69cf25a10cc91504d5c73254c6626717cd041dcb581bf66ebdb",
                      None),
        MethodId.MP: ("a6e75fb1fd69046c2e102c60ce0c47a2867ac75b02ec32ef76457f541aaf3678",
                      None),
        MethodId.ML: ("1ba2c24200fa0d1155fc18a7f7da3ead4171ce0fd724de05fba3483a42c1e94a",
                      None),
        MethodId.LC: ("12c84e3aab3cd2ab2af28d001f7db1636910c045071ab9f21d413c0972d80853",
                      None),
        MethodId.DEC: ("3e12ef7af322e806b2c4f9ef477d06ee0eafa642ae15500935432b92a52aa3d7",
                       None),
        MethodId.FR: ("b25f0f57d497208b384e5bc659717f7e0c6bcaf9a355d65c19b7432e7a03cff2",
                      "37092ee078b07cdd76f98ff30885d3d70559043e437394c503bf9daabfd7e28e"),
    }

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_pinned_trajectory_digest(self, method):
        traj = integrate(method, X0, V0, 0.25, 5000)
        digest = lambda a: None if a is None else hashlib.sha256(a.tobytes()).hexdigest()
        assert (digest(traj.positions), digest(traj.velocities)) == self.DIGESTS[method]

    def test_newton_iteration_accounting(self):
        stats = integrate(MethodId.MP, X0, V0, 0.2, 50).stats
        assert stats.newton_iterations > 0
        assert 1.0 <= stats.avg_newton_iterations <= 6.0

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_deterministic(self, method):
        a = integrate(method, X0, V0, 0.3, 40)
        b = integrate(method, X0, V0, 0.3, 40)
        assert np.array_equal(a.positions, b.positions)

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_tracks_exact_orbit_at_small_step(self, method):
        h = 0.01
        n = 200
        traj = integrate(method, X0, V0, h, n)
        orbit = ExactOrbit(State(X0, V0, 0.0))
        Xe, _ = orbit.states_at(traj.times)
        err = np.hypot(*(traj.positions - Xe).T).max()
        assert err < 5e-4

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            integrate(MethodId.SV, X0, V0, 0.0, 10)
        with pytest.raises(ConfigurationError):
            integrate(MethodId.SV, X0, V0, -0.5, 10)
        with pytest.raises(ConfigurationError):
            integrate(MethodId.SV, X0, V0, 0.5, 0)
        with pytest.raises(UnboundOrbit):
            integrate(MethodId.SV, PlanarVector(3.0, 0.0), PlanarVector(0.0, 1.0), 0.5, 10)

    def test_failure_annotation(self):
        # a step size far above the stability limit defeats the mp Newton solve
        with pytest.raises(SolverFailure) as excinfo:
            integrate(MethodId.MP, X0, V0, 5.0, 10)
        err = excinfo.value
        assert err.method is MethodId.MP
        assert err.step_index == 1
        assert err.partial_positions.shape == (1, 2)
        assert "mp failed computing point 1" in str(err)

    @pytest.mark.parametrize("method, point, stage", [
        (MethodId.MP, 1, "initialization"), (MethodId.ML, 1, "initialization"),
        (MethodId.LC, 3, "implicit step"), (MethodId.DEC, 3, "implicit step")])
    def test_newton_failure_names_method_point_stage_and_tolerance(self, method, point,
                                                                   stage):
        # one Newton iteration is too few for any solve at h = 0.25
        with pytest.raises(SolverFailure) as excinfo:
            integrate(method, X0, V0, 0.25, 10, SolverConfig(max_iterations=1))
        err = excinfo.value
        assert (err.method, err.step_index) == (method, point)
        assert err.partial_positions.shape == (point, 2)
        assert str(err) == (f"{method.value} failed computing point {point}: {stage}: "
                            "Newton residual stayed above 1e-12 after 1 iterations")

    def test_failure_mid_run_keeps_partial(self):
        with pytest.raises(SolverFailure) as excinfo:
            integrate(MethodId.ML, X0, V0, 50.0, 500)
        err = excinfo.value
        assert err.step_index >= 1
        assert err.partial_positions.shape == (err.step_index, 2)


class TestCollisionGuard:
    # 1e-13 and 5e-13 lie inside the 1e-12 floor; so does their midpoint
    @pytest.mark.parametrize("weights", [SV, MP, ML, LC[0]])
    def test_stencil_kernel(self, weights):
        with pytest.raises(NearSingularity, match="inside the collision guard"):
            step(PlanarVector(1e-13, 0.0), PlanarVector(5e-13, 0.0), 0.1, weights)

    def test_fr_kernel(self):
        # at rest the first drift stays put, so the first kick is at 1e-13
        with pytest.raises(NearSingularity, match="inside the collision guard"):
            _fr(1e-13, 0.0, 0.0, 0.0, 0.1)


class TestVelocityReconstruction:
    def exact_position_trajectory(self, h, n):
        orbit = ExactOrbit(State(X0, V0, 0.0))
        X, V = orbit.states_at(h * np.arange(n + 1))
        traj = Trajectory(MethodId.SV, h, X, V0, orbit.elements)
        return traj, V

    def test_two_point_fallback(self):
        orbit = ExactOrbit(State(X0, V0, 0.0))
        X, _ = orbit.states_at([0.0, 0.1])
        traj = Trajectory(MethodId.SV, 0.1, X, V0, orbit.elements)
        V = reconstruct_velocities(traj)
        assert np.array_equal(V[0], V[1])
        assert_vector_close(V[0], (X[1] - X[0]) / 0.1, tol=1e-15)

    def test_interior_error_is_second_order(self):
        steps = (0.1, 0.05, 0.025)
        errs = []
        for h in steps:
            n = int(round(10.0 / h))
            traj, V_exact = self.exact_position_trajectory(h, n)
            V = reconstruct_velocities(traj)
            errs.append(np.hypot(*(V - V_exact)[1:-1].T).max())
        slope = np.polyfit(np.log(steps), np.log(errs), 1)[0]
        assert 1.9 < slope < 2.1

    def test_endpoint_stencils_are_second_order_too(self):
        # fixed physical span so the final endpoint sits at the same phase
        # for every h; otherwise the h^2 coefficient changes between rows
        steps = (0.1, 0.05, 0.025)
        errs = []
        for h in steps:
            n = int(round(4.0 / h))
            traj, V_exact = self.exact_position_trajectory(h, n)
            V = reconstruct_velocities(traj)
            errs.append(max(np.hypot(*(V[0] - V_exact[0])),
                            np.hypot(*(V[-1] - V_exact[-1]))))
        slope = np.polyfit(np.log(steps), np.log(errs), 1)[0]
        assert 1.8 < slope < 2.2
