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
from keplerlab import kepler
from keplerlab.integrators import DEFAULT_SOLVER, IntegrationStats, _fr, _stencil
from keplerlab.kepler import gradient_jacobian_xy, potential_gradient_xy

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
    z = []
    _stencil(z, 1, p1, p2, q1, q2, 2.0 * q1 - p1, 2.0 * q2 - p2, h, (weights,), 0, cfg,
             "implicit step", IntegrationStats())
    return PlanarVector(*z)


def fr_step(x1, x2, v1, v2, h):
    """One triple-jump step from (x, v), as (x1, x2, v1, v2)."""
    xs, vs = [], []
    _fr(xs, vs, 1, x1, x2, v1, v2, h, IntegrationStats())
    return (*xs, *vs)


def grad(x):
    """U'(x) as a PlanarVector."""
    return PlanarVector(*potential_gradient_xy(*x))


def reference_step(p, q, r, h, weights, cfg=DEFAULT_SOLVER):
    """x_next of the two-step relation with weights (a, b, c),
    z - 2q + p = -h^2 [a U'(q) + b U'((p + q)/2) + c U'((q + z)/2)],
    from p, q and the free flight r: every gradient and Hessian through the
    kepler kernels, none reused, in the operation order of the stencil
    kernel."""
    (p1, p2), (q1, q2), (r1, r2) = p, q, r
    a, b, c = weights
    h2 = h * h
    f1 = f2 = 0.0
    if a:
        g1, g2 = potential_gradient_xy(q1, q2)
        f1 += a * g1
        f2 += a * g2
    if b:
        g1, g2 = potential_gradient_xy(0.5 * (p1 + q1), 0.5 * (p2 + q2))
        f1 += b * g1
        f2 += b * g2
    c1 = r1 - h2 * f1
    c2 = r2 - h2 * f2
    if not c:
        return c1, c2
    ch2 = c * h2
    half_ch2 = 0.5 * ch2
    z1, z2 = r1, r2
    for _ in range(cfg.max_iterations):
        m1 = 0.5 * (q1 + z1)
        m2 = 0.5 * (q2 + z2)
        g1, g2 = potential_gradient_xy(m1, m2)
        f1 = z1 - c1 + ch2 * g1
        f2 = z2 - c2 + ch2 * g2
        if math.hypot(f1, f2) < cfg.tolerance:
            return z1, z2
        j11, j12, j22 = gradient_jacobian_xy(m1, m2)
        j11 = 1.0 + half_ch2 * j11
        j12 = half_ch2 * j12
        j22 = 1.0 + half_ch2 * j22
        det = j11 * j22 - j12 * j12
        z1 -= (j22 * f1 - j12 * f2) / det
        z2 -= (j11 * f2 - j12 * f1) / det
    raise AssertionError("the reference Newton solve did not converge")


def reference_positions(method, x0, v0, h, n_steps):
    """x_0 .. x_N of a stencil, one reference_step per point: the
    initializer (a/2, 0, c) from p = q = x0 and the free flight x0 + h v0,
    then step k with cycle[k % len(cycle)] from r = 2q - p."""
    a, _, c = STENCILS[method].init
    cycle = STENCILS[method].cycle
    points = [tuple(x0), reference_step(x0, x0, (x0[0] + h * v0[0], x0[1] + h * v0[1]), h,
                                        (0.5 * a, 0.0, c))]
    for k in range(1, n_steps):
        p, q = points[-2], points[-1]
        points.append(reference_step(p, q, (2.0 * q[0] - p[0], 2.0 * q[1] - p[1]), h,
                                     cycle[k % len(cycle)]))
    return np.array(points)


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


class TestKernelReference:
    """The run-level kernel evaluates U' and its Hessian inline and carries
    the converged midpoint gradient into the next b-term; both must leave
    every bit of the one-step reference above unchanged."""

    # the default start, and one turned by 0.7 rad and scaled by 2.5
    # (x -> 2.5 R x, v -> 2.5^(-1/2) R v, h -> 2.5^(3/2) h)
    TURN = (math.cos(0.7), math.sin(0.7))
    STARTS = {
        "default": (X0, V0, 0.1),
        "turned and scaled": (
            PlanarVector(2.5 * (TURN[0] * X0.x1 - TURN[1] * X0.x2),
                         2.5 * (TURN[1] * X0.x1 + TURN[0] * X0.x2)),
            PlanarVector(2.5 ** -0.5 * (TURN[0] * V0.x1 - TURN[1] * V0.x2),
                         2.5 ** -0.5 * (TURN[1] * V0.x1 + TURN[0] * V0.x2)),
            0.1 * 2.5 ** 1.5),
    }

    @pytest.mark.parametrize("start", STARTS)
    @pytest.mark.parametrize("method", TWO_STEP_METHODS)
    def test_integrate_equals_the_reference(self, method, start):
        x0, v0, h = self.STARTS[start]
        want = reference_positions(method, x0, v0, h, 300)
        assert np.array_equal(integrate(method, x0, v0, h, 300).positions, want)
        assert init_second_point(method, x0, v0, h) == tuple(want[1])


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
        s1 = fr_step(*s0.position, *s0.velocity, h)
        back = fr_step(*s1, -h)
        assert_vector_close(back[:2], s0.position, tol=1e-12)
        assert_vector_close(back[2:], s0.velocity, tol=1e-12)

    def test_local_error_is_fifth_order(self):
        orbit = ExactOrbit(State(X0, V0, 0.0))
        steps = (0.2, 0.1, 0.05)
        errs = []
        for h in steps:
            s0 = orbit.state_at(3.0)
            got = fr_step(*s0.position, *s0.velocity, h)
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

    def test_fr_has_no_initializer(self):
        with pytest.raises(ConfigurationError, match="fr is a one-step method"):
            init_second_point(MethodId.FR, X0, V0, 0.25)

    def test_fr_initialization_is_one_step(self):
        traj = integrate(MethodId.FR, X0, V0, 0.25, 1)
        want = fr_step(*X0, *V0, 0.25)
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

    # gradient evaluations of 300 points at h = 0.1, where every solve takes
    # 2 Newton iterations (3 gradients).  mp: the initializer's 3, one b-term
    # at point 2, then the gradient of the last Newton iterate is reused as
    # the next b-term, so 3 per step, not 4; ml adds an a-term per point;
    # lc's (1/2, 1/2, 0) phase reuses it too.
    EVALUATIONS = {
        MethodId.SV: 300,  # one a-term per point
        MethodId.MP: 3 * 300 + 1,
        MethodId.ML: 4 * 300 + 1,
        MethodId.LC: 1 + 100 * 1 + 100 * 4 + 99 * 1,  # init, phases 1, 2, 0
        MethodId.DEC: 1 + 100 * 1 + 100 * 4 + 99 * 1,  # no reuse: mp follows sv
        MethodId.FR: 3 * 300,  # three kicks per step
    }

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_evaluation_counts(self, method):
        stats = integrate(method, X0, V0, 0.1, 300).stats
        assert stats.newton_iterations == 2 * stats.implicit_solves
        assert stats.gradient_evaluations == self.EVALUATIONS[method]

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

    @pytest.mark.parametrize("positions, velocities, message", [
        (np.zeros((3, 3)), None, r"positions must have shape \(n, 2\)"),
        (np.zeros(4), None, r"positions must have shape \(n, 2\)"),
        (np.zeros((1, 2)), None, "a trajectory needs at least two points"),
        (np.zeros((3, 2)), np.zeros((2, 2)), "velocities must match positions in shape")])
    def test_trajectory_validation(self, positions, velocities, message):
        elements = kepler.elements_from_state(State(X0, V0, 0.0))
        with pytest.raises(ValueError, match=message):
            Trajectory(MethodId.FR, 0.1, positions, V0, elements, velocities)

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

    # an mp initialization that Newton cannot solve (a step far above the
    # stability limit), ml's Newton solve failing mid-run, fr meeting a
    # collision guard that, raised to |x| = 2, the default orbit (perihelion
    # 1.31) crosses mid-run, and at h = 1e200, where h^2 overflows to inf, a
    # NaN Newton system in mp's initializer and in lc's first implicit step
    @pytest.mark.parametrize("method, h, floor, error, point, detail", [
        (MethodId.MP, 5.0, None, SolverFailure, 1,
         "initialization: Newton residual stayed above 1e-12 after 50 iterations"),
        (MethodId.ML, 50.0, None, SolverFailure, 179,
         "implicit step: Newton residual stayed above 1e-12 after 50 iterations"),
        (MethodId.FR, 0.1, 2.0, NearSingularity, 69,
         "|x| = 1.972e+00 inside the collision guard 2.000e+00"),
        (MethodId.MP, 1e200, None, SolverFailure, 1,
         "initialization: singular Newton system (det=nan)"),
        (MethodId.LC, 1e200, None, SolverFailure, 3,
         "implicit step: singular Newton system (det=nan)")])
    def test_failure_mid_run_keeps_partial(self, monkeypatch, method, h, floor, error, point,
                                           detail):
        if floor is not None:
            monkeypatch.setattr(kepler, "SINGULARITY_FLOOR", floor)
        with pytest.raises(error) as excinfo:
            integrate(method, X0, V0, h, 500)
        err = excinfo.value
        assert (err.method, err.step_index) == (method, point)
        assert err.partial_positions.shape == (point, 2)
        assert str(err) == f"{method.value} failed computing point {point}: {detail}"


class TestCollisionGuard:
    # 1e-13 and 5e-13 lie inside the 1e-12 floor; so does their midpoint
    @pytest.mark.parametrize("weights", [SV, MP, ML, LC[0]])
    def test_stencil_kernel(self, weights):
        with pytest.raises(NearSingularity, match="inside the collision guard"):
            step(PlanarVector(1e-13, 0.0), PlanarVector(5e-13, 0.0), 0.1, weights)

    # q = (1, 0) is clear of the guard: from p = (-1, 0) the backward midpoint
    # is the origin (the b-site), from p = (3, 0) the first Newton midpoint
    # (q + 2q - p)/2 is (the Newton site)
    @pytest.mark.parametrize("p1, weights", [(-1.0, MP), (-1.0, LC[0]), (3.0, MP), (3.0, ML)])
    def test_stencil_kernel_midpoints(self, p1, weights):
        with pytest.raises(NearSingularity, match="inside the collision guard"):
            step(PlanarVector(p1, 0.0), PlanarVector(1.0, 0.0), 0.1, weights)

    def test_fr_kernel(self):
        # at rest the first drift stays put, so the first kick is at 1e-13
        with pytest.raises(NearSingularity, match="inside the collision guard"):
            fr_step(1e-13, 0.0, 0.0, 0.0, 0.1)


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
