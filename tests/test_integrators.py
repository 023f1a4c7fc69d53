import hashlib
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from keplerlab import (
    ConfigurationError,
    ExactOrbit,
    MethodId,
    NearSingularity,
    NumericalFailure,
    PlanarVector,
    SolverFailure,
    State,
    Trajectory,
    UnboundOrbit,
    integrate,
)
from keplerlab import cli, integrators, kepler
from keplerlab.integrators import (FR_THETA, NEWTON_TOLERANCE, STENCILS, IntegrationStats, Stencil,
                                   _fr, _stencil, init_second_point, reconstruct_velocities)

from conftest import V0, X0, KernelReached, assert_close, assert_vector_close, bound_states
from reference import explicit_part, newton_step_2d, potential_gradient_xy, reference_stencil

ALL_METHODS = list(MethodId)
TWO_STEP_METHODS = [m for m in MethodId if m is not MethodId.FR]
IMPLICIT_METHODS = [MethodId.MP, MethodId.ML, MethodId.LC, MethodId.DEC]

# step weights from the table: one triple for sv, mp, ml; one per phase for lc, dec
SV, MP, ML = (STENCILS[m].cycle[0] for m in (MethodId.SV, MethodId.MP, MethodId.ML))
LC = STENCILS[MethodId.LC].cycle
DEC = STENCILS[MethodId.DEC].cycle


def step(xp, xc, h, weights, r=None):
    """x_next of the weighted two-step stencil from x_prev, x_cur and the free
    flight r, 2 x_cur - x_prev unless given."""
    (p1, p2), (q1, q2) = xp, xc
    r1, r2 = (2.0 * q1 - p1, 2.0 * q2 - p2) if r is None else r
    z = np.empty((1, 2))
    _stencil(z, 1, p1, p2, q1, q2, r1, r2, h, (weights,), 0, "implicit step",
             IntegrationStats())
    return PlanarVector(*z[0].tolist())


def fr_step(x1, x2, v1, v2, h):
    """One triple-jump step from (x, v), as (x1, x2, v1, v2)."""
    out = np.empty((1, 4))
    _fr(out, 1, x1, x2, v1, v2, h, IntegrationStats())
    return tuple(out[0].tolist())


def grad(x):
    """U'(x) as a PlanarVector."""
    return PlanarVector(*potential_gradient_xy(*x))


def reference_step(p, q, r, h, weights, g_b=None):
    """x_next of the two-step relation with weights (a, b, c),
    z - 2q + p = -h^2 [a U'(q) + b U'((p + q)/2) + c U'((q + z)/2)],
    from p, q and the free flight r, and U' at the forward midpoint (None
    after an explicit step), in the operation order of the stencil kernel.
    Every gradient goes through the kepler kernel, but for the backward-
    midpoint one when it is given as g_b.  The forward midpoint is (rho/beta)
    B, B = (q + C)/2 and beta = |B|; Newton's method runs on the scalar
    equation rho + kappa/rho^2 = beta, kappa = c h^2/2, from two steps of
    rho <- beta - kappa/rho^2 from beta, until twice its residual is below
    NEWTON_TOLERANCE beta."""
    (p1, p2), (q1, q2), (r1, r2) = p, q, r
    a, b, c = weights
    h2 = h * h
    f1 = f2 = 0.0
    if a:
        g1, g2 = potential_gradient_xy(q1, q2)
        f1 += a * g1
        f2 += a * g2
    if b:
        g1, g2 = g_b or potential_gradient_xy(0.5 * (p1 + q1), 0.5 * (p2 + q2))
        f1 += b * g1
        f2 += b * g2
    c1 = r1 - h2 * f1
    c2 = r2 - h2 * f2
    if not c:
        return (c1, c2), None
    kappa = 0.5 * c * h2
    b1, b2 = 0.5 * (q1 + c1), 0.5 * (q2 + c2)
    beta = math.hypot(b1, b2)
    limit = 0.5 * integrators.NEWTON_TOLERANCE * beta
    rho = beta - kappa / (beta * beta)
    rho = beta - kappa / (rho * rho)
    for _ in range(integrators.NEWTON_MAX_ITERATIONS):
        phi = rho + kappa / (rho * rho) - beta
        if phi < limit:
            break
        rho -= phi / (1.0 - 2.0 * kappa / (rho * rho * rho))
    else:
        raise AssertionError("the reference Newton solve did not converge")
    m1, m2 = rho / beta * b1, rho / beta * b2
    r3 = rho * rho * rho
    return (2.0 * m1 - q1, 2.0 * m2 - q2), (m1 / r3, m2 / r3)


def reference_positions(method, x0, v0, h, n_steps):
    """x_0 .. x_N of a stencil, one reference_step per point: the
    initializer (a/2, 0, c) from p = q = x0 and the free flight x0 + h v0,
    then step k with cycle[k % len(cycle)] from r = 2q - p, given the
    forward-midpoint gradient of an implicit step k - 1 > 0."""
    a, _, c = STENCILS[method].init
    cycle = STENCILS[method].cycle
    x1, _ = reference_step(x0, x0, (x0[0] + h * v0[0], x0[1] + h * v0[1]), h, (0.5 * a, 0.0, c))
    points, g_m = [tuple(x0), x1], None
    for k in range(1, n_steps):
        p, q = points[-2], points[-1]
        z, g_m = reference_step(p, q, (2.0 * q[0] - p[0], 2.0 * q[1] - p[1]), h,
                                cycle[k % len(cycle)], g_m)
        points.append(z)
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
    """The run-level kernel evaluates U' inline and carries the forward-
    midpoint gradient of an implicit step into the next b-term; both must
    leave every bit of the one-step reference above unchanged."""

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
        assert init_second_point(method, x0, v0, h, IntegrationStats()) == tuple(want[1])

    @pytest.mark.parametrize("method", TWO_STEP_METHODS)
    def test_a_long_run_equals_the_reference(self, method):
        x0, v0, h = self.STARTS["default"]
        n = 4100
        want = reference_positions(method, x0, v0, h, n)
        assert np.array_equal(integrate(method, x0, v0, h, n).positions, want)


# the weights a cycle's rows draw from; a one-row cycle with c = 0 and a, b != 0
# evaluates U'(q) and then U'((p + q)/2) afresh in each step
WEIGHT = st.sampled_from([0.0, 1.0 / 6.0, 0.25, 0.5, 2.0 / 3.0, 1.0])
CYCLES = st.lists(st.tuples(WEIGHT, WEIGHT, WEIGHT), min_size=1, max_size=3).map(tuple)


class TestCompiledKernels:
    """_stencil runs each cycle in a kernel compiled from its weight rows.
    Against the interpreted loop of tests/reference.py, from the points 9 and
    10 of an sv run, every bit, every counter and every failure must be the
    same: at each phase, for every n up to two cycles and two steps and for a
    long run."""

    @staticmethod
    def run(kernel, cycle, phase, n, h, start):
        """What kernel writes from start = (p, q): the points and counters, or
        the failure with the rows it filled."""
        (p1, p2), (q1, q2) = start
        out, stats = np.full((n, 2), np.nan), IntegrationStats()
        try:
            kernel(out, n, p1, p2, q1, q2, 2.0 * q1 - p1, 2.0 * q2 - p2, h, cycle, phase,
                   "implicit step", stats)
        except NumericalFailure as err:
            return type(err), str(err), err.filled, out.tobytes(), stats
        return out.tobytes(), stats

    def check(self, cycle, h, floor=None, max_iter=None):
        period = len(cycle)
        start = integrate(MethodId.SV, X0, V0, h, 10).positions[-2:].tolist()
        with pytest.MonkeyPatch.context() as patch:
            if floor is not None:
                patch.setattr(kepler, "SINGULARITY_FLOOR", floor)
                patch.setattr(integrators, "SINGULARITY_FLOOR", floor)
            if max_iter is not None:
                patch.setattr(integrators, "NEWTON_MAX_ITERATIONS", max_iter)
            for phase in range(period):
                for n in [*range(1, 2 * period + 3), 4099]:
                    want = self.run(reference_stencil, cycle, phase, n, h, start)
                    assert self.run(_stencil, cycle, phase, n, h, start) == want, (phase, n)

    # the last two examples pin a force with no weight factor, q1 / r3, and
    # one with no term at all, 0.0: the force sums its nonzero terms alone
    @given(cycle=CYCLES, h=st.sampled_from([0.1, 0.5, 1.3]))
    @example(cycle=((0.5, 0.5, 0.0),), h=0.5)
    @example(cycle=((2.0 / 3.0, 1.0 / 6.0, 0.0),), h=0.1)
    @example(cycle=((1.0, 0.0, 0.0),), h=0.5)
    @example(cycle=((0.0, 0.0, 0.5),), h=0.5)
    @settings(max_examples=40, deadline=None)
    def test_equal_the_interpreted_loop(self, cycle, h):
        self.check(cycle, h)

    # a guard of |x| = 2 meets the default orbit (1.31 <= |x| <= 3) within a
    # revolution; one of 3.5 fails the first gradient of the first step, so
    # that a kernel evaluating U'((p + q)/2) before its loop (row 0 of the
    # second example at phase 0) must still meet U'(q)'s guard first (at
    # h = 0.5 the two radii differ in the message's four digits)
    @given(cycle=CYCLES, floor=st.sampled_from([2.0, 3.5]))
    @example(cycle=((0.5, 0.5, 0.0),), floor=2.0)
    @example(cycle=((1.0, 1.0, 0.0), (0.0, 0.0, 0.5)), floor=3.5)
    @example(cycle=((1.0, 0.0, 0.0),), floor=2.0)
    @example(cycle=((0.0, 0.0, 0.5),), floor=2.0)
    @settings(max_examples=30, deadline=None)
    def test_fail_as_the_interpreted_loop(self, cycle, floor):
        self.check(cycle, 0.5, floor)

    # at h = 0.5 a solve takes one or two updates, so a budget of 0 stops the
    # first solve that needs an update and a budget of 1 the first that needs
    # two: each solve's budget must be spent as the interpreted loop spends it
    @given(cycle=CYCLES, max_iter=st.sampled_from([0, 1]))
    @example(cycle=((0.0, 0.5, 0.5),), max_iter=0)
    @example(cycle=((0.0, 0.5, 0.5),), max_iter=1)
    @example(cycle=LC, max_iter=1)
    @example(cycle=DEC, max_iter=1)
    @settings(max_examples=30, deadline=None)
    def test_spend_the_budget_as_the_interpreted_loop(self, cycle, max_iter):
        self.check(cycle, 0.5, max_iter=max_iter)

    def test_compiled_once_per_cycle_at_first_use(self):
        # a fresh interpreter imports keplerlab without compiling a kernel
        code = ("import keplerlab; from keplerlab.integrators import _stencil_kernel; "
                "print(_stencil_kernel.cache_info().currsize)")
        src = str(Path(integrators.__file__).resolve().parent.parent)
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, check=True)
        assert done.stdout.strip() == "0"
        for method in TWO_STEP_METHODS:
            integrate(method, X0, V0, 0.1, 20)
            misses = integrators._stencil_kernel.cache_info().misses
            integrate(method, X0, V0, 0.1, 20)
            assert integrators._stencil_kernel.cache_info().misses == misses, method


class TestStores:
    """Each kernel stores a point into its row of out as soon as it is
    computed, through a float memoryview of out: a failure leaves the rows
    before it written and the rows after it as they were, and an out that is
    not C-contiguous is refused, not written into a copy."""

    UNWRITTEN = -7.0

    @staticmethod
    def run(kernel, method, out, n, h):
        """kernel (_fr for fr, _stencil or reference_stencil for a two-step
        method) run n steps into out from (X0, V0), as integrate runs it after
        the points it starts from; the failure it raised, or None."""
        stats = IntegrationStats()
        try:
            if method is MethodId.FR:
                kernel(out, n, *X0, *V0, h, stats)
            else:
                (p1, p2), (q1, q2) = X0, init_second_point(method, X0, V0, h, IntegrationStats())
                kernel(out, n, p1, p2, q1, q2, 2.0 * q1 - p1, 2.0 * q2 - p2, h,
                       STENCILS[method].cycle, 1, "implicit step", stats)
        except NumericalFailure as err:
            return err
        return None

    # the failures integrate meets at points 16 (ml), 69 (fr) and 3 (lc, the
    # first kernel point of h = 1e200 already non-finite) are the kernel's
    # rows 14, 68 and 1
    @pytest.mark.parametrize("method, h, floor, max_iter, filled", [
        (MethodId.ML, 0.5, None, 1, 14), (MethodId.FR, 0.1, 2.0, 50, 68),
        (MethodId.LC, 1e200, None, 50, 1)], ids=["ml", "fr", "lc"])
    def test_a_failure_leaves_the_rows_after_it_unwritten(self, monkeypatch, method, h, floor,
                                                          max_iter, filled):
        n, width = 500, 4 if method is MethodId.FR else 2
        if method is MethodId.FR:
            rows = [(*X0, *V0)]
            for _ in range(filled):
                rows.append(fr_step(*rows[-1], h))
            want = np.array(rows[1:])
        if floor is not None:
            monkeypatch.setattr(kepler, "SINGULARITY_FLOOR", floor)
            monkeypatch.setattr(integrators, "SINGULARITY_FLOOR", floor)
        monkeypatch.setattr(integrators, "NEWTON_MAX_ITERATIONS", max_iter)
        kernel = _fr if method is MethodId.FR else _stencil
        out = np.full((n, width), self.UNWRITTEN)
        err = self.run(kernel, method, out, n, h)
        assert err.filled == filled
        assert (out[filled:] == self.UNWRITTEN).all()
        if method is MethodId.FR:
            assert out[:filled].tobytes() == want.tobytes()
        else:
            ref = np.full((n, width), self.UNWRITTEN)
            ref_err = self.run(reference_stencil, method, ref, n, h)
            assert (type(err), str(err), err.filled) == (type(ref_err), str(ref_err),
                                                         ref_err.filled)
            assert out.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("method", ALL_METHODS, ids=lambda m: m.value)
    def test_an_out_that_is_not_contiguous_is_refused(self, method):
        width = 4 if method is MethodId.FR else 2
        base = np.full((20, 2 * width), self.UNWRITTEN)
        kernel = _fr if method is MethodId.FR else _stencil
        with pytest.raises(TypeError, match="C-contiguous"):
            self.run(kernel, method, base[:, :width], 20, 0.1)
        assert (base == self.UNWRITTEN).all()

    # a one-step two-step run asks _stencil for no points after its second
    def test_no_points_write_nothing_and_count_nothing(self):
        for method in TWO_STEP_METHODS:
            stats = IntegrationStats()
            for phase in range(len(STENCILS[method].cycle)):
                _stencil(np.empty((0, 2)), 0, *X0, *X0, *X0, 0.1, STENCILS[method].cycle, phase,
                         "implicit step", stats)
            assert stats == IntegrationStats(), method


class TestRadialSolve:
    """The kernel's radial solve against the two-dimensional Newton solve of
    tests/reference.py, which shares none of its algebra, from the same
    (p, q): the initializer and every implicit step of one revolution, at
    each of scan's step sizes."""

    # z = 2 (rho/beta) B - q doubles the round-off of rho and B: the two
    # solves were measured 7.2 ulps of |z| apart at most
    ULPS = 8

    @pytest.mark.parametrize("h", cli.DEFAULT_SCAN_H)
    @pytest.mark.parametrize("method", IMPLICIT_METHODS)
    def test_agrees_with_the_two_dimensional_solve(self, default_elements, method, h):
        n = math.ceil(default_elements.T / h)
        X = integrate(method, X0, V0, h, n).positions
        a, _, c = STENCILS[method].init
        cycle = STENCILS[method].cycle
        steps = [(X0, X0, (X0.x1 + h * V0.x1, X0.x2 + h * V0.x2), (0.5 * a, 0.0, c))] if c else []
        steps += [(X[k - 1], X[k], 2.0 * X[k] - X[k - 1], cycle[k % len(cycle)])
                  for k in range(1, n) if cycle[k % len(cycle)][2]]
        for p, q, r, weights in steps:
            z = step(p, q, h, weights, r)
            want = newton_step_2d(p, q, r, h, weights)
            assert math.hypot(z.x1 - want[0], z.x2 - want[1]) <= self.ULPS * math.ulp(math.hypot(*z))
            # the residual of the planar equation at the radial z
            (c1, c2), _ = explicit_part(p, q, r, h, weights)
            g1, g2 = potential_gradient_xy(0.5 * (q[0] + z.x1), 0.5 * (q[1] + z.x2))
            ch2 = weights[2] * h * h
            residual = math.hypot(z.x1 - c1 + ch2 * g1, z.x2 - c2 + ch2 * g2)
            assert residual < NEWTON_TOLERANCE * math.hypot(c1, c2)


@st.composite
def bound_starts(draw):
    """(x0, v0, h): a bound state, and a step of 0.01 to 0.1 r_p^(3/2), which
    resolves the perihelion passage."""
    state = draw(bound_states())
    el = kepler.elements_from_state(state)
    return state.position, state.velocity, draw(st.floats(0.01, 0.1)) * (el.a * (1.0 - el.e)) ** 1.5


def farthest(points, reference):
    """The largest distance between two arrays of (n, 2) points."""
    return float(np.max(np.hypot(*(points - reference).T)))


class TestTimeReversal:
    """Every scheme is time-symmetric: run backward from the end of a forward
    run, it retraces that run.  The step that solves forward step k for x_{k-1}
    is the stencil step with cycle[k % P] and b and c swapped; a cycle is
    symmetric when, read backward with b and c swapped, it is a rotation of
    itself.  Then the method's own stencil, run from (x_N, x_{N-1}) at the
    phase that N fixes, is that backward run.  fr runs backward with -h."""

    STEPS = 200
    # The retrace gathers a few ulps of round-off in each of the STEPS steps,
    # each amplified no more than an offset of x0 is, so 1e6 times the growth
    # of a one-ulp offset covers it; the asymmetric cycle below misses by
    # about 1e13 times that growth.
    FACTOR = 1e6

    @staticmethod
    def retrace_gap(traj):
        """How far the backward run from the end of traj misses x_{N-2} ..
        x_0 (x_{N-1} .. x_0 for fr); for a stencil, at the phase that fits best."""
        X, h, n = traj.positions, traj.h, traj.n_steps
        if traj.method is MethodId.FR:
            out = np.empty((n, 4))
            _fr(out, n, *X[-1], *traj.velocities[-1], -h, IntegrationStats())
            return farthest(out[:, :2], X[-2::-1])
        cycle = STENCILS[traj.method].cycle
        (p1, p2), (q1, q2) = X[-1], X[-2]
        gaps = []
        for phase in range(len(cycle)):
            xs = np.empty((n - 1, 2))
            _stencil(xs, n - 1, p1, p2, q1, q2, 2.0 * q1 - p1, 2.0 * q2 - p2, h, cycle, phase,
                     "backward step", IntegrationStats())
            gaps.append(farthest(xs, X[-3::-1]))
        return min(gaps)

    def gap_and_bound(self, method, x0, v0, h):
        """The retrace gap, and FACTOR times the largest separation of the
        forward run from one whose x0 is one ulp farther from the origin."""
        traj = integrate(method, x0, v0, h, self.STEPS)
        x0_ulp = PlanarVector(*(math.nextafter(c, math.copysign(math.inf, c)) for c in x0))
        shifted = integrate(method, x0_ulp, v0, h, self.STEPS).positions
        return self.retrace_gap(traj), self.FACTOR * farthest(shifted, traj.positions)

    @pytest.mark.parametrize("method", ALL_METHODS)
    @given(start=bound_starts())
    @settings(max_examples=8, deadline=None)
    def test_the_backward_run_retraces_the_forward_run(self, method, start):
        gap, bound = self.gap_and_bound(method, *start)
        assert gap <= bound

    def test_an_asymmetric_cycle_does_not_retrace(self, monkeypatch):
        # beta = 1/6 as for ml, so the h^2 theory cannot tell the two apart;
        # the backward run misses by 0.73
        asymmetric = Stencil(STENCILS[MethodId.ML].init, ((2.0 / 3.0, 0.25, 1.0 / 12.0),))
        monkeypatch.setitem(STENCILS, MethodId.ML, asymmetric)
        gap, bound = self.gap_and_bound(MethodId.ML, X0, V0, 0.1)
        assert gap > bound


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
            got = init_second_point(method, X0, V0, h, IntegrationStats())
            assert_vector_close(got, want, tol=1e-15)

    @pytest.mark.parametrize("method", TWO_STEP_METHODS)
    def test_discrete_momentum_matches_v0(self, method):
        # defining property: the scheme's own discrete momentum at step 0 is v0
        h = 0.3
        x1 = init_second_point(method, X0, V0, h, IntegrationStats())
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
            init_second_point(MethodId.FR, X0, V0, 0.25, IntegrationStats())

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
    # h = 0.1, recorded from the stencil kernel with its radial solve; sv and
    # fr, which solve nothing, still carry the values of the per-method
    # steppers the kernels replaced
    PINNED = {
        MethodId.SV: ((0.004561690668758225, -2.0354191067359113), (0, 0)),
        MethodId.MP: ((-1.3456579201841896, -1.4489014981362265), (20000, 20000)),
        MethodId.ML: ((-0.49405328392613473, -1.9549283803855009), (20000, 20000)),
        MethodId.LC: ((-0.49339076151379596, -1.9552985231894597), (6666, 6666)),
        MethodId.DEC: ((-0.4356052199662295, -1.9454553931645946), (6666, 6666)),
        MethodId.FR: ((-0.47205466802258966, -1.9531100056677566), (0, 0)),
    }

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_pinned_final_point_and_counts(self, method):
        traj = integrate(method, X0, V0, 0.1, 20000)
        point, counts = self.PINNED[method]
        assert tuple(traj.positions[-1]) == point
        assert (traj.stats.implicit_solves, traj.stats.newton_iterations) == counts

    # SHA-256 of positions.tobytes() (and velocities.tobytes() for fr) after
    # 5000 steps at h = 0.25: every point of every trajectory is pinned.  sv
    # and fr were recorded from the PlanarVector steppers that the float
    # kernels replaced, the implicit methods from the radial solve
    DIGESTS = {
        MethodId.SV: ("b6403cde774ea69cf25a10cc91504d5c73254c6626717cd041dcb581bf66ebdb",
                      None),
        MethodId.MP: ("8273a73788e4d0b1df6d5c368d08398f3520efb64b3e1ffafd6144d462286e83",
                      None),
        MethodId.ML: ("521a9a3231cb7dfd7eef5748d2d6c51e4aac78c586661db2168a5fd1d61d4f6f",
                      None),
        MethodId.LC: ("c8b03a162d4cd48278d92ee87355726a4a2548d6e9197d51b20f110bc465cb6d",
                      None),
        MethodId.DEC: ("3d74d18e400b3f2eaeac8ec2b9b6a7430e983724087571ed157fe6d72b8adf41",
                       None),
        MethodId.FR: ("b25f0f57d497208b384e5bc659717f7e0c6bcaf9a355d65c19b7432e7a03cff2",
                      "37092ee078b07cdd76f98ff30885d3d70559043e437394c503bf9daabfd7e28e"),
    }

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_pinned_trajectory_digest(self, method):
        traj = integrate(method, X0, V0, 0.25, 5000)
        digest = lambda a: None if a is None else hashlib.sha256(a.tobytes()).hexdigest()
        assert (digest(traj.positions), digest(traj.velocities)) == self.DIGESTS[method]

    # (Newton iterations, gradient evaluations) of 300 points at h = 0.1.  A
    # solve evaluates one gradient, U'(m) = m/rho^3, however many updates it
    # applies; at this step one update always suffices.  mp: one b-term at
    # point 2, then each solve's gradient is reused as the next b-term; ml
    # adds an a-term per point; lc's (1/2, 1/2, 0) phase reuses it too, dec's
    # mp phase follows an sv step and cannot.
    EVALUATIONS = {
        MethodId.SV: (0, 300),  # one a-term per point
        MethodId.MP: (300, 300 + 1),
        MethodId.ML: (300, 300 + 300 + 1),
        MethodId.LC: (100, 1 + 100 * 1 + (100 + 100) + 99 * 1),  # init, phases 1, 2, 0
        MethodId.DEC: (100, 1 + 100 * 1 + (100 + 100) + 99 * 1),
        MethodId.FR: (0, 3 * 300),  # three kicks per step
    }

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_evaluation_counts(self, method):
        stats = integrate(method, X0, V0, 0.1, 300).stats
        assert (stats.newton_iterations, stats.gradient_evaluations) == self.EVALUATIONS[method]

    # Newton updates of the default orbit's scan: each of scan's step sizes
    # over its span, 100 revolutions rounded up to a multiple of h = 1/2.  The
    # planar solve, started from the gradients in hand, took 219,620 (mp
    # 81,160, ml 72,720, lc 31,979, dec 33,761); the radial solve must take
    # no more than it does now.
    SCAN_NEWTON_UPDATES = {
        MethodId.MP: 63316,
        MethodId.ML: 60567,
        MethodId.LC: 21091,
        MethodId.DEC: 21102,
    }

    def test_scan_newton_updates_do_not_rise(self, default_elements):
        t_span = math.ceil(cli.DEFAULT_SCAN_REVOLUTIONS * default_elements.T / 0.5) * 0.5
        updates = {method: sum(integrate(method, X0, V0, h, round(t_span / h)).stats.newton_iterations
                               for h in cli.DEFAULT_SCAN_H)
                   for method in self.SCAN_NEWTON_UPDATES}
        assert all(updates[m] <= bound for m, bound in self.SCAN_NEWTON_UPDATES.items()), updates

    # (implicit solves, Newton iterations, gradient evaluations) of 50 steps at
    # h = 0.2, exact: mp solves every point and evaluates one gradient more,
    # lc and dec solve every third point, and h = 0.2 is coarse enough that
    # some solves apply a second update
    COUNTERS = {
        MethodId.SV: (0, 0, 50),
        MethodId.MP: (50, 54, 51),
        MethodId.ML: (50, 50, 101),
        MethodId.LC: (16, 17, 66),
        MethodId.DEC: (16, 17, 66),
        MethodId.FR: (0, 0, 150),
    }

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_newton_iteration_accounting(self, method):
        stats = integrate(method, X0, V0, 0.2, 50).stats
        counters = (stats.implicit_solves, stats.newton_iterations, stats.gradient_evaluations)
        assert counters == self.COUNTERS[method]

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
        Xe, _ = orbit.states_at(h * np.arange(n + 1))
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

    # a step count that is not an integer is refused before any array is
    # allocated, as integrate_modified refuses its n_samples; an inf count,
    # which the CLI passes when t-end / h overflows, meets the step bound
    @pytest.mark.parametrize("n_steps, message", [
        (10.0, "n_steps must be an integer, got 10.0"),
        (10.5, "n_steps must be an integer, got 10.5"),
        (math.nan, "n_steps must be an integer, got nan"),
        (math.inf, "inf steps of h = 0.1 exceed the bound MAX_STEPS = 1000000")])
    def test_a_step_count_that_is_not_an_integer(self, n_steps, message):
        with pytest.raises(ConfigurationError) as refused:
            integrate(MethodId.SV, (-3, 0), (0, 0.45), 0.1, n_steps)
        assert str(refused.value) == message

    # a numpy start and step are taken as plain floats: the kernels see no
    # numpy scalar (np.float64 is a float subclass), and the points and the
    # counters are those of a tuple start
    @pytest.mark.parametrize("method", [MethodId.MP, MethodId.FR], ids=lambda m: m.value)
    def test_numpy_start_runs_on_plain_floats(self, monkeypatch, method):
        want = integrate(method, X0, V0, 0.1, 50)
        seen = []

        def spy(kernel):
            def run(*args):
                seen.extend(type(arg) for arg in args if isinstance(arg, float))
                return kernel(*args)
            return run

        monkeypatch.setattr(integrators, "_stencil", spy(integrators._stencil))
        monkeypatch.setattr(integrators, "_fr", spy(integrators._fr))
        got = integrate(method, np.array(X0), np.array(V0), np.float64(0.1), 50)
        assert seen and set(seen) == {float}
        assert got.positions.tobytes() == want.positions.tobytes()
        assert (None if got.velocities is None else got.velocities.tobytes()) == (
            None if want.velocities is None else want.velocities.tobytes())
        assert got.stats == want.stats

    # MAX_STEPS = 10^6 steps reach the kernel and one more is refused before
    # any step; the stub kernels raise with the run's step count instead of
    # taking the steps.
    @pytest.mark.parametrize("method", ALL_METHODS, ids=lambda m: m.value)
    def test_step_bound(self, stub_kernels, method):
        with pytest.raises(KernelReached) as reached:
            integrate(method, X0, V0, 0.1, 10**6)
        assert reached.value.args == (10**6,)
        with pytest.raises(ConfigurationError) as refused:
            integrate(method, X0, V0, 0.1, 10**6 + 1)
        assert str(refused.value) == ("1000001 steps of h = 0.1 exceed the bound "
                                      "MAX_STEPS = 1000000")

    @staticmethod
    def peak_growth(method, steps):
        """How much the traced peak of integrate grows per step from a run
        of steps to one twice as long."""
        def peak(n):
            tracemalloc.start()
            try:
                integrate(method, X0, V0, 0.1, n)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(10)
        return (peak(2 * steps) - peak(steps)) / steps

    # integrate holds its positions, 16 B per step (and fr's velocities, 16
    # more).  A flat float list of every point held 83 B (199 B for fr)
    @pytest.mark.parametrize("method", ALL_METHODS, ids=lambda m: m.value)
    def test_memory_grows_by_the_arrays_alone(self, method):
        bound = 40 if method is MethodId.FR else 24
        assert self.peak_growth(method, 4000) < bound

    # with kernels that only fill their rows, what integrate holds itself:
    # the state array, 16 B per step (32 B for fr), and finite-check masks
    # over a block of rows, not the run, within 1 B per step of margin.
    # Masks over the whole run added 3 B per step (5 B for fr)
    @pytest.mark.parametrize("method", [MethodId.SV, MethodId.FR], ids=lambda m: m.value)
    def test_memory_grows_by_the_state_array_alone(self, monkeypatch, method):
        monkeypatch.setattr(integrators, "_stencil", lambda out, *args: out.fill(1.0))
        monkeypatch.setattr(integrators, "_fr", lambda out, *args: out.fill(1.0))
        row = 32 if method is MethodId.FR else 16
        assert self.peak_growth(method, 100000) < row + 1

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
    def test_newton_failure_names_method_point_stage_and_tolerance(self, monkeypatch, method,
                                                                   point, stage):
        # at h = 0.25 no solve meets the stop at its start, before an update
        monkeypatch.setattr(integrators, "NEWTON_MAX_ITERATIONS", 0)
        with pytest.raises(SolverFailure) as excinfo:
            integrate(method, X0, V0, 0.25, 10)
        err = excinfo.value
        assert (err.method, err.step_index) == (method, point)
        assert err.partial_positions.shape == (point, 2)
        assert str(err) == (f"{method.value} failed computing point {point}: {stage}: "
                            "Newton residual stayed above 1e-15 |B| after 0 iterations")

    # an mp initialization with no solution (a step far above the stability
    # limit), ml's Newton solve failing mid-run under a cap of one update,
    # fr meeting a collision guard that, raised to |x| = 2, the default orbit
    # (perihelion 1.31) crosses mid-run, and at h = 1e200, where h^2
    # overflows to inf, a NaN explicit part in mp's initializer, and sv's,
    # lc's and dec's explicit first step turning inf and NaN (before lc's and
    # dec's first implicit step meets a NaN explicit part at point 3, the
    # cause of the first non-finite point's failure).  The rows kept are the
    # reference's, or for fr those of one-step runs, taken with the default
    # guard and budget, which the run did not reach before it stopped
    @pytest.mark.parametrize("method, h, floor, max_iter, error, point, detail, cause", [
        (MethodId.MP, 5.0, None, 50, SolverFailure, 1,
         "initialization: the step has no solution: |(q + C)/2| = 3.204 is at or below "
         "the fold 3.48119", None),
        (MethodId.ML, 0.5, None, 1, SolverFailure, 16,
         "implicit step: Newton residual stayed above 1e-15 |B| after 1 iterations", None),
        (MethodId.FR, 0.1, 2.0, 50, NearSingularity, 69,
         "|x| = 1.972e+00 inside the collision guard 2.000e+00", None),
        (MethodId.MP, 1e200, None, 50, SolverFailure, 1,
         "initialization: the explicit part of the step is not finite (|(q + C)/2| = nan)", None),
        (MethodId.SV, 1e200, None, 50, NumericalFailure, 1, "the state is no longer finite", None),
        *((method, 1e200, None, 50, NumericalFailure, 1, "the state is no longer finite",
           "implicit step: the explicit part of the step is not finite (|(q + C)/2| = nan)")
          for method in (MethodId.LC, MethodId.DEC))])
    def test_failure_mid_run_keeps_partial(self, monkeypatch, method, h, floor, max_iter, error,
                                           point, detail, cause):
        if method is MethodId.FR:
            rows = [(*X0, *V0)]
            for _ in range(point - 1):
                rows.append(fr_step(*rows[-1], h))
            want = np.array(rows)[:, :2]
        else:
            want = reference_positions(method, X0, V0, h, point - 1) if point > 1 else [X0]
        if floor is not None:
            monkeypatch.setattr(kepler, "SINGULARITY_FLOOR", floor)
            monkeypatch.setattr(integrators, "SINGULARITY_FLOOR", floor)
        monkeypatch.setattr(integrators, "NEWTON_MAX_ITERATIONS", max_iter)
        with pytest.raises(error) as excinfo:
            integrate(method, X0, V0, h, 500)
        err = excinfo.value
        assert type(err) is error
        assert (err.method, err.step_index) == (method, point)
        assert np.array_equal(err.partial_positions, want)
        assert str(err) == f"{method.value} failed computing point {point}: {detail}"
        if cause is None:
            assert err.__cause__ is None
        else:
            assert (type(err.__cause__), str(err.__cause__)) == (SolverFailure, cause)

    # fr's velocities are checked with its positions: a NaN velocity written
    # into row k, its position finite, stops the run at point k, also at the
    # end and the start of a block of the finite check
    @pytest.mark.parametrize("k", [7, integrators._FINITE_ROWS - 1, integrators._FINITE_ROWS])
    def test_a_non_finite_velocity_stops_fr(self, monkeypatch, k):
        fr = integrators._fr

        def nan_velocity(out, n, *args):
            fr(out, n, *args)
            out[k - 1, 3] = math.nan  # out holds rows 1 .. n

        monkeypatch.setattr(integrators, "_fr", nan_velocity)
        with pytest.raises(NumericalFailure) as excinfo:
            integrate(MethodId.FR, X0, V0, 0.1, k + 50)
        err = excinfo.value
        assert (type(err), err.method, err.step_index) == (NumericalFailure, MethodId.FR, k)
        assert err.partial_positions.shape == (k, 2)
        assert np.isfinite(err.partial_positions).all()
        assert str(err) == f"fr failed computing point {k}: the state is no longer finite"

    # a NaN coordinate written into row k of a two-step run, before the
    # kernel fails at its last point, stops the run at point k with that
    # failure as the cause, also at the end and the start of a block of the
    # finite check
    @pytest.mark.parametrize("k", [2, integrators._FINITE_ROWS - 1, integrators._FINITE_ROWS])
    def test_a_non_finite_point_wins_over_a_later_kernel_failure(self, monkeypatch, k):
        stencil = integrators._stencil

        def nan_then_failure(out, n, *args):
            stencil(out, n, *args)
            if n == 1:  # init_second_point's step
                return
            out[k - 2, 1] = math.nan  # out holds rows 2 .. n
            late = SolverFailure("implicit step: late")
            late.filled = n - 1
            raise late

        monkeypatch.setattr(integrators, "_stencil", nan_then_failure)
        with pytest.raises(NumericalFailure) as excinfo:
            integrate(MethodId.SV, X0, V0, 0.1, k + 50)
        err = excinfo.value
        assert (type(err), err.method, err.step_index) == (NumericalFailure, MethodId.SV, k)
        assert err.partial_positions.shape == (k, 2)
        assert np.isfinite(err.partial_positions).all()
        assert str(err) == f"sv failed computing point {k}: the state is no longer finite"
        assert (type(err.__cause__), str(err.__cause__)) == (SolverFailure, "implicit step: late")

    # an absolute residual test cannot be met once round-off in |z| exceeds
    # it: ml at h = 50 stopped at point 179 under |f| < 1e-12; the relative
    # test runs it through
    def test_relative_newton_test_holds_at_large_steps(self):
        traj = integrate(MethodId.ML, X0, V0, 50.0, 500)
        assert traj.stats.implicit_solves == 500
        assert np.isfinite(traj.positions).all()


class TestCollisionGuard:
    # 1e-13 and 5e-13 lie inside the 1e-12 floor; so does their midpoint
    @pytest.mark.parametrize("weights", [SV, MP, ML, LC[0]])
    def test_stencil_kernel(self, weights):
        with pytest.raises(NearSingularity, match="inside the collision guard"):
            step(PlanarVector(1e-13, 0.0), PlanarVector(5e-13, 0.0), 0.1, weights)

    # the b-site: q = (1, 0) is clear of the guard, and from p = (-1, 0) the
    # backward midpoint is the origin
    @pytest.mark.parametrize("p1, q1, weights", [(-1.0, 1.0, MP), (-1.0, 1.0, LC[0])])
    def test_stencil_kernel_midpoints(self, p1, q1, weights):
        with pytest.raises(NearSingularity, match="inside the collision guard"):
            step(PlanarVector(p1, 0.0), PlanarVector(q1, 0.0), 0.1, weights)

    # The Newton site: from p = 2 - q the backward midpoint is (1, 0), where
    # U' = (1, 0), so B = (q + C)/2 = (3q - p)/2 - (h^2/2) (a U'(q) +
    # b U'((p + q)/2)), 2.5e-3 for mp and 8.3e-4 for ml, with q = (2 + h^2)/4
    # for mp and the fixed point of 4q - 2 = h^2 (a/q^2 + b + c) for ml.  The
    # radius rho of the forward midpoint starts from |B| - c h^2/(2 |B|^2),
    # -400 and -1200: |B|^3 < kappa, far below the fold, so the step has no
    # solution, and the guard that rho crossed says so
    @pytest.mark.parametrize("p1, q1, weights, detail", [
        (1.4975, 0.5025, MP, "|(q + C)/2| = 0.0025 is at or below the fold 0.256496"),
        (1.4926907218513024, 0.5073092781486978, ML,
         "|(q + C)/2| = 0.000833333 is at or below the fold 0.177845")], ids=["mp", "ml"])
    def test_a_midpoint_radius_past_the_origin_has_no_solution(self, p1, q1, weights, detail):
        with pytest.raises(SolverFailure) as excinfo:
            step(PlanarVector(p1, 0.0), PlanarVector(q1, 0.0), 0.1, weights)
        assert str(excinfo.value) == f"implicit step: the step has no solution: {detail}"

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

    # each row reads its neighbours whatever the range, so consecutive ranges
    # concatenate to the whole run bit for bit: every split of 2, 3 and 4
    # points, and 10 points in ranges of 3, the last of one row
    @pytest.mark.parametrize("n_steps", [1, 2, 3, 9])
    def test_row_ranges_concatenate_to_the_whole_run(self, n_steps):
        traj, _ = self.exact_position_trajectory(0.1, n_steps)
        want = reconstruct_velocities(traj).tobytes()
        rows = n_steps + 1
        if rows <= 4:
            splits = [cuts for k in range(rows)
                      for cuts in itertools.combinations(range(1, rows), k)]
        else:
            splits = [tuple(range(3, rows, 3))]
        for cuts in splits:
            edges = [0, *cuts, rows]
            parts = [reconstruct_velocities(traj, lo, hi) for lo, hi in zip(edges, edges[1:])]
            assert np.concatenate(parts).tobytes() == want, edges
