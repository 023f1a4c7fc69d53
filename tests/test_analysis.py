import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keplerlab import (
    ExactOrbit,
    MethodId,
    OrbitElements,
    PlanarVector,
    SignChange,
    State,
    TooFewRevolutions,
    Trajectory,
    convergence_slope,
    discrete_angular_momentum,
    energy_drift,
    integrate,
    measure_precession,
    observable_series,
)
from keplerlab import analysis
from keplerlab.analysis import error_curve, trajectory_arrays

from conftest import REF_ECC, REF_T, V0, X0, assert_close, assert_vector_close
from reference import polyfit_precession, unwrap_line_precession, whole_run_angle


def exact_trajectory(h=0.25, n_revolutions=4.0, rotate_per_rev=0.0):
    """Exact orbit samples packaged as a trajectory, optionally with the whole
    frame rotating rigidly by rotate_per_rev radians per orbital period."""
    orbit = ExactOrbit(State(X0, V0, 0.0))
    T = orbit.elements.T
    n = int(round(n_revolutions * T / h))
    t = h * np.arange(n + 1)
    X, V = orbit.states_at(t)
    if rotate_per_rev != 0.0:
        ang = rotate_per_rev * t / T
        c, s = np.cos(ang), np.sin(ang)
        X = np.stack([c * X[:, 0] - s * X[:, 1], s * X[:, 0] + c * X[:, 1]], axis=-1)
        # velocity of a point in a rotating frame picks up the omega x r term
        om = rotate_per_rev / T
        Vrot = np.stack([c * V[:, 0] - s * V[:, 1], s * V[:, 0] + c * V[:, 1]], axis=-1)
        V = Vrot + om * np.stack([-X[:, 1], X[:, 0]], axis=-1)
    return Trajectory(MethodId.FR, h, X, PlanarVector(*V[0]), orbit.elements,
                      velocities=V)


class TestTrajectoryArrays:
    def test_stored_velocities_win(self):
        traj = integrate(MethodId.FR, X0, V0, 0.2, 10)
        t, X, V = trajectory_arrays(traj)
        # the stored array itself, as a view of all its rows: nothing is copied
        assert V.base is traj.velocities and V.shape == traj.velocities.shape

    # rows [lo, hi), times k h included, are the whole run's rows bit for bit,
    # and so are the error curve's
    @pytest.mark.parametrize("method", [MethodId.SV, MethodId.FR], ids=lambda m: m.value)
    def test_row_ranges_are_slices_of_the_whole_run(self, method):
        traj = integrate(method, X0, V0, 0.2, 12)
        whole, curve = trajectory_arrays(traj), error_curve(traj)
        assert np.array_equal(whole[0], 0.2 * np.arange(13))
        for lo, hi in [(0, 1), (0, 5), (5, 6), (5, 13), (12, 13)]:
            for part, array in [*zip(trajectory_arrays(traj, lo, hi), whole),
                                *zip(error_curve(traj, lo, hi), curve)]:
                assert part.tobytes() == array[lo:hi].tobytes(), (lo, hi)

    def test_position_only_reconstructs(self):
        traj = integrate(MethodId.SV, X0, V0, 0.2, 10)
        t, X, V = trajectory_arrays(traj)
        assert V.shape == X.shape
        # second-order reconstruction at a modest step
        assert_vector_close(V[5], (X[6] - X[4]) / 0.4, tol=1e-15)


class TestObservableSeries:
    def test_constant_along_exact_orbit(self):
        traj = exact_trajectory()
        energy, angmom, lrl_a, lrl_b = observable_series(traj.positions, traj.velocities)
        assert np.abs(energy - energy[0]).max() < 1e-11
        assert np.abs(angmom - angmom[0]).max() < 1e-11
        assert np.abs(np.hypot(lrl_a, lrl_b) - REF_ECC).max() < 1e-10


class TestMeasurePrecession:
    def test_exact_orbit_has_no_precession(self):
        est = measure_precession(exact_trajectory())
        assert abs(est.rate_per_revolution) < 1e-6
        assert est.revolutions_observed > 3.9

    # The frame-rotation velocity term makes the osculating LRL angle
    # oscillate with amplitude O(rotation rate); the induced fit bias decays
    # like 1/revs^2, so recovery to 1% needs a window of ~16 revolutions.
    def test_recovers_synthetic_rotation(self):
        want = 0.05
        est = measure_precession(exact_trajectory(n_revolutions=16.0, rotate_per_rev=want))
        assert abs(est.rate_per_revolution - want) < 0.01 * want

    def test_recovers_negative_rotation(self):
        want = -0.11
        est = measure_precession(exact_trajectory(n_revolutions=16.0, rotate_per_rev=want))
        assert abs(est.rate_per_revolution - want) < 0.01 * abs(want)

    def test_rigid_rotation_invariance(self):
        base = exact_trajectory(rotate_per_rev=0.05)
        ang = 1.1
        c, s = math.cos(ang), math.sin(ang)
        R = np.array([[c, -s], [s, c]])
        turned = Trajectory(base.method, base.h, base.positions @ R.T,
                            PlanarVector(*(R @ np.asarray(base.start_velocity))),
                            base.elements,
                            velocities=base.velocities @ R.T)
        a = measure_precession(base)
        b = measure_precession(turned)
        assert abs(a.rate_per_revolution - b.rate_per_revolution) < 1e-10

    # the Kepler problem is invariant under rotation, and a reflection
    # reverses the sense of the orbit and so the sign of the precession
    SYMMETRY_STEPS = int(20 * REF_T / 0.25)  # 20 revolutions at h = 0.25

    @pytest.mark.parametrize("method", list(MethodId))
    @given(angle=st.floats(-math.pi, math.pi))
    @settings(max_examples=10, deadline=None)
    def test_rotation_keeps_and_mirror_flips_the_rate(self, method, angle):
        def rate(x0, v0):
            traj = integrate(method, x0, v0, 0.25, self.SYMMETRY_STEPS)
            return measure_precession(traj).rate_per_revolution

        base = rate(X0, V0)
        c, s = math.cos(angle), math.sin(angle)
        x0 = PlanarVector(c * X0.x1 - s * X0.x2, s * X0.x1 + c * X0.x2)
        v0 = PlanarVector(c * V0.x1 - s * V0.x2, s * V0.x1 + c * V0.x2)
        assert abs(rate(x0, v0) - base) <= 1e-12
        mirrored = rate(PlanarVector(x0.x1, -x0.x2), PlanarVector(v0.x1, -v0.x2))
        assert abs(mirrored + base) <= 1e-12

    # Kepler's scaling x -> lam x, v -> lam^(-1/2) v, h -> lam^(3/2) h maps a
    # run onto a run; with lam = 4^k every factor is a power of two, so every
    # float operation scales exactly and the rate and the work are equal
    @pytest.mark.parametrize("method", list(MethodId))
    @given(k=st.integers(-3, 3))
    @settings(max_examples=7, deadline=None)
    def test_scaling_keeps_the_rate_and_the_work(self, method, k):
        def run(lam, root, lam_3_2):
            traj = integrate(method, PlanarVector(lam * X0.x1, lam * X0.x2),
                             PlanarVector(V0.x1 / root, V0.x2 / root), lam_3_2 * 0.25, 1600)
            return measure_precession(traj).rate_per_revolution, traj.stats

        assert run(4.0 ** k, 2.0 ** k, 8.0 ** k) == run(1.0, 1.0, 1.0)

    def test_needs_two_revolutions(self):
        traj = exact_trajectory(n_revolutions=1.5)
        with pytest.raises(TooFewRevolutions):
            measure_precession(traj)

    def test_too_short_is_named_before_too_coarse(self):
        traj = exact_trajectory(h=REF_T / 7.9, n_revolutions=1.5)
        with pytest.raises(TooFewRevolutions, match="covers 1.52 revolutions; need at least 2"):
            measure_precession(traj)

    def test_needs_eight_samples_per_revolution(self):
        measure_precession(exact_trajectory(h=REF_T / 8.1))
        with pytest.raises(TooFewRevolutions, match="7.90 samples per revolution"):
            measure_precession(exact_trajectory(h=REF_T / 7.9))

    def test_measured_sv_rate_near_prediction(self):
        traj = integrate(MethodId.SV, X0, V0, 0.5, 1000)
        est = measure_precession(traj)
        assert 0.059 <= est.rate_per_revolution <= 0.069
        assert est.fit_residual_rms < 0.1

    def test_reported_revolution_count(self):
        traj = exact_trajectory(n_revolutions=3.0)
        est = measure_precession(traj)
        assert_close(est.revolutions_observed, 3.0, rtol=5e-3)

    # the slope's bits do not hang on the BLAS thread count: OpenBLAS splits a
    # dot product of more than 10 000 samples across its threads, and its
    # rounding with it; 31 790 samples is the default scan's finest step
    def test_line_slope_is_independent_of_the_blas_thread_count(self):
        code = ("import numpy as np; from keplerlab.analysis import _line; "
                "k = np.arange(31790); print(_line(np.sin(0.2 * k) + 1e-6 * k)[0].hex())")
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(Path(__file__).resolve().parent.parent / "src"),
                        os.environ.get("PYTHONPATH")) if p)
        slopes = [subprocess.run([sys.executable, "-c", code], env=dict(env, **threads),
                                 capture_output=True, text=True, check=True).stdout
                  for threads in ({"OPENBLAS_NUM_THREADS": "1"}, {})]
        assert slopes[0] == slopes[1]

    # the closed-form line on the step grid against the dense estimator,
    # np.unwrap and np.polyfit on the whole run, at the scan's steps over 20
    # revolutions of the default orbit
    @pytest.mark.parametrize("method", list(MethodId), ids=lambda m: m.value)
    def test_matches_the_polyfit_estimator(self, method):
        for h in (0.0625, 0.125, 0.25, 0.5):
            traj = integrate(method, X0, V0, h, int(round(20 * REF_T / h)))
            est = measure_precession(traj)
            rate, rms = polyfit_precession(traj)
            assert abs(est.rate_per_revolution - rate) <= 1e-15, h
            assert abs(est.fit_residual_rms - rms) <= 1e-12 * rms, h

    # the angle is derived, unwrapped and fitted a chunk of rows at a time, in
    # one buffer: any chunk gives the bits of np.unwrap and the closed-form
    # line on the arrays of the whole run.  The start is the default one turned
    # by pi, so at h = 1 the apsis sits on the angle's branch cut and the angle
    # wraps within the first chunks; chunks of 64 rows end runs of 191, 192
    # and 193 samples just before, on and after a chunk edge
    CHUNK_CASES = [(rows, 200) for rows in (1, 2, 3, 7, 10**9)] + [(64, n) for n in (191, 192, 193)]

    @pytest.mark.parametrize("method", [MethodId.SV, MethodId.MP, MethodId.DEC, MethodId.FR],
                             ids=lambda m: m.value)
    def test_any_chunk_gives_the_bits_of_the_whole_run(self, monkeypatch, method):
        for rows, samples in self.CHUNK_CASES:
            steps = samples - 1 if method is MethodId.FR else samples + 1
            traj = integrate(method, PlanarVector(-X0.x1, -X0.x2), PlanarVector(-V0.x1, -V0.x2),
                             1.0, steps)
            raw = whole_run_angle(traj)
            assert len(raw) == samples and np.abs(np.diff(raw[:64])).max() > math.pi
            want = [value.hex() for value in unwrap_line_precession(traj)]
            monkeypatch.setattr(analysis, "_CHUNK_ROWS", rows)
            est = measure_precession(traj)
            got = [est.rate_per_revolution.hex(), est.fit_residual_rms.hex()]
            assert got == want, (rows, samples)


def energy_trajectory(t, energy):
    """Samples on the unit circle at t, each moving tangentially with the
    speed sqrt(2 (E + 1)) that gives it the energy E (U = -1/r = -1 there)."""
    speed = np.sqrt(2.0 * (energy + 1.0))
    X = np.stack([np.cos(t), np.sin(t)], axis=-1)
    V = speed[:, None] * np.stack([-np.sin(t), np.cos(t)], axis=-1)
    return Trajectory(MethodId.FR, t[1] - t[0], X, PlanarVector(*V[0]),
                      OrbitElements.from_shape(1.0, 0.0), velocities=V)


class TestEnergyDrift:
    def test_constant_energy(self):
        t = np.linspace(0.0, 10.0, 50)
        slope, oscillation = energy_drift(energy_trajectory(t, np.full(50, 3.3)))
        assert abs(slope) < 1e-15
        assert oscillation < 1e-15

    def test_linear_energy_is_pure_trend(self):
        t = np.linspace(0.0, 10.0, 50)
        slope, oscillation = energy_drift(energy_trajectory(t, 2.0 + 0.25 * t))
        assert_close(slope, 0.25, rtol=1e-12)
        assert oscillation < 1e-12

    def test_sine_energy_is_pure_oscillation(self):
        t = np.linspace(0.0, 20.0, 400)
        slope, oscillation = energy_drift(energy_trajectory(t, 0.01 * np.sin(2 * np.pi * t)))
        assert abs(slope) < 1e-4
        assert_close(oscillation, 0.01, rtol=0.05)

    def test_short_sv_run(self):
        traj = integrate(MethodId.SV, X0, V0, 0.1, 400)
        _, oscillation = energy_drift(traj)
        # symplectic scheme: energy oscillates but does not wander far
        assert 0.0 < oscillation < 1e-3

    def test_needs_ten_samples(self):
        traj = integrate(MethodId.SV, X0, V0, 0.1, 5)
        with pytest.raises(ValueError, match="need at least 10 samples"):
            energy_drift(traj)


class TestDiscreteAngularMomentum:
    def test_sv_conserves_exactly(self):
        traj = integrate(MethodId.SV, X0, V0, 0.1, 2000)
        ell = discrete_angular_momentum(traj)
        assert ell.shape == (2000,)
        assert np.abs(ell - ell[0]).max() / abs(ell[0]) < 1e-12

    def test_mp_conserves_its_own_form(self):
        traj = integrate(MethodId.MP, X0, V0, 0.1, 2000)
        ell = discrete_angular_momentum(traj)
        assert np.abs(ell - ell[0]).max() / abs(ell[0]) < 1e-11

    @pytest.mark.parametrize("method", [MethodId.ML, MethodId.LC])
    def test_stencils_conserve_their_forward_weight_form(self, method):
        # the c of the step that computed x_{k+1} equals the next step's b
        traj = integrate(method, X0, V0, 0.1, 2000)
        ell = discrete_angular_momentum(traj)
        assert np.abs(ell - ell[0]).max() / abs(ell[0]) < 1e-12

    def test_fr_conserves_cross_of_position_and_velocity(self):
        # fr carries velocities, and every leapfrog substep conserves x cross v
        traj = integrate(MethodId.FR, X0, V0, 0.1, 2000)
        ell = discrete_angular_momentum(traj)
        assert ell.shape == (2000,)
        assert np.abs(ell - ell[0]).max() / abs(ell[0]) < 1e-12

    def test_mp_base_form_oscillates(self):
        # without the midpoint-gradient term the mp cross product visibly
        # oscillates, which is what the corrected form removes
        traj = integrate(MethodId.MP, X0, V0, 0.1, 2000)
        X = traj.positions
        base = (X[:-1, 0] * X[1:, 1] - X[:-1, 1] * X[1:, 0]) / traj.h
        assert np.abs(base - base[0]).max() / abs(base[0]) > 1e-5

    def test_discrete_value_approximates_continuous(self):
        traj = integrate(MethodId.SV, X0, V0, 0.05, 100)
        ell = discrete_angular_momentum(traj)
        assert abs(ell[0] - (-1.35)) < 1e-3


class TestErrorCurve:
    def test_starts_at_zero(self):
        traj = integrate(MethodId.SV, X0, V0, 0.1, 50)
        t, err = error_curve(traj)
        assert err[0] == 0.0
        assert t.shape == err.shape == (51,)

    def test_exact_samples_have_negligible_error(self):
        traj = exact_trajectory(n_revolutions=2.0)
        _, err = error_curve(traj)
        assert err.max() < 1e-9

    def test_error_grows_with_coarser_step(self):
        errs = []
        for h in (0.05, 0.1, 0.2):
            n = int(round(REF_T / h))
            traj = integrate(MethodId.SV, X0, V0, h, n)
            errs.append(error_curve(traj)[1][-1])
        assert errs[0] < errs[1] < errs[2]


class TestConvergenceSlope:
    def test_exact_power_law(self):
        pts = [(h, 3.0 * h ** 2) for h in (0.5, 0.25, 0.125, 0.0625)]
        assert_close(convergence_slope(pts), 2.0, rtol=1e-12)

    def test_two_point_slope(self):
        assert_close(convergence_slope([(0.5, 0.064), (0.25, 0.016)]), 2.0,
                     rtol=1e-12)

    def test_negative_values_allowed_if_consistent(self):
        pts = [(h, -2.0 * h ** 4) for h in (0.4, 0.2, 0.1)]
        assert_close(convergence_slope(pts), 4.0, rtol=1e-12)

    def test_mixed_signs_rejected(self):
        with pytest.raises(SignChange):
            convergence_slope([(0.5, 0.1), (0.25, -0.02)])

    def test_zero_value_rejected(self):
        with pytest.raises(SignChange):
            convergence_slope([(0.5, 0.1), (0.25, 0.0)])

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            convergence_slope([(0.5, 0.1)])

    def test_nonpositive_step_rejected(self):
        with pytest.raises(ValueError):
            convergence_slope([(0.5, 0.1), (0.0, 0.01)])
