"""Observables extracted from discrete trajectories.

Position-only trajectories get velocities by second-order finite
differences; methods that carry velocities (fr) use them directly.  The
invariants per sample come from kepler.observable_series, the one formula
for E, L and the Laplace-Runge-Lenz vector.  The apsis angle is read off the
LRL vector per sample, unwrapped, and fitted linearly in time, which averages
out the O(h^2) oscillation of the per-sample angle and exposes the secular
drift.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import SignChange, TooFewRevolutions
from .integrators import STENCILS, Trajectory, reconstruct_velocities
from .kepler import ExactOrbit, PlanarVector, State, observable_series

# Coarser sampling aliases the LRL angle.  On the default orbit sv's rate
# over 100 revolutions rises monotonically from 40 to 7 samples per
# revolution (0.064 to 1.10), collapses to about 0 at 6 to 4 and reads -4.09
# at 3; 8 keeps one sample of margin.
MIN_SAMPLES_PER_REVOLUTION = 8


class ConservedQuantity(Enum):
    ENERGY = "energy"
    ANGULAR_MOMENTUM = "angular_momentum"
    LRL_MAGNITUDE = "lrl_magnitude"


@dataclass(frozen=True)
class PrecessionEstimate:
    """Secular apsis-rotation measurement from a trajectory."""

    rate_per_revolution: float
    fit_residual_rms: float
    revolutions_observed: float


@dataclass(frozen=True)
class DriftReport:
    """Deviation summary for one conserved quantity along a trajectory."""

    quantity: ConservedQuantity
    max_abs_deviation: float
    secular_slope: float
    oscillation_amplitude: float


def trajectory_arrays(traj: Trajectory) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(times, positions, velocities) with velocities reconstructed if absent."""
    if traj.velocities is not None:
        V = traj.velocities
    else:
        V = reconstruct_velocities(traj)
    return traj.times, traj.positions, V


def well_sampled(period: float, h: float) -> bool:
    """Whether a step h samples each revolution of the given period at least
    MIN_SAMPLES_PER_REVOLUTION times (T / h), as measure_precession needs."""
    return period / h >= MIN_SAMPLES_PER_REVOLUTION


def require_well_sampled(period: float, h: float) -> None:
    """Raise TooFewRevolutions unless well_sampled(period, h)."""
    if not well_sampled(period, h):
        raise TooFewRevolutions(
            f"trajectory has {period / h:.2f} samples per revolution (T / h); "
            f"need at least {MIN_SAMPLES_PER_REVOLUTION}"
        )


def measure_precession(traj: Trajectory) -> PrecessionEstimate:
    """Least-squares secular rate of the unwrapped LRL angle.

    Needs at least two revolutions of the underlying orbit, sampled at least
    MIN_SAMPLES_PER_REVOLUTION times per revolution (T / h); raises
    TooFewRevolutions for a trajectory too short or too coarse.  When
    velocities are reconstructed by differences, the one-sided endpoint
    samples are dropped from the fit (their reconstruction error is an order
    larger than the interior one and they would bias short fits).
    """
    t, X, V = trajectory_arrays(traj)
    period = traj.elements.T
    span = t[-1] - t[0]
    if span < 2.0 * period:
        raise TooFewRevolutions(
            f"trajectory covers {span / period:.2f} revolutions; need at least 2"
        )
    require_well_sampled(period, traj.h)
    if traj.velocities is None and len(t) > 4:
        t, X, V = t[1:-1], X[1:-1], V[1:-1]
    _, _, lrl_a, lrl_b = observable_series(X, V)
    omega = np.unwrap(np.arctan2(lrl_b, lrl_a))
    slope, intercept = np.polyfit(t, omega, 1)
    residual = omega - (slope * t + intercept)
    return PrecessionEstimate(
        rate_per_revolution=float(slope * period),
        fit_residual_rms=float(np.sqrt(np.mean(residual ** 2))),
        revolutions_observed=float(span / period),
    )


def series_drift(times: np.ndarray, values: np.ndarray,
                 quantity: ConservedQuantity) -> DriftReport:
    """Drift summary of a scalar time series: max deviation from the initial
    value, least-squares secular slope, and detrended half peak-to-peak."""
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    if len(t) != len(y) or len(t) < 2:
        raise ValueError("need two equal-length arrays with at least 2 samples")
    slope, intercept = np.polyfit(t, y, 1)
    detrended = y - (slope * t + intercept)
    return DriftReport(
        quantity=quantity,
        max_abs_deviation=float(np.max(np.abs(y - y[0]))),
        secular_slope=float(slope),
        oscillation_amplitude=float(0.5 * (detrended.max() - detrended.min())),
    )


def invariant_drift(traj: Trajectory, quantity: ConservedQuantity) -> DriftReport:
    """Drift report for energy, angular momentum, or |LRL| along a trajectory."""
    t, X, V = trajectory_arrays(traj)
    if len(t) < 10:
        raise ValueError(f"need at least 10 samples, got {len(t)}")
    energy, angmom, lrl_a, lrl_b = observable_series(X, V)
    series = {
        ConservedQuantity.ENERGY: energy,
        ConservedQuantity.ANGULAR_MOMENTUM: angmom,
        ConservedQuantity.LRL_MAGNITUDE: np.hypot(lrl_a, lrl_b),
    }[quantity]
    return series_drift(t, series, quantity)


def discrete_angular_momentum(traj: Trajectory) -> np.ndarray:
    """Per-interval discrete angular momentum, in the form the scheme conserves.

    With velocities (fr) it is cross(x_k, v_k) for k = 0 .. N-1, which every
    leapfrog substep conserves.  Without, the base quantity is
    cross(x_k, x_{k+1})/h, which sv conserves exactly.
    A stencil adds (c h/2) cross(x_k, x_{k+1}) / |m_k|^3, with m_k the midpoint
    and c the forward weight of the step that computed x_{k+1} (the
    initializer's for k = 0).  That is conserved while c equals the next
    step's b: for sv, mp, ml and lc; not for dec (phase-1 c = 0, phase-2 b = 1/2).
    """
    X = traj.positions
    if traj.velocities is not None:
        return observable_series(X[:-1], traj.velocities[:-1])[1]
    h = traj.h
    cross = X[:-1, 0] * X[1:, 1] - X[:-1, 1] * X[1:, 0]
    ell = cross / h
    stencil = STENCILS.get(traj.method)
    if stencil is not None:
        c = np.array([w[2] for w in stencil.cycle])[np.arange(len(cross)) % len(stencil.cycle)]
        c[0] = stencil.init[2]
        rm3 = np.hypot(*(0.5 * (X[:-1] + X[1:])).T) ** 3
        ell = ell + 0.5 * c * h * cross / rm3
    return ell


def error_curve(traj: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """Euclidean position error against the closed-form orbit per sample."""
    initial = State(PlanarVector(*traj.positions[0]), traj.start_velocity, 0.0)
    orbit = ExactOrbit(initial)
    t = traj.times
    X_exact, _ = orbit.states_at(t)
    err = np.hypot(traj.positions[:, 0] - X_exact[:, 0],
                   traj.positions[:, 1] - X_exact[:, 1])
    # The orbit is seeded with the trajectory's own initial point, so the
    # t = 0 residual is zero by construction; the Kepler-solve roundtrip
    # would otherwise inject ~1e-16 of noise into an identically-zero cell.
    err[0] = 0.0
    return t, err


def convergence_slope(points: Sequence[tuple[float, float]]) -> float:
    """Least-squares slope of log|value| against log h.

    Needs at least two (h, value) pairs, all values nonzero and of one
    sign; mixed signs mean the data straddles a cancellation and the slope
    would be meaningless.
    """
    if len(points) < 2:
        raise ValueError(f"need at least 2 points, got {len(points)}")
    h = np.array([p[0] for p in points], dtype=float)
    val = np.array([p[1] for p in points], dtype=float)
    if np.any(h <= 0.0):
        raise ValueError("step sizes must be positive")
    if np.any(val == 0.0) or (np.any(val > 0.0) and np.any(val < 0.0)):
        raise SignChange("values must be nonzero and share one sign")
    slope, _ = np.polyfit(np.log(h), np.log(np.abs(val)), 1)
    return float(slope)
