"""Observables extracted from discrete trajectories.

Position-only trajectories get velocities by second-order finite
differences; methods that carry velocities (fr) use them directly.  The
invariants per sample come from kepler.observable_series, the one formula
for E, L and the Laplace-Runge-Lenz vector.  The apsis angle is read off the
LRL vector per sample, unwrapped, and fitted with the closed-form
least-squares line on the uniform step grid (as the energy is in
energy_drift), which averages out the O(h^2) oscillation of the per-sample
angle and exposes the secular drift.  trajectory_arrays and error_curve
take a row range, the whole run by default, so that an output can be
derived a chunk at a time; measure_precession so derives and unwraps the
angle into one buffer, which the fit then overwrites.
require_measurable decides from the period, the step and the step count
alone whether a run can be measured, so a caller can ask before it
integrates.  energy_drift summarises the energy, whose boundedness is the
symplectic schemes' claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import SignChange, TooFewRevolutions
from .integrators import STENCILS, Trajectory, reconstruct_velocities
from .kepler import observable_series

# Coarser sampling aliases the LRL angle.  On the default orbit sv's rate
# over 100 revolutions rises monotonically from 40 to 7 samples per
# revolution (0.064 to 1.10), collapses to about 0 at 6 to 4 and reads -4.09
# at 3; 8 keeps one sample of margin.
MIN_SAMPLES_PER_REVOLUTION = 8

# Rows whose LRL angle measure_precession derives and unwraps at a time
_CHUNK_ROWS = 4096


@dataclass(frozen=True)
class PrecessionEstimate:
    """Secular apsis-rotation measurement from a trajectory."""

    rate_per_revolution: float
    fit_residual_rms: float
    revolutions_observed: float


def trajectory_arrays(traj: Trajectory, lo: int = 0, hi: Optional[int] = None
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(times, positions, velocities) at rows [lo, hi), all by default, with
    velocities reconstructed if absent."""
    hi = len(traj.positions) if hi is None else hi
    if traj.velocities is not None:
        V = traj.velocities[lo:hi]
    else:
        V = reconstruct_velocities(traj, lo, hi)
    return traj.h * np.arange(lo, hi), traj.positions[lo:hi], V


def well_sampled(period: float, h: float) -> bool:
    """Whether a step h samples each revolution of the given period at least
    MIN_SAMPLES_PER_REVOLUTION times (T / h), as require_measurable needs."""
    return period / h >= MIN_SAMPLES_PER_REVOLUTION


def require_measurable(period: float, h: float, n_steps: int) -> None:
    """Raise TooFewRevolutions unless a run of n_steps steps of size h covers
    at least two revolutions of the given period and is well_sampled.  It
    needs no trajectory, so a caller can ask before integrating."""
    span = n_steps * h
    if span < 2.0 * period:
        raise TooFewRevolutions(
            f"trajectory covers {span / period:.2f} revolutions; need at least 2"
        )
    if not well_sampled(period, h):
        raise TooFewRevolutions(
            f"trajectory has {period / h:.2f} samples per revolution (T / h); "
            f"need at least {MIN_SAMPLES_PER_REVOLUTION}"
        )


def _line(y: np.ndarray) -> tuple[float, np.ndarray]:
    """Least-squares line through samples y at k = 0 .. m-1, in closed form
    on that uniform grid: its slope per sample, and y's residual about it,
    which overwrites y.  The centred grid is built twice rather than kept,
    so the fit holds 16 B per sample at its peak, y included."""
    m = len(y)
    y -= y.mean()
    k = np.arange(0.5 * (1 - m), 0.5 * m)  # each i - (m - 1)/2, exactly
    k *= y
    # a reduction, not the BLAS dot product, whose rounding hangs on its thread count
    slope = float(np.add.reduce(k)) / (m * (m * m - 1) / 12)
    del k
    k = np.arange(0.5 * (1 - m), 0.5 * m)
    k *= slope
    y -= k
    return slope, y


def measure_precession(traj: Trajectory) -> PrecessionEstimate:
    """Least-squares secular rate of the unwrapped LRL angle.

    Raises TooFewRevolutions first, through require_measurable, for a
    trajectory too short or too coarse to measure.  When velocities are
    reconstructed by differences, only the central-difference rows 1 .. n-1
    are read and fitted (the one-sided endpoints' reconstruction error is an
    order larger than the interior one and they would bias short fits).
    The angle is derived and unwrapped _CHUNK_ROWS at a time into one
    buffer, with np.unwrap's arithmetic and bits, and _line fits it in
    place: beyond the trajectory the peak is 16 B per sample.
    """
    period, h, n = traj.elements.T, traj.h, traj.n_steps
    require_measurable(period, h, n)
    cut = int(traj.velocities is None)
    omega = np.empty(n + 1 - 2 * cut)
    last, carry = None, 0.0
    for lo in range(0, len(omega), _CHUNK_ROWS):
        _, X, V = trajectory_arrays(traj, cut + lo, cut + min(lo + _CHUNK_ROWS, len(omega)))
        _, _, lrl_a, lrl_b = observable_series(X, V)
        chunk = np.arctan2(lrl_b, lrl_a, out=omega[lo:lo + len(X)])
        # np.unwrap's arithmetic, the first difference against the last chunk's raw angle
        dd = np.diff(chunk, prepend=last) if lo else np.diff(chunk)
        last = chunk[-1]
        fix = np.mod(dd + np.pi, 2 * np.pi) - np.pi
        np.copyto(fix, np.pi, where=(fix == -np.pi) & (dd > 0))
        fix -= dd
        np.copyto(fix, 0.0, where=np.abs(dd) < np.pi)
        # add.accumulate is sequential: carried on from the last chunk's sum, it keeps the bits
        fix = np.cumsum(np.concatenate(([carry], fix)))
        carry = fix[-1]
        chunk[len(chunk) - len(dd):] += fix[1:]
    slope, residual = _line(omega)
    return PrecessionEstimate(
        rate_per_revolution=slope / h * period,
        fit_residual_rms=float(np.sqrt(np.mean(np.square(residual, out=residual)))),
        revolutions_observed=float(h * n / period),
    )


def energy_drift(traj: Trajectory) -> tuple[float, float]:
    """(secular_slope, oscillation_amplitude) of the energy along a
    trajectory: the slope in time of the least-squares line on the step
    grid, and half the peak-to-peak of the series about that line."""
    t, X, V = trajectory_arrays(traj)
    if len(t) < 10:
        raise ValueError(f"need at least 10 samples, got {len(t)}")
    slope, detrended = _line(observable_series(X, V)[0])
    return slope / traj.h, float(0.5 * (detrended.max() - detrended.min()))


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


def error_curve(traj: Trajectory, lo: int = 0, hi: Optional[int] = None
                ) -> tuple[np.ndarray, np.ndarray]:
    """Times and Euclidean position errors against the closed-form orbit at
    rows [lo, hi), all by default."""
    hi = len(traj.positions) if hi is None else hi
    t, X = traj.h * np.arange(lo, hi), traj.positions[lo:hi]
    X_exact, _ = traj.exact_orbit.states_at(t)
    err = np.hypot(X[:, 0] - X_exact[:, 0], X[:, 1] - X_exact[:, 1])
    # The orbit is seeded with the trajectory's own initial point, so the
    # t = 0 residual is zero by construction; the Kepler-solve roundtrip
    # would otherwise inject ~1e-16 of noise into an identically-zero cell.
    if lo == 0:
        err[:1] = 0.0
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
