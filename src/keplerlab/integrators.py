"""Discrete-time schemes for xddot = -U'(x) on the planar Kepler problem:
one weighted two-step stencil plus fr.

sv, mp, ml, lc and dec are two-step recurrences in position only (the
velocity is implicit in consecutive positions).  They are one stencil that
differs between methods only in the cycle of gradient weights it applies;
see _stencil and the table STENCILS.  fr is the fourth-order triple-jump
composition of leapfrog, a one-step map on (x, v).

Both are run-level kernels on plain floats that compute each constant of
the run once and write n points into preallocated arrays, _CHUNK_STEPS at a
time: _stencil evaluates U' inline and solves each implicit step as one
scalar equation.  The force is central, so the forward midpoint lies along
a vector the step already knows, and Newton's method runs on its radius
alone, stopped at a residual relative to the step's size; the midpoint's
gradient is carried into the next step's b-term.  _fr takes n fr steps with
U' inline.  integrate calls one of them once per run, into the trajectory's
arrays, after init_second_point (the stencil kernel with n = 1) for a
two-step method, and decides where a failed run stopped.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np

from .errors import ConfigurationError, NearSingularity, NumericalFailure, SolverFailure
from .kepler import (
    SINGULARITY_FLOOR,
    ExactOrbit,
    OrbitElements,
    PlanarVector,
    State,
    _collision,
    elements_from_state,
)

class MethodId(Enum):
    SV = "sv"
    MP = "mp"
    ML = "ml"
    LC = "lc"
    DEC = "dec"
    FR = "fr"

    @classmethod
    def parse(cls, name: str) -> "MethodId":
        try:
            return cls(name.strip().lower())
        except ValueError:
            known = ", ".join(m.value for m in cls)
            raise ConfigurationError(
                f"unknown method {name!r}; expected one of: {known}"
            ) from None


# Gradient weights (a, b, c) of the two-step relation at x_cur, at the
# backward midpoint and at the forward midpoint; see _stencil.
Weights = tuple[float, float, float]


class Stencil(NamedTuple):
    """A two-step method: the weights of its initializer, and the weights
    cycle[k % len(cycle)] of the step that computes x_{k+1}."""

    init: Weights
    cycle: tuple[Weights, ...]


_SV = (1.0, 0.0, 0.0)
_MP = (0.0, 0.5, 0.5)
_ML = (2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0)

STENCILS = {
    MethodId.SV: Stencil(_SV, (_SV,)),  # explicit central difference (stormer-verlet)
    MethodId.MP: Stencil(_MP, (_MP,)),  # implicit midpoint-averaged gradient
    MethodId.ML: Stencil(_ML, (_ML,)),  # 2/3 sv + 1/3 mp mixture of the gradient terms
    # explicit lookback-midpoint, sv, implicit forward midpoint
    MethodId.LC: Stencil(_SV, ((0.5, 0.5, 0.0), _SV, (0.5, 0.0, 0.5))),
    MethodId.DEC: Stencil(_SV, (_SV, _SV, _MP)),  # sv with every third step mp
}

# Triple-jump composition weights: theta = 1/(2 - 2^(1/3)), the unique real
# solution making the h^3 error terms of the three leapfrog substeps cancel.
FR_THETA = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_FR_WEIGHTS = (FR_THETA, 1.0 - 2.0 * FR_THETA, FR_THETA)


# Newton budget of every implicit solve (see _stencil).  The implicit methods
# keep their discrete invariants only if each solve ends at round-off, and a
# tolerance below round-off cannot be met: the tolerance has this one value.
NEWTON_TOLERANCE = 1e-15
NEWTON_MAX_ITERATIONS = 50

# The longest run integrate accepts: 30 times the 31,800 steps of the longest
# scan cell, far below a count that never finishes, as h = 1e-300 over a unit
# span asks for.  At 10^6 steps integrate peaks near 47 MB (sv) and 63 MB
# (fr), 28 MB of it the import; `keplerlab simulate` and `error-curve`,
# which derive and write their rows in fixed-size chunks, peak near the
# same (48 MB for sv, CSV, 65 MB for fr, JSON, 48 MB for error-curve dec),
# and `precession`, which adds the angle and its fit's grid, near 61 MB
# (sv) and 79 MB (fr).
MAX_STEPS = 10**6

# Steps a kernel takes between copies of its points into the trajectory's
# arrays, so that a run holds a short list of floats, not one per step.
_CHUNK_STEPS = 4096


@dataclass
class IntegrationStats:
    """Work counters of a run: implicit solves, Newton iterations (updates
    of a midpoint radius, applied) and the gradient evaluations actually made."""

    implicit_solves: int = 0
    newton_iterations: int = 0
    gradient_evaluations: int = 0


@dataclass
class Trajectory:
    """Discrete solution: positions x_0 .. x_N at times k h.

    Velocities are stored only when the method produces them (fr); position-
    only methods leave them None and downstream consumers reconstruct by
    finite differences.  `elements` describe the exact orbit of the initial
    condition, kept for reference-solution comparisons.
    """

    method: MethodId
    h: float
    positions: np.ndarray
    start_velocity: PlanarVector
    elements: OrbitElements
    velocities: Optional[np.ndarray] = None
    stats: IntegrationStats = field(default_factory=IntegrationStats)

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        if self.positions.ndim != 2 or self.positions.shape[1] != 2:
            raise ValueError("positions must have shape (n, 2)")
        if len(self.positions) < 2:
            raise ValueError("a trajectory needs at least two points")
        if self.velocities is not None:
            self.velocities = np.asarray(self.velocities, dtype=float)
            if self.velocities.shape != self.positions.shape:
                raise ValueError("velocities must match positions in shape")

    @property
    def n_steps(self) -> int:
        return len(self.positions) - 1

    @functools.cached_property
    def exact_orbit(self) -> ExactOrbit:
        """The closed-form orbit of the start, built once for error_curve."""
        return ExactOrbit(State(PlanarVector(*self.positions[0]), self.start_velocity, 0.0))


def _stencil(out: np.ndarray, n: int, p1: float, p2: float, q1: float, q2: float,
             r1: float, r2: float, h: float, cycle: tuple[Weights, ...], phase: int,
             label: str, stats: IntegrationStats) -> None:
    """Write n points of the two-step relation with weights (a, b, c),

        z - 2q + p = -h^2 [a U'(q) + b U'((p + q)/2) + c U'((q + z)/2)],

    into the rows of out: step k = phase, ..., phase + n - 1 takes the
    weights cycle[k % len(cycle)] and advances (p, q) to (q, z).  The first
    step starts from x_prev = p, x_cur = q and the free flight r, later ones
    from r = 2q - p.  A gradient is evaluated only where its weight is
    nonzero, with U' = x/|x|^3 inline behind the collision guard.
    With C = r - h^2 [a U'(q) + b U'((p + q)/2)], B = (q + C)/2 and
    kappa = c h^2/2, the forward midpoint m = (q + z)/2 solves
    m (1 + kappa/|m|^3) = B: m = (rho/beta) B, beta = |B|, where
    phi(rho) = rho + kappa/rho^2 - beta, half the planar residual of z, is 0.
    phi is convex and least at rho = (2 kappa)^(1/3), where phi + beta is the
    fold (3/2) (2 kappa)^(1/3).  Two steps of rho <- beta - kappa/rho^2 from
    beta start right of the root, and Newton's method falls monotonically to
    it, stopped once 2 phi < NEWTON_TOLERANCE beta (scale-free) within
    NEWTON_MAX_ITERATIONS updates, both read at each call.  Then z = 2m - q,
    and U'(m) = m/rho^3, U'((q + z)/2) to round-off but not bit for bit, is
    carried into a b-term right after an implicit step.  A non-finite B, a
    spent budget or beta at or below the fold (phi' <= 0, or rho inside the
    collision guard: no solution) raise SolverFailure, a rho inside the guard
    above the fold NearSingularity, prefixed with label.  The rows
    (a, b, c, kappa), turned to start at phase, are built once.  The points
    gather in a list copied into out every _CHUNK_STEPS steps and at a
    failure, which then carries .filled, the rows written.  The run's implicit
    solves, Newton updates and gradient evaluations (m/rho^3 is one) are
    added to stats at the end.
    """
    tol, max_iter = NEWTON_TOLERANCE, NEWTON_MAX_ITERATIONS
    hypot, inf, floor = math.hypot, math.inf, SINGULARITY_FLOOR
    h2 = h * h
    half_tol = 0.5 * tol
    rows = [(a, b, c, 0.5 * c * h2) for a, b, c in cycle]
    k = phase % len(rows)
    steps = itertools.cycle(rows[k:] + rows[:k])
    points: list[float] = []  # x1 x2 per point
    filled = solves = iterations = gradients = 0
    c_prev = 0.0  # nonzero when (gb1, gb2) already holds U'((p + q)/2)
    gb1 = gb2 = 0.0
    try:
        for start in range(0, n, _CHUNK_STEPS):
            for a, b, c, kappa in itertools.islice(steps, min(_CHUNK_STEPS, n - start)):
                f1 = f2 = 0.0
                if a:
                    r = hypot(q1, q2)
                    if r < floor:
                        raise _collision(r)
                    r3 = r * r * r
                    f1 += a * (q1 / r3)
                    f2 += a * (q2 / r3)
                    gradients += 1
                if b:
                    if not c_prev:
                        m1 = 0.5 * (p1 + q1)
                        m2 = 0.5 * (p2 + q2)
                        r = hypot(m1, m2)
                        if r < floor:
                            raise _collision(r)
                        r3 = r * r * r
                        gb1 = m1 / r3
                        gb2 = m2 / r3
                        gradients += 1
                    f1 += b * gb1
                    f2 += b * gb2
                c1 = r1 - h2 * f1
                c2 = r2 - h2 * f2
                if c:
                    b1 = 0.5 * (q1 + c1)
                    b2 = 0.5 * (q2 + c2)
                    beta = hypot(b1, b2)
                    if not beta < inf:
                        raise SolverFailure(f"{label}: the explicit part of the step is not "
                                            f"finite (|(q + C)/2| = {beta})")
                    limit = half_tol * beta
                    rho = beta
                    if rho >= floor:
                        rho = beta - kappa / (rho * rho)
                        if rho >= floor:
                            rho = beta - kappa / (rho * rho)
                    applied = 0
                    while True:
                        if rho < floor:
                            raise _midpoint_failure(label, beta, kappa, rho)
                        rr = rho * rho
                        phi = rho + kappa / rr - beta
                        if phi < limit:
                            break
                        if applied == max_iter:
                            raise SolverFailure(f"{label}: Newton residual stayed above {tol} "
                                                f"|B| after {max_iter} iterations")
                        slope = 1.0 - 2.0 * kappa / (rr * rho)
                        if slope <= 0.0:
                            raise _midpoint_failure(label, beta, kappa)
                        rho -= phi / slope
                        applied += 1
                    r3 = rr * rho
                    s = rho / beta
                    m1 = s * b1
                    m2 = s * b2
                    gb1 = m1 / r3
                    gb2 = m2 / r3
                    z1 = 2.0 * m1 - q1
                    z2 = 2.0 * m2 - q2
                    solves += 1
                    iterations += applied
                    gradients += 1
                else:
                    z1, z2 = c1, c2
                points.append(z1)
                points.append(z2)
                p1, p2 = q1, q2
                q1, q2 = z1, z2
                c_prev = c
                r1 = 2.0 * q1 - p1
                r2 = 2.0 * q2 - p2
            filled = _flush(points, filled, out)
    except NumericalFailure as err:
        err.filled = _flush(points, filled, out)
        raise
    stats.implicit_solves += solves
    stats.newton_iterations += iterations
    stats.gradient_evaluations += gradients


def _midpoint_failure(label: str, beta: float, kappa: float,
                      rho: Optional[float] = None) -> NumericalFailure:
    """Why an implicit step has no forward midpoint: no solution where Newton's
    slope gave out (rho None) or beta is at or below the fold, else a collision."""
    fold = 1.5 * (2.0 * kappa) ** (1.0 / 3.0)
    if rho is None or beta <= fold:
        return SolverFailure(f"{label}: the step has no solution: |(q + C)/2| = {beta:.6g} is "
                             f"at or below the fold {fold:.6g}")
    return NearSingularity(f"{label}: the forward midpoint's radius fell to {rho:.3e}, inside "
                           f"the collision guard {SINGULARITY_FLOOR:.3e}")


def _fr(xs: np.ndarray, vs: np.ndarray, n: int, x1: float, x2: float, v1: float,
        v2: float, h: float, stats: IntegrationStats) -> None:
    """Write n triple-jump steps from (x, v) into the rows of xs and vs; each
    is three leapfrog substeps (drift dt/2, kick dt, drift dt/2) with
    dt = (theta, 1 - 2 theta, theta) h, whose (dt/2, dt) are built once, one
    gradient per kick, counted in stats; U' = x/|x|^3 is written out in the
    kick, behind the collision guard.  The points reach xs and vs as in
    _stencil, with .filled on a failure."""
    hypot, floor = math.hypot, SINGULARITY_FLOOR
    substeps = [(0.5 * (w * h), w * h) for w in _FR_WEIGHTS]
    points: list[float] = []  # x1 x2 v1 v2 per point
    filled = 0
    try:
        for start in range(0, n, _CHUNK_STEPS):
            for _ in range(min(_CHUNK_STEPS, n - start)):
                for half, dt in substeps:
                    x1 += half * v1
                    x2 += half * v2
                    r = hypot(x1, x2)
                    if r < floor:
                        raise _collision(r)
                    r3 = r * r * r
                    v1 -= dt * (x1 / r3)
                    v2 -= dt * (x2 / r3)
                    x1 += half * v1
                    x2 += half * v2
                points.append(x1)
                points.append(x2)
                points.append(v1)
                points.append(v2)
            filled = _flush(points, filled, xs, vs)
    except NumericalFailure as err:
        err.filled = _flush(points, filled, xs, vs)
        raise
    stats.gradient_evaluations += len(_FR_WEIGHTS) * n


def _flush(flat: list[float], start: int, *outs: np.ndarray) -> int:
    """Copy flat, an x1 x2 pair for each array of outs per point, into their
    rows from start on; empty flat and return the row after the last written."""
    points = np.fromiter(flat, float, len(flat)).reshape(-1, 2 * len(outs))
    for i, out in enumerate(outs):
        out[start:start + len(points)] = points[:, 2 * i:2 * i + 2]
    flat.clear()
    return start + len(points)


def init_second_point(method: MethodId, x0: PlanarVector, v0: PlanarVector, h: float,
                      stats: IntegrationStats) -> PlanarVector:
    """First trajectory point after x0.

    For a two-step method with initializer weights (a, b, c) it is chosen
    so the method's own discrete momentum at step 0 equals v0:

        (x1 - x0)/h + h [ (a/2) U'(x0) + c U'((x0 + x1)/2) ] = v0,

    explicit when c = 0: one stencil step with the weights (a/2, 0, c) from
    p = q = x0 and the free flight x0 + h v0.  fr, a one-step map, has no
    initializer and raises ConfigurationError.
    """
    if method is MethodId.FR:
        raise ConfigurationError("fr is a one-step method: it has no second-point initializer")
    (x1, x2), (v1, v2) = x0, v0
    z = np.empty((1, 2))
    a, _, c = STENCILS[method].init
    _stencil(z, 1, x1, x2, x1, x2, x1 + h * v1, x2 + h * v2, h, ((0.5 * a, 0.0, c),), 0,
             "initialization", stats)
    return PlanarVector(*z[0].tolist())


def integrate(method: MethodId, x0: PlanarVector, v0: PlanarVector, h: float,
              n_steps: int) -> Trajectory:
    """Run n_steps of a scheme from (x0, v0) with fixed step h, each implicit
    step solved within the Newton budget (NEWTON_TOLERANCE, NEWTON_MAX_ITERATIONS).
    n_steps above MAX_STEPS raises ConfigurationError before any step.

    x0, v0 and h are taken as Python floats, which the kernels run fastest on.
    The initial condition must describe a bound, non-radial orbit (the exact
    elements are recorded on the trajectory).  A numerical failure carries
    .step_index, where the run stopped, and .partial_positions, the points
    before it.  The first non-finite point wins over a later kernel failure,
    which it chains as the cause of "the state is no longer finite".
    """
    if not (h > 0.0 and math.isfinite(h)):
        raise ConfigurationError(f"step size must be positive, got {h}")
    if n_steps < 1:
        raise ConfigurationError(f"n_steps must be >= 1, got {n_steps}")
    if n_steps > MAX_STEPS:
        raise ConfigurationError(
            f"{n_steps:.10g} steps of h = {h:g} exceed the bound MAX_STEPS = {MAX_STEPS}")
    h, x0, v0 = float(h), PlanarVector(*map(float, x0)), PlanarVector(*map(float, v0))
    elements = elements_from_state(State(x0, v0, 0.0))
    stats = IntegrationStats()
    positions = np.empty((n_steps + 1, 2))
    velocities = np.empty_like(positions) if method is MethodId.FR else None
    positions[0] = x0
    filled, failure = 1, None  # rows of positions written, and why the run stopped
    try:
        if velocities is not None:
            velocities[0] = v0
            _fr(positions[1:], velocities[1:], n_steps, *x0, *v0, h, stats)
        else:
            (p1, p2), (q1, q2) = x0, init_second_point(method, x0, v0, h, stats)
            positions[1], filled = (q1, q2), 2
            _stencil(positions[2:], n_steps - 1, p1, p2, q1, q2, 2.0 * q1 - p1, 2.0 * q2 - p2,
                     h, STENCILS[method].cycle, 1, "implicit step", stats)
        filled = n_steps + 1
    except NumericalFailure as err:
        filled, failure = filled + err.filled, err
    # positions and velocities apart, so that no (n, 4) copy is made
    finite = np.isfinite(positions[:filled]).all(axis=1)
    if velocities is not None:
        finite &= np.isfinite(velocities[:filled]).all(axis=1)
    if finite.all():
        if failure is None:
            return Trajectory(method, h, positions, v0, elements, velocities, stats)
        point = filled
    else:
        point = int(np.argmin(finite))
        cause, failure = failure, NumericalFailure("the state is no longer finite")
        failure.__cause__ = cause
    failure.method = method
    failure.step_index = point
    failure.partial_positions = positions[:point]
    detail = failure.args[0] if failure.args else failure.__class__.__name__
    failure.args = (f"{method.value} failed computing point {point}: {detail}",)
    raise failure


def reconstruct_velocities(traj: Trajectory, lo: int = 0, hi: Optional[int] = None) -> np.ndarray:
    """Finite-difference velocities of a position-only trajectory at rows
    [lo, hi), all n+1 by default, shape (hi - lo, 2): second-order central
    differences inside, one-sided three-point stencils at the trajectory's
    ends, one forward difference for a two-point trajectory.  A row reads
    its neighbours whatever the range: ranges give the whole run's bits."""
    X = traj.positions
    h, n = traj.h, len(X)
    hi = n if hi is None else hi
    V = np.empty((hi - lo, 2))
    if n == 2:
        V[:] = (X[1] - X[0]) / h
        return V
    a, b = max(lo, 1), min(hi, n - 1)  # the interior rows of the range
    V[a - lo:b - lo] = (X[a + 1:b + 1] - X[a - 1:b - 1]) / (2.0 * h)
    if lo == 0:
        V[0] = (-3.0 * X[0] + 4.0 * X[1] - X[2]) / (2.0 * h)
    if hi == n:
        V[-1] = (3.0 * X[-1] - 4.0 * X[-2] + X[-3]) / (2.0 * h)
    return V
