"""Discrete-time schemes for xddot = -U'(x) on the planar Kepler problem:
one weighted two-step stencil plus fr.

sv, mp, ml, lc and dec are two-step recurrences in position only (the
velocity is implicit in consecutive positions).  They are one stencil that
differs between methods only in the cycle of gradient weights it applies;
see _stencil and the table STENCILS.  fr is the fourth-order triple-jump
composition of leapfrog, a one-step map on (x, v).

Both are run-level kernels on plain floats that append n points to flat
lists: _stencil evaluates U' and its Hessian inline, solves each implicit
step by an undamped Newton iteration and carries the converged midpoint
gradient into the next step's b-term; _fr takes n fr steps.  integrate calls
one of them once per run, after init_second_point (the stencil kernel with
n = 1) for a two-step method.  Implicit solves, Newton iterations and
gradient evaluations are counted for benchmarking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np

from .errors import ConfigurationError, NearSingularity, SolverFailure
from .kepler import (
    SINGULARITY_FLOOR,
    OrbitElements,
    PlanarVector,
    State,
    _collision,
    elements_from_state,
    potential_gradient_xy,
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


@dataclass(frozen=True)
class SolverConfig:
    """Newton iteration budget for the implicit step relations."""

    tolerance: float = 1e-12
    max_iterations: int = 50

    def __post_init__(self):
        if not (self.tolerance > 0.0 and math.isfinite(self.tolerance)):
            raise ConfigurationError(f"tolerance must be positive, got {self.tolerance}")
        if self.max_iterations < 1:
            raise ConfigurationError(f"max_iterations must be >= 1, got {self.max_iterations}")


DEFAULT_SOLVER = SolverConfig()


@dataclass
class IntegrationStats:
    """Work counters of a run: implicit solves, Newton iterations (one
    Hessian evaluation each) and the gradient evaluations actually made."""

    implicit_solves: int = 0
    newton_iterations: int = 0
    gradient_evaluations: int = 0

    @property
    def avg_newton_iterations(self) -> float:
        if self.implicit_solves == 0:
            return 0.0
        return self.newton_iterations / self.implicit_solves


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

    @property
    def times(self) -> np.ndarray:
        return self.h * np.arange(len(self.positions))


def _stencil(xs: list[float], n: int, p1: float, p2: float, q1: float, q2: float,
             r1: float, r2: float, h: float, cycle: tuple[Weights, ...], phase: int,
             cfg: SolverConfig, label: str, stats: IntegrationStats) -> None:
    """Append n points of the two-step relation with weights (a, b, c),

        z - 2q + p = -h^2 [a U'(q) + b U'((p + q)/2) + c U'((q + z)/2)],

    to the flat list xs: step k = phase, ..., phase + n - 1 takes the
    weights cycle[k % len(cycle)] and advances (p, q) to (q, z).  The first
    step starts from x_prev = p, x_cur = q and the free flight r, later ones
    from r = 2q - p.  A gradient is evaluated only where its weight is
    nonzero; U' = x/|x|^3 and its Hessian (|x|^2 I - 3 x x^T)/|x|^5 are
    written out with the operations of kepler.potential_gradient_xy and
    gradient_jacobian_xy; the gradient's collision guard covers the Hessian
    at the same midpoint.  With C = r - h^2 [a U'(q) + b U'((p + q)/2)],
    z - C + c h^2 U'((q + z)/2) = 0 is solved from z = r by Newton's method
    (Jacobian I + (c h^2/2) J, J the Hessian; converged on the residual
    norm).  Its last iterate evaluated U'((q + z)/2), bit for bit the next
    step's U'((p + q)/2), so a b-term right after an implicit step reuses it.
    Failures raise NearSingularity or SolverFailure (prefixed with label).
    The run's implicit solves, Newton iterations and gradient evaluations
    are added to stats at the end.
    """
    tol, max_iter = cfg.tolerance, cfg.max_iterations
    hypot, sqrt, isfinite, floor = math.hypot, math.sqrt, math.isfinite, SINGULARITY_FLOOR
    h2 = h * h
    period = len(cycle)
    append = xs.append
    solves = iterations = gradients = 0
    c_prev = 0.0  # nonzero when (gb1, gb2) already holds U'((p + q)/2)
    gb1 = gb2 = 0.0
    for k in range(phase, phase + n):
        a, b, c = cycle[k % period]
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
            ch2 = c * h2
            half_ch2 = 0.5 * ch2
            z1, z2 = r1, r2
            for applied in range(max_iter + 1):
                m1 = 0.5 * (q1 + z1)
                m2 = 0.5 * (q2 + z2)
                r = hypot(m1, m2)
                if r < floor:
                    raise _collision(r)
                r3 = r * r * r
                gb1 = m1 / r3
                gb2 = m2 / r3
                f1 = z1 - c1 + ch2 * gb1
                f2 = z2 - c2 + ch2 * gb2
                if hypot(f1, f2) < tol:
                    break
                if applied == max_iter:
                    raise SolverFailure(f"{label}: Newton residual stayed above {tol} "
                                        f"after {max_iter} iterations")
                rr = m1 * m1 + m2 * m2
                r = sqrt(rr)
                r5 = rr * rr * r
                j11 = 1.0 + half_ch2 * ((rr - 3.0 * m1 * m1) / r5)
                j12 = half_ch2 * (-3.0 * m1 * m2 / r5)
                j22 = 1.0 + half_ch2 * ((rr - 3.0 * m2 * m2) / r5)
                det = j11 * j22 - j12 * j12
                if det == 0.0 or not isfinite(det):
                    raise SolverFailure(f"{label}: singular Newton system (det={det!r})")
                z1 -= (j22 * f1 - j12 * f2) / det
                z2 -= (j11 * f2 - j12 * f1) / det
            solves += 1
            iterations += applied
            gradients += applied + 1
        else:
            z1, z2 = c1, c2
        append(z1)
        append(z2)
        p1, p2 = q1, q2
        q1, q2 = z1, z2
        c_prev = c
        r1 = 2.0 * q1 - p1
        r2 = 2.0 * q2 - p2
    stats.implicit_solves += solves
    stats.newton_iterations += iterations
    stats.gradient_evaluations += gradients


def _fr(xs: list[float], vs: list[float], n: int, x1: float, x2: float, v1: float,
        v2: float, h: float, stats: IntegrationStats) -> None:
    """Append n triple-jump steps from (x, v) to the flat lists xs and vs;
    each is three leapfrog substeps (drift dt/2, kick dt, drift dt/2) with
    dt = (theta, 1 - 2 theta, theta) h, one gradient per kick, counted in
    stats."""
    for _ in range(n):
        for w in _FR_WEIGHTS:
            dt = w * h
            x1 += 0.5 * dt * v1
            x2 += 0.5 * dt * v2
            g1, g2 = potential_gradient_xy(x1, x2)
            v1 -= dt * g1
            v2 -= dt * g2
            x1 += 0.5 * dt * v1
            x2 += 0.5 * dt * v2
        xs.append(x1)
        xs.append(x2)
        vs.append(v1)
        vs.append(v2)
    stats.gradient_evaluations += len(_FR_WEIGHTS) * n


def init_second_point(method: MethodId, x0: PlanarVector, v0: PlanarVector, h: float,
                      cfg: SolverConfig = DEFAULT_SOLVER,
                      stats: Optional[IntegrationStats] = None) -> PlanarVector:
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
    if stats is None:
        stats = IntegrationStats()
    (x1, x2), (v1, v2) = x0, v0
    z: list[float] = []
    a, _, c = STENCILS[method].init
    _stencil(z, 1, x1, x2, x1, x2, x1 + h * v1, x2 + h * v2, h, ((0.5 * a, 0.0, c),), 0,
             cfg, "initialization", stats)
    return PlanarVector(*z)


def integrate(method: MethodId, x0: PlanarVector, v0: PlanarVector, h: float,
              n_steps: int, cfg: SolverConfig = DEFAULT_SOLVER) -> Trajectory:
    """Run n_steps of a scheme from (x0, v0) with fixed step h.

    The initial condition must describe a bound, non-radial orbit (the exact
    elements are recorded on the trajectory).  On a numerical failure the
    raised error carries .step_index (index of the point that could not be
    computed) and .partial_positions.
    """
    if not (h > 0.0 and math.isfinite(h)):
        raise ConfigurationError(f"step size must be positive, got {h}")
    if n_steps < 1:
        raise ConfigurationError(f"n_steps must be >= 1, got {n_steps}")
    x0, v0 = PlanarVector(*x0), PlanarVector(*v0)
    elements = elements_from_state(State(x0, v0, 0.0))
    stats = IntegrationStats()
    # positions (and fr's velocities) as flat float lists, x1 x2 per point
    xs = list(x0)
    try:
        if method is MethodId.FR:
            vs = list(v0)
            _fr(xs, vs, n_steps, *x0, *v0, h, stats)
            return Trajectory(method, h, _points(xs), v0, elements, _points(vs), stats)
        (p1, p2), (q1, q2) = x0, init_second_point(method, x0, v0, h, cfg, stats)
        xs.append(q1)
        xs.append(q2)
        _stencil(xs, n_steps - 1, p1, p2, q1, q2, 2.0 * q1 - p1, 2.0 * q2 - p2, h,
                 STENCILS[method].cycle, 1, cfg, "implicit step", stats)
    except (SolverFailure, NearSingularity) as err:
        point = len(xs) // 2
        err.method = method
        err.step_index = point
        err.partial_positions = _points(xs)
        detail = err.args[0] if err.args else err.__class__.__name__
        err.args = (f"{method.value} failed computing point {point}: {detail}",)
        raise
    return Trajectory(method, h, _points(xs), v0, elements, None, stats)


def _points(flat: list[float]) -> np.ndarray:
    """A flat x1 x2 list as an (n, 2) array."""
    return np.array(flat, dtype=float).reshape(-1, 2)


def reconstruct_velocities(traj: Trajectory) -> np.ndarray:
    """Finite-difference velocities of a position-only trajectory, shape
    (n+1, 2): second-order central differences inside, one-sided three-point
    stencils at the ends, one forward difference for a two-point trajectory."""
    X = traj.positions
    h = traj.h
    V = np.empty_like(X)
    if len(X) == 2:
        V[:] = (X[1] - X[0]) / h
        return V
    V[1:-1] = (X[2:] - X[:-2]) / (2.0 * h)
    V[0] = (-3.0 * X[0] + 4.0 * X[1] - X[2]) / (2.0 * h)
    V[-1] = (3.0 * X[-1] - 4.0 * X[-2] + X[-3]) / (2.0 * h)
    return V
