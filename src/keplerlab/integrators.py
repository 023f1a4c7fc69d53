"""Discrete-time schemes for xddot = -U'(x) on the planar Kepler problem:
one weighted two-step stencil plus fr.

sv, mp, ml, lc and dec are two-step recurrences in position only (the
velocity is implicit in consecutive positions).  They are one stencil that
differs between methods only in the cycle of gradient weights it applies;
see _stencil and the table STENCILS.  fr is the fourth-order triple-jump
composition of leapfrog, a one-step map on (x, v).

Both are run-level kernels on plain floats that compute each constant of the
run once and store each of n points straight into a preallocated array,
through a float memoryview of it.  _stencil runs each weight cycle in its
own straight-line code, generated from the rows once per process: U' is
evaluated inline where a weight is nonzero, and each implicit step is solved
as one scalar equation.  The force is central, so the forward midpoint lies
along a vector the step already knows, and Newton's method runs on its
radius alone, stopped at a residual relative to the step's size; the
midpoint's gradient is carried into the next step's b-term.  _fr takes n fr
steps, its three leapfrog substeps written out, with U' inline.  integrate
calls one of them once per run, into the run's one state array (rows x1 x2,
and v1 v2 for fr), after init_second_point (the stencil kernel with n = 1)
for a two-step method, and decides where a failed run stopped.
"""

from __future__ import annotations

import functools
import math
import numbers
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
# span asks for.  At 10^6 steps integrate peaks near 44 MB (sv) and 59 MB
# (fr), 28 MB of it the import; `keplerlab simulate` and `error-curve`,
# which derive and write their rows in fixed-size chunks, peak near the
# same (46 MB for sv, CSV, 62 MB for fr, JSON, 46 MB for error-curve dec),
# and `precession`, which adds the angle and its fit's grid, near 61 MB
# (sv) and 76 MB (fr).
MAX_STEPS = 10**6

# Rows of a run's states that integrate checks for finiteness at once, so that
# the check's masks are bounded by a block, not by the run.
_FINITE_ROWS = 4096


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
    from r = 2q - p.  The steps are taken by _stencil_kernel's kernel of the
    cycle turned to start at phase, whose counters are added to stats; n = 0
    writes nothing (a memoryview of an empty out cannot be cast) and counts 0.
    """
    if not n:
        return
    k = phase % len(cycle)
    kernel = _stencil_kernel(tuple(cycle[k:]) + tuple(cycle[:k]))
    solves, iterations, gradients = kernel(out, n, p1, p2, q1, q2, r1, r2, h, label)
    stats.implicit_solves += solves
    stats.newton_iterations += iterations
    stats.gradient_evaluations += gradients


# One step of a stencil kernel.  A line is emitted where its tag holds: a for
# a != 0 (U'(q), radius r), f for a b-gradient evaluated afresh (radius rb), c
# for an implicit step, p where the next row's fresh b-gradient reads p, z always.
_STEP = """\
a  r = hypot(q1, q2)
a  if r < floor:
a      raise _collision(r)
a  r3 = r * r * r
f  m1 = 0.5 * (p1 + q1)
f  m2 = 0.5 * (p2 + q2)
f  rb = hypot(m1, m2)
f  if rb < floor:
f      raise _collision(rb)
f  rb3 = rb * rb * rb
f  gb1 = m1 / rb3
f  gb2 = m2 / rb3
z  z1 = r1 - h2 * (%(force1)s)
z  z2 = r2 - h2 * (%(force2)s)
c  b1 = 0.5 * (q1 + z1)
c  b2 = 0.5 * (q2 + z2)
c  beta = hypot(b1, b2)
c  if not beta < inf:
c      raise SolverFailure(f"{label}: the explicit part of the step is not "
c                          f"finite (|(q + C)/2| = {beta})")
c  limit = half_tol * beta
c  rho = beta
c  if rho >= floor:
c      rho = beta - %(kappa)s / (rho * rho)
c      if rho >= floor:
c          rho = beta - %(kappa)s / (rho * rho)
c  budget = iterations + max_iter
c  while True:
c      if rho < floor:
c          raise _midpoint_failure(label, beta, %(kappa)s, rho)
c      rr = rho * rho
c      phi = rho + %(kappa)s / rr - beta
c      if phi < limit:
c          break
c      if iterations == budget:
c          raise SolverFailure(f"{label}: Newton residual stayed above {tol} "
c                              f"|B| after {max_iter} iterations")
c      slope = 1.0 - %(twokappa)s / (rr * rho)
c      if slope <= 0.0:
c          raise _midpoint_failure(label, beta, %(kappa)s)
c      rho -= phi / slope
c      iterations += 1
c  rb3 = rr * rho
c  s = rho / beta
c  m1 = s * b1
c  m2 = s * b2
c  gb1 = m1 / rb3
c  gb2 = m2 / rb3
c  z1 = 2.0 * m1 - q1
c  z2 = 2.0 * m2 - q2
z  w[j] = z1
z  w[j + 1] = z2
z  j += 2
z  r1 = 2.0 * z1 - q1
z  r2 = 2.0 * z2 - q2
p  p1, p2 = q1, q2
z  q1, q2 = z1, z2
"""
_KERNEL = """\
def kernel(out, n, p1, p2, q1, q2, r1, r2, h, label):
    tol, max_iter = NEWTON_TOLERANCE, NEWTON_MAX_ITERATIONS
    hypot, inf, floor = math.hypot, math.inf, SINGULARITY_FLOOR
    h2 = h * h
    half_tol = 0.5 * tol
%(kappas)s    w = memoryview(out).cast("B").cast("d")  # z1 z2 per row
    j = iterations = 0
    cycles, tail = divmod(n, %(period)d)
    try:
%(first)s        for _ in range(cycles):
%(cycle)s%(tail)s    except NumericalFailure as err:
        err.filled = j // 2
        raise
    return (%(solves)d * cycles + %(solves_at)s[tail], iterations,
            %(gradients)d * cycles + %(gradients_at)s[tail] + %(first_gradient)d)
"""


@functools.cache
def _stencil_kernel(rows: tuple[Weights, ...]):
    """The kernel of _stencil for the weight rows, a cycle of period P:
    kernel(out, n, p1, p2, q1, q2, r1, r2, h, label), n >= 1, takes n // P
    cycles of _STEP written out, then its first n % P rows, and returns the
    run's implicit solves, Newton updates and gradient evaluations (m/rho^3
    is one).  It is generated and compiled at its first use, and reads the
    Newton budget and SINGULARITY_FLOOR at each call.

    A step sums f = a U'(q) + b U'((p + q)/2), U' = x/|x|^3 inline behind
    the collision guard, into z = r - h^2 f.  With B = (q + z)/2 and
    kappa = c h^2/2, the forward midpoint m = (q + z')/2 of an implicit step
    solves m (1 + kappa/|m|^3) = B: m = (rho/beta) B, beta = |B|, where
    phi(rho) = rho + kappa/rho^2 - beta, half the planar residual of z', is
    0.  phi is convex and least at rho = (2 kappa)^(1/3), where phi + beta is
    the fold (3/2) (2 kappa)^(1/3).  Two steps of rho <- beta - kappa/rho^2
    from beta start right of the root, and Newton's method (slope
    1 - 2 kappa/rho^3; kappa and 2 kappa are formed once a run) falls
    monotonically to it, stopped once 2 phi < NEWTON_TOLERANCE beta
    (scale-free) within NEWTON_MAX_ITERATIONS updates, each counted straight
    into the run's total.  Then z' = 2m - q, and U'(m) = m/rho^3,
    U'((q + z')/2) to round-off but not bit for bit, is carried into the
    b-term of the next row; the call's first step carries none, so
    U'((p + q)/2) is evaluated before the loop if row 0 would carry one.  As
    every read of the b-gradient follows a fresh, a carried or that one, it
    has no seed: a generator slip raises UnboundLocalError, not a zero force.
    A non-finite B, a spent budget or beta at or below the fold (phi' <= 0,
    or rho inside the collision guard: no solution) raise SolverFailure, a
    rho inside the guard above the fold NearSingularity, prefixed with
    label.  Each point is stored into its row of out, C-contiguous, once
    computed, so a failure carries .filled, the rows written: j // 2.

    f holds only the terms whose weight is nonzero, without a factor 1.0
    (1.0 * x is x), and is 0.0 where no weight is.  z keeps the bits of the
    interpreted sum 0.0 + a U'(q) + b U'((p + q)/2) save the sign of a zero,
    and that only through subnormal arithmetic: 0.0 + t differs from t only
    at t = -0.0, and r - h^2 f then only where r's component is -0.0 too.
    r = 2q - p is -0.0 only where q = -0.0 follows p = +0.0, x0 + h v0 only
    where both terms are -0.0, and a step writes a -0.0 only from such an r
    or from an implicit step's explicit part at the least subnormal.  So
    without subnormals a turned sign needs x0 and v0 both zero in a
    component (L = 0, refused by elements_from_state); with them, sv's point
    1 from x0 = (-0.0, 1), v0 = (-0.4, 1) at h = 5e-324 is (0.0, 1).
    """
    def emit(indent: int, **tags) -> str:
        return "".join(" " * indent + line[3:] for line in _STEP.splitlines(True)
                       if tags.get(line[:3].rstrip()))

    period = len(rows)
    cycle, tail, solves, gradients = "", "", [0], [0]
    for i, (a, b, c) in enumerate(rows):
        fresh = bool(b) and not rows[i - 1][2]
        force = " + ".join(term if w == 1 else f"{float(w)!r} * {term}"
                           for w, term in ((a, "(q%d / r3)"), (b, "gb%d")) if w) or "0.0"
        tags = dict(a=a, f=fresh, c=c, p=rows[(i + 1) % period][1] and not c)
        values = dict(force1=force.replace("%d", "1"), force2=force.replace("%d", "2"),
                      kappa=f"kappa{i}", twokappa=f"twokappa{i}")
        cycle += emit(12, z=True, **tags) % values
        if i < period - 1:
            tail += f"        if tail > {i}:\n" + emit(12, z=True, **tags) % values
        solves.append(solves[-1] + bool(c))
        gradients.append(gradients[-1] + bool(a) + fresh + bool(c))
    first = bool(rows[0][1] and rows[-1][2])
    source = _KERNEL % dict(
        period=period, cycle=cycle, tail=tail, solves=solves.pop(), solves_at=tuple(solves),
        gradients=gradients.pop(), gradients_at=tuple(gradients), first_gradient=first,
        kappas="".join(f"    kappa{i} = 0.5 * {float(c)!r} * h2\n    twokappa{i} = 2.0 * kappa{i}\n"
                       for i, (_, _, c) in enumerate(rows) if c),
        first=emit(8, a=rows[0][0], f=True) if first else "")
    namespace: dict = {}
    exec(compile(source, f"<stencil kernel {rows}>", "exec"), globals(), namespace)
    return namespace["kernel"]


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


def _fr(out: np.ndarray, n: int, x1: float, x2: float, v1: float, v2: float, h: float,
        stats: IntegrationStats) -> None:
    """Write n triple-jump steps from (x, v) into the rows (x1, x2, v1, v2) of
    out; each is three leapfrog substeps (drift dt/2, kick dt, drift dt/2),
    written out, with dt = (theta, 1 - 2 theta, theta) h, whose (dt/2, dt)
    are built once, one gradient per kick, counted in stats; U' = x/|x|^3 is
    written out in the kick, behind the collision guard.  Each step is stored
    into its row of out, C-contiguous, as soon as it is taken, so a failure
    carries .filled, the rows written, j // 4 of the float index j."""
    hypot, floor = math.hypot, SINGULARITY_FLOOR
    (half, dt), (half_mid, dt_mid) = [(0.5 * (frac * h), frac * h) for frac in _FR_WEIGHTS[:2]]
    w = memoryview(out).cast("B").cast("d")  # x1 x2 v1 v2 per row
    try:
        for j in range(0, 4 * n, 4):
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
            x1 += half_mid * v1
            x2 += half_mid * v2
            r = hypot(x1, x2)
            if r < floor:
                raise _collision(r)
            r3 = r * r * r
            v1 -= dt_mid * (x1 / r3)
            v2 -= dt_mid * (x2 / r3)
            x1 += half_mid * v1
            x2 += half_mid * v2
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
            w[j] = x1
            w[j + 1] = x2
            w[j + 2] = v1
            w[j + 3] = v2
    except NumericalFailure as err:
        err.filled = j // 4
        raise
    stats.gradient_evaluations += len(_FR_WEIGHTS) * n


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
    n_steps not an integer, or above MAX_STEPS, raises ConfigurationError
    before any array is allocated.

    x0, v0 and h are taken as Python floats, which the kernels run fastest on.
    The initial condition must describe a bound, non-radial orbit (the exact
    elements are recorded on the trajectory).  A numerical failure carries
    .step_index, where the run stopped, and .partial_positions, the points
    before it.  The first non-finite point wins over a later kernel failure,
    which it chains as the cause of "the state is no longer finite".
    """
    if not (h > 0.0 and math.isfinite(h)):
        raise ConfigurationError(f"step size must be positive, got {h}")
    if not (isinstance(n_steps, numbers.Integral) or n_steps == math.inf):
        raise ConfigurationError(f"n_steps must be an integer, got {n_steps!r}")
    if n_steps < 1:
        raise ConfigurationError(f"n_steps must be >= 1, got {n_steps}")
    if n_steps > MAX_STEPS:
        raise ConfigurationError(
            f"{n_steps:.10g} steps of h = {h:g} exceed the bound MAX_STEPS = {MAX_STEPS}")
    h, x0, v0 = float(h), PlanarVector(*map(float, x0)), PlanarVector(*map(float, v0))
    elements = elements_from_state(State(x0, v0, 0.0))
    stats = IntegrationStats()
    fr = method is MethodId.FR
    start = (*x0, *v0) if fr else x0
    states = np.empty((n_steps + 1, len(start)))  # rows x1 x2, and v1 v2 for fr
    states[0] = start
    filled, failure = 1, None  # rows of states written, and why the run stopped
    try:
        if fr:
            _fr(states[1:], n_steps, *start, h, stats)
        else:
            (p1, p2), (q1, q2) = x0, init_second_point(method, x0, v0, h, stats)
            states[1], filled = (q1, q2), 2
            _stencil(states[2:], n_steps - 1, p1, p2, q1, q2, 2.0 * q1 - p1, 2.0 * q2 - p2,
                     h, STENCILS[method].cycle, 1, "implicit step", stats)
        filled = n_steps + 1
    except NumericalFailure as err:
        filled, failure = filled + err.filled, err
    for lo in range(0, filled, _FINITE_ROWS):
        finite = np.isfinite(states[lo:min(lo + _FINITE_ROWS, filled)]).all(axis=1)
        if not finite.all():
            point = lo + int(np.argmin(finite))
            cause, failure = failure, NumericalFailure("the state is no longer finite")
            failure.__cause__ = cause
            break
    else:
        if failure is None:
            velocities = states[:, 2:] if fr else None
            return Trajectory(method, h, states[:, :2], v0, elements, velocities, stats)
        point = filled
    failure.method = method
    failure.step_index = point
    failure.partial_positions = states[:point, :2]
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
