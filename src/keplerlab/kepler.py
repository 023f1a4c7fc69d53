"""Planar gravitational two-body problem with unit masses and unit coupling.

Potential U(x) = -1/|x|, Lagrangian L = |xdot|^2/2 + 1/|x|.  This module
carries the one formula for the conserved quantities (energy, angular
momentum, the Laplace-Runge-Lenz vector), shared by single points and whole
trajectories, conversion to orbital elements, and a closed-form Kepler
propagator in time: the reference solution of analysis.error_curve and of
the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateOrbit,
    NearSingularity,
    NumericalFailure,
    SolverFailure,
    UnboundOrbit,
)

# Numerical guards, fixed constants read at call time: the collision radius
# below which |x| raises, and the residual and iteration budget of the Kepler
# solve.
SINGULARITY_FLOOR = 1e-12
KEPLER_TOLERANCE = 1e-13
KEPLER_MAX_ITERATIONS = 50

# Below this eccentricity the apsis direction is numerically meaningless;
# read by ExactOrbit and theory.precession_quadrature.
CIRCULAR_ECCENTRICITY = 1e-12

# Below this eccentricity elements_from_state takes e = |A|: sqrt(1 - (b/a)^2)
# cancels (relative error ~eps/(2 e^2), 1e-12 at e = 1e-2; a sqrt(eps) floor
# at e = 0), while above it |A| fails OrbitElements' b-space check near e = 1.
_LRL_ECCENTRICITY = 1e-2

_TWO_PI = 2.0 * math.pi


class PlanarVector(NamedTuple):
    """Point or vector in the orbital plane."""

    x1: float
    x2: float


class State(NamedTuple):
    """Phase-space point (position, velocity) at a time."""

    position: PlanarVector
    velocity: PlanarVector
    time: float = 0.0


def _collision(r: float, error: type[NumericalFailure] = NearSingularity) -> NumericalFailure:
    """The one collision-guard error: |x| = r fell below SINGULARITY_FLOOR."""
    return error(f"|x| = {r:.3e} inside the collision guard {SINGULARITY_FLOOR:.3e}")


def _out_of_range(a: float, e: float) -> NumericalFailure:
    """The one error of a shape (a, e) whose elements or closed forms
    overflow, or underflow to a zero divisor."""
    return NumericalFailure(f"a = {a}, e = {e} is beyond the floating-point range")


def observable_series(X: np.ndarray, V: np.ndarray):
    """Energy, angular momentum and the two LRL components, (E, L, A1, A2).

    Positions and velocities have shape (..., 2): one point (2,) or a whole
    trajectory (n, 2); each result has shape X.shape[:-1].  E = |v|^2/2 - 1/|x|
    is negative exactly on bound orbits, L = x1 v2 - v1 x2, and the
    Laplace-Runge-Lenz vector A = |v|^2 x - (x.v) v - x/|x| has |A| = e and
    points at the perihelion.  Raises NearSingularity when any |x| falls below
    SINGULARITY_FLOOR.
    """
    x1, x2 = X[..., 0], X[..., 1]
    v1, v2 = V[..., 0], V[..., 1]
    r = np.hypot(x1, x2)
    if np.any(r < SINGULARITY_FLOOR):
        raise _collision(float(np.min(r)))
    u = v1 * v1 + v2 * v2
    s = x1 * v1 + x2 * v2
    return (0.5 * u - 1.0 / r, x1 * v2 - v1 * x2,
            u * x1 - s * v1 - x1 / r, u * x2 - s * v2 - x2 / r)


_ELEMENT_RTOL = 1e-12


@dataclass(frozen=True)
class OrbitElements:
    """Shape and sense of a bound orbit, not its orientation.

    The fields are redundant on purpose; construction enforces the defining
    relations L^2 = b^2/a and e = sqrt(1-b^2/a^2) so that a mistyped element
    fails loudly rather than propagating.  The sign of L is the sense of
    motion; the period T is derived from a.
    """

    a: float
    b: float
    e: float
    L: float

    def __post_init__(self):
        if not (self.a > 0.0 and math.isfinite(self.a)):
            raise ValueError(f"semi-major axis must be positive, got {self.a}")
        if not (0.0 < self.b <= self.a * (1.0 + _ELEMENT_RTOL)):
            raise ValueError(f"semi-minor axis must lie in (0, a], got b={self.b}, a={self.a}")
        if not 0.0 <= self.e < 1.0:
            raise ValueError(f"eccentricity must lie in [0, 1), got {self.e}")
        # e is validated in b-space: recovering e from b is ill-conditioned
        # near circularity (the roundoff blows up by 1/e)
        for name, got, want in (("L^2", self.L * self.L, self.b * self.b / self.a),
                                ("b", self.b, self.a * math.sqrt(max(0.0, 1.0 - self.e * self.e)))):
            if not abs(got - want) <= _ELEMENT_RTOL * max(1.0, abs(want)):
                raise ValueError(f"inconsistent elements: {name} = {got}, expected {want}")

    @property
    def T(self) -> float:
        return _TWO_PI * self.a ** 1.5

    @classmethod
    def from_shape(cls, a: float, e: float) -> "OrbitElements":
        """Consistent elements of the counterclockwise orbit of shape (a, e);
        raises NumericalFailure when L or the energy -1/(2a) is not a finite
        float."""
        if not (a > 0.0 and math.isfinite(a)):
            raise ValueError(f"semi-major axis must be positive, got {a}")
        if not 0.0 <= e < 1.0:
            raise ValueError(f"eccentricity must lie in [0, 1), got {e}")
        b = a * math.sqrt(1.0 - e * e)
        magL = math.sqrt(b * b / a)
        # b * b overflows (by a = 1e162 at any e < 1) long before a ** 1.5
        # does; the energy -1/(2a) overflows at a = 1e-309
        if not (math.isfinite(magL) and math.isfinite(-1.0 / (2.0 * a))):
            raise _out_of_range(a, e)
        return cls(a=a, b=b, e=e, L=magL)


def elements_from_state(state: State) -> OrbitElements:
    """Orbital elements of the bound orbit through a phase-space point.

    e is sqrt(1 - (b/a)^2), or |A| below _LRL_ECCENTRICITY.  Raises
    UnboundOrbit when E >= 0, DegenerateOrbit when L = 0 and NumericalFailure
    when the period overflows.
    """
    E, L, A1, A2 = map(float, observable_series(np.asarray(state.position),
                                                np.asarray(state.velocity)))
    if E >= 0.0:
        raise UnboundOrbit(f"energy {E:.6g} is nonnegative; orbit is not bound")
    if L == 0.0:
        raise DegenerateOrbit("zero angular momentum: radial orbit")
    a = -1.0 / (2.0 * E)
    b = math.sqrt(L * L * a)
    e = math.sqrt(max(0.0, 1.0 - (b / a) ** 2))
    if e < _LRL_ECCENTRICITY:
        e = math.hypot(A1, A2)
    # the period 2 pi a^1.5 is inf above a = 9.3e204 (a ** 1.5 raises above 3.2e205)
    try:
        period = _TWO_PI * a ** 1.5
    except OverflowError:
        period = math.inf
    if period == math.inf:
        raise _out_of_range(a, e)
    return OrbitElements(a=a, b=min(b, a), e=e, L=L)


def _ahead(p: PlanarVector, L: float) -> PlanarVector:
    """p turned 90 degrees in the sense of the angular momentum L."""
    return PlanarVector(-p.x2, p.x1) if L > 0.0 else PlanarVector(p.x2, -p.x1)


def solve_kepler(mean_anomaly, e: float):
    """Solve M = Ecc - e sin(Ecc) for the eccentric anomaly in [0, 2 pi).

    Elementwise over an array of mean anomalies; a scalar gives a float.
    Newton iteration from the classic guess M + e sin(M), safeguarded by a
    shrinking bisection bracket; g(Ecc) = Ecc - e sin(Ecc) is increasing for
    e < 1 so the bracket is always valid.  An anomaly has converged once
    its residual is below KEPLER_TOLERANCE and then stays frozen while the
    others iterate; SolverFailure after KEPLER_MAX_ITERATIONS iterations.
    """
    if not 0.0 <= e < 1.0:
        raise ValueError(f"eccentricity must lie in [0, 1), got {e}")
    mean = np.asarray(mean_anomaly, dtype=float)
    M = np.mod(mean, _TWO_PI)
    lo = np.zeros_like(M)
    hi = np.full_like(M, _TWO_PI)
    ecc = M + e * np.sin(M)
    for _ in range(KEPLER_MAX_ITERATIONS):
        f = ecc - e * np.sin(ecc) - M
        todo = ~(np.abs(f) < KEPLER_TOLERANCE)
        if not todo.any():
            return ecc if ecc.ndim else float(ecc)
        lo = np.where(todo & (f < 0.0), np.maximum(lo, ecc), lo)
        hi = np.where(todo & (f >= 0.0), np.minimum(hi, ecc), hi)
        trial = ecc - f / (1.0 - e * np.cos(ecc))
        trial = np.where((lo <= trial) & (trial <= hi), trial, 0.5 * (lo + hi))
        ecc = np.where(todo, trial, ecc)
    stuck = np.flatnonzero(todo)
    raise SolverFailure(
        f"Kepler equation did not converge for {stuck.size} of {todo.size} "
        f"mean anomalies (first M={float(mean.flat[stuck[0]])!r}), e={e!r}, "
        f"residual tolerance {KEPLER_TOLERANCE}, iteration cap {KEPLER_MAX_ITERATIONS}"
    )


class ExactOrbit:
    """Closed-form propagator for a bound initial state.

    The orbit is parameterized in the perifocal frame (p toward perihelion,
    q 90 degrees ahead in the direction of motion):

        x(Ecc) = a (cos Ecc - e) p + b sin Ecc q,
        M(t)   = M0 + 2 pi (t - t0)/T,

    with the Kepler equation inverted per sample.  For near-circular orbits
    (e below CIRCULAR_ECCENTRICITY) the initial position direction stands in
    for the apsis direction.  .elements is elements_from_state(initial),
    whose collision guard also covers |x0|.
    """

    def __init__(self, initial: State):
        own = elements_from_state(initial)
        self.elements = own
        x, v = initial.position, initial.velocity
        r0 = math.hypot(x.x1, x.x2)
        a, e = own.a, own.e
        if e > CIRCULAR_ECCENTRICITY:
            _, _, A1, A2 = map(float, observable_series(np.asarray(x), np.asarray(v)))
            m = math.hypot(A1, A2)
            p = PlanarVector(A1 / m, A2 / m)
            cos_e0 = (1.0 - r0 / a) / e
            sin_e0 = (x.x1 * v.x1 + x.x2 * v.x2) / (e * math.sqrt(a))
            ecc0 = math.atan2(sin_e0, cos_e0)
        else:
            p = PlanarVector(x.x1 / r0, x.x2 / r0)
            ecc0 = 0.0
        self._p = p
        self._q = _ahead(p, own.L)
        self._mean0 = ecc0 - e * math.sin(ecc0)
        self._rate = _TWO_PI / own.T
        self._t0 = initial.time

    def states_at(self, times) -> tuple[np.ndarray, np.ndarray]:
        """Positions and velocities at an array of times, shape (n, 2) each
        (shape (2,) each for a scalar time)."""
        el = self.elements
        t = np.asarray(times, dtype=float)
        M = self._mean0 + self._rate * (t - self._t0)
        ecc = solve_kepler(M, el.e)
        cos_e, sin_e = np.cos(ecc), np.sin(ecc)
        xp = el.a * (cos_e - el.e)
        xq = el.b * sin_e
        r = el.a * (1.0 - el.e * cos_e)
        fac = self._rate * el.a / r
        vp = -el.a * sin_e * fac
        vq = el.b * cos_e * fac
        p, q = self._p, self._q
        X = np.stack([xp * p.x1 + xq * q.x1, xp * p.x2 + xq * q.x2], axis=-1)
        V = np.stack([vp * p.x1 + vq * q.x1, vp * p.x2 + vq * q.x2], axis=-1)
        return X, V

    def state_at(self, t: float) -> State:
        """The state at one time t: states_at on a single time."""
        X, V = self.states_at(t)
        return State(PlanarVector(*X.tolist()), PlanarVector(*V.tolist()), t)
