"""Step-size perturbation theory for every two-step stencil.

Backward error analysis gives each scheme a modified Lagrangian

    L_h = |xdot|^2/2 + 1/|x| + (h^2/24) * correction(x, xdot) + O(h^4),

whose flow the discrete trajectory follows one order deeper than the exact
one.  Every two-step stencil has one, with a correction linear in the cycle
mean beta of its midpoint weights (cycle-averaged for lc and dec); fr has
none and so no quadrature.  The correction breaks the hidden symmetry that
freezes the Kepler apsis line, and the resulting apsis drift per revolution
follows from the orbit average of the correction's Euler-Lagrange deficit
paired against the symmetry generator of the Laplace-Runge-Lenz component.
This module carries those objects and the orbit averages, in closed form
and by quadrature at uniform true anomalies, with no Kepler solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError, NumericalFailure, SingularMassMatrix
from .integrators import STENCILS, MethodId
from .kepler import (CIRCULAR_ECCENTRICITY, SINGULARITY_FLOOR, OrbitElements, PlanarVector,
                     _collision, _out_of_range)

# Largest RK4 step of the modified flow (integrate_modified's default), and
# the rectangle-rule nodes of every orbit average.
REFERENCE_STEP = 0.005
DEFAULT_AVERAGE_NODES = 2048


def mean_midpoint_weight(method: MethodId) -> float:
    """beta, the mean of (b + c)/2 over the stencil's weight cycle: 0 for sv,
    1/2 for mp and 1/6 for ml, lc and dec.  ConfigurationError for fr."""
    stencil = STENCILS.get(method)
    if stencil is None:
        raise ConfigurationError(
            f"{method.value} has no two-step stencil and no h^2 modified equation")
    return sum(b + c for _, b, c in stencil.cycle) / (2.0 * len(stencil.cycle))


def lagrangian_bracket(beta: float) -> tuple[float, float, float]:
    """Coefficients of 1/r^4, |v|^2/r^3, <x,v>^2/r^5 in the h^2/24 correction:
    linear in beta, as the two midpoint gradients expand to 2 U' plus an h^2
    term linear in beta, and sv's at beta = 0, mp's at 1/2."""
    return (1.0, -2.0 + 6.0 * beta, 6.0 - 18.0 * beta)


def _el_deficit_coefficients(bracket: tuple[float, float, float]) -> tuple[float, float, float, float]:
    """Euler-Lagrange deficit of a/r^4 + b u/r^3 + c s^2/r^5 on Kepler motion.

    With u = |v|^2, s = <x, v> and xddot = -x/r^3 substituted, the deficit
    (d/dx - d/dt d/dv applied to the correction) collapses to
    c1 x/r^6 + c2 u x/r^5 + c3 s^2 x/r^7 + c4 s v/r^5.
    """
    a_, b_, c_ = bracket
    return (-4.0 * a_ + 2.0 * b_ + 2.0 * c_, -3.0 * b_ - 2.0 * c_, 5.0 * c_, 6.0 * b_)


@dataclass(frozen=True)
class PrecessionPrediction:
    """Leading-order apsis rotation per revolution at step h, and its order in h."""

    rate_per_revolution: float
    leading_order: int


@dataclass(frozen=True)
class ModifiedModel:
    """Continuous system interpolating a two-step stencil to O(h^4).

    The cycle-averaged one for lc and dec; fr has none.  h = 0 is allowed
    and reduces everything to the exact Kepler problem.
    """

    method: MethodId
    h: float
    bracket: tuple[float, float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.h >= 0.0 and math.isfinite(self.h)):
            raise ConfigurationError(f"step size must be nonnegative, got {self.h}")
        object.__setattr__(self, "bracket",
                           lagrangian_bracket(mean_midpoint_weight(self.method)))

    @property
    def epsilon(self) -> float:
        return self.h * self.h / 24.0


def _ill_conditioned(r: float, lo: float, hi: float) -> SingularMassMatrix:
    """The one refusal of a velocity Hessian with eigenvalues lo <= hi at |x| = r."""
    return SingularMassMatrix(f"velocity Hessian not safely invertible at |x| = {r:.3e} "
                              f"(eigenvalues {lo:.3e}, {hi:.3e})")


def integrate_modified(model: ModifiedModel, x0: PlanarVector, v0: PlanarVector,
                       t_end: float, n_samples: int,
                       reference_step: float = REFERENCE_STEP
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integrate the modified flow with classical RK4 at a fixed small step.

    Samples are returned at the n_samples + 1 uniform times covering
    [0, t_end]; each sample segment is subdivided so the internal step never
    exceeds reference_step.  Returns (times, positions, velocities).

    The flow is the Euler-Lagrange equation of the Lagrangian cut at h^2, so
    its precession agrees with the discrete method's only to h^2.  Where
    that term vanishes (ml, lc, dec) the flow's h^4 rate comes from where
    the Lagrangian is cut, not from the method: ml at e = 0.3, h = 0.1 reads
    +4.30e-3 against a discrete -3.93e-3 (ratios to sv's closed form).

    Each stage solves M(x, v) xddot = rhs(x, v) inline, on plain floats, with
    the bracket (c_r, c_v, c_s) of 1/r^4, |v|^2/r^3, s^2/r^5.  M is a multiple
    of the identity plus a rank-one term along x, so its eigenvalues are
    closed forms: |v|^2/2 + eps c_v |v|^2/r^3 gives lam_perp = 1 + 2 eps c_v/r^3
    in every direction, and eps c_s s^2/r^5 adds 2 eps c_s/r^3 along x,
    lam_par = lam_perp + 2 eps c_s/r^3.  The rhs dL/dx - (d/dx dL/dv) v
    collapses to P x + Q v, and M^-1 divides the part along x by lam_par and
    the part normal to x by lam_perp; at h = 0 that is exactly -x/|x|^3.
    SingularMassMatrix (a stage inside the collision guard, or M above
    condition number 1e8) names the method, h and the failing substep's
    start; NumericalFailure the first non-finite sample.
    """
    if not (t_end > 0.0 and math.isfinite(t_end)):
        raise ConfigurationError(f"t_end must be positive, got {t_end}")
    if n_samples < 1:
        raise ConfigurationError(f"n_samples must be >= 1, got {n_samples}")
    if not (reference_step > 0.0 and math.isfinite(reference_step)):
        raise ConfigurationError(f"reference_step must be positive, got {reference_step}")
    segment = t_end / n_samples
    substeps = max(1, math.ceil(segment / reference_step))
    dt = segment / substeps
    times = segment * np.arange(n_samples + 1)
    X = np.empty((n_samples + 1, 2))
    V = np.empty((n_samples + 1, 2))
    x1, x2 = float(x0[0]), float(x0[1])
    v1, v2 = float(v0[0]), float(v0[1])
    X[0] = (x1, x2)
    V[0] = (v1, v2)
    sqrt, floor = math.sqrt, SINGULARITY_FLOOR
    eps, (c_r, c_v, c_s) = model.epsilon, model.bracket
    # per-run factors of the stage formula; Python multiplies left to right,
    # so 2.0 * c_v * e3 is (2.0 * c_v) * e3 and every stage keeps its bits
    c_v2, c_s2, c_r4 = 2.0 * c_v, 2.0 * c_s, -4.0 * c_r
    c_vs, c_s5, c_v6 = 3.0 * c_v + 2.0 * c_s, 5.0 * c_s, 6.0 * c_v
    half = 0.5 * dt
    sixth = dt / 6.0
    try:
        for i in range(1, n_samples + 1):
            for j in range(substeps):
                r2 = x1 * x1 + x2 * x2
                r = sqrt(r2)
                if r < floor:
                    raise _collision(r, SingularMassMatrix)
                r3 = r2 * r
                e3 = eps / r3
                lam_perp = 1.0 + c_v2 * e3
                lam_par = lam_perp + c_s2 * e3
                lo, hi = (lam_perp, lam_par) if lam_perp <= lam_par else (lam_par, lam_perp)
                if lo <= 0.0 or hi > 1e8 * lo:
                    raise _ill_conditioned(r, lo, hi)
                s = x1 * v1 + x2 * v2
                p = -1.0 / r3 + e3 * (c_r4 / r3 - c_vs * (v1 * v1 + v2 * v2) / r2
                                      + c_s5 * s * s / (r2 * r2))
                q = c_v6 * e3 * s / r2
                qs = q * s / r2
                kx = (p + qs) / lam_par - qs / lam_perp
                kv = q / lam_perp
                a1, b1 = kx * x1 + kv * v1, kx * x2 + kv * v2
                px, py = x1 + half * v1, x2 + half * v2
                pv1, pv2 = v1 + half * a1, v2 + half * b1
                r2 = px * px + py * py
                r = sqrt(r2)
                if r < floor:
                    raise _collision(r, SingularMassMatrix)
                r3 = r2 * r
                e3 = eps / r3
                lam_perp = 1.0 + c_v2 * e3
                lam_par = lam_perp + c_s2 * e3
                lo, hi = (lam_perp, lam_par) if lam_perp <= lam_par else (lam_par, lam_perp)
                if lo <= 0.0 or hi > 1e8 * lo:
                    raise _ill_conditioned(r, lo, hi)
                s = px * pv1 + py * pv2
                p = -1.0 / r3 + e3 * (c_r4 / r3 - c_vs * (pv1 * pv1 + pv2 * pv2) / r2
                                      + c_s5 * s * s / (r2 * r2))
                q = c_v6 * e3 * s / r2
                qs = q * s / r2
                kx = (p + qs) / lam_par - qs / lam_perp
                kv = q / lam_perp
                a2, b2 = kx * px + kv * pv1, kx * py + kv * pv2
                qx, qy = x1 + half * pv1, x2 + half * pv2
                qv1, qv2 = v1 + half * a2, v2 + half * b2
                r2 = qx * qx + qy * qy
                r = sqrt(r2)
                if r < floor:
                    raise _collision(r, SingularMassMatrix)
                r3 = r2 * r
                e3 = eps / r3
                lam_perp = 1.0 + c_v2 * e3
                lam_par = lam_perp + c_s2 * e3
                lo, hi = (lam_perp, lam_par) if lam_perp <= lam_par else (lam_par, lam_perp)
                if lo <= 0.0 or hi > 1e8 * lo:
                    raise _ill_conditioned(r, lo, hi)
                s = qx * qv1 + qy * qv2
                p = -1.0 / r3 + e3 * (c_r4 / r3 - c_vs * (qv1 * qv1 + qv2 * qv2) / r2
                                      + c_s5 * s * s / (r2 * r2))
                q = c_v6 * e3 * s / r2
                qs = q * s / r2
                kx = (p + qs) / lam_par - qs / lam_perp
                kv = q / lam_perp
                a3, b3 = kx * qx + kv * qv1, kx * qy + kv * qv2
                rx, ry = x1 + dt * qv1, x2 + dt * qv2
                rv1, rv2 = v1 + dt * a3, v2 + dt * b3
                r2 = rx * rx + ry * ry
                r = sqrt(r2)
                if r < floor:
                    raise _collision(r, SingularMassMatrix)
                r3 = r2 * r
                e3 = eps / r3
                lam_perp = 1.0 + c_v2 * e3
                lam_par = lam_perp + c_s2 * e3
                lo, hi = (lam_perp, lam_par) if lam_perp <= lam_par else (lam_par, lam_perp)
                if lo <= 0.0 or hi > 1e8 * lo:
                    raise _ill_conditioned(r, lo, hi)
                s = rx * rv1 + ry * rv2
                p = -1.0 / r3 + e3 * (c_r4 / r3 - c_vs * (rv1 * rv1 + rv2 * rv2) / r2
                                      + c_s5 * s * s / (r2 * r2))
                q = c_v6 * e3 * s / r2
                qs = q * s / r2
                kx = (p + qs) / lam_par - qs / lam_perp
                kv = q / lam_perp
                a4, b4 = kx * rx + kv * rv1, kx * ry + kv * rv2
                x1 += sixth * (v1 + 2.0 * pv1 + 2.0 * qv1 + rv1)
                x2 += sixth * (v2 + 2.0 * pv2 + 2.0 * qv2 + rv2)
                v1 += sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
                v2 += sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            X[i] = (x1, x2)
            V[i] = (v1, v2)
    except SingularMassMatrix as err:
        t = (i - 1) * segment + j * dt
        raise SingularMassMatrix(f"{model.method.value} modified flow at h = {model.h:g}, "
                                 f"substep from t = {t:.6g}: {err}") from err
    finite = np.isfinite(X).all(axis=1) & np.isfinite(V).all(axis=1)
    if not finite.all():
        raise NumericalFailure(f"{model.method.value} modified flow at h = {model.h:g}: "
                               f"non-finite state at t = {times[np.argmin(finite)]:.6g}")
    return times, X, V


def lrl_symmetry_field(X: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Phase-space generator whose Noether charge is the first LRL component.

    xi = (-x2 v2 / 2,  x1 v2 - v1 x2 / 2), evaluated along the motion, for
    positions and velocities of shape (..., 2).
    """
    x1, x2 = X[..., 0], X[..., 1]
    v1, v2 = V[..., 0], V[..., 1]
    return np.stack([-0.5 * x2 * v2, x1 * v2 - 0.5 * v1 * x2], axis=-1)


def perturbation_field(method: MethodId, X: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Euler-Lagrange deficit of the scheme's h^2 correction on Kepler motion.

    Positions and velocities have shape (..., 2), as does the result.  The
    h^2/24 prefactor is NOT included; multiply by model.epsilon to get the
    physical perturbation.  Defined for every two-step stencil.
    """
    c6, cu, cs2, csv = _el_deficit_coefficients(lagrangian_bracket(mean_midpoint_weight(method)))
    x1, x2 = X[..., 0], X[..., 1]
    v1, v2 = V[..., 0], V[..., 1]
    r = np.hypot(x1, x2)
    if np.any(r < SINGULARITY_FLOOR):
        raise _collision(float(np.min(r)))
    r2 = r * r
    r5 = r2 * r2 * r
    r6 = r5 * r
    r7 = r6 * r
    u = v1 * v1 + v2 * v2
    s = x1 * v1 + x2 * v2
    common = c6 / r6 + cu * u / r5 + cs2 * s * s / r7
    return np.stack([common * x1 + csv * s * v1 / r5,
                     common * x2 + csv * s * v2 / r5], axis=-1)


def orbit_average(fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
                  elements: OrbitElements) -> float:
    """Time average of fn(X, V) over one period of the exact orbit of this
    shape and sense with its apsis on the +x2 axis: the closed forms' axis,
    and the one where the first LRL component's generator gives the apsis rate.

    fn maps the (DEFAULT_AVERAGE_NODES, 2) positions and velocities to the
    integrand's values.  The nodes are uniform in the true anomaly nu, where
    the state is a closed form (no Kepler solve): with l = L^2, p = +x2 and
    q = p turned 90 degrees in the sense of L, r = l/(1 + e cos nu),
    x = r (cos nu p + sin nu q), v = (|L|/l)(-sin nu p + (e + cos nu) q),
    and each node weighs dt/dnu = r^2/|L|.  Where f r^2 is a trigonometric
    polynomial in nu (x2/r^5 to x2/r^7, the perturbation paired with the LRL
    generator) the rule is exact at every eccentricity; for any integrand
    it raises NumericalFailure when the rule on every other node differs
    from the full one by more than 1e-12 of sum |f r^2|.  That gap
    overstates the full rule's error, so the check refuses conservatively.
    An integrand that overflows or divides by zero raises NumericalFailure.
    """
    n = DEFAULT_AVERAGE_NODES
    nu = 2.0 * math.pi / n * np.arange(n)
    cos, sin = np.cos(nu), np.sin(nu)
    e, L = elements.e, np.float64(elements.L)  # numpy, so errstate guards |L|/l
    q1 = -math.copysign(1.0, L)  # q = (q1, 0)
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            ell = L * L
            r = ell / (1.0 + e * cos)
            speed = abs(L) / ell
            X = np.stack([q1 * r * sin, r * cos], axis=-1)
            V = np.stack([q1 * speed * (e + cos), -speed * sin], axis=-1)
            w = fn(X, V) * (r * r)
            weighted = np.sum(w)
            gap, scale = abs(2.0 * np.sum(w[::2]) - weighted), np.sum(np.abs(w))
            if gap > 1e-12 * scale:
                raise NumericalFailure(
                    f"orbit average at a = {elements.a}, e = {e} not converged in {n} nodes "
                    f"(half-rule gap {gap / scale:.1e} of sum |f r^2|)")
            return float(2.0 * math.pi * weighted / (n * elements.T * abs(L)))
    except FloatingPointError:
        raise _out_of_range(elements.a, elements.e) from None


def orbit_average_closed_form(power: int, elements: OrbitElements) -> float:
    """Closed form of the orbit average of x2/|x|^power, apsis on the +x2 axis.

    Available for power = 5, 6, 7:
        <x2/r^5> = (a/b^5) e
        <x2/r^6> = (a^2/b^7) (3e/2 + 3e^3/8)
        <x2/r^7> = (a^3/b^9) (2e + 3e^3/2)
    A power of a or b out of the float range raises NumericalFailure.
    """
    a, b, e = elements.a, elements.b, elements.e
    try:
        if power == 5:
            return a / b ** 5 * e
        if power == 6:
            return a * a / b ** 7 * (1.5 * e + 0.375 * e ** 3)
        if power == 7:
            return a ** 3 / b ** 9 * (2.0 * e + 1.5 * e ** 3)
    except (OverflowError, ZeroDivisionError):
        raise _out_of_range(a, e) from None
    raise ConfigurationError(f"closed forms cover powers 5, 6, 7; got {power}")


def _finite_rate(method: MethodId, h: float, rate: float) -> float:
    """rate, or NumericalFailure naming the method and h when it is not finite."""
    if not math.isfinite(rate):
        raise NumericalFailure(f"{method.value} precession rate at h = {h:g} is not finite")
    return rate


def precession_closed_form(method: MethodId, elements: OrbitElements,
                           h: float) -> PrecessionPrediction:
    """Leading-order apsis rotation per revolution at step h.

    sv:  -sign(L) (pi/24) (15 a^3/b^6 - 3 a/b^4) h^2
    a stencil with mean midpoint weight beta: (1 - 6 beta) times sv's, so mp
    is exactly -2 times it.  ml, lc and dec (beta = 1/6) and fr are zero at
    this order (leading error order 4).  A shape factor out of the float
    range, or a rate that overflows, raises NumericalFailure.
    """
    if not (h >= 0.0 and math.isfinite(h)):
        raise ConfigurationError(f"step size must be nonnegative, got {h}")
    factor = 1.0 - 6.0 * mean_midpoint_weight(method) if method in STENCILS else 0.0
    if factor == 0.0:
        return PrecessionPrediction(0.0, 4)
    a, b = elements.a, elements.b
    try:
        shape = 15.0 * a ** 3 / b ** 6 - 3.0 * a / b ** 4
    except (OverflowError, ZeroDivisionError):
        raise _out_of_range(a, elements.e) from None
    base = -math.copysign(1.0, elements.L) * math.pi / 24.0 * shape * h * h
    return PrecessionPrediction(_finite_rate(method, h, factor * base), 2)


def precession_quadrature(method: MethodId, elements: OrbitElements, h: float) -> Optional[float]:
    """Apsis rotation per revolution from the orbit-averaged perturbation.

    rate = -(2 eps T / e) <field . xi>  with eps = h^2/24, averaged by
    orbit_average, whose apsis on the +x2 axis makes the pairing with the
    first LRL component's generator the apsis rate.  For ml, lc and dec it
    is zero up to round-off.  None for fr, which has no two-step stencil,
    and at e <= CIRCULAR_ECCENTRICITY, which has no apsis (the rate's
    round-off grows like 1.5e-17/e); a non-finite rate raises NumericalFailure.
    """
    if method not in STENCILS or elements.e <= CIRCULAR_ECCENTRICITY:
        return None
    model = ModifiedModel(method, h)

    def integrand(X: np.ndarray, V: np.ndarray) -> np.ndarray:
        return np.sum(perturbation_field(method, X, V) * lrl_symmetry_field(X, V), axis=-1)

    rate = -2.0 * model.epsilon * elements.T / elements.e * orbit_average(integrand, elements)
    return _finite_rate(method, h, rate)
