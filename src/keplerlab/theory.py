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
and by quadrature at uniform true anomalies, with no Kepler solve, and the
modified flow itself, which keeps the rotation symmetry: it integrates the
radial motion and takes the angle from the conserved Noether charge.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError, NumericalFailure, SingularMassMatrix
from .integrators import MAX_STEPS, STENCILS, MethodId
from .kepler import (CIRCULAR_ECCENTRICITY, SINGULARITY_FLOOR, OrbitElements, PlanarVector,
                     _collision, _out_of_range)

# Largest RK4 step of the modified flow's reduced (r, rdot, theta) system
# (integrate_modified's default), and the rectangle-rule nodes of every
# orbit average.
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


def _refuse_singular(r: float, r2: float, eps: float, c_v2: float, c_s2: float) -> None:
    """A modified-flow stage's exact tests at radius r, r2 = r * r; None if both pass.
    A negative r is where the flow stepped through the centre."""
    if r < SINGULARITY_FLOOR:
        if r < 0.0:
            raise SingularMassMatrix(f"radius r = {r:.3e} < 0: the flow stepped through the centre")
        raise _collision(r, SingularMassMatrix)
    e3 = eps / (r2 * r)
    lam_perp = 1.0 + c_v2 * e3
    lam_par = lam_perp + c_s2 * e3
    lo, hi = (lam_perp, lam_par) if lam_perp <= lam_par else (lam_par, lam_perp)
    if lo <= 0.0 or hi > 1e8 * lo:
        raise SingularMassMatrix(f"velocity Hessian not safely invertible at |x| = {r:.3e} "
                                 f"(eigenvalues {lo:.3e}, {hi:.3e})")


def integrate_modified(model: ModifiedModel, x0: PlanarVector, v0: PlanarVector,
                       t_end: float, n_samples: int,
                       reference_step: float = REFERENCE_STEP
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integrate the modified flow with classical RK4 at a fixed small step.

    Returns (times, positions, velocities) at the n_samples + 1 uniform times
    covering [0, t_end], each segment cut into equal substeps of at most
    reference_step; a non-integer n_samples, or over MAX_STEPS substeps in
    all, raise ConfigurationError before any division or array.

    The flow is the Euler-Lagrange equation of the Lagrangian cut at h^2, so
    its precession agrees with the discrete method's only to h^2.  Where
    that term vanishes (ml, lc, dec) the flow's h^4 rate comes from where
    the Lagrangian is cut, not from the method: ml at e = 0.3, h = 0.1 reads
    +4.30e-3 against a discrete -3.93e-3 (ratios to sv's closed form).

    L_h depends on x and v only through r = |x|, |v|^2 and x.v, so with the
    bracket (c_r, c_v, c_s) of 1/r^4, |v|^2/r^3, s^2/r^5 it reads, in polar
    coordinates, L_h = A rdot^2/2 + r^2 B thetadot^2/2 + 1/r + eps c_r/r^4,
    where A = lam_par = 1 + 2 eps (c_v + c_s)/r^3 and B = lam_perp =
    1 + 2 eps c_v/r^3 are the velocity Hessian's eigenvalues along x and
    normal to it.  theta is cyclic: its Noether charge l = r^2 B thetadot =
    B(|x0|) (x0 x v0) is constant, and the flow reduces to
        thetadot = l/(r^2 B),
        rddot = [3 eps (c_v + c_s) rdot^2/r^4 + (r - eps c_v/r^2) thetadot^2
                 - 1/r^2 - 4 eps c_r/r^5] / A.
    RK4 steps (r, rdot) on plain floats, and theta by the same weights from
    each stage's thetadot; at h = 0 this is the Kepler problem.  A sample's
    (r, rdot, theta) becomes x = r (cos, sin) and v = rdot (cos, sin) +
    r thetadot (-sin, cos), with math.cos and math.sin so that numpy's SIMD
    dispatch does not decide the bits; the first sample is (x0, v0) as given.
    Only below r_guard = max(SINGULARITY_FLOOR, (4 S eps)^(1/3) (1 + 1e-9)),
    S = 2|c_v| + 2|c_s|, set per run, can A or B leave [3/4, 5/4], so only
    there does a stage, or the last sample, which no later stage tests, run
    the exact tests; their SingularMassMatrix (the collision guard, which
    names a radius below 0, where the flow stepped through the centre, as
    such; lo <= 0; condition above 1e8) names the method, h and the failing
    substep's start, NumericalFailure the first non-finite sample.
    """
    if not (t_end > 0.0 and math.isfinite(t_end)):
        raise ConfigurationError(f"t_end must be positive, got {t_end}")
    if not isinstance(n_samples, numbers.Integral):
        raise ConfigurationError(f"n_samples must be an integer, got {n_samples!r}")
    if n_samples < 1:
        raise ConfigurationError(f"n_samples must be >= 1, got {n_samples}")
    if not (reference_step > 0.0 and math.isfinite(reference_step)):
        raise ConfigurationError(f"reference_step must be positive, got {reference_step}")
    if n_samples > MAX_STEPS:  # each sample takes a substep; and t_end / 10**400 overflows
        raise ConfigurationError(f"{n_samples} samples exceed MAX_STEPS = {MAX_STEPS} RK4 substeps")
    segment = t_end / n_samples
    substeps = max(1, math.ceil(min(segment / reference_step, MAX_STEPS + 1)))  # inf refused below
    if n_samples * substeps > MAX_STEPS:  # before any array is allocated
        raise ConfigurationError(f"{n_samples} samples exceed MAX_STEPS = {MAX_STEPS} RK4 substeps")
    dt = segment / substeps
    times = segment * np.arange(n_samples + 1)
    x1, x2 = float(x0[0]), float(x0[1])
    v1, v2 = float(v0[0]), float(v0[1])
    eps, (c_r, c_v, c_s) = model.epsilon, model.bracket
    c_v2, c_s2 = 2.0 * c_v, 2.0 * c_s
    r_guard = max(SINGULARITY_FLOOR,
                  (4.0 * (abs(c_v2) + abs(c_s2)) * eps) ** (1.0 / 3.0) * (1.0 + 1e-9))
    # per-run factors of a stage: A = 1 + k_a/r^3 and r^2 B = r^2 + k_b/r
    k_a, k_b = eps * (c_v2 + c_s2), eps * c_v2
    k_rd, k_v, k_r = 3.0 * eps * (c_v + c_s), eps * c_v, 4.0 * eps * c_r
    half = 0.5 * dt
    sixth = dt / 6.0
    r, theta = math.hypot(x1, x2), math.atan2(x2, x1)
    samples = [(r, 0.0, theta)]  # row 0 is (x0, v0) as given
    i, j = 1, 0
    try:
        if r < r_guard:  # before the start divides by r
            _refuse_singular(r, r * r, eps, c_v2, c_s2)
        rd = (x1 * v1 + x2 * v2) / r
        ell = (1.0 + k_b / (r * r * r)) * (x1 * v2 - x2 * v1)
        for i in range(1, n_samples + 1):
            for j in range(substeps):
                r2 = r * r
                if r < r_guard:
                    _refuse_singular(r, r2, eps, c_v2, c_s2)
                r3 = r2 * r
                w1 = ell / (r2 + k_b / r)
                a1 = (k_rd * rd * rd / (r3 * r) + (r - k_v / r2) * w1 * w1 - 1.0 / r2
                      - k_r / (r3 * r2)) / (1.0 + k_a / r3)
                pr, prd = r + half * rd, rd + half * a1
                r2 = pr * pr
                if pr < r_guard:
                    _refuse_singular(pr, r2, eps, c_v2, c_s2)
                r3 = r2 * pr
                w2 = ell / (r2 + k_b / pr)
                a2 = (k_rd * prd * prd / (r3 * pr) + (pr - k_v / r2) * w2 * w2 - 1.0 / r2
                      - k_r / (r3 * r2)) / (1.0 + k_a / r3)
                qr, qrd = r + half * prd, rd + half * a2
                r2 = qr * qr
                if qr < r_guard:
                    _refuse_singular(qr, r2, eps, c_v2, c_s2)
                r3 = r2 * qr
                w3 = ell / (r2 + k_b / qr)
                a3 = (k_rd * qrd * qrd / (r3 * qr) + (qr - k_v / r2) * w3 * w3 - 1.0 / r2
                      - k_r / (r3 * r2)) / (1.0 + k_a / r3)
                sr, srd = r + dt * qrd, rd + dt * a3
                r2 = sr * sr
                if sr < r_guard:
                    _refuse_singular(sr, r2, eps, c_v2, c_s2)
                r3 = r2 * sr
                w4 = ell / (r2 + k_b / sr)
                a4 = (k_rd * srd * srd / (r3 * sr) + (sr - k_v / r2) * w4 * w4 - 1.0 / r2
                      - k_r / (r3 * r2)) / (1.0 + k_a / r3)
                r += sixth * (rd + 2.0 * prd + 2.0 * qrd + srd)
                rd += sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
                theta += sixth * (w1 + 2.0 * w2 + 2.0 * w3 + w4)
            samples.append((r, rd, theta))
        if r < r_guard:  # the last sample, which no later stage tests
            _refuse_singular(r, r * r, eps, c_v2, c_s2)
    except SingularMassMatrix as err:
        t = (i - 1) * segment + j * dt
        raise SingularMassMatrix(f"{model.method.value} modified flow at h = {model.h:g}, "
                                 f"substep from t = {t:.6g}: {err}") from err
    R, RD, TH = np.array(samples).T
    TH[np.isinf(TH)] = np.nan  # math.cos refuses an infinite angle; nan marks the sample
    cos = np.fromiter(map(math.cos, TH.tolist()), float, n_samples + 1)
    sin = np.fromiter(map(math.sin, TH.tolist()), float, n_samples + 1)
    X, V = np.empty((n_samples + 1, 2)), np.empty((n_samples + 1, 2))
    with np.errstate(all="ignore"):  # an overflow is refused below, as a non-finite sample
        RW = R * (ell / (R * R + k_b / R))
        X[:, 0], X[:, 1] = R * cos, R * sin
        V[:, 0], V[:, 1] = RD * cos - RW * sin, RD * sin + RW * cos
    X[0], V[0] = (x1, x2), (v1, v2)
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
