"""The interpreted stencil loop, which integrators' compiled stencil kernels
must equal in every bit, counter and failure; scalar force formulas and the
reduced modified flow's RK4 loop, one function call per evaluation: the
references that the inline kernels of integrators and theory are checked
against, bit for bit where they share an operation order; the Cartesian modified flow's RK4 loop, which shares no stage
arithmetic with the reduced one and is the oracle it converges to; the
two-dimensional Newton solve of an implicit stencil step, an oracle that
shares nothing with the kernel's radial solve; and the point-wise modified
Lagrangian, which the modified flow's Euler-Lagrange residual and energy are
checked against; the perihelion state of a shape, from which the
property tests build bound states; the dense precession estimator,
np.unwrap and np.polyfit on the whole run, that measure_precession's
closed-form line on the step grid is checked against; and np.unwrap with
the closed-form line on whole-run arrays, which measure_precession's
chunked unwrap and in-place fit must equal bit for bit."""

import itertools
import math

import numpy as np

from keplerlab import PlanarVector, SingularMassMatrix, State
from keplerlab import integrators
from keplerlab.analysis import trajectory_arrays
from keplerlab.errors import NumericalFailure, SolverFailure
from keplerlab.integrators import NEWTON_MAX_ITERATIONS, NEWTON_TOLERANCE, _midpoint_failure
from keplerlab.kepler import SINGULARITY_FLOOR, _ahead, _collision, observable_series


def perihelion_state(elements, apsis_angle):
    """State at perihelion passage, taken as time 0.

    Position is at distance a(1-e) at polar angle apsis_angle; speed there
    is |L|/r with the velocity perpendicular, signed by the orbit's sense.
    """
    rp = elements.a * (1.0 - elements.e)
    speed = abs(elements.L) / rp
    p = PlanarVector(math.cos(apsis_angle), math.sin(apsis_angle))
    q = _ahead(p, elements.L)
    return State(PlanarVector(rp * p.x1, rp * p.x2),
                 PlanarVector(speed * q.x1, speed * q.x2), 0.0)


def potential_gradient_xy(x1, x2):
    """U'(x) = x/|x|^3 on plain floats, with the collision guard."""
    r = math.hypot(x1, x2)
    if r < SINGULARITY_FLOOR:
        raise _collision(r)
    r3 = r * r * r
    return x1 / r3, x2 / r3


def gradient_jacobian_xy(x1, x2):
    """Symmetric Jacobian of U' on plain floats, as (j11, j12, j22):

    d U'/dx = (|x|^2 I - 3 x x^T) / |x|^5.
    """
    r2 = x1 * x1 + x2 * x2
    r = math.sqrt(r2)
    if r < SINGULARITY_FLOOR:
        raise _collision(r)
    r5 = r2 * r2 * r
    return (r2 - 3.0 * x1 * x1) / r5, -3.0 * x1 * x2 / r5, (r2 - 3.0 * x2 * x2) / r5


def explicit_part(p, q, r, h, weights):
    """C = r - h^2 [a U'(q) + b U'((p + q)/2)] of a stencil step with weights
    (a, b, c), and the last of those gradients (0 when there is none)."""
    (p1, p2), (q1, q2), (r1, r2) = p, q, r
    a, b, _ = weights
    f1 = f2 = g1 = g2 = 0.0
    if a:
        g1, g2 = potential_gradient_xy(q1, q2)
        f1 += a * g1
        f2 += a * g2
    if b:
        g1, g2 = potential_gradient_xy(0.5 * (p1 + q1), 0.5 * (p2 + q2))
        f1 += b * g1
        f2 += b * g2
    h2 = h * h
    return (r1 - h2 * f1, r2 - h2 * f2), (g1, g2)


def newton_step_2d(p, q, r, h, weights):
    """x_next of the two-step relation with weights (a, b, c),
    z - 2q + p = -h^2 [a U'(q) + b U'((p + q)/2) + c U'((q + z)/2)],
    from p, q and the free flight r, by Newton's method on z in the plane:
    Jacobian I + (c h^2/2) J, J the Hessian of U at the forward midpoint.  It
    starts from C - c h^2 g, g the last gradient of the explicit part C, and
    stops at a residual below NEWTON_TOLERANCE |C|."""
    (c1, c2), (g1, g2) = explicit_part(p, q, r, h, weights)
    q1, q2 = q
    ch2 = weights[2] * h * h
    z1, z2 = c1 - ch2 * g1, c2 - ch2 * g2
    limit = NEWTON_TOLERANCE * math.hypot(c1, c2)
    for _ in range(NEWTON_MAX_ITERATIONS):
        m1 = 0.5 * (q1 + z1)
        m2 = 0.5 * (q2 + z2)
        g1, g2 = potential_gradient_xy(m1, m2)
        f1 = z1 - c1 + ch2 * g1
        f2 = z2 - c2 + ch2 * g2
        if math.hypot(f1, f2) < limit:
            return z1, z2
        j11, j12, j22 = gradient_jacobian_xy(m1, m2)
        j11 = 1.0 + 0.5 * ch2 * j11
        j12 = 0.5 * ch2 * j12
        j22 = 1.0 + 0.5 * ch2 * j22
        det = j11 * j22 - j12 * j12
        z1 -= (j22 * f1 - j12 * f2) / det
        z2 -= (j11 * f2 - j12 * f1) / det
    raise AssertionError("the two-dimensional Newton solve did not converge")


def mass_matrix_eigenvalues(eps, beta, gamma, r, r2):
    """(eps/r^3, lam_perp, lam_par) of the modified flow's mass matrix at
    |x| = r, r2 = r^2 (see theory.integrate_modified), after its exact tests:
    SingularMassMatrix inside the collision guard or above condition 1e8."""
    if r < SINGULARITY_FLOOR:
        raise _collision(r, SingularMassMatrix)
    e3 = eps / (r2 * r)
    lam_perp = 1.0 + 2.0 * beta * e3
    lam_par = lam_perp + 2.0 * gamma * e3
    lo, hi = (lam_perp, lam_par) if lam_perp <= lam_par else (lam_par, lam_perp)
    if lo <= 0.0 or hi > 1e8 * lo:
        raise SingularMassMatrix(
            f"velocity Hessian not safely invertible at |x| = {r:.3e} "
            f"(eigenvalues {lo:.3e}, {hi:.3e})"
        )
    return e3, lam_perp, lam_par


def modified_acceleration_xy(eps, alpha, beta, gamma, x1, x2, v1, v2):
    """Acceleration of the modified flow with epsilon eps and bracket (alpha,
    beta, gamma): M(x, v) xddot = rhs(x, v) solved through the closed-form
    eigenvalues lam_perp and lam_par of M, with their exact tests."""
    r2 = x1 * x1 + x2 * x2
    r = math.sqrt(r2)
    e3, lam_perp, lam_par = mass_matrix_eigenvalues(eps, beta, gamma, r, r2)
    r3 = r2 * r
    u = v1 * v1 + v2 * v2
    s = x1 * v1 + x2 * v2
    p = -1.0 / r3 + e3 * (-4.0 * alpha / r3 - (3.0 * beta + 2.0 * gamma) * u / r2
                          + 5.0 * gamma * s * s / (r2 * r2))
    q = 6.0 * beta * e3 * s / r2
    qs = q * s / r2
    kx = (p + qs) / lam_par - qs / lam_perp
    kv = q / lam_perp
    return (kx * x1 + kv * v1, kx * x2 + kv * v2)


def modified_lagrangian(model, state):
    """Value of the truncated modified Lagrangian L_h of a theory.ModifiedModel
    at a phase-space point, with the collision guard."""
    x, v = state.position, state.velocity
    r = math.hypot(x.x1, x.x2)
    if r < SINGULARITY_FLOOR:
        raise _collision(r)
    u = v.x1 * v.x1 + v.x2 * v.x2
    s = x.x1 * v.x1 + x.x2 * v.x2
    alpha, beta, gamma = model.bracket
    r3 = r * r * r
    correction = alpha / (r3 * r) + beta * u / r3 + gamma * s * s / (r3 * r * r)
    return 0.5 * u + 1.0 / r + model.epsilon * correction


def reference_flow(model, x0, v0, t_end, n_samples, reference_step):
    """The n_samples + 1 samples (x1, x2, v1, v2) of the modified flow's RK4
    loop, four modified_acceleration_xy calls per substep; SingularMassMatrix
    with integrate_modified's message."""
    segment = t_end / n_samples
    substeps = max(1, math.ceil(segment / reference_step))
    dt = segment / substeps
    (x1, x2), (v1, v2) = x0, v0
    samples = [(x1, x2, v1, v2)]
    eps, (alpha, beta, gamma) = model.epsilon, model.bracket
    half = 0.5 * dt
    sixth = dt / 6.0

    def acc(*state):
        return modified_acceleration_xy(eps, alpha, beta, gamma, *state)

    try:
        for i in range(1, n_samples + 1):
            for j in range(substeps):
                a1, b1 = acc(x1, x2, v1, v2)
                px, py = x1 + half * v1, x2 + half * v2
                pv1, pv2 = v1 + half * a1, v2 + half * b1
                a2, b2 = acc(px, py, pv1, pv2)
                qx, qy = x1 + half * pv1, x2 + half * pv2
                qv1, qv2 = v1 + half * a2, v2 + half * b2
                a3, b3 = acc(qx, qy, qv1, qv2)
                rx, ry = x1 + dt * qv1, x2 + dt * qv2
                rv1, rv2 = v1 + dt * a3, v2 + dt * b3
                a4, b4 = acc(rx, ry, rv1, rv2)
                x1 += sixth * (v1 + 2.0 * pv1 + 2.0 * qv1 + rv1)
                x2 += sixth * (v2 + 2.0 * pv2 + 2.0 * qv2 + rv2)
                v1 += sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
                v2 += sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            samples.append((x1, x2, v1, v2))
    except SingularMassMatrix as err:
        t = (i - 1) * segment + j * dt
        raise SingularMassMatrix(f"{model.method.value} modified flow at h = {model.h:g}, "
                                 f"substep from t = {t:.6g}: {err}") from err
    return samples


def reduced_acceleration(eps, alpha, beta, gamma, ell, r, rd):
    """(rddot, thetadot) of the modified flow reduced by its Noether charge
    ell, with epsilon eps and bracket (alpha, beta, gamma), at radius r and
    radial speed rd (see theory.integrate_modified).  SingularMassMatrix at a
    negative r and where mass_matrix_eigenvalues refuses."""
    if r < 0.0:
        raise SingularMassMatrix(f"radius r = {r:.3e} < 0: the flow stepped through the centre")
    r2 = r * r
    mass_matrix_eigenvalues(eps, beta, gamma, r, r2)
    r3 = r2 * r
    thetadot = ell / (r2 + eps * (2.0 * beta) / r)
    rddot = (3.0 * eps * (beta + gamma) * rd * rd / (r3 * r)
             + (r - eps * beta / r2) * thetadot * thetadot - 1.0 / r2
             - 4.0 * eps * alpha / (r3 * r2)) / (1.0 + eps * (2.0 * beta + 2.0 * gamma) / r3)
    return rddot, thetadot


def reduced_flow(model, x0, v0, t_end, n_samples, reference_step):
    """The n_samples + 1 samples (x1, x2, v1, v2) of the reduced modified
    flow's RK4 loop on (r, rdot), theta by the same weights, four
    reduced_acceleration calls per substep and one at the last sample;
    SingularMassMatrix with integrate_modified's message."""
    segment = t_end / n_samples
    substeps = max(1, math.ceil(segment / reference_step))
    dt = segment / substeps
    (x1, x2), (v1, v2) = x0, v0
    samples = [(x1, x2, v1, v2)]
    eps, (alpha, beta, gamma) = model.epsilon, model.bracket
    half = 0.5 * dt
    sixth = dt / 6.0
    r, theta = math.hypot(x1, x2), math.atan2(x2, x1)
    rd = (x1 * v1 + x2 * v2) / r
    ell = (1.0 + eps * (2.0 * beta) / (r * r * r)) * (x1 * v2 - x2 * v1)

    def acc(r, rd):
        return reduced_acceleration(eps, alpha, beta, gamma, ell, r, rd)

    try:
        for i in range(1, n_samples + 1):
            for j in range(substeps):
                a1, w1 = acc(r, rd)
                pr, prd = r + half * rd, rd + half * a1
                a2, w2 = acc(pr, prd)
                qr, qrd = r + half * prd, rd + half * a2
                a3, w3 = acc(qr, qrd)
                sr, srd = r + dt * qrd, rd + dt * a3
                a4, w4 = acc(sr, srd)
                r += sixth * (rd + 2.0 * prd + 2.0 * qrd + srd)
                rd += sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
                theta += sixth * (w1 + 2.0 * w2 + 2.0 * w3 + w4)
            cos, sin = math.cos(theta), math.sin(theta)
            rw = r * (ell / (r * r + eps * (2.0 * beta) / r))
            samples.append((r * cos, r * sin, rd * cos - rw * sin, rd * sin + rw * cos))
        acc(r, rd)  # the last sample's exact tests
    except SingularMassMatrix as err:
        t = (i - 1) * segment + j * dt
        raise SingularMassMatrix(f"{model.method.value} modified flow at h = {model.h:g}, "
                                 f"substep from t = {t:.6g}: {err}") from err
    return samples


def whole_run_angle(traj):
    """The raw LRL angle of the rows measure_precession reads, derived from
    the arrays of the whole run: a position-only run's one-sided endpoint
    rows sliced off."""
    _, X, V = trajectory_arrays(traj)
    if traj.velocities is None:
        X, V = X[1:-1], V[1:-1]
    _, _, lrl_a, lrl_b = observable_series(X, V)
    return np.arctan2(lrl_b, lrl_a)


def closed_form_line(y):
    """The least-squares line through y at k = 0 .. m-1 on fresh arrays:
    (slope per sample, residual), y untouched."""
    m = len(y)
    k = np.arange(m) - 0.5 * (m - 1)
    dev = y - y.mean()
    slope = float(np.add.reduce(k * dev)) / (m * (m * m - 1) / 12)
    return slope, dev - slope * k


def unwrap_line_precession(traj):
    """(rate per revolution, fit residual rms) of closed_form_line through
    np.unwrap of the whole run's angle."""
    slope, residual = closed_form_line(np.unwrap(whole_run_angle(traj)))
    return slope / traj.h * traj.elements.T, float(np.sqrt(np.mean(residual ** 2)))


def polyfit_precession(traj):
    """(rate per revolution, fit residual rms) of a line fitted by np.polyfit
    in time to np.unwrap of the whole run's LRL angle."""
    omega = np.unwrap(whole_run_angle(traj))
    cut = int(traj.velocities is None)
    t = traj.h * np.arange(cut, cut + len(omega))
    slope, intercept = np.polyfit(t, omega, 1)
    residual = omega - (slope * t + intercept)
    return slope * traj.elements.T, np.sqrt(np.mean(residual ** 2))


def reference_stencil(out, n, p1, p2, q1, q2, r1, r2, h, cycle, phase, label, stats):
    """The interpreted stencil loop that integrators._stencil's compiled
    kernels replaced, with _stencil's signature: each step unpacks its row
    (a, b, c, kappa) from an itertools.cycle of the rows turned to phase and
    tests each weight, and whether the b-gradient is carried, as it runs,
    and assigns each point to its row of out.  It reads the Newton budget and
    SINGULARITY_FLOOR from integrators at each call, as the kernels do, so
    that it takes the same patches."""
    tol, max_iter = integrators.NEWTON_TOLERANCE, integrators.NEWTON_MAX_ITERATIONS
    hypot, inf, floor = math.hypot, math.inf, integrators.SINGULARITY_FLOOR
    h2 = h * h
    half_tol = 0.5 * tol
    rows = [(a, b, c, 0.5 * c * h2) for a, b, c in cycle]
    k = phase % len(rows)
    steps = itertools.cycle(rows[k:] + rows[:k])
    filled = solves = iterations = gradients = 0
    c_prev = 0.0  # nonzero when (gb1, gb2) already holds U'((p + q)/2)
    gb1 = gb2 = 0.0
    try:
        for a, b, c, kappa in itertools.islice(steps, n):
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
            out[filled] = z1, z2
            filled += 1
            p1, p2 = q1, q2
            q1, q2 = z1, z2
            c_prev = c
            r1 = 2.0 * q1 - p1
            r2 = 2.0 * q2 - p2
    except NumericalFailure as err:
        err.filled = filled
        raise
    stats.implicit_solves += solves
    stats.newton_iterations += iterations
    stats.gradient_evaluations += gradients
