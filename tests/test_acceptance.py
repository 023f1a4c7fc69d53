"""Acceptance suite: the quantitative claims the package must reproduce.

Each test prints one pass/fail line (run pytest with -s to see them all)
and asserts the same condition, so the suite doubles as a human-readable
scorecard and a hard gate.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from keplerlab import (
    ExactOrbit,
    MethodId,
    ModifiedModel,
    OrbitElements,
    PlanarVector,
    State,
    Trajectory,
    convergence_slope,
    discrete_angular_momentum,
    energy_drift,
    integrate,
    integrate_modified,
    measure_precession,
    observable_series,
    orbit_average,
    orbit_average_closed_form,
    precession_closed_form,
    precession_quadrature,
)
from keplerlab.cli import main
from keplerlab.integrators import STENCILS, Stencil

from conftest import REF_A, REF_T, V0, X0

H_REF = 0.5
ECC_GRID = (0.2, 0.39245, 0.6)
AVG_ECC_GRID = (0.0, 0.2, 0.39245, 0.6, 0.9)
SCAN_H = (0.0625, 0.125, 0.25, 0.5)
SCAN_REVOLUTIONS = 100
LONG_N = 20000
LONG_H = 0.1

SECOND_ORDER = (MethodId.SV, MethodId.MP)
FOURTH_ORDER = (MethodId.ML, MethodId.LC, MethodId.DEC)
SCAN_RESULTS = Path(__file__).resolve().parent.parent / "results" / "precession_scan.json"
SWEEP_H = 0.125
SWEEP_REVOLUTIONS = 20


def report(num, label, checks):
    ok = all(flag for flag, _ in checks)
    detail = "; ".join(text for _, text in checks)
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"criterion {num:02d} {label}: {detail}"


@pytest.fixture(scope="module")
def long_runs():
    """One 20,000-step run per method at h = 0.1, with wall-clock timings."""
    runs = {}
    for method in MethodId:
        start = time.perf_counter()
        traj = integrate(method, X0, V0, LONG_H, LONG_N)
        runs[method] = (traj, time.perf_counter() - start)
    return runs


@pytest.fixture(scope="module")
def scan_slopes():
    """Measured-precession convergence slopes over a fixed physical span, and
    the measured rates {(method, h): rate} they are fitted to."""
    t_span = math.ceil(SCAN_REVOLUTIONS * REF_T / max(SCAN_H)) * max(SCAN_H)
    start = time.perf_counter()
    slopes, rates = {}, {}
    for method in SECOND_ORDER + FOURTH_ORDER:
        points = []
        for h in SCAN_H:
            traj = integrate(method, X0, V0, h, round(t_span / h))
            rates[method, h] = measure_precession(traj).rate_per_revolution
            points.append((h, rates[method, h]))
        slopes[method] = convergence_slope(points)
    return slopes, rates, time.perf_counter() - start


def test_criterion_01_sv_closed_form_prediction(default_elements):
    precession_closed_form(MethodId.SV, default_elements, H_REF)  # warm caches
    start = time.perf_counter()
    rate = precession_closed_form(MethodId.SV, default_elements, H_REF).rate_per_revolution
    elapsed = time.perf_counter() - start
    report(1, "sv closed-form prediction", [
        (abs(rate - 0.0674) <= 0.0005, f"rate {rate:.6f} vs 0.0674 +/- 0.0005"),
        (elapsed < 1e-3, f"runtime {elapsed * 1e6:.1f} us < 1 ms"),
    ])


def test_criterion_02_sv_measured_precession():
    start = time.perf_counter()
    traj = integrate(MethodId.SV, X0, V0, H_REF, 1000)
    rate = measure_precession(traj).rate_per_revolution
    elapsed = time.perf_counter() - start
    report(2, "sv measured precession", [
        (abs(rate - 0.064) <= 0.005, f"rate {rate:.6f} vs 0.064 +/- 0.005"),
        (elapsed < 0.1, f"runtime {elapsed:.3f} s < 0.1 s"),
    ])


def test_criterion_03_mp_pair(default_elements):
    start = time.perf_counter()
    sv_pred = precession_closed_form(MethodId.SV, default_elements, H_REF).rate_per_revolution
    mp_pred = precession_closed_form(MethodId.MP, default_elements, H_REF).rate_per_revolution
    traj = integrate(MethodId.MP, X0, V0, H_REF, 1000)
    measured = measure_precession(traj).rate_per_revolution
    elapsed = time.perf_counter() - start
    report(3, "mp predicted and measured", [
        (abs(mp_pred - (-0.1347)) <= 0.001, f"predicted {mp_pred:.6f} vs -0.1347 +/- 0.001"),
        (mp_pred == -2.0 * sv_pred, f"exactly -2x the sv prediction ({sv_pred:.6f})"),
        (abs(measured - (-0.16)) <= 0.01, f"measured {measured:.6f} vs -0.16 +/- 0.01"),
        (elapsed < 5.0, f"runtime {elapsed:.2f} s < 5 s"),
    ])


def test_criterion_04_quadrature_matches_closed_form():
    start = time.perf_counter()
    worst = 0.0
    for method in SECOND_ORDER:
        for h in (0.125, 0.25, 0.5):
            for e in ECC_GRID:
                elements = OrbitElements.from_shape(REF_A, e)
                quad = precession_quadrature(method, elements, h)
                closed = precession_closed_form(method, elements, h).rate_per_revolution
                worst = max(worst, abs(quad - closed) / abs(closed))
    elapsed = time.perf_counter() - start
    report(4, "quadrature vs closed form", [
        (worst < 0.01, f"worst relative gap {worst:.2e} < 1% over 18 cases"),
        (elapsed < 1.0, f"runtime {elapsed:.2f} s < 1 s"),
    ])


def test_criterion_05_orbit_averages():
    start = time.perf_counter()
    worst = 0.0
    for e in AVG_ECC_GRID:
        elements = OrbitElements.from_shape(REF_A, e)
        for power in (5, 6, 7):
            closed = orbit_average_closed_form(power, elements)
            quad = orbit_average(
                lambda X, V, p=power: X[:, 1] / np.hypot(X[:, 0], X[:, 1]) ** p, elements)
            worst = max(worst, abs(quad - closed) / max(1.0, abs(closed)))
    elapsed = time.perf_counter() - start
    report(5, "orbit averages", [
        (worst < 1e-6, f"worst relative gap {worst:.2e} < 1e-6 over 15 cases"),
        (elapsed < 1.0, f"runtime {elapsed:.2f} s < 1 s"),
    ])


def test_criterion_06_convergence_slopes(scan_slopes):
    slopes, _, elapsed = scan_slopes
    checks = []
    for method in SECOND_ORDER:
        s = slopes[method]
        checks.append((abs(s - 2.0) <= 0.2, f"{method.value} slope {s:.3f} vs 2.0 +/- 0.2"))
    for method in FOURTH_ORDER:
        s = slopes[method]
        checks.append((abs(s - 4.0) <= 0.5, f"{method.value} slope {s:.3f} vs 4.0 +/- 0.5"))
    checks.append((elapsed < 120.0, f"runtime {elapsed:.1f} s < 120 s"))
    report(6, "precession convergence slopes", checks)


def test_criterion_07_discrete_angular_momentum(long_runs):
    sv_ell = discrete_angular_momentum(long_runs[MethodId.SV][0])
    mp_ell = discrete_angular_momentum(long_runs[MethodId.MP][0])
    sv_dev = np.abs(sv_ell - sv_ell[0]).max() / abs(sv_ell[0])
    mp_dev = np.abs(mp_ell - mp_ell[0]).max() / abs(mp_ell[0])
    report(7, "discrete angular momentum", [
        (sv_dev < 1e-12, f"sv relative deviation {sv_dev:.2e} < 1e-12 over {LONG_N} steps"),
        (mp_dev < 1e-11, f"mp relative deviation {mp_dev:.2e} < 1e-11"),
    ])


def test_criterion_08_energy_boundedness(long_runs):
    checks = []
    for method in SECOND_ORDER + FOURTH_ORDER:
        traj = long_runs[method][0]
        slope, oscillation = energy_drift(traj)
        total_time = LONG_N * LONG_H
        secular = abs(slope) * total_time
        checks.append((
            secular < oscillation,
            f"{method.value} secular {secular:.1e} < oscillation {oscillation:.1e}",
        ))
    report(8, "long-term energy boundedness", checks)


def test_criterion_09_exact_solution_oracle(default_state):
    orbit = ExactOrbit(default_state)
    el = orbit.elements
    back = orbit.state_at(el.T)
    return_gap = max(math.dist(back.position, default_state.position),
                     math.dist(back.velocity, default_state.velocity))
    h = 0.25
    n = int(round(4.0 * el.T / h))
    times = h * np.arange(n + 1)
    X, V = orbit.states_at(times)
    _, _, lrl_a, lrl_b = observable_series(X, V)
    lrl_gap = float(np.max(np.abs(np.hypot(lrl_a, lrl_b) - el.e)))
    traj = Trajectory(MethodId.FR, h, X, PlanarVector(*V[0]), el, velocities=V)
    rate = measure_precession(traj).rate_per_revolution
    report(9, "exact-solution oracle", [
        (return_gap < 1e-8, f"period return gap {return_gap:.2e} < 1e-8"),
        (lrl_gap < 1e-10, f"|LRL| - e gap {lrl_gap:.2e} < 1e-10"),
        (abs(rate) < 1e-6, f"measured precession {rate:.2e} within 0 +/- 1e-6"),
    ])


def test_criterion_10_modified_equation_fidelity(default_elements):
    t_end = 500.0
    n_samples = 1000
    model = ModifiedModel(MethodId.SV, H_REF)
    times, X, V = integrate_modified(model, X0, V0, t_end, n_samples)
    traj = Trajectory(MethodId.SV, t_end / n_samples, X, V0, default_elements,
                      velocities=V)
    modified_rate = measure_precession(traj).rate_per_revolution
    numeric = integrate(MethodId.SV, X0, V0, H_REF, 1000)
    numeric_rate = measure_precession(numeric).rate_per_revolution
    gap = abs(modified_rate - numeric_rate) / abs(numeric_rate)
    report(10, "modified-equation fidelity", [
        (gap < 0.10,
         f"modified flow rate {modified_rate:.6f} vs discrete {numeric_rate:.6f} "
         f"({gap * 100:.1f}% < 10%)"),
    ])


def test_criterion_11_position_error_order():
    def final_error(method, h):
        n = int(round(REF_T / h))
        traj = integrate(method, X0, V0, h, n)
        orbit = ExactOrbit(State(X0, V0, 0.0))
        Xe, _ = orbit.states_at(traj.times)
        return float(np.hypot(*(traj.positions - Xe).T)[-1])

    checks = []
    for method in (MethodId.SV, MethodId.MP, MethodId.ML):
        pts = [(h, final_error(method, h)) for h in (0.0125, 0.025, 0.05, 0.1)]
        s = convergence_slope(pts)
        checks.append((abs(s - 2.0) <= 0.2, f"{method.value} slope {s:.3f} vs 2.0 +/- 0.2"))
    pts = [(h, final_error(MethodId.FR, h)) for h in (0.0125, 0.025, 0.05)]
    s = convergence_slope(pts)
    checks.append((abs(s - 4.0) <= 0.5, f"fr slope {s:.3f} vs 4.0 +/- 0.5"))
    report(11, "global error order at one period", checks)


def test_criterion_12_work_counters(long_runs):
    counts = {m: long_runs[m][0].stats.implicit_solves for m in MethodId}
    third = LONG_N / 3.0
    checks = [
        (counts[MethodId.SV] == 0, f"sv solves {counts[MethodId.SV]} = 0"),
        (counts[MethodId.FR] == 0, f"fr solves {counts[MethodId.FR]} = 0"),
        (counts[MethodId.MP] == LONG_N, f"mp solves {counts[MethodId.MP]} = N"),
        (counts[MethodId.ML] == LONG_N, f"ml solves {counts[MethodId.ML]} = N"),
        (abs(counts[MethodId.LC] - third) <= 1.0,
         f"lc solves {counts[MethodId.LC]} within 1 of N/3"),
        (abs(counts[MethodId.DEC] - third) <= 1.0,
         f"dec solves {counts[MethodId.DEC]} within 1 of N/3"),
        (long_runs[MethodId.SV][1] < long_runs[MethodId.MP][1],
         f"wall sv {long_runs[MethodId.SV][1]:.3f} s < mp {long_runs[MethodId.MP][1]:.3f} s"),
    ]
    report(12, "implicit-solve counters and relative cost", checks)


def test_criterion_13_rate_follows_the_mean_midpoint_weight(monkeypatch, default_elements):
    # stencils in ml's place: the h^2 rate is (1 - 6 beta) times sv's, with
    # beta the cycle mean of (b + c)/2
    sv, mp = STENCILS[MethodId.SV].cycle[0], STENCILS[MethodId.MP].cycle[0]
    triples = [(1.0 - 2.0 * beta, beta, beta) for beta in (1.0 / 12.0, 0.25, 1.0 / 3.0)]
    stencils = {f"triple {w[1]:.4f}": Stencil(w, (w,)) for w in triples}
    stencils["(sv, mp)"] = Stencil(sv, (sv, mp))
    stencils["(sv, sv, sv, mp)"] = Stencil(sv, (sv, sv, sv, mp))
    n = round(SWEEP_REVOLUTIONS * REF_T / SWEEP_H)
    sv_rate = precession_closed_form(MethodId.SV, default_elements, SWEEP_H).rate_per_revolution
    start = time.perf_counter()
    checks = []
    for name, stencil in stencils.items():
        monkeypatch.setitem(STENCILS, MethodId.ML, stencil)
        beta = sum(b + c for _, b, c in stencil.cycle) / (2.0 * len(stencil.cycle))
        predicted = precession_closed_form(MethodId.ML, default_elements, SWEEP_H)
        traj = integrate(MethodId.ML, X0, V0, SWEEP_H, n)
        ratio = measure_precession(traj).rate_per_revolution / ((1.0 - 6.0 * beta) * sv_rate)
        checks.append((abs(ratio - 1.0) <= 0.01 and predicted.rate_per_revolution
                       == (1.0 - 6.0 * beta) * sv_rate,
                       f"{name}: measured / ((1 - 6 beta) sv closed form) {ratio:.4f}"))
    elapsed = time.perf_counter() - start
    checks.append((elapsed < 5.0, f"runtime {elapsed:.2f} s < 5 s"))
    report(13, "rate follows the mean midpoint weight", checks)


def test_criterion_14_no_h2_precession_at_beta_one_sixth(default_elements, capsys):
    def flow_rate(method):
        model = ModifiedModel(method, 0.1)
        _, X, V = integrate_modified(model, X0, V0, 100.0, 1000)
        traj = Trajectory(method, 0.1, X, V0, default_elements, velocities=V)
        return measure_precession(traj).rate_per_revolution

    ml_rate, sv_rate = flow_rate(MethodId.ML), flow_rate(MethodId.SV)
    code = main(["predict", "--method", "ml", "--a", "2.0", "--e", "0.5"])
    out = capsys.readouterr().out
    quad = json.loads(out)["predictedQuadrature"]
    report(14, "no h^2 precession at beta = 1/6", [
        (abs(ml_rate) <= 1e-2 * abs(sv_rate),
         f"ml modified flow rate {ml_rate:.2e} within 1e-2 of sv's {sv_rate:.2e}"),
        (code == 0 and '"predictedClosedForm": 0.0,' in out,
         "predict --method ml writes a closed form of 0.0, not -0.0"),
        (isinstance(quad, float), f"predict --method ml writes a quadrature ({quad!r})"),
    ])


def test_criterion_15_scan_results_reproduce(scan_slopes, default_elements):
    # results/precession_scan.json as scripts/precession_scan.py writes it
    _, rates, _ = scan_slopes
    rows = json.loads(SCAN_RESULTS.read_text())["rows"]
    gaps, mismatched = [], 0
    for row in rows:
        method, h = MethodId(row["method"]), row["h"]
        gaps.append(abs(row["measuredRate"] / rates[method, h] - 1.0))
        predicted = precession_closed_form(method, default_elements, h).rate_per_revolution
        mismatched += row["predictedRate"] != predicted
    report(15, "committed scan results reproduce", [
        (len(rows) == len(rates), f"{len(rows)} rows for {len(rates)} scanned cells"),
        (max(gaps) <= 1e-12, f"worst measured-rate gap {max(gaps):.1e} <= 1e-12"),
        (mismatched == 0, f"{mismatched} predicted rates differ from the closed form"),
    ])
