"""Machine-speed calibration for the benchmark's timings.

On a shared machine the speed of one core drifts by tens of percent over
minutes, and CPU time drifts with it, so raw times from runs minutes apart
are not comparable.  The benchmark therefore times a fixed kernel next to
every timed piece of work and reports that work in reference seconds:

    reference_s = measured_s * REFERENCE_S / kernel_s

that is, the time the work would take on a machine that runs the kernel in
REFERENCE_S.  The kernel does not import keplerlab, so no change to the
program moves it, but it has keplerlab's mix of work: a namedtuple vector
stepper, a scalar Newton solve of Kepler's equation per sample, small numpy
reductions and JSON text for a table of floats.
"""

import json
import math
import time
from typing import NamedTuple

import numpy as np

REFERENCE_S = 0.05
_STEPS = 6000
_SAMPLES = 1500
_ROWS = 1500


class _Vec(NamedTuple):
    x1: float
    x2: float


def _accel(x: _Vec) -> _Vec:
    r = math.hypot(x.x1, x.x2)
    r3 = r * r * r
    return _Vec(-x.x1 / r3, -x.x2 / r3)


def _eccentric_anomaly(mean: float, e: float) -> float:
    ecc = mean + e * math.sin(mean)
    for _ in range(50):
        f = ecc - e * math.sin(ecc) - mean
        if abs(f) < 1e-13:
            break
        ecc -= f / (1.0 - e * math.cos(ecc))
    return ecc


def kernel_seconds() -> float:
    """Time one run of the fixed calibration kernel."""
    start = time.perf_counter()
    h = 0.01
    x, v = _Vec(-3.0, 0.0), _Vec(0.0, 0.45)
    xs = [x]
    for _ in range(_STEPS):
        a = _accel(x)
        v = _Vec(v.x1 + h * a.x1, v.x2 + h * a.x2)
        x = _Vec(x.x1 + h * v.x1, x.x2 + h * v.x2)
        xs.append(x)
    anomalies = [_eccentric_anomaly(2.0 * math.pi * k / _SAMPLES, 0.4) for k in range(_SAMPLES)]
    X = np.array(xs)
    r = np.hypot(X[:, 0], X[:, 1])
    slope = np.polyfit(np.arange(len(r)), np.unwrap(np.arctan2(X[:, 1], X[:, 0])), 1)[0]
    rows = [{"k": k, "x1": float(X[k, 0]), "x2": float(X[k, 1]), "r": float(r[k])}
            for k in range(_ROWS)]
    text = json.dumps({"rows": rows, "slope": float(slope), "E": anomalies[-1]}, indent=2)
    if not (text and math.isfinite(slope)):
        raise ArithmeticError("calibration kernel diverged")
    return time.perf_counter() - start


def to_reference(seconds: float, kernel_s: float) -> float:
    """Convert a time measured next to a kernel run into reference seconds."""
    return seconds * REFERENCE_S / kernel_s
