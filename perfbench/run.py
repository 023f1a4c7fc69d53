"""keplerlab benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload scan|dump|theory --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports keplerlab from ``src/`` of
that checkout and from nowhere else.  The run times set-up in fresh
interpreters, then repeats passes of the workload for S seconds in this
process and checks every pass's outputs.  Every timing is converted to
reference seconds with the calibration kernel timed next to it (see
calibration.py).  With ``--trace 0`` it reports the end-to-end metrics of
BENCHMARK.json from untraced passes; with ``--trace 1`` it alternates
untraced and traced passes and reports the per-layer metrics.  Stdout ends
with a report line (inputs, machine, raw and reference pass times, failed
checks) and the result line ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from calibration import kernel_seconds, to_reference
from tracing import EXACT_COUNTERS, Tracer
from workloads import WORKLOADS, Checks, Schemas

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 60
MIN_PASSES = 3         # untraced passes per run, whatever --seconds says
MIN_TRACED_PASSES = 2
# Kernel time after each pass, as a share of the pass's wall time (at least
# one kernel run): enough runs that their mean is steadier than the pass.
KERNEL_SHARE = 0.1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
ACCURACY = ("rate_rel_err", "pos_err_final", "quad_rel_err")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _setup_sample(scratch: Path) -> tuple[float, float]:
    """(set-up seconds, kernel seconds), both measured in one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(scratch / "setup.csv")],
        cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    setup, kernel = proc.stdout.split()[-2:]
    return float(setup), float(kernel)


def _import_keplerlab():
    sys.path.insert(0, str(SRC))
    import keplerlab
    import keplerlab.cli

    origin = Path(keplerlab.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise RuntimeError(f"keplerlab was imported from {origin}, not from {SRC}")
    return keplerlab


class Run:
    """The passes of one run and everything their checks found."""

    def __init__(self, workload, kl, scratch: Path):
        self.workload = workload
        self.kl = kl
        self.scratch = scratch
        self.schemas = Schemas(ROOT / "schemas")
        self.attempted = 0
        self.failed: list[str] = []
        self.passes: list[dict] = []  # raw times of every pass
        self.tracers: list[Tracer] = []
        self.kernel_s = self._kernel(0.0)
        self.peak_rss_mb = None
        self.first = None  # (digests, facts, checks) of the first pass

    def _count(self, results):
        self.attempted += len(results)
        self.failed += [label for label, ok in results if not ok]

    @staticmethod
    def _kernel(wall: float) -> float:
        """Mean kernel time over kernel runs totalling KERNEL_SHARE of `wall`."""
        runs = [kernel_seconds()]
        while sum(runs) < KERNEL_SHARE * wall:
            runs.append(kernel_seconds())
        return statistics.fmean(runs)

    def count(self, traced: bool) -> int:
        return sum(p["traced"] == traced for p in self.passes)

    def reference_s(self, traced: bool) -> float:
        """Mean pass time in reference seconds: the mean wall time over the
        mean of the kernel times taken next to those passes."""
        passes = [p for p in self.passes if p["traced"] == traced]
        return to_reference(statistics.fmean(p["wall_s"] for p in passes),
                            statistics.fmean(p["kernel_s"] for p in passes))

    def one_pass(self, traced: bool) -> None:
        gc.collect()
        tracer = Tracer(self.kl) if traced else None
        with tracer.installed() if traced else contextlib.nullcontext():
            cpu = time.process_time()
            start = time.perf_counter()
            ops, direct = self.workload.execute(self.kl, self.scratch)
            wall = time.perf_counter() - start
            cpu = time.process_time() - cpu
        if self.peak_rss_mb is None:
            # sampled before any output is read back, so it is the program's
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        before, self.kernel_s = self.kernel_s, self._kernel(wall)
        self.passes.append({"traced": traced, "wall_s": wall, "cpu_s": cpu,
                            "kernel_s": 0.5 * (before + self.kernel_s)})
        self._count(ops)
        self._check_outputs(direct)
        if traced:
            self.tracers.append(tracer)

    def _check_outputs(self, direct) -> None:
        outputs = {}
        for label, path in self.workload.outputs(self.scratch).items():
            if path.exists():
                outputs[label] = path.read_bytes()
                path.unlink()
        if direct is not None:
            outputs["direct"] = json.dumps(direct, sort_keys=True).encode()
        digests = {label: hashlib.sha256(data).hexdigest() for label, data in outputs.items()}
        if self.first is not None and digests == self.first[0]:
            # same bytes as the first pass, so its content checks hold again
            self._count(self.first[2] + [("outputs equal the first pass", True)])
            return
        checks = Checks()
        try:
            facts = self.workload.check(outputs, self.schemas, checks)
        except Exception as err:  # malformed output: one failed check
            checks.add(f"outputs readable ({type(err).__name__}: {err})", False)
            facts = {"rows": 0}
        facts["out_bytes"] = sum(len(data) for data in outputs.values())
        if self.first is None:
            self.first = (digests, facts, checks.results)
        else:
            checks.add("outputs equal the first pass", False)
        self._count(checks.results)

    def layers(self) -> list[dict]:
        """Per-layer metrics of each traced pass, times in reference seconds."""
        scale = to_reference(1.0, statistics.fmean(p["kernel_s"] for p in self.passes))
        facts = self.first[1]
        return [dict(tracer.layer_metrics(scale), **{"cli.rows": facts["rows"],
                                                     "cli.out_bytes": facts["out_bytes"]})
                for tracer in self.tracers]

    def counter_checks(self, layers: list[dict]) -> None:
        """Exact counters repeat between traced passes and match the inputs."""
        results = [(f"{name} repeats", len({m[name] for m in layers}) == 1)
                   for name in EXACT_COUNTERS]
        first = layers[0]
        results.append(("integrators.steps equals the count from the inputs",
                        first["integrators.steps"] == self.workload.steps))
        results.append(("theory.rk4_substeps equals the count from the inputs",
                        first["theory.rk4_substeps"] == self.workload.rk4_substeps))
        self._count(results)

    def end_to_end(self, setup_s: float) -> dict:
        wall = self.reference_s(traced=False)
        return {
            "wall_s": wall,
            "steps_per_s": (self.workload.steps + self.workload.rk4_substeps) / wall,
            "setup_s": setup_s,
            "peak_rss_mb": self.peak_rss_mb,
            "ok_frac": 1.0 - len(self.failed) / self.attempted,
        }

    def per_layer(self, layers: list[dict]) -> dict:
        metrics = {}
        for name in layers[0]:
            values = [m[name] for m in layers]
            metrics[name] = values[0] if len(set(values)) == 1 else statistics.median(values)
        facts = self.first[1]
        for name in ACCURACY:
            metrics[name] = facts.get(name, 0.0)
        metrics["scan.cells_ok_frac"] = facts.get("cells_ok_frac", 1.0)
        metrics["trace.overhead_frac"] = (self.reference_s(traced=True)
                                          / self.reference_s(traced=False) - 1.0)
        return metrics


def _machine(kl) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "kernel": platform.release(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "keplerlab": kl.__version__,
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "keplerlab" / "__init__.py").is_file():
        print(f"perfbench: no keplerlab sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for var in THREAD_VARS:
        os.environ[var] = "1"
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as scratch:
        scratch = Path(scratch)
        setup = [_setup_sample(scratch) for _ in range(SETUP_SAMPLES)]
        # a median, because an import now and then takes twice as long
        setup_s = statistics.median(to_reference(s, k) for s, k in setup)
        kl = _import_keplerlab()
        workload = WORKLOADS[args.workload](args.seed, kl)
        run = Run(workload, kl, scratch)
        deadline = time.perf_counter() + args.seconds
        while True:
            plain, traced = run.count(traced=False), run.count(traced=True)
            if (plain >= MIN_PASSES and (not args.trace or traced >= MIN_TRACED_PASSES)
                    and time.perf_counter() >= deadline):
                break
            run.one_pass(traced=bool(args.trace) and traced < plain)
    if args.trace:
        layers = run.layers()
        run.counter_checks(layers)
        values, listed = run.per_layer(layers), spec["per_layer"]
    else:
        values, listed = run.end_to_end(setup_s), spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs": workload.inputs, "machine": _machine(kl),
        "steps_per_pass": workload.steps, "rk4_substeps_per_pass": workload.rk4_substeps,
        "setup": [{"setup_s": s, "kernel_s": k} for s, k in setup],
        "passes": run.passes,
        "fail_frac": len(run.failed) / run.attempted, "failed_checks": run.failed[:20],
    }
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": not run.failed, "attempted": run.attempted,
                      "failed": len(run.failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
