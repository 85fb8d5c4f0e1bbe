"""One workload in one process: set up, measure, check, print a JSON summary.

Started by run.py, which pins the BLAS thread count in its environment.
``--mode setup`` stops after set-up and reports only its time; ``--mode
run`` also runs the timed phase.  With ``--trace 1`` the first half of
the time runs untraced and the second half traced; the difference of
their operation medians is the tracing overhead.  Both halves pass the
same oracle, which on ``train`` compares every result bitwise with the
first, so tracing must not change what the library computes.
"""

import argparse
import ctypes
import glob
import gzip
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field

import layers
from layers import median
from tracer import Tracer, totals

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")


def blas_runtime_threads(np):
    """Thread count the loaded OpenBLAS reports, or None when it cannot be asked."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(np, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_pinned": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads_runtime": blas_runtime_threads(np),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


@dataclass
class Measurement:
    """Per-label operation times from one timed phase.

    ``samples`` are wall-clock seconds; ``scaled`` are the same operations
    at the calibration's reference speed (see ``workloads.Calibration``);
    ``slowdowns`` are the calibration times over ``reference_s``.
    """

    samples: dict = field(default_factory=lambda: defaultdict(list))
    scaled: dict = field(default_factory=lambda: defaultdict(list))
    slowdowns: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wall: float = 0.0

    def merge(self, other: "Measurement") -> "Measurement":
        out = Measurement(attempted=self.attempted + other.attempted,
                          failed=self.failed + other.failed, wall=self.wall + other.wall,
                          slowdowns=self.slowdowns + other.slowdowns)
        for part in (self, other):
            for label in part.samples:
                out.samples[label] += part.samples[label]
                out.scaled[label] += part.scaled[label]
        return out


def measure(wl, seconds: float, tracer=None, first_op: int = 0) -> Measurement:
    """Closed loop with one caller: run operations until ``seconds`` have passed.

    The workload's calibration kernel runs between operations; each
    operation is scaled by the mean of the calibration times before and
    after it.
    """
    m = Measurement()
    cal = wl.calibration
    before = cal.seconds()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        label, span, call = wl.next_op()
        m.attempted += 1
        t = time.perf_counter()
        try:
            if tracer is None:
                result = call()
            else:
                result = tracer.run_op(first_op + m.attempted, span, call)
        except Exception:
            m.failed += 1
            if m.failed == 1:
                traceback.print_exc()
            continue
        elapsed = time.perf_counter() - t
        after = cal.seconds()
        slowdown = (before + after) / 2.0 / cal.reference_s
        before = after
        m.samples[label].append(elapsed)
        m.scaled[label].append(elapsed / slowdown)
        m.slowdowns.append(slowdown)
        if not wl.check(label, result):
            m.failed += 1
    m.wall = time.perf_counter() - start
    return m


def op_time(wl, per_label, q: float = 0.5) -> float:
    """Time for one operation of each kind the workload runs: the sum of their
    ``q`` quantiles, the medians by default."""
    total = 0.0
    for label in wl.labels:
        values = sorted(per_label.get(label, ()))
        total += median(values) if q == 0.5 or not values else values[int(q * (len(values) - 1))]
    return total


def setup_slowdown(wl, repeats: int = 5) -> float:
    """The machine's slowdown right after set-up, for scaling the set-up time."""
    return median([wl.calibration.seconds() for _ in range(repeats)]) / wl.calibration.reference_s


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    args = parser.parse_args()

    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np

    from workloads import WORKLOADS, load_library

    sf = load_library(os.path.join(ROOT, "src"))
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="scratch-", dir=OUT_DIR)
    tracer = Tracer() if args.trace else None
    try:
        if tracer is not None:
            tracer.install(layers.TRACE_POINTS)
        try:
            wl = WORKLOADS[args.workload](sf, args.seed, scratch)
        finally:
            if tracer is not None:
                tracer.restore()
        setup_wall_s = time.perf_counter() - t0
        setup = {"setup_wall_s": setup_wall_s, "setup_s": setup_wall_s / setup_slowdown(wl)}
        if args.mode == "setup":
            print(json.dumps(setup))
            return 0
        wl.prepare()
        summary = {**setup, "env": environment(np, args.seed), "problems": []}
        if tracer is None:
            m = measure(wl, args.seconds)
        else:
            traced, m = traced_phase(wl, args, tracer)
            summary.update(traced)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    summary.update({
        "attempted": m.attempted,
        "failed": m.failed,
        "wall_s": m.wall,
        "op_ref_ms": op_time(wl, m.scaled) * 1e3,
        "op_ref_p90_ms": op_time(wl, m.scaled, 0.9) * 1e3,
        "op_wall_ms": op_time(wl, m.samples) * 1e3,
        "op_count": sum(len(v) for v in m.samples.values()),
        "slowdown": median(m.slowdowns),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "named": wl.named(m.samples),
        "samples_s": m.samples,
    })
    print(json.dumps(summary))
    return 0


def traced_phase(wl, args, tracer):
    """Untraced half, then traced half: (summary entries, merged measurement)."""
    half = args.seconds / 2.0
    plain = measure(wl, half)
    tracer.install(layers.TRACE_POINTS)
    try:
        traced = measure(wl, half, tracer, plain.attempted)
    finally:
        tracer.restore()
    problems = [] if tracer.restored() else ["a wrapped binding was not restored"]
    macs, mac_problems = wl.count_macs()
    problems += mac_problems
    t = totals(tracer)
    metrics = layers.per_layer_metrics(t, traced.attempted, macs)
    metrics["trace.overhead_s"] = op_time(wl, traced.scaled) - op_time(wl, plain.scaled)
    metrics["trace.missing_targets"] = len(tracer.missing)
    runs = t.durations.get("train.run", ())
    if abs(layers.train_partition_residual(t)) > 1e-9 * max(1.0, sum(runs)):
        problems.append("train self times do not add up to the traced train() time")
    path = os.path.join(OUT_DIR, f"trace-{args.workload}.json.gz")
    with gzip.open(path, "wt") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "spans": tracer.spans}, fh)
    extra = {
        "per_layer": metrics,
        "problems": problems,
        # A missing trace point is reported, not fatal: its metrics read 0.
        "missing": tracer.missing,
    }
    return extra, plain.merge(traced)


if __name__ == "__main__":
    sys.exit(main())
