"""Wall-clock benchmark of the sumformer library.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload train --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload, one after another

Each workload runs in its own child process (worker.py) against the
library under ``src/``, with the BLAS thread count pinned and recorded.
The bounded times are scaled to a reference machine speed by a
calibration kernel timed around every operation and after set-up
(``workloads.Calibration``); the wall-clock figures are printed next to
them.  Set-up is also timed in ``SETUP_REPEATS`` extra processes and reported
as the median.  The output is one ``name = value unit`` line per metric
and, last, one JSON object: with ``--trace 0`` its metrics are the
end-to-end metrics, with ``--trace 1`` the per-layer ones.  The exit
code is 0 when every output passed its oracle, 1 when one did not, and 2
when a child could not run.  Runs also leave a record under
``perfbench/out/``.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from layers import PER_LAYER  # noqa: E402

WORKLOADS = ("train", "heads", "verify")
# (name, unit, better, bound); bound is the share of the parent's median a
# change may worsen the metric by.
END_TO_END = [
    ("op_ref_ms", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]
UNITS = {name: unit for name, unit, *_ in END_TO_END}
SETUP_REPEATS = 6
# One thread: results are bitwise reproducible and the timings do not
# depend on what else the machine is running on its other cores.
BLAS_THREADS = 1
DEADLINE_S = 170.0


class ChildError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(args: list[str], deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=child_env(),
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"{' '.join(args)}: timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"{' '.join(args)}: exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
              "--trace", str(trace)]
    setups = []
    if not trace:
        setups = [run_child(common + ["--mode", "setup"], deadline)
                  for _ in range(SETUP_REPEATS)]
    summary = run_child(common + ["--mode", "run"], deadline)
    for key in ("setup_s", "setup_wall_s"):
        summary[key] = statistics.median([s[key] for s in setups + [summary]])
    summary["workload"] = name
    return summary


def metric(value: float, unit: str) -> dict:
    # A workload whose every operation failed has no median: report null.
    return {"value": value if math.isfinite(value) else None, "unit": unit}


def report(summary: dict, trace: int) -> list[str]:
    name = summary["workload"]
    lines = [f"{name}: env " + " ".join(f"{k}={v}" for k, v in summary["env"].items())]
    named = [
        ("op_ref_ms", summary["op_ref_ms"], "ms"),
        ("op_ref_p90_ms", summary["op_ref_p90_ms"], "ms"),
        ("op_count", summary["op_count"], "count"),
        ("op_wall_ms", summary["op_wall_ms"], "ms"),
        ("slowdown", summary["slowdown"], "ratio"),
        ("setup_s", summary["setup_s"], "s"),
        ("setup_wall_s", summary["setup_wall_s"], "s"),
        ("wall_s", summary["wall_s"], "s"),
        ("error_rate", summary["failed"] / summary["attempted"], "ratio"),
        ("peak_rss_mb", summary["peak_rss_mb"], "MB"),
        *summary["named"],
    ]
    if trace:
        units = {n: u for n, u, _ in PER_LAYER}
        named += [(k, v, units[k]) for k, v in summary["per_layer"].items()]
    lines += [f"{name}: {metric} = {value:.6g} {unit}" for metric, value, unit in named]
    lines += [f"{name}: trace point missing: {m}" for m in summary.get("missing", ())]
    lines += [f"{name}: FAILED {p}" for p in summary["problems"]]
    if summary["failed"]:
        lines.append(f"{name}: FAILED {summary['failed']} of {summary['attempted']} operations")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    summaries = []
    try:
        for name in names:
            summary = run_workload(name, args.seed, args.seconds, args.trace, deadline)
            summaries.append(summary)
            print("\n".join(report(summary, args.trace)), flush=True)
    except (ChildError, json.JSONDecodeError, KeyError) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    record = os.path.join(OUT_DIR, f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w") as fh:
        json.dump(summaries, fh, indent=1)

    correct = all(not s["failed"] and not s["problems"] for s in summaries)
    if len(summaries) == 1:
        s = summaries[0]
        if args.trace:
            metrics = {n: metric(s["per_layer"][n], u) for n, u, _ in PER_LAYER}
        else:
            metrics = {n: metric(s[n], UNITS[n]) for n in UNITS}
    else:
        metrics = {f"{s['workload']}.{n}": metric(s[n], UNITS[n])
                   for s in summaries for n in UNITS}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
