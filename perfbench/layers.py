"""Where the traced run wraps the library, and the per-layer metrics it reports.

Each trace point names a function at the binding its caller looks it up
by (``train`` calls ``gradient`` through ``sumformer.train.gradient``),
so wrapping it records exactly the calls made on that path.  Every
workload's traced run reports every metric in ``PER_LAYER``; a layer the
workload does not reach reads 0.

Values are per operation of the workload for work done inside its
operations, and per set-up for work done in set-up (dataset generation,
construction building on ``heads``).  ``*.self_s`` is a span's
duration minus the part its traced child spans cover.
"""

from __future__ import annotations

import statistics

from tracer import TracePoint, Totals

CHECKS = (
    "check_sigma_standard",
    "check_sigma_linformer",
    "check_sigma_performer",
    "check_averaging_attention",
    "check_equivariance_models",
    "check_discrete_exactness",
    "check_generation_oracle",
    "check_gradients",
)
VARIANTS = ("standard", "linformer", "performer")
HEAD_SIZES = (256, 1024, 4096)


def _mlp_span(args) -> str:
    # mlp_taped(tape, spec, param_nodes, x): the parameter nodes carry the
    # "phi." / "psi." prefix that _loss_step gives them.
    return "mlp.mlp_taped." + args[2][0][0].name.split(".")[0]


def _mlp_macs(args, result) -> dict:
    widths = args[1].layer_widths
    rows = args[3].value.shape[0]
    return {"mlp.macs": rows * sum(a * b for a, b in zip(widths, widths[1:]))}


def _softmax_bytes(args, result) -> dict:
    return {"linalg.softmax_rows.bytes": args[0].nbytes + result.nbytes}


def _finite_bytes(args, result) -> dict:
    return {"linalg.require_finite.bytes": args[0].nbytes}


TRACE_POINTS = [
    TracePoint("sumformer.train:generate_dataset", "train.generate_dataset"),
    TracePoint("sumformer.targets:lift", count_arg0="targets.g.calls"),
    TracePoint("sumformer.train:Adam.step", "train.adam_step",
               count=lambda a, r: {"train.adam_arrays": len(a[1])}),
    TracePoint("sumformer.train:batch_forward", "train.batch_forward"),
    TracePoint("sumformer.train:mlp_taped", _mlp_span, count=_mlp_macs),
    TracePoint("sumformer.autodiff:Tape.group_sum", "autodiff.sigma"),
    TracePoint("sumformer.autodiff:Tape.repeat_rows", "autodiff.sigma"),
    TracePoint("sumformer.autodiff:Tape.concat_cols", "autodiff.sigma"),
    TracePoint("sumformer.train:gradient", "autodiff.gradient",
               count=lambda a, r: {"autodiff.tape_nodes": len(a[0].nodes)}),
    TracePoint("sumformer.verify:central_difference",
               count_arg0="autodiff.central_difference.loss_calls"),
    TracePoint("sumformer.attention:softmax_rows", "linalg.softmax_rows", count=_softmax_bytes),
    TracePoint("sumformer.attention:require_finite", "linalg.require_finite", count=_finite_bytes),
    TracePoint("sumformer.linalg:require_finite", "linalg.require_finite", count=_finite_bytes),
    TracePoint("sumformer.attention:build_sum_extraction", "attention.build_sum_extraction"),
    TracePoint("sumformer.verify:build_sum_extraction", "attention.build_sum_extraction"),
    TracePoint("sumformer.verify:check_equivariance",
               count_arg0="equivariance.check_equivariance.model_calls"),
    TracePoint("sumformer.multisym:power_sum",
               count=lambda a, r: {"multisym.power_sum.calls": 1}),
    *(TracePoint(f"sumformer.verify:ALL_CHECKS[{name}]", f"verify.{name}") for name in CHECKS),
]

# (name, unit, better); the order is the order of BENCHMARK.json.
PER_LAYER = [
    ("trace.overhead_s", "s", "lower"),
    ("trace.missing_targets", "count", "lower"),
    ("train.run_s", "s", "lower"),
    ("train.root.self_s", "s", "lower"),
    ("train.generate_dataset.self_s", "s", "lower"),
    ("targets.g.calls", "count", "lower"),
    ("train.adam_step.self_s", "s", "lower"),
    ("train.adam_arrays", "count", "lower"),
    ("train.batch_forward.self_s", "s", "lower"),
    ("train.steps", "count", "lower"),
    ("mlp.mlp_taped.phi.self_s", "s", "lower"),
    ("mlp.mlp_taped.psi.self_s", "s", "lower"),
    ("mlp.macs_per_step", "count", "lower"),
    ("mlp.gmacs_per_s", "GMAC/s", "higher"),
    ("autodiff.sigma.self_s", "s", "lower"),
    ("autodiff.gradient.self_s", "s", "lower"),
    ("autodiff.tape_nodes_per_step", "count", "lower"),
    ("autodiff.central_difference.loss_calls", "count", "lower"),
    *((f"attention.{v}.n{n}.{field}", unit, better)
      for v in VARIANTS for n in HEAD_SIZES
      for field, unit, better in (("ms", "ms", "lower"), ("macs", "count", "lower"),
                                  ("gmacs_per_s", "GMAC/s", "higher"))),
    *((f"attention.construction.{v}.{field}", unit, "lower")
      for v in VARIANTS for field, unit in (("ms", "ms"), ("macs", "count"))),
    ("attention.build_sum_extraction.self_s", "s", "lower"),
    ("attention.build_sum_extraction.calls", "count", "lower"),
    ("linalg.softmax_rows.self_s", "s", "lower"),
    ("linalg.softmax_rows.bytes", "B", "lower"),
    ("linalg.require_finite.self_s", "s", "lower"),
    ("linalg.require_finite.bytes", "B", "lower"),
    *((f"verify.{name}.self_s", "s", "lower") for name in CHECKS),
    ("equivariance.check_equivariance.model_calls", "count", "lower"),
    ("multisym.power_sum.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
]


def median(samples) -> float:
    """Median of the samples, NaN when there are none (every operation failed)."""
    return statistics.median(samples) if samples else float("nan")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(t: Totals, ops: int, macs: dict[str, int]) -> dict[str, float]:
    """Every PER_LAYER value from one traced run.

    ``ops`` is the number of traced operations and ``macs`` the counted
    multiply-accumulates per forward, keyed by operation span name.
    """

    def self_s(name):
        return t.setup_self.get(name, 0.0) + _ratio(t.op_self.get(name, 0.0), ops)

    def calls(name):
        return t.setup_calls.get(name, 0) + _ratio(t.op_calls.get(name, 0), ops)

    def count(name):
        return t.setup_counts.get(name, 0.0) + _ratio(t.op_counts.get(name, 0.0), ops)

    def median_s(name):
        return median(t.durations[name]) if name in t.durations else 0.0

    steps = t.op_calls.get("train.adam_step", 0)
    mlp_s = t.op_self.get("mlp.mlp_taped.phi", 0.0) + t.op_self.get("mlp.mlp_taped.psi", 0.0)
    out = {
        "train.run_s": _ratio(sum(t.durations.get("train.run", ())), ops),
        "train.root.self_s": self_s("train.run"),
        "train.generate_dataset.self_s": self_s("train.generate_dataset"),
        "targets.g.calls": count("targets.g.calls"),
        "train.adam_step.self_s": self_s("train.adam_step"),
        "train.adam_arrays": _ratio(t.op_counts.get("train.adam_arrays", 0.0), steps),
        "train.batch_forward.self_s": self_s("train.batch_forward"),
        "train.steps": calls("train.adam_step"),
        "mlp.mlp_taped.phi.self_s": self_s("mlp.mlp_taped.phi"),
        "mlp.mlp_taped.psi.self_s": self_s("mlp.mlp_taped.psi"),
        "mlp.macs_per_step": _ratio(t.op_counts.get("mlp.macs", 0.0), steps),
        "mlp.gmacs_per_s": _ratio(t.op_counts.get("mlp.macs", 0.0), mlp_s) / 1e9,
        "autodiff.sigma.self_s": self_s("autodiff.sigma"),
        "autodiff.gradient.self_s": self_s("autodiff.gradient"),
        "autodiff.tape_nodes_per_step": _ratio(
            t.op_counts.get("autodiff.tape_nodes", 0.0), t.op_calls.get("autodiff.gradient", 0)),
        "autodiff.central_difference.loss_calls": count("autodiff.central_difference.loss_calls"),
        "attention.build_sum_extraction.self_s": self_s("attention.build_sum_extraction"),
        "attention.build_sum_extraction.calls": calls("attention.build_sum_extraction"),
        "linalg.softmax_rows.self_s": self_s("linalg.softmax_rows"),
        "linalg.softmax_rows.bytes": count("linalg.softmax_rows.bytes"),
        "linalg.require_finite.self_s": self_s("linalg.require_finite"),
        "linalg.require_finite.bytes": count("linalg.require_finite.bytes"),
        "equivariance.check_equivariance.model_calls":
            count("equivariance.check_equivariance.model_calls"),
        "multisym.power_sum.calls": count("multisym.power_sum.calls"),
        "cli.main.self_s": self_s("cli.main"),
    }
    for name in CHECKS:
        out[f"verify.{name}.self_s"] = self_s(f"verify.{name}")
    for v in VARIANTS:
        for n in HEAD_SIZES:
            span = f"attention.{v}.n{n}"
            seconds = median_s(span)
            out[f"{span}.ms"] = seconds * 1e3
            out[f"{span}.macs"] = macs.get(span, 0)
            out[f"{span}.gmacs_per_s"] = _ratio(macs.get(span, 0), seconds) / 1e9
        span = f"attention.construction.{v}"
        out[f"{span}.ms"] = median_s(span) * 1e3
        out[f"{span}.macs"] = macs.get(span, 0)
    return out


def train_partition_residual(t: Totals) -> float:
    """Traced train() time minus the self times that should partition it.

    The root's own self time plus the self times of phi forward, Sigma
    ops, psi forward, backward, Adam and validation must add up to the
    summed duration of the traced train() calls.
    """
    parts = ("train.run", "mlp.mlp_taped.phi", "autodiff.sigma", "mlp.mlp_taped.psi",
             "autodiff.gradient", "train.adam_step", "train.batch_forward")
    return sum(t.durations.get("train.run", ())) - sum(t.op_self.get(p, 0.0) for p in parts)
