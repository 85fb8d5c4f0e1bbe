"""Self-time arithmetic, wrapping and restoring, and tolerance of missing trace points."""

import importlib
import sys
import types

import numpy as np
import pytest

import layers
from tracer import TracePoint, Tracer, self_times, totals


def span(name, parent, start, end, op=0):
    return [name, op, parent, start, end]


def test_self_time_subtracts_children():
    spans = [
        span("root", None, 0.0, 10.0),
        span("a", 0, 1.0, 3.0),
        span("b", 0, 4.0, 8.0),
        span("b.inner", 2, 5.0, 6.0),
    ]
    assert self_times(spans) == [4.0, 2.0, 3.0, 1.0]


def test_self_times_of_a_tree_add_up_to_the_root():
    spans = [span("root", None, 0.0, 7.5), span("a", 0, 0.5, 2.0), span("a.x", 1, 0.75, 1.0),
             span("b", 0, 2.0, 7.0), span("b.y", 3, 2.5, 3.5), span("b.z", 3, 3.5, 6.0)]
    assert sum(self_times(spans)) == pytest.approx(7.5, abs=1e-12)


def test_overlapping_and_overhanging_children_count_once():
    spans = [
        span("root", None, 0.0, 10.0),
        span("a", 0, 2.0, 6.0),
        span("b", 0, 4.0, 8.0),     # overlaps a on [4, 6]
        span("c", 0, 9.0, 12.0),    # runs past the root's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_self_time_without_children_is_the_duration():
    assert self_times([span("only", None, 1.0, 1.25)]) == [0.25]


def test_train_partition_residual_is_zero_for_a_traced_step():
    clock = iter(float(t) for t in range(100))
    tracer = Tracer(clock=lambda: next(clock))

    def step():
        for name in ("mlp.mlp_taped.phi", "autodiff.sigma", "mlp.mlp_taped.psi",
                     "autodiff.gradient", "train.adam_step", "train.batch_forward"):
            tracer.end(tracer.begin(name))

    tracer.run_op(1, "train.run", step)
    t = totals(tracer)
    assert layers.train_partition_residual(t) == 0.0
    assert t.op_self["train.run"] == 13.0 - 0.0 - 6.0


@pytest.fixture
def fake_module():
    mod = types.ModuleType("perfbench_fake")

    def double(x):
        return 2 * x

    def apply(f, x):
        return f(x) + f(x)

    def check_one():
        return "one"

    class Box:
        def get(self, x):
            return double(x)

    mod.double, mod.apply, mod.Box = double, apply, Box
    mod.CHECKS = [check_one]
    sys.modules[mod.__name__] = mod
    yield mod
    del sys.modules[mod.__name__]


def test_wrap_records_spans_and_counts_then_restores(fake_module):
    originals = (fake_module.double, fake_module.apply, fake_module.Box.__dict__["get"],
                 fake_module.CHECKS[0])
    points = [
        TracePoint("perfbench_fake:double", "double", count=lambda a, r: {"doubled": a[0]}),
        TracePoint("perfbench_fake:apply", count_arg0="apply.f.calls"),
        TracePoint("perfbench_fake:Box.get", lambda args: f"box.{args[1]}"),
        TracePoint("perfbench_fake:CHECKS[check_one]", "check"),
    ]
    tracer = Tracer()
    tracer.install(points)
    assert fake_module.double is not originals[0]
    result = tracer.run_op(1, "op", lambda: (
        fake_module.double(3), fake_module.apply(lambda x: x, 5),
        fake_module.Box().get(4), fake_module.CHECKS[0]()))
    tracer.restore()

    assert result == (6, 10, 8, "one")
    names = [s[0] for s in tracer.spans]
    assert names == ["op", "double", "box.4", "check"]
    assert all(s[2] == 0 for s in tracer.spans[1:])
    assert tracer.counts[("doubled", 1)] == 3
    assert tracer.counts[("apply.f.calls", 1)] == 2
    assert tracer.restored()
    assert (fake_module.double, fake_module.apply, fake_module.Box.__dict__["get"],
            fake_module.CHECKS[0]) == originals


def test_missing_trace_points_are_reported_not_fatal(fake_module):
    tracer = Tracer()
    tracer.install([
        TracePoint("perfbench_no_such_module:f", "x"),
        TracePoint("perfbench_fake:renamed", "x"),
        TracePoint("perfbench_fake:Box.gone", "x"),
        TracePoint("perfbench_fake:CHECKS[check_two]", "x"),
        TracePoint("perfbench_fake:double", "double"),
    ])
    tracer.restore()
    assert len(tracer.missing) == 4
    assert tracer.restored()


def test_every_per_layer_metric_is_reported_with_nothing_traced():
    metrics = layers.per_layer_metrics(totals(Tracer()), ops=0, macs={})
    names = [n for n, _, _ in layers.PER_LAYER]
    assert len(set(names)) == len(names)
    assert set(metrics) == set(names) - {"trace.overhead_s", "trace.missing_targets"}
    assert all(v == 0 for v in metrics.values())


def test_every_trace_point_resolves_against_the_library():
    tracer = Tracer()
    tracer.install(layers.TRACE_POINTS)
    tracer.restore()
    assert tracer.missing == []
    assert tracer.restored()


def test_tracing_leaves_training_results_bitwise_unchanged():
    # The package re-exports the train() function under the submodule's name.
    train_mod = importlib.import_module("sumformer.train")
    from sumformer.model import build_mlp_sumformer
    from sumformer.targets import get_target

    data = train_mod.generate_dataset(get_target("cubic_coupling"), 3, 2, 60, 0.8, 4)
    config = train_mod.OptimizerConfig(batch_size=16)

    def run():
        report = train_mod.train(build_mlp_sumformer(2, 8, 4), data, 2, config, 4)
        return report.train_losses, report.val_errors

    plain = run()
    tracer = Tracer()
    tracer.install(layers.TRACE_POINTS)
    try:
        traced = tracer.run_op(1, "train.run", run)
    finally:
        tracer.restore()
    assert traced == plain
    assert tracer.restored()
    t = totals(tracer)
    assert t.op_calls["train.adam_step"] == 2 * 3
    assert abs(layers.train_partition_residual(t)) < 1e-9
    assert np.isfinite(plain[0]).all()
