"""The heads oracles and MAC figures, and BENCHMARK.json against the code."""

import json
import os
from types import SimpleNamespace

import numpy as np
import pytest

import layers
import run
import worker
from workloads import Heads, reference_head

from sumformer import attention, multisym

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.mark.parametrize("variant", layers.VARIANTS)
@pytest.mark.parametrize("n", layers.HEAD_SIZES)
def test_mac_count_matches_audited_count_at_benchmark_sizes(variant, n):
    k = None if variant == "standard" else Heads.K
    assert attention.mac_count(variant, n, Heads.M, k) == attention.audited_mac_count(
        variant, n, Heads.M, k)


@pytest.mark.parametrize("variant", layers.VARIANTS)
def test_oracles_agree_with_library_and_catch_a_wrong_output(variant):
    sf = SimpleNamespace(attention=attention, multisym=multisym)
    heads = Heads(sf, seed=3, scratch="", variants=(variant,), sizes=(256,))
    heads.prepare()
    assert heads.labels == (f"{variant}.n256", f"construction.{variant}")
    for label in heads.labels:
        _, span, call = heads.next_op()
        assert span == f"attention.{label}"
        out = call()
        assert heads.check(label, out)
        wrong = out.copy()
        wrong[-1, -1] += 1e-6 * max(1.0, abs(wrong[-1, -1]))
        assert not heads.check(label, wrong)
        assert not heads.check(label, out[:-1])


def test_reference_head_is_independent_of_block_size():
    rng = np.random.default_rng(0)
    x = rng.uniform(size=(100, 4))
    w = [rng.uniform(-1, 1, size=(4, 4)) for _ in range(3)]
    a = reference_head("standard", x, *w, block=7)
    b = reference_head("standard", x, *w, block=100)
    assert np.allclose(a, b, rtol=1e-14, atol=0)


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in layers.PER_LAYER]


class _FixedCalibration:
    reference_s = 0.5

    def seconds(self):
        return 1.0


class _CountingWorkload:
    labels = ("op",)
    calibration = _FixedCalibration()

    def next_op(self):
        return "op", "op", lambda: 7

    def check(self, label, result):
        return result == 7


def test_measure_scales_each_operation_by_the_calibrated_slowdown():
    m = worker.measure(_CountingWorkload(), seconds=0.01)
    assert m.attempted == len(m.samples["op"]) > 0 and m.failed == 0
    assert m.slowdowns == [2.0] * m.attempted
    assert m.scaled["op"] == [s / 2.0 for s in m.samples["op"]]
    merged = m.merge(m)
    assert merged.attempted == 2 * m.attempted
    assert merged.scaled["op"] == m.scaled["op"] * 2
