"""The library bindings that perfbench's traced runs wrap.

perfbench (``perfbench/``, the timing benchmark) wraps library functions at
the bindings named in ``perfbench/layers.TRACE_POINTS``; a point that no
longer resolves is skipped and its metrics read 0.  Six points have been dead
since the library dropped their bindings, and perfbench's own resolution test
fails on them, so it would not show a seventh.  This test runs in the library's
suite and reads perfbench without changing it: only the six may be missing.
"""

import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")

KNOWN_DEAD = {
    "sumformer.train:mlp_taped",
    "sumformer.train:gradient",
    "sumformer.autodiff:Tape.group_sum",
    "sumformer.autodiff:Tape.repeat_rows",
    "sumformer.autodiff:Tape.concat_cols",
    "sumformer.attention:softmax_rows",
}


@pytest.fixture
def perfbench_modules(monkeypatch):
    """perfbench's ``layers`` and ``tracer``, imported from its directory and
    forgotten afterwards, so no other test sees them."""
    monkeypatch.syspath_prepend(PERFBENCH)
    for name in ("layers", "tracer"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import layers
    import tracer

    yield layers, tracer
    for name in ("layers", "tracer"):
        sys.modules.pop(name, None)


def test_only_the_known_dead_trace_points_are_missing(perfbench_modules):
    layers, tracer = perfbench_modules
    traced = tracer.Tracer()
    try:
        traced.install(layers.TRACE_POINTS)
    finally:
        traced.restore()
    assert traced.restored()
    missing = {entry.split(": ", 1)[0] for entry in traced.missing}
    assert missing <= KNOWN_DEAD, sorted(missing - KNOWN_DEAD)
