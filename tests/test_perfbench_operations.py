"""One checked operation of each perfbench workload.

perfbench (``perfbench/``, the timing benchmark) calls the library from
``perfbench/workloads.py``: ``OptimizerConfig`` by keyword,
``generate_dataset``, ``head_forward``, ``build_sum_extraction`` and
``cli.main(["verify", ...])``.  A change that breaks one of those calls
would otherwise show only in a benchmark run.  This test reads perfbench
without changing it: it builds each workload at seed 0 (the heads at
n = 256 only) and checks one operation of each label with the workload's
own oracle.
"""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
MODULES = ("layers", "tracer", "workloads")


@pytest.fixture
def workloads(monkeypatch):
    """perfbench's ``workloads``, imported from its directory with the modules
    it imports, and forgotten afterwards, so no other test sees them; no
    bytecode is written under perfbench."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(PERFBENCH)
    for name in MODULES:
        monkeypatch.delitem(sys.modules, name, raising=False)
    import workloads

    yield workloads
    for name in MODULES:
        sys.modules.pop(name, None)


def test_one_operation_of_each_workload_passes_its_check(workloads, tmp_path):
    sf = workloads.load_library(os.path.join(ROOT, "src"))
    scratch = str(tmp_path)
    built = [workloads.Train(sf, 0, scratch),
             workloads.Heads(sf, 0, scratch, sizes=(256,)),
             workloads.Verify(sf, 0, scratch)]
    assert [type(w) for w in built] == list(workloads.WORKLOADS.values())
    checked = []
    for workload in built:
        workload.prepare()
        for _ in workload.labels:
            label, _, op = workload.next_op()
            assert workload.check(label, op()), label
            checked.append(label)
    assert checked == ["train", "standard.n256", "linformer.n256", "performer.n256",
                       "construction.standard", "construction.linformer",
                       "construction.performer", "verify"]
