import os
import select
import subprocess
import sys
import threading
import time

import pytest

from sumformer import parallel, verify
from sumformer.errors import ContractError, TrainingDivergedError, WorkerError
from sumformer.parallel import MAX_TASKS, run_in_processes, worker_count
from sumformer.verify import VerifyConfig

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@pytest.fixture(params=[1, 2, 3], ids=lambda w: f"workers{w}")
def workers(request, monkeypatch):
    """The runners at 1, 2 and 3 workers, whatever the machine."""
    monkeypatch.setattr(parallel, "WORKERS", request.param)
    return request.param


def _no_child_left():
    """This process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class _InAChild:
    """A task that does ``action`` only in a forked worker.  In the calling
    process it waits, at most 30 s, until a worker has started the action, so
    with two tasks on two workers the action runs in the child whatever the
    order the workers take the tasks in."""

    def __init__(self, action):
        self.action = action
        self.parent = os.getpid()
        self.started, self.signal = os.pipe()

    def __call__(self, i):
        if os.getpid() == self.parent:
            assert select.select([self.started], [], [], 30)[0], "no worker started the action"
            return i
        os.write(self.signal, b"x")
        return self.action(i)

    def close(self):
        os.close(self.started)
        os.close(self.signal)


@pytest.mark.parametrize("cpus, environ, expected", [
    (2, {}, 1),                                     # BLAS takes every CPU
    (2, {"OPENBLAS_NUM_THREADS": "1"}, 2),
    (2, {"OPENBLAS_NUM_THREADS": "2"}, 1),
    (8, {"OPENBLAS_NUM_THREADS": "3"}, 2),
    (4, {"OMP_NUM_THREADS": "1"}, 4),
    (4, {"GOTO_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2),
    (4, {"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 1),
    (2, {"OPENBLAS_NUM_THREADS": "8"}, 1),
    (4, {"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 4),
    *((2, {"OPENBLAS_NUM_THREADS": bad}, 1) for bad in ("0", "-1", "x", "")),
    *((2, {"OPENBLAS_NUM_THREADS": bad, "OMP_NUM_THREADS": "1"}, 2) for bad in ("0", "-1", "x")),
])
def test_worker_count_is_the_cpus_that_blas_leaves_idle(cpus, environ, expected):
    assert worker_count(cpus, environ) == expected


def test_results_come_back_in_list_order(workers):
    parent = os.getpid()
    done = run_in_processes(lambda i, j: (i * j, os.getpid()), [(i, i + 1) for i in range(12)])
    assert [value for (value, _), _, _ in done] == [i * (i + 1) for i in range(12)]
    for (_, pid), worker, seconds in done:
        assert worker in range(workers) and (pid == parent) == (worker == 0)
        assert seconds >= 0.0
    _no_child_left()


def test_an_empty_task_list_gives_no_result(workers):
    assert run_in_processes(lambda: None, []) == []
    _no_child_left()


def test_the_first_failure_in_list_order_is_re_raised_with_its_attributes(workers):
    """Task 2 fails at once and task 1 after a while, maybe in another
    worker; task 1's error is the one a serial loop raises."""

    def task(i):
        if i == 1:
            time.sleep(0.05)
        if i in (1, 2, 4):
            raise TrainingDivergedError(f"task {i} diverged", report={"task": i})
        return i

    with pytest.raises(TrainingDivergedError, match="task 1 diverged") as exc_info:
        run_in_processes(task, [(i,) for i in range(6)])
    assert exc_info.value.report == {"task": 1}
    _no_child_left()


def test_a_worker_that_dies_is_a_worker_error(monkeypatch):
    monkeypatch.setattr(parallel, "WORKERS", 2)
    task = _InAChild(lambda i: os._exit(1))
    try:
        with pytest.raises(WorkerError, match="exited with status 1"):
            run_in_processes(task, [(0,), (1,)])
    finally:
        task.close()
    _no_child_left()


class _NeedsTwoArguments(Exception):
    def __init__(self, first, second):
        super().__init__(first)
        self.second = second


def test_an_error_that_cannot_be_rebuilt_here_is_a_worker_error(monkeypatch):
    def action(i):
        raise _NeedsTwoArguments("lost", 2)

    monkeypatch.setattr(parallel, "WORKERS", 2)
    task = _InAChild(action)
    try:
        with pytest.raises(WorkerError, match="could not be read"):
            run_in_processes(task, [(0,), (1,)])
    finally:
        task.close()
    _no_child_left()


def test_an_interrupted_caller_kills_its_children(monkeypatch):
    """The calling process is interrupted while a child runs a long task:
    the child is killed and reaped, and the call ends at once."""
    parent = os.getpid()
    started, signal = os.pipe()

    def task(i):
        if os.getpid() != parent:
            os.write(signal, b"x")
            time.sleep(60)
        assert select.select([started], [], [], 30)[0]
        raise KeyboardInterrupt

    monkeypatch.setattr(parallel, "WORKERS", 2)
    start = time.perf_counter()
    try:
        with pytest.raises(KeyboardInterrupt):
            run_in_processes(task, [(0,), (1,)])
    finally:
        os.close(started)
        os.close(signal)
    assert time.perf_counter() - start < 30
    _no_child_left()


def test_a_second_thread_keeps_the_runner_serial(monkeypatch):
    monkeypatch.setattr(parallel, "WORKERS", 3)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(30,))
    thread.start()
    try:
        assert parallel.process_count(8) == 1
        done = run_in_processes(lambda i: os.getpid(), [(i,) for i in range(8)])
    finally:
        release.set()
        thread.join(30)
    assert not thread.is_alive()
    assert [(pid, worker) for pid, worker, _ in done] == [(os.getpid(), 0)] * 8
    assert parallel.process_count(8) == 3


def test_too_many_tasks_are_refused_before_any_runs():
    ran = []
    with pytest.raises(ContractError, match=str(MAX_TASKS)):
        run_in_processes(ran.append, [(i,) for i in range(MAX_TASKS + 1)])
    assert ran == []


def _cli(args, cwd, blas_threads):
    env = {key: value for key, value in os.environ.items() if key not in BLAS_VARIABLES}
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    env["PYTHONPATH"] = SRC
    return subprocess.run([sys.executable, "-m", "sumformer.cli", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=600)


def test_verify_report_is_the_same_at_default_blas_and_at_one_blas_thread(tmp_path):
    """At default BLAS the checks run serially; at one BLAS thread on one
    worker per CPU."""
    reports = []
    for blas_threads in (None, 1):
        out = tmp_path / f"blas{blas_threads}"
        result = _cli(["verify", "--out", str(out)], tmp_path, blas_threads)
        assert result.returncode == 0, result.stderr
        reports.append((out / "verify_report.txt").read_bytes())
        last = (out / "verify_timing.txt").read_text().splitlines()[-1]
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        expected = 1 if blas_threads is None else min(cpus, 8)
        assert last.startswith(f"workers={expected} wall_seconds="), last
    assert reports[0] == reports[1]


def test_importing_the_package_loads_no_process_pool():
    result = subprocess.run(
        [sys.executable, "-c", "import sys, sumformer; "
         "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"],
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def _broken_check(config):
    raise TrainingDivergedError("broken check", report="last good")


@pytest.mark.parametrize("index", [0, 4, 8])
def test_a_check_that_raises_in_any_worker_is_re_raised(workers, monkeypatch, index):
    checks = [*verify.ALL_CHECKS]
    checks.insert(index, _broken_check)
    monkeypatch.setattr(verify, "ALL_CHECKS", checks)
    with pytest.raises(TrainingDivergedError, match="broken check") as exc_info:
        verify.run_verification(VerifyConfig(n_list=[2, 3], d_list=[1]))
    assert exc_info.value.report == "last good"
    _no_child_left()


def test_a_verify_worker_that_dies_is_a_worker_error(monkeypatch):
    monkeypatch.setattr(parallel, "WORKERS", 2)
    check = _InAChild(lambda config: os._exit(3))
    monkeypatch.setattr(verify, "ALL_CHECKS", [check, check])
    try:
        with pytest.raises(WorkerError, match="exited with status 3"):
            verify.run_verification(VerifyConfig())
    finally:
        check.close()
    _no_child_left()
