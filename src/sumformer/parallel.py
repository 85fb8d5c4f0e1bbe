"""The worker rule and the two runners that split independent work over it.

``WORKERS`` is one worker per CPU that BLAS leaves idle.  ``run_in_threads``
runs calls that spend their time in numpy with the GIL released (the softmax
heads' score blocks) on threads.  ``run_in_processes`` runs calls that spend
it in Python (the ``verify`` checks) on forked processes, which pull task
indices from one shared queue.  Each returns its results in list order and
re-raises the error of the first call in list order that failed, as a serial
loop does.
"""

from __future__ import annotations

import contextvars
import os
import pickle
import threading
import time

from .errors import ContractError, WorkerError


def worker_count(cpus: int, environ) -> int:
    """Workers that the runners split their work over: one per CPU that BLAS
    leaves idle.  BLAS takes the first positive integer among OpenBLAS's own
    variables, in its order, and every CPU when none is set; so a process
    that leaves BLAS at its default gets one worker."""
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            if (blas_threads := int(environ.get(name, ""))) > 0:
                return max(1, cpus // blas_threads)
        except ValueError:
            pass
    return 1


WORKERS = worker_count(
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1,
    os.environ)


def run_in_threads(function, arguments):
    """function(*args) for each args of ``arguments``: the first on this thread,
    each other on a thread of its own in a copy of this thread's context (so
    it sees the caller's ``np.errstate``), all joined before this returns;
    then the error of the first call in list order that failed is re-raised."""
    errors = [None] * len(arguments)

    def call(i):
        try:
            function(*arguments[i])
        except Exception as exc:  # noqa: BLE001 - re-raised below, after the join
            errors[i] = exc

    threads = [threading.Thread(target=contextvars.copy_context().run, args=(call, i))
               for i in range(1, len(arguments))]
    for thread in threads:
        thread.start()
    try:
        call(0)
    finally:
        for thread in threads:
            thread.join()
    for error in errors:
        if error is not None:
            raise error


# A task index is a 4-byte ticket.  The caller writes every ticket into the
# queue pipe before it forks; a pipe holds at least 4 KiB, so that write
# never waits for a reader.
_TICKET = 4
MAX_TASKS = 4096 // _TICKET
_SIGKILL = 9  # POSIX fixes it; the signal module is not otherwise loaded


def process_count(tasks: int) -> int:
    """Processes that ``run_in_processes`` runs ``tasks`` tasks on:
    min(WORKERS, tasks), or 1 where this process cannot fork, or cannot fork
    safely because a second thread is alive (the child would get only the
    forking thread, and a lock another thread held would stay locked)."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return max(1, min(WORKERS, tasks))


def run_in_processes(function, arguments) -> list[tuple]:
    """(function(*args), worker, seconds) for each args of ``arguments``, in
    list order; ``worker`` is the process that ran the call (0 for this one)
    and ``seconds`` the call's wall time, measured in that process.

    The calls run on ``process_count`` workers: this process and, beside
    it, children forked from it, so they see everything this process has
    set up, monkeypatches included, and no argument or function is pickled.
    Each worker, this one too, takes the next task index from one queue
    until it is empty, so on one worker this process takes every task in
    list order; a child pickles its results back.  A call that raises
    empties the queue, so no worker starts a later task, and after every
    child is reaped the error of the first failed call in list order is
    re-raised here with its class and attributes.  A child that dies before
    sending its results, or sends what cannot be read here, is a
    ``WorkerError``.  No child outlives the call: a child only ever ends in
    ``os._exit``, and this process waits for each, killing it first when it
    is itself interrupted.
    """
    if len(arguments) > MAX_TASKS:
        raise ContractError(f"run_in_processes takes at most {MAX_TASKS} tasks, got {len(arguments)}")
    workers = process_count(len(arguments))
    queue, tickets = os.pipe()
    os.write(tickets, b"".join(i.to_bytes(_TICKET, "little") for i in range(len(arguments))))
    os.close(tickets)
    children: list[tuple[int, int, int]] = []  # (worker, pid, its result pipe), not yet reaped
    try:
        for worker in range(1, workers):
            read_end, write_end = os.pipe()
            unused = [read_end, *(fd for _, _, fd in children)]
            pid = os.fork()
            if pid == 0:
                _child(function, arguments, queue, write_end, unused)
            children.append((worker, pid, read_end))
            os.close(write_end)
        outcomes = [(index, 0, *rest) for index, *rest in _pull(function, arguments, queue)]
        while children:
            worker, pid, read_end = children[0]
            with os.fdopen(read_end, "rb", closefd=False) as pipe:
                sent = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(0)
            os.close(read_end)
            if code != 0 or not sent:
                fault = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
                raise WorkerError(f"worker process {pid} {fault} before it sent its results")
            try:
                outcomes += [(index, worker, *rest) for index, *rest in pickle.loads(sent)]
            except Exception as exc:  # an error whose class needs other arguments, say
                raise WorkerError(f"the results of worker process {pid} could not be read: {exc!r}") from exc
    finally:
        os.close(queue)
        for _, pid, read_end in children:
            os.kill(pid, _SIGKILL)
            os.waitpid(pid, 0)
            os.close(read_end)
    outcomes.sort(key=lambda outcome: outcome[0])
    for _, _, _, raised, value in outcomes:
        if raised:
            raise value
    return [(value, worker, seconds) for _, worker, seconds, _, value in outcomes]


def _pull(function, arguments, queue: int) -> list[tuple]:
    """(index, seconds, raised, value or error) of each task this worker
    takes from the queue, until the queue is empty.  A task that raises
    empties the queue and ends the loop."""
    outcomes = []
    while ticket := os.read(queue, _TICKET):
        index = int.from_bytes(ticket, "little")
        start = time.perf_counter()
        try:
            value, raised = function(*arguments[index]), False
        except Exception as exc:  # noqa: BLE001 - re-raised by the caller, in list order
            value, raised = exc, True
        outcomes.append((index, time.perf_counter() - start, raised, value))
        if raised:
            while os.read(queue, 4096):
                pass
            break
    return outcomes


def _child(function, arguments, queue: int, write_end: int, unused: list[int]):
    """A forked worker: pulls tasks, pickles their outcomes to ``write_end``
    and ends the process, with status 1 when it could not send them.  It
    never returns, so no error leaves it into the caller's stack."""
    code = 1
    try:
        for fd in unused:
            os.close(fd)
        sent = pickle.dumps(_pull(function, arguments, queue))
        with os.fdopen(write_end, "wb") as pipe:
            pipe.write(sent)
        code = 0
    finally:
        os._exit(code)
