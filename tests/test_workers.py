"""Tests for the shared worker pool (:mod:`repro.utils.workers`).

The campaign runner and the tuner both build on these guarantees: a
worker answers one task at a time and is reused; a worker that dies is
reported with the task it held and retired; a hung worker is the
caller's to time out; ``stop`` leaves no process behind; a worker leaves
interrupts to its parent; and a worker exits when its parent is gone.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from multiprocessing.connection import wait
from pathlib import Path

from repro.utils.workers import WorkerPool

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Upper bound on any single wait in these tests, so that a defect fails
#: instead of hanging the suite.
WAIT_SECONDS = 10.0


def _echo(task):
    return os.getpid(), task


def _exit_on_die(task):
    if task == "die":
        os._exit(7)
    return task


def _answer_then_exit(task):
    # The answer goes out at once; the process dies half a second later.
    threading.Timer(0.5, os._exit, (3,)).start()
    return task


def _slow_echo(task):
    time.sleep(0.3)
    return task


def _answers(pool, n):
    """Collect ``n`` answers from ``pool``, failing rather than hanging."""
    out = []
    deadline = time.time() + WAIT_SECONDS
    while len(out) < n and time.time() < deadline:
        out.extend(pool.wait(deadline - time.time()))
    assert len(out) == n, out
    return out


def _round_trip(pool, worker, task):
    """Send ``task`` and return its answer, so the worker's loop is known
    to be running (its signal handlers installed)."""
    assert pool.send(worker, task)
    [(answered, answer)] = _answers(pool, 1)
    assert answered is worker and not worker.lost
    return answer


class TestWorkerPool:
    def test_workers_start_lazily_up_to_size(self):
        with WorkerPool(_echo, 2) as pool:
            assert pool.workers == []
            first = pool.free_worker()
            assert pool.workers == [first]
            # An idle worker is handed out again rather than a new one started.
            assert pool.free_worker() is first
            assert pool.send(first, 1)
            second = pool.free_worker()
            assert second is not first and len(pool.workers) == 2
            assert pool.send(second, 2)
            assert pool.busy() == [first, second]
            assert pool.free_worker() is None  # full and busy
            _answers(pool, 2)
            assert pool.busy() == []
        assert multiprocessing.active_children() == []

    def test_answers_come_back_and_workers_are_reused(self):
        with WorkerPool(_echo, 1) as pool:
            worker = pool.free_worker()
            pid, task = _round_trip(pool, worker, ("chunk", [1, 2, 3]))
            assert task == ("chunk", [1, 2, 3])
            assert pid == worker.proc.pid != os.getpid()
            assert worker.task is None
            # The next task runs in the same process.
            assert pool.free_worker() is worker
            assert _round_trip(pool, worker, "again") == (pid, "again")

    def test_a_crash_reports_the_task_it_lost(self):
        with WorkerPool(_exit_on_die, 1) as pool:
            worker = pool.free_worker()
            assert _round_trip(pool, worker, "ok") == "ok"
            assert pool.send(worker, "die")
            assert pool.wait(WAIT_SECONDS) == [(worker, None)]
            assert worker.lost and worker.task == "die"
            assert worker.crash_error() == "WorkerCrash: worker exited with code 7"
            assert pool.workers == []
            # The pool replaces it on demand.
            fresh = pool.free_worker()
            assert fresh is not worker and fresh.proc.pid != worker.proc.pid
            assert _round_trip(pool, fresh, "ok") == "ok"

    def test_an_answer_sent_before_exiting_is_kept(self):
        with WorkerPool(_answer_then_exit, 1) as pool:
            worker = pool.free_worker()
            assert pool.send(worker, "last words")
            assert wait([worker.proc.sentinel], WAIT_SECONDS)
            # Both the answer and the exit are ready: the answer is
            # delivered and the worker retired.
            assert pool.wait(WAIT_SECONDS) == [(worker, "last words")]
            assert worker.lost and worker.task is None
            assert worker.proc.exitcode == 3
            assert pool.workers == []

    def test_a_hung_worker_is_the_callers_to_time_out(self):
        with WorkerPool(time.sleep, 1) as pool:
            worker = pool.free_worker()
            assert pool.send(worker, 30.0)
            t0 = time.time()
            assert pool.wait(0.05) == []
            assert time.time() - t0 < 5.0
            assert worker.task == 30.0 and not worker.lost
            pool.retire(worker)
            assert worker.lost
            assert worker.proc.exitcode == -signal.SIGKILL
            assert pool.workers == []

    def test_sending_to_a_worker_that_died_idle_retires_it(self):
        with WorkerPool(_echo, 1) as pool:
            worker = pool.free_worker()
            worker.proc.kill()
            worker.proc.join()
            assert pool.send(worker, "lost") is False
            assert worker.lost and worker.task is None
            assert pool.workers == []

    def test_stop_reaps_idle_and_busy_workers(self):
        with WorkerPool(time.sleep, 2) as pool:
            busy = pool.free_worker()
            assert pool.send(busy, 30.0)
            idle = pool.free_worker()
            assert idle is not busy
            assert _round_trip(pool, idle, 0.0) is None
            t0 = time.time()
        assert time.time() - t0 < 5.0
        assert pool.workers == []
        assert multiprocessing.active_children() == []
        assert idle.proc.exitcode == 0  # told to exit
        assert busy.proc.exitcode == -signal.SIGKILL  # killed holding its task


class TestWorkerSignals:
    def test_an_interrupt_is_left_to_the_parent(self):
        with WorkerPool(_slow_echo, 1) as pool:
            worker = pool.free_worker()
            assert _round_trip(pool, worker, "ready") == "ready"
            assert pool.send(worker, "through")
            os.kill(worker.proc.pid, signal.SIGINT)
            assert pool.wait(WAIT_SECONDS) == [(worker, "through")]
            assert not worker.lost

    def test_sigterm_kills_a_worker_despite_the_parents_handler(self):
        previous = signal.signal(signal.SIGTERM, lambda signum, frame: None)
        try:
            with WorkerPool(time.sleep, 1) as pool:
                worker = pool.free_worker()
                assert _round_trip(pool, worker, 0.0) is None
                assert pool.send(worker, 30.0)
                os.kill(worker.proc.pid, signal.SIGTERM)
                assert pool.wait(WAIT_SECONDS) == [(worker, None)]
                assert worker.lost
                assert worker.proc.exitcode == -signal.SIGTERM
        finally:
            signal.signal(signal.SIGTERM, previous)


SCRIPT = """
import os, time
from repro.utils.workers import WorkerPool

pool = WorkerPool(time.sleep, 1)
worker = pool.free_worker()
pool.send(worker, 20.0)
print(worker.proc.pid, flush=True)
os._exit(0)  # die without stopping the pool
"""


class TestOrphanedWorker:
    def test_a_worker_exits_when_its_parent_dies_mid_task(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        proc = subprocess.Popen(
            [sys.executable, "-c", SCRIPT],
            env=env,
            cwd=REPO_ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )
        worker_pid = None
        try:
            worker_pid = int(proc.stdout.readline())
            proc.wait(timeout=WAIT_SECONDS)
            t0 = time.time()
            # The orphan holds the dead parent's stdout until it exits.
            # It also holds a copy of its own pipe's far end, so without
            # the pid watch it would wait for its next task for ever.
            try:
                proc.communicate(timeout=WAIT_SECONDS)
            except subprocess.TimeoutExpired:
                pass
            closed_after = time.time() - t0
        finally:
            if worker_pid is not None:
                try:
                    os.kill(worker_pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            proc.kill()
            proc.communicate()
        assert closed_after < 5.0, f"the orphan worker ran on {closed_after:.1f}s"
