"""Tests for the shared worker pool (:mod:`repro.utils.workers`).

The campaign runner and the tuner both build on these guarantees: a
worker answers item by item and is reused; chunks follow the guided rule
down to one item; a worker that dies is reported with the item it was
running, the unstarted rest of its chunk goes back to the front of the
queue, and the worker is retired; a hung item is the caller's to time
out, alone; ``stop`` leaves no process behind; a worker leaves
interrupts to its parent; and a worker exits when its parent is gone.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from collections import deque
from multiprocessing.connection import wait
from pathlib import Path

from repro.utils.workers import LOST, WorkerPool

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Upper bound on any single wait in these tests, so that a defect fails
#: instead of hanging the suite.
WAIT_SECONDS = 10.0


def _echo(item):
    return os.getpid(), item


def _exit_on_die(item):
    if item == "die":
        os._exit(7)
    return item


def _answer_then_exit(item):
    # The answer goes out at once; the process dies half a second later.
    threading.Timer(0.5, os._exit, (3,)).start()
    return item


def _slow_echo(item):
    time.sleep(0.3)
    return item


def _answers(pool, n):
    """Collect ``n`` answers from ``pool``, failing rather than hanging."""
    out = []
    deadline = time.time() + WAIT_SECONDS
    while len(out) < n and time.time() < deadline:
        out.extend(pool.wait(deadline - time.time()))
    assert len(out) == n, out
    return out


def _round_trip(pool, worker, item):
    """Send ``[item]`` and return its answer, so the worker's loop is known
    to be running (its signal handlers installed)."""
    assert pool.send(worker, [item])
    [(answered, got, answer)] = _answers(pool, 1)
    assert answered is worker and got == item and not worker.lost
    return answer


class TestWorkerPool:
    def test_workers_start_lazily_up_to_size(self):
        with WorkerPool(_echo, 2) as pool:
            assert pool.hand_out() == [] and pool.workers == []
            pool.queue.append(0)
            [(first, _)] = pool.hand_out()
            assert pool.workers == [first]
            _answers(pool, 1)
            # An idle worker is handed out again rather than a new one started.
            pool.queue.extend([1, 2, 3])
            assert pool.hand_out() == [(first, [1]), (pool.workers[1], [2])]
            second = pool.workers[1]
            assert second is not first and pool.busy() == [first, second]
            assert pool.hand_out() == [] and list(pool.queue) == [3]  # full and busy
            _answers(pool, 2)
            assert pool.busy() == []
        assert multiprocessing.active_children() == []

    def test_answers_come_back_and_workers_are_reused(self):
        with WorkerPool(_echo, 1) as pool:
            worker = pool.start()
            assert pool.send(worker, ["a", "b", "c"])
            events = _answers(pool, 3)
            pid = worker.proc.pid
            assert events == [(worker, x, (pid, x)) for x in "abc"]
            assert pid != os.getpid()
            assert not worker.chunk and pool.busy() == []
            # The next chunk runs in the same process.
            assert _round_trip(pool, worker, "again") == (pid, "again")

    def test_chunks_follow_the_guided_rule_down_to_one(self):
        with WorkerPool(_echo, 2) as pool:
            pool.queue.extend(range(40))
            sizes, answered = [], []
            while pool.queue:
                handed = pool.hand_out()
                sizes += [len(chunk) for _, chunk in handed]
                n = sum(len(chunk) for _, chunk in handed)
                answered += [item for _, item, _ in _answers(pool, n)]
            # Each chunk is len(queue) // (4 * 2) items, at least one.
            assert sizes == [5, 4, 3, 3, 3, 2, 2, 2, 2] + [1] * 14
            assert sorted(answered) == list(range(40))

    def test_a_crash_reports_the_task_it_lost(self):
        with WorkerPool(_exit_on_die, 1) as pool:
            worker = pool.start()
            assert _round_trip(pool, worker, "ok") == "ok"
            assert pool.send(worker, ["die"])
            assert pool.wait(WAIT_SECONDS) == [(worker, "die", LOST)]
            assert worker.lost and not worker.chunk
            assert worker.crash_error() == "WorkerCrash: worker exited with code 7"
            assert pool.workers == [] and not pool.queue
            # The pool replaces it on demand.
            pool.queue.append("ok")
            [(fresh, _)] = pool.hand_out()
            assert fresh is not worker and fresh.proc.pid != worker.proc.pid
            assert _answers(pool, 1) == [(fresh, "ok", "ok")]

    def test_a_lost_worker_hands_back_the_unstarted_rest(self):
        with WorkerPool(_exit_on_die, 1) as pool:
            worker = pool.start()
            pool.queue.append("queued")
            assert pool.send(worker, ["ok", "die", "x", "y"])
            # The answer before the crash is kept, the crash costs "die"
            # alone, and "x" and "y" go back ahead of the queue, unrun.
            assert _answers(pool, 2) == [(worker, "ok", "ok"), (worker, "die", LOST)]
            assert worker.lost and pool.workers == []
            assert pool.queue == deque(["x", "y", "queued"])

    def test_an_answer_sent_before_exiting_is_kept(self):
        with WorkerPool(_answer_then_exit, 1) as pool:
            worker = pool.start()
            assert pool.send(worker, ["last words"])
            assert wait([worker.proc.sentinel], WAIT_SECONDS)
            # Both the answer and the exit are ready: the answer is
            # delivered and the worker retired.
            assert pool.wait(WAIT_SECONDS) == [(worker, "last words", "last words")]
            assert worker.lost and not worker.chunk
            assert worker.proc.exitcode == 3
            assert pool.workers == []

    def test_a_hung_worker_is_the_callers_to_time_out(self):
        with WorkerPool(time.sleep, 1) as pool:
            worker = pool.start()
            assert pool.send(worker, [30.0])
            t0 = time.time()
            assert pool.wait(0.05) == []
            assert time.time() - t0 < 5.0
            assert list(worker.chunk) == [30.0] and not worker.lost
            assert pool.retire(worker) == 30.0
            assert worker.lost
            assert worker.proc.exitcode == -signal.SIGKILL
            assert pool.workers == []

    def test_an_overrunning_item_times_out_alone(self):
        with WorkerPool(time.sleep, 1) as pool:
            worker = pool.start()
            assert pool.send(worker, [0.3, 30.0, 0.0, 0.0])
            handed_at = worker.since
            # The clock restarts at each answer: the 0.3 s item's answer
            # starts the hung item's.
            assert _answers(pool, 1) == [(worker, 0.3, None)]
            assert worker.since >= handed_at + 0.3
            assert pool.wait(0.05) == []
            assert pool.retire(worker) == 30.0
            assert pool.queue == deque([0.0, 0.0])
            # The rest runs on a fresh worker, uncharged by the hang.
            [(fresh, chunk)] = pool.hand_out()
            assert fresh is not worker and chunk == [0.0]
            assert _answers(pool, 1) == [(fresh, 0.0, None)]

    def test_sending_to_a_worker_that_died_idle_retires_it(self):
        with WorkerPool(_echo, 1) as pool:
            worker = pool.start()
            worker.proc.kill()
            worker.proc.join()
            pool.queue.extend(["lost", "too"])
            # Nothing ran: the chunk is back at the front of the queue.
            assert pool.hand_out() == [(worker, ["lost"])]
            assert worker.lost and not worker.chunk
            assert pool.workers == []
            assert pool.queue == deque(["lost", "too"])
            assert pool.send(pool.start(), ["x"])

    def test_stop_reaps_idle_and_busy_workers(self):
        with WorkerPool(time.sleep, 2) as pool:
            busy, idle = pool.start(), pool.start()
            assert pool.send(busy, [30.0])
            assert _round_trip(pool, idle, 0.0) is None
            t0 = time.time()
        assert time.time() - t0 < 5.0
        assert pool.workers == []
        assert multiprocessing.active_children() == []
        assert idle.proc.exitcode == 0  # told to exit
        assert busy.proc.exitcode == -signal.SIGKILL  # killed holding its chunk


class TestWorkerSignals:
    def test_an_interrupt_is_left_to_the_parent(self):
        with WorkerPool(_slow_echo, 1) as pool:
            worker = pool.start()
            assert _round_trip(pool, worker, "ready") == "ready"
            assert pool.send(worker, ["through"])
            os.kill(worker.proc.pid, signal.SIGINT)
            assert pool.wait(WAIT_SECONDS) == [(worker, "through", "through")]
            assert not worker.lost

    def test_sigterm_kills_a_worker_despite_the_parents_handler(self):
        previous = signal.signal(signal.SIGTERM, lambda signum, frame: None)
        try:
            with WorkerPool(time.sleep, 1) as pool:
                worker = pool.start()
                assert _round_trip(pool, worker, 0.0) is None
                assert pool.send(worker, [30.0])
                os.kill(worker.proc.pid, signal.SIGTERM)
                assert pool.wait(WAIT_SECONDS) == [(worker, 30.0, LOST)]
                assert worker.lost
                assert worker.proc.exitcode == -signal.SIGTERM
        finally:
            signal.signal(signal.SIGTERM, previous)


SCRIPT = """
import os, time
from repro.utils.workers import WorkerPool

pool = WorkerPool(time.sleep, 1)
worker = pool.start()
pool.send(worker, [20.0])
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
            # the pid watch it would wait for its next chunk for ever.
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
