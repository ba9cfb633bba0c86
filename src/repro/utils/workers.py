"""Worker processes, each joined to its parent by one duplex pipe.

A :class:`WorkerPool` runs one function, given when the pool is made, on
every task its workers receive.  A worker holds at most one task at a
time, so whatever goes wrong in a worker (a crash, a kill, a hang its
caller times out) is the task it held.  The pool starts workers lazily
(fork where the platform has it, else spawn), waits on the busy workers'
pipes and sentinels, retires one worker, and stops and reaps them all.
Its callers keep their own dispatch loops and decide what a lost task
costs: the campaign runner (:mod:`repro.campaign.runner`) charges it an
attempt, and the tuner's unprunable races (:mod:`repro.tuning.search`)
re-run a lost chunk one candidate per task, so that a crash costs only
the candidate that caused it.

A worker exits when its parent is gone, even in the middle of a task: a
daemon thread polls the parent's pid, so an orphan neither keeps working
for nobody nor holds its parent's output pipes open.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait
from multiprocessing.process import BaseProcess
from typing import Any, Callable, List, Optional, Tuple

#: How often a worker checks that its parent is still alive.
_ORPHAN_POLL_SECONDS = 0.2

#: How long a stopped worker may take to exit before it is killed.
_STOP_SECONDS = 2.0


def _exit_with_parent(parent_pid: int) -> None:
    while os.getppid() == parent_pid:
        time.sleep(_ORPHAN_POLL_SECONDS)
    os._exit(1)


def _worker_loop(conn: Connection, fn: Callable[[Any], Any], parent_pid: int) -> None:
    """Body of one worker process: send back ``fn(task)`` for each task
    received, and stop on ``None`` or when the parent is gone."""
    # The parent's death cannot be read as EOF on the pipe: forked workers
    # inherit copies of the parent's ends.  Hence the pid watch.
    threading.Thread(target=_exit_with_parent, args=(parent_pid,), daemon=True).start()
    # An interrupt at the terminal reaches every process of the group; the
    # parent decides.  A forked worker inherits the parent's SIGTERM
    # handler: restore the default.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    while True:
        try:
            task = conn.recv()
            if task is None:
                return
            conn.send(fn(task))
        except (EOFError, OSError):
            return


@dataclass
class Worker:
    """One worker process, the parent's end of its pipe, and its task."""

    proc: BaseProcess
    conn: Connection
    task: Optional[Any] = None  # the task in flight, if busy
    deadline: Optional[float] = None  # for callers that time tasks out
    lost: bool = False  # retired: exited, or killed

    def crash_error(self) -> str:
        """The error a task lost with this (retired) worker is recorded with."""
        return f"WorkerCrash: worker exited with code {self.proc.exitcode}"


class WorkerPool:
    """Up to ``size`` worker processes running ``fn`` on one task each."""

    def __init__(self, fn: Callable[[Any], Any], size: int) -> None:
        self.fn = fn
        self.size = size
        self.workers: List[Worker] = []
        method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        self._ctx = multiprocessing.get_context(method)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def busy(self) -> List[Worker]:
        """The workers holding a task."""
        return [w for w in self.workers if w.task is not None]

    def free_worker(self) -> Optional[Worker]:
        """An idle worker, started if the pool has room; ``None`` when
        every worker is busy."""
        for worker in self.workers:
            if worker.task is None:
                return worker
        if len(self.workers) < self.size:
            return self.start()
        return None

    def start(self) -> Worker:
        """Start one worker."""
        conn, child_end = self._ctx.Pipe()
        proc = self._ctx.Process(target=_worker_loop, args=(child_end, self.fn, os.getpid()))
        proc.start()
        child_end.close()
        worker = Worker(proc, conn)
        self.workers.append(worker)
        return worker

    def send(self, worker: Worker, task: Any) -> bool:
        """Hand ``task`` to the idle ``worker``.  Returns ``False``, with
        the worker retired, when it had died idle: nothing ran."""
        try:
            worker.conn.send(task)
        except OSError:
            self.retire(worker)
            return False
        worker.task = task
        return True

    def wait(self, timeout: Optional[float]) -> List[Tuple[Worker, Optional[Any]]]:
        """Wait up to ``timeout`` seconds (``None``: without limit) for a
        busy worker to answer or exit.

        Returns ``(worker, answer)`` for each worker that did: ``answer``
        is ``fn``'s result for its task (the worker is idle again), or
        ``None`` when it exited holding ``worker.task``.  A worker that
        exited is retired (``worker.lost``), also when its answer arrived
        first.
        """
        busy = self.busy()
        ready = set(wait([w.conn for w in busy] + [w.proc.sentinel for w in busy], timeout))
        out: List[Tuple[Worker, Optional[Any]]] = []
        for worker in busy:
            answered = worker.conn in ready
            dead = worker.proc.sentinel in ready
            if not (answered or dead):
                continue
            answer = None
            try:
                # A dead worker's pipe holds its answer or EOF.
                if answered or worker.conn.poll():
                    answer = worker.conn.recv()
                    worker.task = None
            except (EOFError, OSError):
                dead = True
            if dead:
                self.retire(worker)
            out.append((worker, answer))
        return out

    def retire(self, worker: Worker) -> None:
        """Kill (if still alive), reap and forget one worker."""
        worker.proc.kill()
        worker.proc.join()
        worker.conn.close()
        worker.lost = True
        self.workers.remove(worker)

    def stop(self) -> None:
        """Stop and reap every worker, so that none outlives its caller.

        Idle workers are told to exit; a worker still holding a task is
        killed.
        """
        for worker in self.workers:
            try:
                if worker.task is None:
                    worker.conn.send(None)
                else:
                    worker.proc.kill()
            except OSError:  # already dead
                pass
        for worker in self.workers:
            worker.proc.join(_STOP_SECONDS)
            if worker.proc.is_alive():  # pragma: no cover - stuck in exit
                worker.proc.kill()
                worker.proc.join()
            worker.conn.close()
        self.workers.clear()
