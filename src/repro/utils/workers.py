"""Worker processes, each joined to its parent by one duplex pipe.

A :class:`WorkerPool` runs one function, given when the pool is made, on
the items of its :attr:`~WorkerPool.queue`.  :meth:`~WorkerPool.hand_out`
gives every idle worker, started lazily (fork where the platform has it,
else spawn), the next chunk of the queue, sized by guided self-scheduling
(Polychronopoulos and Kuck, IEEE Trans. Computers 1987): a fixed share of
what is left, so chunks shrink towards one item as the queue drains.  A
worker sends one answer per item, as soon as that item finishes, and
:meth:`~WorkerPool.wait` reads every answer already waiting.  Whatever
goes wrong in a worker (a crash, a kill, a hang its caller times out)
costs the one item it was running: the unstarted rest of its chunk goes
back to the front of the queue.  The callers decide what a lost item
costs: the campaign runner (:mod:`repro.campaign.runner`) charges it an
attempt, and the tuner's unprunable races (:mod:`repro.tuning.search`)
record it as a failed candidate.

A worker exits when its parent is gone, even in the middle of an item: a
daemon thread polls the parent's pid, so an orphan neither keeps working
for nobody nor holds its parent's output pipes open.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import Connection, wait
from multiprocessing.process import BaseProcess
from typing import Any, Callable, Deque, List, Optional, Tuple

#: How often a worker checks that its parent is still alive.
_ORPHAN_POLL_SECONDS = 0.2

#: How long a stopped worker may take to exit before it is killed.
_STOP_SECONDS = 2.0

#: A chunk is ``1 / (_CHUNKS_PER_WORKER * size)`` of the queue: small
#: enough that a worker handed the slow items does not finish last by
#: far, large enough that a worker's neighbouring items (which often share
#: a compiled program) stay on its caches.
_CHUNKS_PER_WORKER = 4

#: The answer :meth:`WorkerPool.wait` reports for the item a worker was
#: running when it exited.
LOST = object()


def _exit_with_parent(parent_pid: int) -> None:
    while os.getppid() == parent_pid:
        time.sleep(_ORPHAN_POLL_SECONDS)
    os._exit(1)


def _worker_loop(conn: Connection, fn: Callable[[Any], Any], parent_pid: int) -> None:
    """Body of one worker process: send back ``fn(item)`` for each item of
    each chunk received, and stop on ``None`` or when the parent is gone."""
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
            chunk = conn.recv()
            if chunk is None:
                return
            for item in chunk:
                conn.send(fn(item))
        except (EOFError, OSError):
            return


@dataclass
class Worker:
    """One worker process, the parent's end of its pipe, and its chunk."""

    proc: BaseProcess
    conn: Connection
    #: The items of its chunk not answered yet; ``chunk[0]`` is running.
    chunk: Deque[Any] = field(default_factory=deque)
    #: When ``chunk[0]`` started: the hand-off, or the last answer.
    since: float = 0.0
    lost: bool = False  # retired: exited, or killed

    def crash_error(self) -> str:
        """The error an item lost with this (retired) worker is recorded with."""
        return f"WorkerCrash: worker exited with code {self.proc.exitcode}"


class WorkerPool:
    """Up to ``size`` worker processes running ``fn`` on the items of
    :attr:`queue`, one chunk per worker at a time."""

    def __init__(self, fn: Callable[[Any], Any], size: int) -> None:
        self.fn = fn
        self.size = size
        self.workers: List[Worker] = []
        #: The caller's items still to hand out, in order.
        self.queue: Deque[Any] = deque()
        method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        self._ctx = multiprocessing.get_context(method)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def busy(self) -> List[Worker]:
        """The workers holding unanswered items."""
        return [w for w in self.workers if w.chunk]

    def start(self) -> Worker:
        """Start one worker."""
        conn, child_end = self._ctx.Pipe()
        proc = self._ctx.Process(target=_worker_loop, args=(child_end, self.fn, os.getpid()))
        proc.start()
        child_end.close()
        worker = Worker(proc, conn)
        self.workers.append(worker)
        return worker

    def hand_out(self) -> List[Tuple[Worker, List[Any]]]:
        """Give every idle worker, started up to ``size``, the next
        ``max(1, len(queue) // (4 * size))`` items of :attr:`queue`.

        Returns ``(worker, chunk)`` per hand-off.  A worker found dead
        (``worker.lost``) ran nothing: its chunk is back at the front of
        the queue, and the hand-out stops there.
        """
        handed: List[Tuple[Worker, List[Any]]] = []
        while self.queue:
            worker = next((w for w in self.workers if not w.chunk), None)
            if worker is None:
                if len(self.workers) == self.size:
                    break
                worker = self.start()
            n = max(1, len(self.queue) // (_CHUNKS_PER_WORKER * self.size))
            chunk = [self.queue.popleft() for _ in range(n)]
            handed.append((worker, chunk))
            if not self.send(worker, chunk):
                self.queue.extendleft(reversed(chunk))
                break
        return handed

    def send(self, worker: Worker, chunk: List[Any]) -> bool:
        """Hand ``chunk`` to the idle ``worker``.  Returns ``False``, with
        the worker retired, when it had died idle: nothing ran."""
        try:
            worker.conn.send(chunk)
        except OSError:
            self.retire(worker)
            return False
        worker.chunk.extend(chunk)
        worker.since = time.monotonic()
        return True

    def wait(self, timeout: Optional[float]) -> List[Tuple[Worker, Any, Any]]:
        """Wait up to ``timeout`` seconds (``None``: without limit) for a
        busy worker to answer or exit; at once if none is busy.

        Returns ``(worker, item, answer)`` for every answer waiting in the
        ready workers' pipes, in each worker's item order.  A worker that
        exited is retired (``worker.lost``), also when its answers arrived
        first; the item it was running comes last, with ``answer`` the
        :data:`LOST` marker, and the rest of its chunk goes back to the
        front of the queue.
        """
        busy = self.busy()
        if not busy:
            return []
        ready = set(wait([w.conn for w in busy] + [w.proc.sentinel for w in busy], timeout))
        out: List[Tuple[Worker, Any, Any]] = []
        for worker in busy:
            dead = worker.proc.sentinel in ready
            if not (dead or worker.conn in ready):
                continue
            try:
                # A dead worker's pipe holds its last answers, then EOF.
                while worker.chunk and worker.conn.poll():
                    answer = worker.conn.recv()
                    out.append((worker, worker.chunk.popleft(), answer))
                    worker.since = time.monotonic()
            except (EOFError, OSError):
                dead = True
            if dead:
                item = self.retire(worker)
                if item is not None:
                    out.append((worker, item, LOST))
        return out

    def retire(self, worker: Worker) -> Optional[Any]:
        """Kill (if still alive), reap and forget one worker.

        Returns the item it was running (``None`` if it was idle); the
        unstarted rest of its chunk goes back to the front of the queue.
        """
        worker.proc.kill()
        worker.proc.join()
        worker.conn.close()
        worker.lost = True
        self.workers.remove(worker)
        if not worker.chunk:
            return None
        item = worker.chunk.popleft()
        self.queue.extendleft(reversed(worker.chunk))
        worker.chunk.clear()
        return item

    def stop(self) -> None:
        """Stop and reap every worker, so that none outlives its caller.

        Idle workers are told to exit; a worker still holding items is
        killed.
        """
        for worker in self.workers:
            try:
                if worker.chunk:
                    worker.proc.kill()
                else:
                    worker.conn.send(None)
            except OSError:  # already dead
                pass
        for worker in self.workers:
            worker.proc.join(_STOP_SECONDS)
            if worker.proc.is_alive():  # pragma: no cover - stuck in exit
                worker.proc.kill()
                worker.proc.join()
            worker.conn.close()
        self.workers.clear()
