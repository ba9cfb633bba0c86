"""Fault-tolerant campaign execution over the runner's own worker processes.

:class:`CampaignRunner` drives the candidates of one
:class:`~repro.campaign.spec.CampaignSpec` to completion through
``workers`` processes.  Each worker is joined to the parent by one duplex
pipe and holds at most one chunk at a time, so every failure is charged
to the chunk that caused it:

* **bounded retries with backoff** — a failing candidate is retried up to
  ``max_attempts`` times, delayed by exponential backoff with
  deterministic per-candidate jitter (:mod:`repro.utils.retry`);
* **per-task timeouts** — a chunk's clock starts when it is handed to an
  idle worker; past its deadline that worker alone is killed, the chunk
  is charged one attempt and the other workers keep running;
* **worker-crash recovery** — a dead worker (kill -9, OOM, injected
  ``os._exit``) is charged the chunk it held, and only that worker is
  replaced;
* **graceful degradation** — a candidate that exhausts its attempts is
  *quarantined* with its last error while the campaign continues;
* **resumable interruption** — SIGINT/SIGTERM stops dispatch, drains
  in-flight work into the store and returns with ``interrupted=True``;
  a second signal kills the busy workers and re-queues their chunks
  uncharged.  Either way the crash-consistent
  :class:`~repro.campaign.store.ResultStore` holds exactly the finished
  work, and a later ``run()`` (or ``repro campaign resume``) executes
  exactly the remainder.

Each round of the dispatch loop waits until a busy worker answers, dies
or overruns, hands the next pending chunk to every idle worker, and then,
while the workers compute, commits the round's results and hand-offs in
one store transaction.

Progress counters (``campaign.retries`` / ``timeouts`` / ``respawns`` /
``quarantined`` / ``resumed_skips`` / ``done``) report into the
process-wide :data:`repro.obs.metrics.REGISTRY` and are persisted on the
store's ``last_run`` meta record.
"""

from __future__ import annotations

import heapq
import json
import multiprocessing
import os
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import Connection, wait
from multiprocessing.process import BaseProcess
from pathlib import Path
from typing import Deque, Dict, List, Optional, Tuple, Union

from repro.campaign.faults import CampaignFaults, active_faults, maybe_inject
from repro.campaign.spec import Candidate, CampaignSpec, build_chunks
from repro.campaign.store import ResultStore
from repro.obs.metrics import REGISTRY
from repro.utils.retry import RetryPolicy, backoff_delay

#: (candidate_id, row-or-None, error-or-None, wall_seconds) per candidate.
TaskResult = Tuple[str, Optional[Dict[str, object]], Optional[str], Optional[float]]

#: One dispatched candidate: (candidate_id, plan, attempt).
TaskItem = Tuple[str, object, int]

#: Poll tick of the dispatch loop (also the signal-responsiveness bound).
_TICK_SECONDS = 0.2

#: How long a stopped worker may take to exit before it is killed.
_STOP_SECONDS = 2.0


def default_workers() -> int:
    """Default fan-out width: a few processes, never oversubscribed."""
    return max(1, min(4, os.cpu_count() or 1))


def default_store_path(spec: CampaignSpec) -> Path:
    """Where a campaign's store lives when the caller does not say."""
    return Path(f"campaign_{spec.name}.sqlite")


# --------------------------------------------------------------------------- #
# The worker side (module-level so a spawned worker can import it)
# --------------------------------------------------------------------------- #
def _execute_one(plan, backend: str) -> Dict[str, object]:
    from repro.api.execute import execute

    return execute(plan, backend=backend).to_row()


def _run_task(
    backend: str, faults: Optional[CampaignFaults], items: List[TaskItem]
) -> List[TaskResult]:
    """Execute one dispatched chunk inside a worker process.

    Each candidate runs through :func:`_execute_one`, one ``execute``
    call, in chunk order.  Fault injection (if armed) runs per candidate
    *before* its execution, keyed by the attempt number so retries draw
    independently.  Per-candidate failures are reported as data, never
    raised — only a crash/hang (or a harness bug) takes the whole chunk
    down.
    """
    results: List[TaskResult] = []
    for cid, plan, attempt in items:
        t0 = time.perf_counter()
        try:
            maybe_inject(faults, cid, attempt)
            t0 = time.perf_counter()  # a hang fault's sleep is not run time
            row = _execute_one(plan, backend)
        except Exception as exc:
            results.append(
                (cid, None, f"{type(exc).__name__}: {exc}", time.perf_counter() - t0)
            )
        else:
            results.append((cid, row, None, time.perf_counter() - t0))
    return results


def _worker_loop(
    conn: Connection,
    parent_end: Connection,
    backend: str,
    faults: Optional[CampaignFaults],
) -> None:
    """Body of one worker process: run each chunk received, send back its
    results, and stop on ``None`` or when the parent is gone."""
    # Close the inherited copy of the parent's end, so that the parent's
    # death reads as EOF here.
    parent_end.close()
    # An interrupt at the terminal reaches every process of the group; the
    # parent decides, and drains the chunk this worker holds.  A forked
    # worker inherits the runner's SIGTERM handler: restore the default.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    while True:
        try:
            items = conn.recv()
            if items is None:
                return
            conn.send(_run_task(backend, faults, items))
        except (EOFError, OSError):
            return


# --------------------------------------------------------------------------- #
# Reports
# --------------------------------------------------------------------------- #
@dataclass
class CampaignReport:
    """Outcome of one :meth:`CampaignRunner.run` call."""

    name: str
    store_path: str
    n_candidates: int
    counts: Dict[str, int] = field(default_factory=dict)
    resumed_skips: int = 0
    retries: int = 0
    timeouts: int = 0
    respawns: int = 0
    quarantined: int = 0
    duplicates: int = 0
    elapsed_seconds: float = 0.0
    interrupted: bool = False

    @property
    def done(self) -> int:
        return self.counts.get("done", 0)

    @property
    def complete(self) -> bool:
        return self.done == self.n_candidates

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "store_path": self.store_path,
            "n_candidates": self.n_candidates,
            "counts": dict(self.counts),
            "resumed_skips": self.resumed_skips,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "respawns": self.respawns,
            "quarantined": self.quarantined,
            "duplicates": self.duplicates,
            "elapsed_seconds": round(self.elapsed_seconds, 4),
            "interrupted": self.interrupted,
        }

    def summary(self) -> str:
        state = (
            "interrupted (resumable)"
            if self.interrupted
            else ("complete" if self.complete else "finished with failures")
        )
        remaining = (
            self.counts.get("pending", 0)
            + self.counts.get("failed", 0)
            + self.counts.get("running", 0)
        )
        lines = [
            f"campaign       : {self.name} [{state}]",
            f"store          : {self.store_path}",
            f"candidates     : {self.n_candidates} "
            f"({self.done} done, {self.counts.get('quarantined', 0)} quarantined, "
            f"{remaining} remaining)",
            f"skipped (already done) : {self.resumed_skips}",
            f"retries        : {self.retries}",
            f"timeouts       : {self.timeouts}",
            f"worker respawns: {self.respawns}",
            f"elapsed        : {self.elapsed_seconds:.2f}s",
        ]
        return "\n".join(lines)


@dataclass
class _Worker:
    """One worker process, the parent's end of its pipe, and its chunk."""

    proc: BaseProcess
    conn: Connection
    items: Optional[List[TaskItem]] = None  # the chunk in flight, if busy
    deadline: Optional[float] = None


# --------------------------------------------------------------------------- #
# The runner
# --------------------------------------------------------------------------- #
class CampaignRunner:
    """Execute one campaign spec against one result store, resumably."""

    def __init__(
        self,
        spec: CampaignSpec,
        store: Union[ResultStore, str, Path, None] = None,
        *,
        workers: Optional[int] = None,
        max_attempts: Optional[int] = None,
        timeout_seconds: Optional[float] = None,
        backoff_seconds: Optional[float] = None,
        chunk_size: Optional[int] = None,
        faults: Optional[CampaignFaults] = None,
        requeue_quarantined: bool = False,
        mp_context: Optional[str] = None,
        install_signal_handlers: Optional[bool] = None,
    ) -> None:
        self.spec = spec
        if store is None:
            store = default_store_path(spec)
        self.store = store if isinstance(store, ResultStore) else ResultStore(store)
        self.workers = workers or spec.workers or default_workers()
        self.max_attempts = max_attempts or spec.max_attempts
        self.timeout_seconds = (
            timeout_seconds if timeout_seconds is not None else spec.timeout_seconds
        )
        backoff = backoff_seconds if backoff_seconds is not None else spec.backoff_seconds
        self.retry_policy = RetryPolicy(
            attempts=self.max_attempts, backoff=backoff, factor=2.0,
            max_delay=30.0, jitter=0.25, jitter_seed=0,
        )
        self.chunk_size = chunk_size or spec.chunk_size
        self.faults = active_faults() if faults is None else faults
        self.requeue_quarantined = requeue_quarantined
        if mp_context is None:
            mp_context = (
                "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
            )
        self._mp_context = multiprocessing.get_context(mp_context)
        self._install_signals = install_signal_handlers
        self._workers: List[_Worker] = []
        self._interrupts = 0

    # ------------------------------------------------------------------ #
    # Workers
    # ------------------------------------------------------------------ #
    def _start_worker(self) -> _Worker:
        conn, child_end = self._mp_context.Pipe()
        proc = self._mp_context.Process(
            target=_worker_loop,
            args=(child_end, conn, self.spec.backend, self.faults),
        )
        proc.start()
        child_end.close()
        worker = _Worker(proc, conn)
        self._workers.append(worker)
        return worker

    def _retire(
        self, worker: _Worker, report: Optional[CampaignReport] = None
    ) -> None:
        """Kill (if still alive), reap and forget one worker.  Given the
        ``report``, the worker was lost (crash, timeout kill) and the next
        hand-off starts its replacement: count one respawn."""
        worker.proc.kill()
        worker.proc.join()
        worker.conn.close()
        self._workers.remove(worker)
        if report is not None:
            report.respawns += 1
            REGISTRY.inc("campaign.respawns")

    def _stop_workers(self) -> None:
        """Stop and reap every worker, so that none outlives ``run()``.

        Idle workers are told to exit; a worker still holding a chunk
        (hard interrupt, or an exception in the loop) is killed.
        """
        for worker in self._workers:
            try:
                if worker.items is None:
                    worker.conn.send(None)
                else:
                    worker.proc.kill()
            except OSError:  # already dead
                pass
        for worker in self._workers:
            worker.proc.join(_STOP_SECONDS)
            if worker.proc.is_alive():  # pragma: no cover - stuck in exit
                worker.proc.kill()
                worker.proc.join()
            worker.conn.close()
        self._workers.clear()

    def worker_pids(self) -> List[int]:
        """Live worker process ids (for tests that kill them)."""
        return [
            worker.proc.pid
            for worker in list(self._workers)
            if worker.proc.is_alive() and worker.proc.pid is not None
        ]

    # ------------------------------------------------------------------ #
    # Signals
    # ------------------------------------------------------------------ #
    def _signal_handler(self, signum, frame) -> None:  # pragma: no cover - timing
        # The loop polls the count: one drains, two stop waiting.
        self._interrupts += 1

    def _with_signals(self) -> bool:
        if self._install_signals is not None:
            return self._install_signals
        return threading.current_thread() is threading.main_thread()

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #
    def run(self) -> CampaignReport:
        """Execute (or resume) the campaign; returns the final report."""
        t_start = time.perf_counter()
        spec = self.spec
        candidates = spec.expand()
        if self.requeue_quarantined:
            self.store.requeue_quarantined()
        reg = self.store.register(candidates, spec.fingerprint())
        REGISTRY.inc("campaign.resumed_skips", reg.already_done)
        report = CampaignReport(
            name=spec.name,
            store_path=str(self.store.path),
            n_candidates=len(candidates),
            resumed_skips=reg.already_done,
        )

        progress = self.store.progress()
        attempts = {cid: n for cid, (_, n) in progress.items()}
        todo = [
            c for c in candidates
            if progress[c.candidate_id][0] in ("pending", "failed")
        ]
        pending: Deque[List[Candidate]] = deque(build_chunks(todo, self.chunk_size))
        by_id = {c.candidate_id: c for c in candidates}

        old_handlers = {}
        if self._with_signals():
            for sig in (signal.SIGINT, signal.SIGTERM):
                old_handlers[sig] = signal.signal(sig, self._signal_handler)
        try:
            self._drive(by_id, pending, attempts, report)
        except KeyboardInterrupt:
            # No handler installed (e.g. non-main thread): stop now, leaving
            # in-flight rows to requeue_interrupted.
            self._interrupts += 1
        finally:
            for sig, handler in old_handlers.items():
                signal.signal(sig, handler)
            self._stop_workers()
        report.interrupted = self._interrupts > 0
        report.counts = self.store.counts()
        report.elapsed_seconds = time.perf_counter() - t_start
        self.store.set_meta("last_run", json.dumps(report.to_dict(), sort_keys=True))
        return report

    def _drive(
        self,
        by_id: Dict[str, Candidate],
        pending: Deque[List[Candidate]],
        attempts: Dict[str, int],
        report: CampaignReport,
    ) -> None:
        """The dispatch loop; returns when nothing is left to run or wait for."""
        delayed: List[Tuple[float, str]] = []  # (due, candidate_id) retries
        settled: List[TaskResult] = []
        released: List[str] = []
        while True:
            now = time.monotonic()
            while delayed and delayed[0][0] <= now:
                pending.append([by_id[heapq.heappop(delayed)[1]]])
            sent = [] if self._interrupts else self._hand_out(pending, attempts, report)
            if settled or released or sent:
                with self.store.transaction():
                    for cid, row, error, wall in settled:
                        if error is not None:
                            self._charge(cid, error, wall, attempts, delayed, report)
                        elif self.store.mark_done(cid, row, wall):
                            REGISTRY.inc("campaign.done")
                        else:
                            report.duplicates += 1
                            REGISTRY.inc("campaign.duplicate_results")
                    if released:
                        self.store.release(released)
                    if sent:
                        self.store.mark_running(sent)
                settled, released = [], []
            busy = [w for w in self._workers if w.items is not None]
            if busy:
                settled, released = self._collect(busy, report)
            elif self._interrupts or not (pending or delayed):
                return
            else:
                # Only backoff-delayed retries remain: sleep to the next.
                time.sleep(
                    min(_TICK_SECONDS, max(0.0, delayed[0][0] - now))
                    if delayed
                    else _TICK_SECONDS
                )

    # ------------------------------------------------------------------ #
    # Dispatch / collect helpers
    # ------------------------------------------------------------------ #
    def _hand_out(
        self,
        pending: Deque[List[Candidate]],
        attempts: Dict[str, int],
        report: CampaignReport,
    ) -> List[str]:
        """Send the next pending chunk to every idle worker, starting
        workers up to ``self.workers``; returns the candidate ids sent."""
        sent: List[str] = []
        idle = [w for w in self._workers if w.items is None]
        while pending:
            if idle:
                worker = idle.pop()
            elif len(self._workers) < self.workers:
                worker = self._start_worker()
            else:
                break
            chunk = pending.popleft()
            items = [(c.candidate_id, c.plan, attempts[c.candidate_id] + 1) for c in chunk]
            try:
                worker.conn.send(items)
            except OSError:
                # The worker died idle: nothing ran, nobody is charged.  Its
                # replacement starts next round.
                pending.appendleft(chunk)
                self._retire(worker, report)
                break
            worker.items = items
            if self.timeout_seconds is not None:
                worker.deadline = time.monotonic() + self.timeout_seconds * len(items)
            sent.extend(cid for cid, _, _ in items)
        return sent

    def _collect(
        self, busy: List[_Worker], report: CampaignReport
    ) -> Tuple[List[TaskResult], List[str]]:
        """Wait for busy workers; returns the results to settle (a lost
        chunk as one error per candidate) and the ids to release uncharged."""
        settled: List[TaskResult] = []
        released: List[str] = []
        if self._interrupts > 1:
            # Second signal: stop waiting on in-flight work.
            for worker in busy:
                released.extend(cid for cid, _, _ in worker.items or ())
                self._retire(worker)
            return settled, released
        timeout = _TICK_SECONDS
        deadlines = [w.deadline for w in busy if w.deadline is not None]
        if deadlines:
            timeout = min(timeout, max(0.0, min(deadlines) - time.monotonic()))
        ready = set(wait([w.conn for w in busy] + [w.proc.sentinel for w in busy], timeout))
        now = time.monotonic()
        for worker in busy:
            items = worker.items or []
            answered = worker.conn in ready
            dead = worker.proc.sentinel in ready
            if answered or dead:
                try:
                    # A dead worker's pipe holds its result or EOF.
                    if answered or worker.conn.poll():
                        settled.extend(worker.conn.recv())
                        worker.items = None
                except (EOFError, OSError):
                    dead = True
                if not dead:
                    continue
                self._retire(worker, report)
                if worker.items is None:  # answered, then died: nothing lost
                    continue
                if self._interrupts:  # perhaps the signal's doing: no charge
                    released.extend(cid for cid, _, _ in items)
                    continue
                error = f"WorkerCrash: worker exited with code {worker.proc.exitcode}"
            elif worker.deadline is not None and worker.deadline <= now:
                self._retire(worker, report)
                report.timeouts += len(items)
                REGISTRY.inc("campaign.timeouts", len(items))
                error = (
                    f"TimeoutError: exceeded the {self.timeout_seconds}s "
                    "per-candidate budget"
                )
            else:
                continue
            settled.extend(
                (cid, None, f"{error} (attempt {attempt})", None)
                for cid, _, attempt in items
            )
        return settled, released

    def _charge(
        self,
        cid: str,
        error: str,
        wall: Optional[float],
        attempts: Dict[str, int],
        delayed: List[Tuple[float, str]],
        report: CampaignReport,
    ) -> None:
        """Charge one failed attempt and schedule its retry, if any."""
        status, n = self.store.charge_failure(
            cid, error, max_attempts=self.max_attempts, wall_seconds=wall
        )
        attempts[cid] = n
        if status == "quarantined":
            report.quarantined += 1
            REGISTRY.inc("campaign.quarantined")
            return
        if status != "failed":  # raced a completed duplicate; nothing to retry
            return
        report.retries += 1
        REGISTRY.inc("campaign.retries")
        if self._interrupts:
            # Interrupted: leave it 'failed' in the store; resume retries it.
            return
        due = time.monotonic() + backoff_delay(self.retry_policy, n, key=cid)
        heapq.heappush(delayed, (due, cid))


def run_campaign(
    spec: CampaignSpec,
    store: Union[ResultStore, str, Path, None] = None,
    **kwargs,
) -> CampaignReport:
    """One-call convenience wrapper: build a runner and run it."""
    runner = CampaignRunner(spec, store, **kwargs)
    try:
        return runner.run()
    finally:
        if not isinstance(store, ResultStore):
            runner.store.close()
