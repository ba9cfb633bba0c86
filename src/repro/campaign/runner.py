"""Fault-tolerant campaign execution over a pool of worker processes.

:class:`CampaignRunner` drives the candidates of one
:class:`~repro.campaign.spec.CampaignSpec` to completion through
``workers`` processes of a :class:`~repro.utils.workers.WorkerPool` (the
worker module the tuner's unprunable races use too).  The pool hands each
idle worker a guided chunk of the pending candidates, and a worker answers
candidate by candidate, so every failure is charged to the one candidate
that caused it:

* **bounded retries with backoff** — a failing candidate is retried up to
  ``max_attempts`` times, delayed by exponential backoff with
  deterministic per-candidate jitter (:mod:`repro.utils.retry`);
* **per-candidate timeouts** — a candidate's clock starts when its worker
  starts it (the hand-off, or the answer before it); past its deadline
  that worker alone is killed, the candidate is charged one attempt, the
  unstarted rest of the chunk goes back to the queue uncharged, and the
  other workers keep running;
* **worker-crash recovery** — a dead worker (kill -9, OOM, injected
  ``os._exit``) is charged the candidate it was running, the rest of its
  chunk is queued again uncharged, and only that worker is replaced;
* **graceful degradation** — a candidate that exhausts its attempts is
  *quarantined* with its last error while the campaign continues;
* **resumable interruption** — SIGINT/SIGTERM stops dispatch; each busy
  worker finishes at most the candidate it is running, the rest of its
  chunk is released uncharged, and ``run()`` returns with
  ``interrupted=True``.  A second signal kills the busy workers and
  releases their candidates uncharged.  Either way the crash-consistent
  :class:`~repro.campaign.store.ResultStore` holds exactly the finished
  work, and a later ``run()`` (or ``repro campaign resume``) executes
  exactly the remainder.  A killed runner's workers exit with it.

Each round of the dispatch loop waits until a busy worker answers, dies
or overruns, hands the next chunk to every idle worker, and then, while
the workers compute, commits the round's answers and hand-offs in one
store transaction.

Progress counters (``campaign.retries`` / ``timeouts`` / ``respawns`` /
``quarantined`` / ``resumed_skips`` / ``done``) report into the
process-wide :data:`repro.obs.metrics.REGISTRY` and are persisted on the
store's ``last_run`` meta record.
"""

from __future__ import annotations

import heapq
import json
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.campaign.faults import CampaignFaults, active_faults, maybe_inject
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import ResultStore
from repro.obs.metrics import REGISTRY
from repro.utils.retry import backoff_delay
from repro.utils.workers import LOST, WorkerPool

#: (candidate_id, row-or-None, error-or-None, wall_seconds) per candidate.
TaskResult = Tuple[str, Optional[Dict[str, object]], Optional[str], Optional[float]]

#: One dispatched candidate: (candidate_id, plan, attempt).
TaskItem = Tuple[str, object, int]

#: Poll tick of the dispatch loop (also the signal-responsiveness bound).
_TICK_SECONDS = 0.2


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


def _run_item(
    backend: str, faults: Optional[CampaignFaults], item: TaskItem
) -> TaskResult:
    """Execute one dispatched candidate inside a worker process.

    The candidate runs through :func:`_execute_one`, one ``execute`` call.
    Fault injection (if armed) runs *before* its execution, keyed by the
    attempt number so retries draw independently.  A failure is reported
    as data, never raised — only a crash/hang (or a harness bug) takes
    the worker down.
    """
    cid, plan, attempt = item
    t0 = time.perf_counter()
    try:
        maybe_inject(faults, cid, attempt)
        t0 = time.perf_counter()  # a hang fault's sleep is not run time
        row = _execute_one(plan, backend)
    except Exception as exc:
        return cid, None, f"{type(exc).__name__}: {exc}", time.perf_counter() - t0
    return cid, row, None, time.perf_counter() - t0


def _lost(item: TaskItem, error: str) -> TaskResult:
    """The failed result of a candidate its worker never answered."""
    cid, _, attempt = item
    return cid, None, f"{error} (attempt {attempt})", None


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
        faults: Optional[CampaignFaults] = None,
        requeue_quarantined: bool = False,
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
        self.backoff_seconds = (
            backoff_seconds if backoff_seconds is not None else spec.backoff_seconds
        )
        if self.backoff_seconds < 0:
            raise ValueError(f"backoff_seconds must be >= 0, got {self.backoff_seconds}")
        self.faults = active_faults() if faults is None else faults
        self.requeue_quarantined = requeue_quarantined
        self._install_signals = install_signal_handlers
        self._pool = WorkerPool(partial(_run_item, spec.backend, self.faults), self.workers)
        self._interrupts = 0

    # ------------------------------------------------------------------ #
    # Workers
    # ------------------------------------------------------------------ #
    def _respawn(self, report: CampaignReport) -> None:
        """Count one worker lost to a crash or a timeout kill (the next
        hand-off starts its replacement)."""
        report.respawns += 1
        REGISTRY.inc("campaign.respawns")

    def worker_pids(self) -> List[int]:
        """Live worker process ids (for tests that kill them)."""
        return [w.proc.pid for w in list(self._pool.workers) if w.proc.is_alive()]

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
        self._pool.queue.extend(
            (c.candidate_id, c.plan, attempts[c.candidate_id] + 1)
            for c in candidates
            if progress[c.candidate_id][0] in ("pending", "failed")
        )
        plans = {c.candidate_id: c.plan for c in candidates}

        old_handlers = {}
        if self._with_signals():
            for sig in (signal.SIGINT, signal.SIGTERM):
                old_handlers[sig] = signal.signal(sig, self._signal_handler)
        try:
            self._drive(plans, attempts, report)
        except KeyboardInterrupt:
            # No handler installed (e.g. non-main thread): stop now, leaving
            # in-flight rows to requeue_interrupted.
            self._interrupts += 1
        finally:
            for sig, handler in old_handlers.items():
                signal.signal(sig, handler)
            self._pool.stop()
        report.interrupted = self._interrupts > 0
        report.counts = self.store.counts()
        report.elapsed_seconds = time.perf_counter() - t_start
        self.store.set_meta("last_run", json.dumps(report.to_dict(), sort_keys=True))
        return report

    def _drive(
        self,
        plans: Dict[str, object],
        attempts: Dict[str, int],
        report: CampaignReport,
    ) -> None:
        """The dispatch loop; returns when nothing is left to run or wait for."""
        pool = self._pool
        delayed: List[Tuple[float, str]] = []  # (due, candidate_id) retries
        settled: List[TaskResult] = []
        while True:
            now = time.monotonic()
            while delayed and delayed[0][0] <= now:
                cid = heapq.heappop(delayed)[1]
                pool.queue.append((cid, plans[cid], attempts[cid] + 1))
            sent: List[str] = []
            if not self._interrupts:
                for worker, chunk in pool.hand_out():
                    if worker.lost:  # it died idle: nothing ran, nobody is charged
                        self._respawn(report)
                    else:
                        sent.extend(cid for cid, _, _ in chunk)
            if settled or sent:
                with self.store.transaction():
                    for cid, row, error, wall in settled:
                        if error is not None:
                            self._charge(cid, error, wall, attempts, delayed, report)
                        elif self.store.mark_done(cid, row, wall):
                            REGISTRY.inc("campaign.done")
                        else:
                            report.duplicates += 1
                            REGISTRY.inc("campaign.duplicate_results")
                    if sent:
                        self.store.mark_running(sent)
                settled = []
            if pool.busy():
                settled = self._collect(report)
            elif self._interrupts or not (pool.queue or delayed):
                break
            else:
                # Only backoff-delayed retries remain: sleep to the next.
                time.sleep(
                    min(_TICK_SECONDS, max(0.0, delayed[0][0] - now))
                    if delayed
                    else _TICK_SECONDS
                )
        if self._interrupts:
            # The handed-out candidates that never ran went back to the
            # queue; the rest of the queue was never marked running.
            self.store.release(cid for cid, _, _ in pool.queue)

    def _collect(self, report: CampaignReport) -> List[TaskResult]:
        """Wait for busy workers; returns the answers to settle, a lost or
        overrun candidate as its error."""
        pool = self._pool
        if self._interrupts > 1:
            # Second signal: stop waiting on in-flight work.
            for worker in pool.busy():
                pool.queue.appendleft(pool.retire(worker))
            return []
        timeout = _TICK_SECONDS
        if self.timeout_seconds is not None:
            due = min(w.since for w in pool.busy()) + self.timeout_seconds
            timeout = min(timeout, max(0.0, due - time.monotonic()))
        settled: List[TaskResult] = []
        for worker, item, answer in pool.wait(timeout):
            if answer is not LOST:
                settled.append(answer)
                if self._interrupts and worker.chunk:
                    # Interrupted: its running candidate is done; release
                    # the rest of its chunk.
                    pool.queue.appendleft(pool.retire(worker))
                continue
            self._respawn(report)
            if self._interrupts:  # perhaps the signal's doing: no charge
                pool.queue.appendleft(item)
            else:
                settled.append(_lost(item, worker.crash_error()))
        if self.timeout_seconds is not None:
            now = time.monotonic()
            for worker in pool.busy():
                if worker.since + self.timeout_seconds <= now:
                    item = pool.retire(worker)
                    self._respawn(report)
                    report.timeouts += 1
                    REGISTRY.inc("campaign.timeouts")
                    settled.append(_lost(
                        item,
                        f"TimeoutError: exceeded the {self.timeout_seconds}s "
                        "per-candidate budget",
                    ))
        return settled

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
        due = time.monotonic() + backoff_delay(self.backoff_seconds, n, key=cid)
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
