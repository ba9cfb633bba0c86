"""Fault-tolerant campaign execution over a process pool.

:class:`CampaignRunner` drives the candidates of one
:class:`~repro.campaign.spec.CampaignSpec` through a
``concurrent.futures`` process pool to completion, surviving everything
the satellites throw at it:

* **bounded retries with backoff** — a failing candidate is retried up to
  ``max_attempts`` times, delayed by exponential backoff with
  deterministic per-candidate jitter (:mod:`repro.utils.retry`);
* **per-task timeouts** — a task past its deadline has the (possibly
  hung) workers killed, costs the culprit one attempt, and re-queues the
  innocent in-flight tasks uncharged;
* **worker-crash recovery** — a dead worker (kill -9, OOM, injected
  ``os._exit``) breaks the whole pool, so the crash cannot be attributed
  to one of the in-flight tasks.  The pool is respawned and the in-flight
  work re-enqueued *uncharged*; a candidate caught in repeated breaks is
  then dispatched in *isolation* (alone in the pool), where the next
  break is attributable and charges it — innocents never lose their
  retry budget to a neighbour's crash, while a candidate that itself
  crashes deterministically still marches to quarantine;
* **graceful degradation** — a candidate that exhausts its attempts is
  *quarantined* with its last error while the campaign continues;
* **resumable interruption** — SIGINT/SIGTERM stops dispatch, drains
  in-flight work into the store and returns with ``interrupted=True``;
  a second signal tears the pool down immediately.  Either way the
  crash-consistent :class:`~repro.campaign.store.ResultStore` holds
  exactly the finished work, and a later ``run()`` (or ``repro campaign
  resume``) executes exactly the remainder.

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
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, Future
from concurrent.futures import ProcessPoolExecutor, wait as futures_wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Deque, Dict, List, Optional, Sequence, Tuple, Union

from repro.campaign.faults import CampaignFaults, active_faults, maybe_inject
from repro.campaign.spec import Candidate, CampaignSpec, build_chunks
from repro.campaign.store import ResultStore
from repro.obs.metrics import REGISTRY
from repro.utils.retry import RetryPolicy, backoff_delay

#: (candidate_id, row-or-None, error-or-None, wall_seconds) per candidate.
TaskResult = Tuple[str, Optional[Dict[str, object]], Optional[str], float]

#: Poll tick of the dispatch loop (also the signal-responsiveness bound).
_TICK_SECONDS = 0.2

#: Candidates seen in this many pool breaks run isolated from then on.
_ISOLATE_AFTER = 2


def default_workers() -> int:
    """Default fan-out width: a few processes, never oversubscribed."""
    return max(1, min(4, os.cpu_count() or 1))


def default_store_path(spec: CampaignSpec) -> Path:
    """Where a campaign's store lives when the caller does not say."""
    return Path(f"campaign_{spec.name}.sqlite")


# --------------------------------------------------------------------------- #
# The worker side (module-level so process pools can pickle it)
# --------------------------------------------------------------------------- #
def _execute_one(plan, backend: str) -> Dict[str, object]:
    from repro.api.execute import execute

    return execute(plan, backend=backend).to_row()


def _run_task(payload: Tuple) -> List[TaskResult]:
    """Execute one dispatched chunk inside a worker process.

    ``payload`` is ``(backend, faults, items)`` with ``items`` a list of
    ``(candidate_id, plan, attempt)``.  Each candidate runs through
    :func:`_execute_one`, one ``execute`` call, in chunk order.  Fault
    injection (if armed) runs per candidate *before* its execution, keyed
    by the attempt number so retries draw independently.  Per-candidate
    failures are reported as data, never raised — only a crash/hang (or a
    harness bug) takes the whole task down.
    """
    backend, faults, items = payload
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
            f"pool respawns  : {self.respawns}",
            f"elapsed        : {self.elapsed_seconds:.2f}s",
        ]
        return "\n".join(lines)


@dataclass
class _InFlight:
    """Bookkeeping of one dispatched task."""

    future: Future
    items: List[Tuple[str, object, int]]  # (cid, plan, attempt)
    deadline: Optional[float]
    isolated: bool = False


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
        self._pool: Optional[ProcessPoolExecutor] = None
        self._interrupts = 0
        self._report: Optional[CampaignReport] = None
        self._seq_counter = 0
        self._candidates_by_id: Optional[Dict[str, Candidate]] = None
        # Crash attribution: pool-break counts per candidate id; at
        # _ISOLATE_AFTER the candidate runs alone so breaks attribute.
        self._crash_streak: Dict[str, int] = {}
        self._hotq: Deque[Candidate] = deque()
        self._hot_inflight = False

    # ------------------------------------------------------------------ #
    # Pool plumbing
    # ------------------------------------------------------------------ #
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=self._mp_context
            )
        return self._pool

    def _teardown_pool(self, kill: bool = True) -> None:
        """Abandon the current pool, killing its workers if asked.

        Used on timeouts (the only portable way to stop a hung worker is
        to kill it), on pool breakage, and on hard interrupts.  A fresh
        pool is spawned lazily by the next dispatch.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        procs = list(getattr(pool, "_processes", {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        if not kill:
            return
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        for proc in procs:
            proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - SIGTERM-immune worker
                proc.kill()

    def worker_pids(self) -> List[int]:
        """Live worker process ids (for tests that kill them)."""
        pool = self._pool
        if pool is None:
            return []
        return [
            proc.pid
            for proc in getattr(pool, "_processes", {}).values()
            if proc.is_alive() and proc.pid is not None
        ]

    # ------------------------------------------------------------------ #
    # Signals
    # ------------------------------------------------------------------ #
    def _signal_handler(self, signum, frame) -> None:  # pragma: no cover - timing
        self._interrupts += 1
        if self._interrupts >= 2:
            # Second signal: stop waiting on in-flight work.
            self._teardown_pool()

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
        self._report = report

        records = self.store.records()
        status = {rec.candidate_id: rec.status for rec in records}
        attempts = {rec.candidate_id: rec.attempts for rec in records}
        todo = [
            c for c in candidates if status.get(c.candidate_id) in ("pending", "failed")
        ]
        pending: Deque[List[Candidate]] = deque(
            build_chunks(todo, self.chunk_size)
        )
        delayed: List[Tuple[float, int, List[Candidate]]] = []
        inflight: Dict[Future, _InFlight] = {}
        window = self.workers * 2
        interrupted = False

        old_handlers = {}
        if self._with_signals():
            for sig in (signal.SIGINT, signal.SIGTERM):
                old_handlers[sig] = signal.signal(sig, self._signal_handler)
        try:
            while pending or delayed or inflight or self._hotq:
                now = time.monotonic()
                while delayed and delayed[0][0] <= now:
                    self._enqueue(heapq.heappop(delayed)[2], pending)
                if self._interrupts == 0:
                    self._submit(pending, attempts, inflight, window)
                if not inflight:
                    if self._interrupts:
                        break
                    if pending or self._hotq:
                        continue
                    # Only backoff-delayed retries remain: sleep to the next.
                    time.sleep(
                        min(_TICK_SECONDS, max(0.0, delayed[0][0] - now))
                        if delayed
                        else _TICK_SECONDS
                    )
                    continue
                timeout = _TICK_SECONDS
                deadlines = [t.deadline for t in inflight.values() if t.deadline]
                if deadlines:
                    timeout = min(timeout, max(0.01, min(deadlines) - now))
                done, _ = futures_wait(
                    set(inflight), timeout=timeout, return_when=FIRST_COMPLETED
                )
                broken = False
                for future in done:
                    task = inflight.pop(future)
                    if task.isolated:
                        self._hot_inflight = False
                    try:
                        results = future.result()
                    except BrokenExecutor:
                        broken = True
                        if task.isolated:
                            # Alone in the pool: the crash is attributable.
                            self._charge_task(
                                task,
                                "worker crashed (BrokenProcessPool, isolated run)",
                                attempts, pending, delayed, report,
                            )
                        else:
                            self._crashed(task, pending)
                    except Exception as exc:  # harness-level task failure
                        self._charge_task(
                            task, f"{type(exc).__name__}: {exc}",
                            attempts, pending, delayed, report,
                        )
                    else:
                        self._absorb(task, results, attempts, pending, delayed, report)
                if broken:
                    report.respawns += 1
                    REGISTRY.inc("campaign.respawns")
                    self._teardown_pool()
                    for task in inflight.values():
                        if task.isolated:  # pragma: no cover - defensive
                            self._hot_inflight = False
                        self._crashed(task, pending)
                    inflight.clear()
                self._expire(inflight, attempts, pending, delayed, report)
            interrupted = self._interrupts > 0
            if interrupted and inflight:
                # Hard interrupt: the pool is gone; re-queue uncharged.
                for task in inflight.values():
                    self.store.release([cid for cid, _, _ in task.items])
                inflight.clear()
        except KeyboardInterrupt:
            # No handler installed (e.g. non-main thread): treat like one
            # graceful signal, leaving in-flight rows to requeue_interrupted.
            interrupted = True
            self._teardown_pool()
        finally:
            for sig, handler in old_handlers.items():
                signal.signal(sig, handler)
            self._teardown_pool(kill=self._interrupts > 0)
        report.interrupted = interrupted or self._interrupts > 0
        report.counts = self.store.counts()
        report.elapsed_seconds = time.perf_counter() - t_start
        self.store.set_meta("last_run", json.dumps(report.to_dict(), sort_keys=True))
        return report

    # ------------------------------------------------------------------ #
    # Dispatch / absorb helpers
    # ------------------------------------------------------------------ #
    def _hot(self, cid: str) -> bool:
        return self._crash_streak.get(cid, 0) >= _ISOLATE_AFTER

    def _enqueue(self, chunk: Sequence[Candidate], pending: Deque) -> None:
        """Route re-queued work: crash-suspect candidates go to the
        isolation queue (run alone), the rest back to the normal queue."""
        cold = [c for c in chunk if not self._hot(c.candidate_id)]
        for cand in chunk:
            if self._hot(cand.candidate_id):
                self._hotq.append(cand)
        if cold:
            pending.append(cold)

    def _submit(
        self,
        pending: Deque[List[Candidate]],
        attempts: Dict[str, int],
        inflight: Dict[Future, _InFlight],
        window: int,
    ) -> None:
        if self._hot_inflight:
            return  # an isolated suspect owns the pool
        if self._hotq:
            # Drain the pool, then run the next suspect alone.
            if not inflight:
                cand = self._hotq.popleft()
                if not self._dispatch([cand], attempts, inflight, isolated=True):
                    self._hotq.appendleft(cand)
            return
        while pending and len(inflight) < window:
            chunk = pending.popleft()
            if not self._dispatch(chunk, attempts, inflight):
                pending.appendleft(chunk)
                return

    def _dispatch(
        self,
        chunk: Sequence[Candidate],
        attempts: Dict[str, int],
        inflight: Dict[Future, _InFlight],
        *,
        isolated: bool = False,
    ) -> bool:
        items = [
            (c.candidate_id, c.plan, attempts.get(c.candidate_id, 0) + 1)
            for c in chunk
        ]
        self.store.mark_running([cid for cid, _, _ in items])
        try:
            future = self._ensure_pool().submit(
                _run_task, (self.spec.backend, self.faults, items)
            )
        except BrokenExecutor:
            # A concurrent worker crash broke the pool before this chunk
            # was accepted: nothing ran, so nobody is charged.  Tear the
            # pool down so the next dispatch spawns a fresh one; if no
            # work is in flight nothing else will surface the break, so
            # count the respawn here.
            self.store.release([cid for cid, _, _ in items])
            self._teardown_pool()
            if not inflight and self._report is not None:
                self._report.respawns += 1
                REGISTRY.inc("campaign.respawns")
            return False
        deadline = None
        if self.timeout_seconds is not None:
            deadline = time.monotonic() + self.timeout_seconds * len(items)
        inflight[future] = _InFlight(
            future=future, items=items, deadline=deadline, isolated=isolated
        )
        if isolated:
            self._hot_inflight = True
        return True

    def _absorb(
        self, task, results, attempts, pending, delayed, report
    ) -> None:
        for cid, row, error, wall in results:
            if error is None and row is not None:
                self._crash_streak.pop(cid, None)
                if self.store.mark_done(cid, row, wall):
                    REGISTRY.inc("campaign.done")
                else:
                    report.duplicates += 1
                    REGISTRY.inc("campaign.duplicate_results")
            else:
                self._charge_one(
                    cid, error or "no result", attempts, pending, delayed, report,
                    wall_seconds=wall,
                )

    def _crashed(self, task: _InFlight, pending: Deque) -> None:
        """Re-queue a task lost to an unattributable pool break.

        Nobody is charged an attempt — the culprit is unknown — but every
        candidate's crash streak grows, and repeat offenders graduate to
        isolated dispatch where the next break *is* attributable.
        """
        cids = [cid for cid, _, _ in task.items]
        for cid in cids:
            self._crash_streak[cid] = self._crash_streak.get(cid, 0) + 1
        self.store.release(cids)
        self._enqueue([self._candidate_of(cid) for cid in cids], pending)

    def _charge_task(self, task, error, attempts, pending, delayed, report) -> None:
        for cid, _, _ in task.items:
            self._charge_one(cid, error, attempts, pending, delayed, report)

    def _charge_one(
        self, cid, error, attempts, pending, delayed, report, *, wall_seconds=None
    ) -> None:
        status, n = self.store.charge_failure(
            cid, error, max_attempts=self.max_attempts, wall_seconds=wall_seconds
        )
        attempts[cid] = n
        if status == "quarantined":
            report.quarantined += 1
            REGISTRY.inc("campaign.quarantined")
            self._crash_streak.pop(cid, None)
            return
        if status != "failed":  # raced a completed duplicate; nothing to retry
            return
        report.retries += 1
        REGISTRY.inc("campaign.retries")
        if self._interrupts:
            # Interrupted: leave it 'failed' in the store; resume retries it.
            return
        candidate = self._candidate_of(cid)
        delay = backoff_delay(self.retry_policy, n, key=cid)
        heapq.heappush(
            delayed, (time.monotonic() + delay, self._next_seq(), [candidate])
        )

    def _next_seq(self) -> int:
        self._seq_counter += 1
        return self._seq_counter

    def _candidate_of(self, cid: str) -> Candidate:
        if self._candidates_by_id is None:
            self._candidates_by_id = {
                c.candidate_id: c for c in self.spec.expand()
            }
        return self._candidates_by_id[cid]

    def _expire(self, inflight, attempts, pending, delayed, report) -> None:
        """Kill and re-queue work past its deadline.

        The expired tasks are charged (timeout = one failed attempt);
        since killing a hung worker can only be done by tearing the pool
        down, the *other* in-flight tasks are re-queued uncharged at the
        front of the line.
        """
        now = time.monotonic()
        expired = [
            future
            for future, task in inflight.items()
            if task.deadline is not None and task.deadline <= now
        ]
        if not expired:
            return
        report.respawns += 1
        REGISTRY.inc("campaign.respawns")
        self._teardown_pool()  # kills hung workers; futures are abandoned
        for future in expired:
            task = inflight.pop(future)
            if task.isolated:
                self._hot_inflight = False
            for cid, _, attempt in task.items:
                report.timeouts += 1
                REGISTRY.inc("campaign.timeouts")
                self._charge_one(
                    cid,
                    f"TimeoutError: attempt {attempt} exceeded "
                    f"{self.timeout_seconds}s per-candidate budget",
                    attempts,
                    pending,
                    delayed,
                    report,
                )
        for task in inflight.values():
            if task.isolated:  # pragma: no cover - defensive
                self._hot_inflight = False
            cids = [cid for cid, _, _ in task.items]
            self.store.release(cids)
            if self._interrupts == 0:
                self._enqueue([self._candidate_of(cid) for cid in cids], pending)
        inflight.clear()


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
