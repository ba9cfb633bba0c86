"""Crash-consistent campaign result store (sqlite, WAL mode).

One row per candidate, keyed by the deterministic
:func:`~repro.campaign.spec.candidate_id`, carrying the candidate's
lifecycle — ``pending -> running -> done`` with ``failed`` (will retry)
and ``quarantined`` (retries exhausted) on the side — plus the attempt
count, the flattened :class:`~repro.api.result.RunResult` row, the last
error and the wall time.

Why sqlite: transactions make every state change atomic — a process
killed mid-write leaves either the previous state or the new one, never
a torn row — and WAL mode keeps concurrent readers (``repro campaign
status`` against a live run) cheap.  The crash/resume semantics are:

* **exactly-once results** — :meth:`ResultStore.mark_done` is guarded by
  the primary key and a status predicate, so completing an
  already-``done`` candidate is a recorded no-op, never a duplicate row;
* **interrupted work is re-queued** — a candidate left ``running`` by a
  crashed or killed process is detected at (re)open time by
  :meth:`ResultStore.requeue_interrupted` and goes back to ``pending``;
* **skip-completed resume** — :meth:`ResultStore.register` reports which
  expanded candidates are already ``done`` so a resumed campaign runs
  exactly the remainder.

The store also refuses to mix campaigns: the spec's sweep fingerprint is
pinned in a ``meta`` table on first registration and checked afterwards.
"""

from __future__ import annotations

import json
import sqlite3
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.campaign.spec import Candidate

PathLike = Union[str, Path]

#: Candidate lifecycle states.
STATUSES = ("pending", "running", "done", "failed", "quarantined")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT
);
CREATE TABLE IF NOT EXISTS candidates (
    candidate_id TEXT PRIMARY KEY,
    idx          INTEGER NOT NULL,
    status       TEXT    NOT NULL DEFAULT 'pending',
    attempts     INTEGER NOT NULL DEFAULT 0,
    plan_json    TEXT,
    row_json     TEXT,
    error        TEXT,
    wall_seconds REAL,
    updated_at   REAL
);
CREATE INDEX IF NOT EXISTS candidates_status ON candidates (status);
"""


@dataclass(frozen=True)
class CandidateRecord:
    """One store row, decoded."""

    candidate_id: str
    index: int
    status: str
    attempts: int
    plan: Optional[Dict[str, object]]
    row: Optional[Dict[str, object]]
    error: Optional[str]
    wall_seconds: Optional[float]


@dataclass(frozen=True)
class RegisterReport:
    """What :meth:`ResultStore.register` found for one expansion."""

    new: int
    already_done: int
    requeued: int
    pending: int


class ResultStore:
    """The campaign's persistent candidate ledger (one sqlite file)."""

    def __init__(self, path: PathLike, *, readonly: bool = False) -> None:
        self.path = Path(path)
        self.readonly = readonly
        if readonly and not self.path.exists():
            raise FileNotFoundError(f"no campaign store at {self.path}")
        if not readonly:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        # One writer (the runner's main process) + any number of readers;
        # every mutation below commits as one explicit transaction.
        # check_same_thread is off because a runner may be *driven* from a
        # non-main thread (tests, embedding apps); the connection is still
        # only ever used by one thread at a time.
        self._conn = sqlite3.connect(
            self.path, timeout=30.0, check_same_thread=False
        )
        self._conn.row_factory = sqlite3.Row
        self._in_transaction = False
        if not readonly:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.executescript(_SCHEMA)
            self._conn.commit()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @contextmanager
    def transaction(self) -> Iterator["ResultStore"]:
        """Commit every state change made inside as one transaction.

        The runner writes each dispatch round this way, at the cost of one
        commit; an exception rolls the whole round back.
        """
        self._in_transaction = True
        try:
            yield self
        except BaseException:
            self._conn.rollback()
            raise
        else:
            self._conn.commit()
        finally:
            self._in_transaction = False

    def _commit(self) -> None:
        if not self._in_transaction:
            self._conn.commit()

    # ------------------------------------------------------------------ #
    # Meta
    # ------------------------------------------------------------------ #
    def get_meta(self, key: str) -> Optional[str]:
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = ?", (key,)
        ).fetchone()
        return None if row is None else str(row["value"])

    def set_meta(self, key: str, value: str) -> None:
        self._conn.execute(
            "INSERT INTO meta (key, value) VALUES (?, ?) "
            "ON CONFLICT(key) DO UPDATE SET value = excluded.value",
            (key, value),
        )
        self._commit()

    # ------------------------------------------------------------------ #
    # Registration / resume
    # ------------------------------------------------------------------ #
    def register(
        self, candidates: Sequence[Candidate], fingerprint: Optional[str] = None
    ) -> RegisterReport:
        """Insert the expanded candidates, honouring previous progress.

        New ids become ``pending``; ids already ``done`` are counted as
        resume skips; interrupted ``running`` rows (a previous process
        died mid-candidate) are re-queued.  ``fingerprint`` pins the
        spec's sweep identity — registering against a store written by a
        different sweep raises instead of silently mixing results.
        """
        if fingerprint is not None:
            stored = self.get_meta("spec_fingerprint")
            if stored is None:
                self.set_meta("spec_fingerprint", fingerprint)
            elif stored != fingerprint:
                raise ValueError(
                    f"store {self.path} belongs to a different campaign "
                    f"(spec fingerprint {stored} != {fingerprint}); "
                    "use a fresh --store path"
                )
        requeued = self.requeue_interrupted()
        now = time.time()
        cursor = self._conn.executemany(
            "INSERT OR IGNORE INTO candidates "
            "(candidate_id, idx, status, plan_json, updated_at) "
            "VALUES (?, ?, 'pending', ?, ?)",
            (
                (
                    cand.candidate_id,
                    cand.index,
                    json.dumps(cand.plan.describe(), sort_keys=True, default=str),
                    now,
                )
                for cand in candidates
            ),
        )
        self._commit()
        counts = self.counts()
        return RegisterReport(
            new=cursor.rowcount,
            already_done=counts.get("done", 0),
            requeued=requeued,
            pending=counts.get("pending", 0) + counts.get("failed", 0),
        )

    def requeue_interrupted(self) -> int:
        """Re-queue candidates a dead process left ``running``.

        The runner marks a candidate ``running`` before dispatch and
        terminal afterwards, both atomically; a row still ``running`` at
        open time can only mean its process died mid-flight.  Putting it
        back to ``pending`` (attempts untouched — the interrupted try was
        already charged or not by the crash handler) re-runs it exactly
        once; the primary key keeps the eventual result row unique.
        """
        cursor = self._conn.execute(
            "UPDATE candidates SET status = 'pending', updated_at = ? "
            "WHERE status = 'running'",
            (time.time(),),
        )
        self._commit()
        return cursor.rowcount

    # ------------------------------------------------------------------ #
    # State transitions (the runner's write API)
    # ------------------------------------------------------------------ #
    def mark_running(self, candidate_ids: Iterable[str]) -> None:
        self._conn.executemany(
            "UPDATE candidates SET status = 'running', updated_at = ? "
            "WHERE candidate_id = ? AND status NOT IN ('done', 'quarantined')",
            [(time.time(), cid) for cid in candidate_ids],
        )
        self._commit()

    def mark_done(
        self, candidate_id: str, row: Dict[str, object], wall_seconds: float
    ) -> bool:
        """Record a completed candidate; returns ``False`` on a duplicate.

        The ``status != 'done'`` predicate makes completion idempotent:
        a candidate re-executed after a crash-before-commit (or raced by
        a stale worker) updates nothing the second time, so exactly one
        result row ever exists per candidate id.
        """
        cursor = self._conn.execute(
            "UPDATE candidates SET status = 'done', row_json = ?, error = NULL, "
            "wall_seconds = ?, updated_at = ? "
            "WHERE candidate_id = ? AND status != 'done'",
            (
                json.dumps(row, sort_keys=True, default=str),
                wall_seconds,
                time.time(),
                candidate_id,
            ),
        )
        self._commit()
        return cursor.rowcount > 0

    def charge_failure(
        self,
        candidate_id: str,
        error: str,
        *,
        max_attempts: int,
        wall_seconds: Optional[float] = None,
    ) -> Tuple[str, int]:
        """Count one failed attempt; quarantine when retries are exhausted.

        Returns ``(new_status, attempts)`` where ``new_status`` is
        ``"failed"`` (eligible for retry) or ``"quarantined"``.
        """
        row = self._conn.execute(
            "SELECT attempts, status FROM candidates WHERE candidate_id = ?",
            (candidate_id,),
        ).fetchone()
        if row is None:
            raise KeyError(f"unknown candidate {candidate_id}")
        if row["status"] == "done":
            # A stale duplicate execution failed after the candidate
            # already completed; the result stands, nothing to charge.
            return "done", int(row["attempts"])
        attempts = int(row["attempts"]) + 1
        status = "quarantined" if attempts >= max_attempts else "failed"
        self._conn.execute(
            "UPDATE candidates SET status = ?, attempts = ?, error = ?, "
            "wall_seconds = COALESCE(?, wall_seconds), updated_at = ? "
            "WHERE candidate_id = ?",
            (status, attempts, error, wall_seconds, time.time(), candidate_id),
        )
        self._commit()
        return status, attempts

    def release(self, candidate_ids: Iterable[str]) -> None:
        """Put ``running`` candidates back to ``pending`` *without*
        charging an attempt — for in-flight work re-queued through no
        fault of its own (a second interrupt killed its worker, or its
        worker died while the campaign was interrupted)."""
        self._conn.executemany(
            "UPDATE candidates SET status = 'pending', updated_at = ? "
            "WHERE candidate_id = ? AND status = 'running'",
            [(time.time(), cid) for cid in candidate_ids],
        )
        self._commit()

    def requeue_quarantined(self) -> int:
        """Give every quarantined candidate a fresh retry budget."""
        cursor = self._conn.execute(
            "UPDATE candidates SET status = 'pending', attempts = 0, "
            "updated_at = ? WHERE status = 'quarantined'",
            (time.time(),),
        )
        self._commit()
        return cursor.rowcount

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def counts(self) -> Dict[str, int]:
        """Candidate count per status (absent statuses omitted)."""
        out: Dict[str, int] = {}
        for row in self._conn.execute(
            "SELECT status, COUNT(*) AS n FROM candidates GROUP BY status"
        ):
            out[str(row["status"])] = int(row["n"])
        return out

    def progress(self) -> Dict[str, Tuple[str, int]]:
        """``candidate_id -> (status, attempts)`` for every row, decoding
        no plan or result JSON."""
        return {
            str(cid): (str(status), int(attempts))
            for cid, status, attempts in self._conn.execute(
                "SELECT candidate_id, status, attempts FROM candidates"
            )
        }

    def status_of(self, candidate_id: str) -> Optional[str]:
        row = self._conn.execute(
            "SELECT status FROM candidates WHERE candidate_id = ?",
            (candidate_id,),
        ).fetchone()
        return None if row is None else str(row["status"])

    def __len__(self) -> int:
        row = self._conn.execute("SELECT COUNT(*) AS n FROM candidates").fetchone()
        return int(row["n"])

    def records(
        self, status: Optional[str] = None
    ) -> List[CandidateRecord]:
        """All rows (optionally one status), in expansion order."""
        query = (
            "SELECT candidate_id, idx, status, attempts, plan_json, row_json, "
            "error, wall_seconds FROM candidates"
        )
        args: Tuple = ()
        if status is not None:
            query += " WHERE status = ?"
            args = (status,)
        query += " ORDER BY idx"
        out = []
        for row in self._conn.execute(query, args):
            out.append(
                CandidateRecord(
                    candidate_id=str(row["candidate_id"]),
                    index=int(row["idx"]),
                    status=str(row["status"]),
                    attempts=int(row["attempts"]),
                    plan=json.loads(row["plan_json"]) if row["plan_json"] else None,
                    row=json.loads(row["row_json"]) if row["row_json"] else None,
                    error=row["error"],
                    wall_seconds=row["wall_seconds"],
                )
            )
        return out

    def result_rows(self) -> List[Dict[str, object]]:
        """The ``done`` candidates' flattened result rows, in order."""
        return [rec.row for rec in self.records("done") if rec.row is not None]
