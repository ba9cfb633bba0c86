"""Stdlib-only metrics registry: counters, gauges and histograms.

The simulator stack accumulates a number of process-global statistics —
program-cache and plan-cache hits, the engine's memo-table traffic — that
used to live as ad-hoc attributes scattered over the producing modules,
with no way to ask "what did *this* run cost?" without manual
bookkeeping.  This module centralizes them:

* :class:`MetricsRegistry` holds named counters, gauges and power-of-two
  histograms behind one lock, with :meth:`~MetricsRegistry.snapshot` /
  :meth:`~MetricsRegistry.delta_since` so a caller can bracket any stretch
  of work and read off exactly what happened inside it, and
  :meth:`~MetricsRegistry.reset` (optionally by name prefix) so tests and
  per-run accounting do not inherit counts from unrelated runs;
* :data:`REGISTRY` is the process-wide default instance every layer
  reports into (``program_cache.*``, ``plan_cache.*``, ``engine.memo.*``);
* :func:`run_metrics` assembles the per-run snapshot that
  :class:`~repro.api.result.RunResult` carries: cache hit/miss deltas,
  per-node / per-core utilization derived from the Schedule (through the
  shared helpers of :mod:`repro.obs.util`), communication totals, and —
  when a trace was recorded — message-size histograms per network model
  and ready-queue depth statistics.

Everything here is standard library + numpy; importing this module pulls
in nothing from :mod:`repro.runtime`, so the producer layers can report
into the registry without import cycles.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Mapping, Optional

from repro.obs.util import utilization_summary


class Histogram:
    """Power-of-two bucketed histogram of non-negative values.

    Values are bucketed by ``int(value).bit_length()`` — bucket ``2**k``
    counts observations in ``(2**(k-1), 2**k]`` — which is exact, fast and
    deterministic for the byte counts and depths this package records.
    """

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.buckets: Dict[int, int] = {}

    def observe(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"histograms record non-negative values, got {value}")
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        bucket = int(value).bit_length()
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.total / self.count if self.count else None,
            # Keyed by the bucket's inclusive upper bound, ascending.
            "buckets": {
                str(2 ** k if k else 0): n
                for k, n in sorted(self.buckets.items())
            },
        }


class MetricsRegistry:
    """Thread-safe named counters / gauges / histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def inc(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name`` (creating it at 0)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value``."""
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record one observation into histogram ``name``."""
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = Histogram()
            hist.observe(value)

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    def counter(self, name: str) -> float:
        with self._lock:
            return self._counters.get(name, 0)

    def snapshot(self) -> Dict[str, Any]:
        """Point-in-time copy of every metric (JSON-serializable)."""
        with self._lock:
            return {
                "counters": dict(sorted(self._counters.items())),
                "gauges": dict(sorted(self._gauges.items())),
                "histograms": {
                    name: hist.to_dict()
                    for name, hist in sorted(self._histograms.items())
                },
            }

    def delta_since(self, before: Mapping[str, Any]) -> Dict[str, float]:
        """Counter increments since a previous :meth:`snapshot`.

        Only counters are diffed (gauges are instantaneous, histograms are
        cumulative distributions); counters untouched in between are
        omitted, so the delta of an idle stretch is ``{}``.
        """
        prior = before.get("counters", {})
        out: Dict[str, float] = {}
        with self._lock:
            for name, value in sorted(self._counters.items()):
                diff = value - prior.get(name, 0)
                if diff:
                    out[name] = diff
        return out

    def reset(self, prefix: Optional[str] = None) -> None:
        """Zero every metric, or only those whose name starts with ``prefix``."""
        with self._lock:
            if prefix is None:
                self._counters.clear()
                self._gauges.clear()
                self._histograms.clear()
                return
            for store in (self._counters, self._gauges, self._histograms):
                for name in [n for n in store if n.startswith(prefix)]:
                    del store[name]


#: The process-wide registry every layer reports into: ``program_cache.*``
#: (:class:`repro.ir.compiler.ProgramCache`), ``plan_cache.*``
#: (:class:`repro.tuning.cache.PlanCache`) and ``engine.memo.*``
#: (:mod:`repro.runtime.engine`'s per-program memo tables).
REGISTRY = MetricsRegistry()


# --------------------------------------------------------------------------- #
# Per-run snapshot assembly
# --------------------------------------------------------------------------- #
def _ready_queue_stats(run: Any) -> Dict[str, Any]:
    """Ready-queue depth statistics of one recorded engine run.

    An op is *ready* from the instant its last dependency arrival passes
    (``ready_time``) until the engine dispatches it (``start``); both
    arrays fall out of the event loop, so depth-over-time needs no in-loop
    sampling.  Returns the peak depth, the time-weighted mean depth and
    the number of ops that ever waited.
    """
    import numpy as np

    ready = np.asarray(run.ready_time, dtype=np.float64)
    start = np.asarray(run.start, dtype=np.float64)
    waited = start > ready
    if not len(ready):
        return {"peak": 0, "time_weighted_mean": 0.0, "ops_that_waited": 0}
    times = np.concatenate([ready, start])
    deltas = np.concatenate(
        [np.ones(len(ready), dtype=np.int64), -np.ones(len(start), dtype=np.int64)]
    )
    order = np.lexsort((-deltas, times))  # +1 before -1 at equal timestamps
    times, deltas = times[order], deltas[order]
    depth = np.cumsum(deltas)
    peak = int(depth.max(initial=0))
    span = times[-1] - times[0]
    if span > 0:
        widths = np.diff(times)
        mean = float((depth[:-1] * widths).sum() / span)
    else:
        mean = float(peak)
    return {
        "peak": peak,
        "time_weighted_mean": mean,
        "ops_that_waited": int(waited.sum()),
    }


def _message_size_histogram(run: Any) -> Dict[str, Any]:
    """Histogram of per-message payload sizes of one recorded run."""
    hist = Histogram()
    for record in run.transfers:
        hist.observe(record.n_bytes)
    return hist.to_dict()


def run_metrics(
    schedule: Any,
    machine: Any,
    *,
    counters_delta: Optional[Mapping[str, float]] = None,
    tracer: Optional[Any] = None,
) -> Dict[str, Any]:
    """Assemble the per-run metrics snapshot attached to ``RunResult``.

    ``schedule`` / ``machine`` are duck-typed (a
    :class:`~repro.runtime.scheduler.Schedule` and a
    :class:`~repro.runtime.machine.Machine`) so this module stays free of
    runtime imports.  ``counters_delta`` is the registry increment
    bracketing the run (cache hits/misses, memo traffic);  ``tracer``
    contributes the trace-only extras (ready-queue depth, message sizes)
    of the run it recorded for ``schedule``.
    """
    comm: Dict[str, Any] = {
        "messages": schedule.messages,
        "bytes": schedule.comm_bytes,
        "send_seconds": schedule.comm_seconds,
    }
    if schedule.messages_per_node is not None:
        comm["messages_per_node"] = list(schedule.messages_per_node)
    if schedule.comm_time_per_node is not None:
        comm["send_seconds_per_node"] = [float(x) for x in schedule.comm_time_per_node]
    out: Dict[str, Any] = {
        "utilization": utilization_summary(schedule, machine),
        "communication": comm,
        "cache": dict(counters_delta) if counters_delta else {},
    }
    # The run this schedule was recorded as, if any: a shared tracer may
    # hold other plans' runs, and an untraced schedule has none.
    run = next(
        (r for r in reversed(getattr(tracer, "runs", ())) if r.start is schedule.start),
        None,
    )
    if run is not None:
        out["ready_queue"] = _ready_queue_stats(run)
        out["message_sizes"] = _message_size_histogram(run)
        out["network"] = run.network
        out["policy"] = run.policy
    return out
