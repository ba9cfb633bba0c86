"""Observability: execution tracing and metrics.

The paper's whole methodology is trace-driven — scheduling quality, idle
time, and communication overlap are read off execution timelines — and
this package is the repo's counterpart to that tooling:

* :mod:`repro.obs.tracer` — opt-in structured tracing (``REPRO_TRACE=1``
  or ``trace=`` on the API): wall-clock phase spans plus per-task /
  per-transfer simulated-time events, recorded *after* the engine's event
  loop from state the loop already computes, so traced and untraced
  schedules are bit-identical by construction;
* :mod:`repro.obs.export` — Chrome/Perfetto trace-event JSON, a schema
  validator, and text/SVG Gantt timelines;
* :mod:`repro.obs.metrics` — a stdlib metrics registry (cache hit/miss,
  engine memo traffic) and the per-run snapshot on ``RunResult.metrics``;
* :mod:`repro.obs.util` — the shared per-node/per-core busy/idle helpers;
* :mod:`repro.obs.clock` — the injectable clock that keeps wall-clock
  reads out of the deterministic core.

Layering: nothing here imports :mod:`repro.runtime` at module scope
(schedules and machines are duck-typed), so every runtime layer can
report into ``obs`` without cycles.
"""

from repro.obs.clock import Clock, FakeClock, WallClock
from repro.obs.export import (
    KERNEL_GLYPHS,
    chrome_trace,
    gantt_svg,
    gantt_text,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.metrics import REGISTRY, Histogram, MetricsRegistry, run_metrics
from repro.obs.tracer import (
    TRACE_ENV,
    TRACE_FILE_ENV,
    EngineRun,
    PhaseSpan,
    Tracer,
    TransferRecord,
    current_tracer,
    default_trace_path,
    trace_enabled,
)
from repro.obs.util import (
    core_busy_seconds,
    idle_seconds_per_node,
    node_busy_fractions,
    utilization_summary,
)

__all__ = [
    "Clock",
    "FakeClock",
    "WallClock",
    "KERNEL_GLYPHS",
    "chrome_trace",
    "gantt_svg",
    "gantt_text",
    "validate_chrome_trace",
    "write_chrome_trace",
    "REGISTRY",
    "Histogram",
    "MetricsRegistry",
    "run_metrics",
    "TRACE_ENV",
    "TRACE_FILE_ENV",
    "EngineRun",
    "PhaseSpan",
    "Tracer",
    "TransferRecord",
    "current_tracer",
    "default_trace_path",
    "trace_enabled",
    "core_busy_seconds",
    "idle_seconds_per_node",
    "node_busy_fractions",
    "utilization_summary",
]
