"""Trace exporters: Chrome/Perfetto trace-event JSON and Gantt timelines.

The Chrome trace-event format (the JSON flavour Perfetto's legacy importer
and ``chrome://tracing`` both load) maps cleanly onto a simulated run:

========================  ==================================================
trace-event concept       simulation concept
========================  ==================================================
process (``pid``)         machine node (pid ``node + 1``; pid 0 is the
                          *host* process carrying wall-clock phase spans)
thread (``tid``)          core of the node (tid ``core + 1``); one extra
                          lane per node (tid ``cores_per_node + 1``) shows
                          the NIC's injection occupancy
complete event (``X``)    one task (name = kernel) or one message on the
                          NIC lane; ``ts`` / ``dur`` are simulated seconds
                          scaled to microseconds
duration events (B/E)     wall-clock phases (compile, dep-analysis, rank,
                          simulate) on the host process
counter event (``C``)     ready-queue depth over simulated time
metadata (``M``)          process/thread naming for the UI
========================  ==================================================

Wall-clock and simulated timelines coexist in one file because they live
on different processes; both start at zero so the phases sit alongside
the run they produced.

:func:`validate_chrome_trace` is the schema check the tests and the CI
smoke job run over emitted files: timestamps numeric and monotonic,
every ``B`` matched by an ``E`` on the same lane, non-negative ``X``
durations, integral pids/tids.

The Gantt renderers (:func:`gantt_text`, :func:`gantt_svg`) draw the same
run directly from the :class:`~repro.obs.tracer.EngineRun` record — one
lane per core plus a NIC lane per node — with one glyph per kernel
(:data:`KERNEL_GLYPHS`) and the shared busy-fraction helpers of
:mod:`repro.obs.util`.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.util import core_busy_seconds

#: One-character glyph per kernel in the text Gantt chart.
KERNEL_GLYPHS: Dict[str, str] = {
    "GEQRT": "Q",
    "TSQRT": "S",
    "TTQRT": "T",
    "UNMQR": "u",
    "TSMQR": "s",
    "TTMQR": "t",
    "GELQT": "L",
    "TSLQT": "Z",
    "TTLQT": "Y",
    "UNMLQ": "l",
    "TSMLQ": "z",
    "TTMLQ": "y",
}

_US = 1e6  # simulated / wall seconds -> trace-event microseconds
#: Ready-queue counter samples are capped so a million-op trace does not
#: drown the viewer in counter events.
_MAX_COUNTER_SAMPLES = 1000


# --------------------------------------------------------------------------- #
# Chrome / Perfetto trace-event JSON
# --------------------------------------------------------------------------- #
def _host_events(tracer: Any) -> List[Dict[str, Any]]:
    """Wall-clock phase spans as B/E pairs on the host process (pid 0)."""
    events: List[Dict[str, Any]] = []
    for span in tracer.phases:
        common = {"pid": 0, "tid": 1, "cat": "phase", "name": span.name}
        events.append({**common, "ph": "B", "ts": span.begin * _US})
        events.append({**common, "ph": "E", "ts": span.end * _US})
    return events


def _ready_depth_samples(run: Any) -> List[Tuple[float, int]]:
    """(time, ready-queue depth) step samples of one run, downsampled."""
    import numpy as np

    n = len(run)
    if n == 0:
        return []
    ready = np.asarray(run.ready_time, dtype=np.float64)
    start = np.asarray(run.start, dtype=np.float64)
    times = np.concatenate([ready, start])
    deltas = np.concatenate(
        [np.ones(n, dtype=np.int64), -np.ones(n, dtype=np.int64)]
    )
    order = np.lexsort((-deltas, times))  # +1 before -1 at equal timestamps
    times, deltas = times[order], deltas[order]
    depth = np.cumsum(deltas)
    # Collapse equal-timestamp runs to their final depth, then downsample.
    keep = np.ones(len(times), dtype=bool)
    keep[:-1] = times[1:] != times[:-1]
    times, depth = times[keep], depth[keep]
    if len(times) > _MAX_COUNTER_SAMPLES:
        idx = np.linspace(0, len(times) - 1, _MAX_COUNTER_SAMPLES).astype(np.int64)
        times, depth = times[idx], depth[idx]
    return list(zip(times.tolist(), depth.tolist()))


def _run_events(run: Any, run_index: int, n_runs: int) -> List[Dict[str, Any]]:
    """Task / transfer / counter / metadata events of one engine run."""
    events: List[Dict[str, Any]] = []
    pid_base = 1 + run_index * run.n_nodes
    nic_tid = run.cores_per_node + 1
    prefix = f"{run.label}/" if n_runs > 1 else ""

    for node in range(run.n_nodes):
        pid = pid_base + node
        events.append(
            {
                "ph": "M", "pid": pid, "tid": 0, "name": "process_name",
                "args": {"name": f"{prefix}node{node}"},
            }
        )
        for core in range(run.cores_per_node):
            events.append(
                {
                    "ph": "M", "pid": pid, "tid": core + 1,
                    "name": "thread_name", "args": {"name": f"core{core}"},
                }
            )
        events.append(
            {
                "ph": "M", "pid": pid, "tid": nic_tid,
                "name": "thread_name", "args": {"name": "nic"},
            }
        )

    names = run.kernel_names()
    levels = run.levels.tolist()
    start, finish = run.start, run.finish
    node_of, core_of = run.node_of, run.core_of
    for op_id in range(len(run)):
        t0 = start[op_id]
        events.append(
            {
                "ph": "X",
                "pid": pid_base + node_of[op_id],
                "tid": core_of[op_id] + 1,
                "cat": "task",
                "name": names[op_id],
                "ts": t0 * _US,
                "dur": (finish[op_id] - t0) * _US,
                "args": {"op": op_id, "level": levels[op_id]},
            }
        )

    for record in run.transfers:
        events.append(
            {
                "ph": "X",
                "pid": pid_base + record.src,
                "tid": nic_tid,
                "cat": "transfer",
                "name": f"msg to node{record.dst}",
                "ts": record.inject_start * _US,
                "dur": record.injection * _US,
                "args": {
                    "op": record.op_id,
                    "dst": record.dst,
                    "bytes": record.n_bytes,
                    "release_us": record.release * _US,
                    "handshake_us": record.handshake * _US,
                    "queued_us": record.queued * _US,
                    "wire_us": record.wire * _US,
                    "arrival_us": record.arrival * _US,
                },
            }
        )

    for t, depth in _ready_depth_samples(run):
        events.append(
            {
                "ph": "C",
                "pid": pid_base,
                "tid": 0,
                "cat": "engine",
                "name": f"{prefix}ready_depth",
                "ts": t * _US,
                "args": {"ready": depth},
            }
        )
    return events


def chrome_trace(tracer: Any) -> Dict[str, Any]:
    """Render a tracer's phases + runs as a trace-event JSON object.

    Metadata events lead (no timestamps); every timed event follows in
    globally non-decreasing ``ts`` order, ties kept in emission order so
    B/E nesting survives the sort.
    """
    timed: List[Dict[str, Any]] = []
    meta: List[Dict[str, Any]] = []
    if tracer.phases:
        meta.append(
            {
                "ph": "M", "pid": 0, "tid": 0, "name": "process_name",
                "args": {"name": "host (wall clock)"},
            }
        )
        meta.append(
            {
                "ph": "M", "pid": 0, "tid": 1, "name": "thread_name",
                "args": {"name": "phases"},
            }
        )
        timed.extend(_host_events(tracer))
    n_runs = len(tracer.runs)
    for index, run in enumerate(tracer.runs):
        for event in _run_events(run, index, n_runs):
            (meta if event["ph"] == "M" else timed).append(event)
    timed.sort(key=lambda e: e["ts"])  # stable: emission order breaks ties
    payload: Dict[str, Any] = {
        "traceEvents": meta + timed,
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.obs",
            "runs": [
                {
                    "label": run.label,
                    "policy": run.policy,
                    "network": run.network,
                    "ops": len(run),
                    "makespan_s": run.makespan,
                }
                for run in tracer.runs
            ],
            **tracer.meta,
        },
    }
    return payload


def write_chrome_trace(tracer: Any, path: str) -> str:
    """Serialize :func:`chrome_trace` to ``path``; returns the path."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(chrome_trace(tracer), fh, separators=(",", ":"))
        fh.write("\n")
    return path


def validate_chrome_trace(payload: Any) -> List[str]:
    """Schema-check a trace-event object; returns a list of problems.

    An empty list means the payload is loadable: ``traceEvents`` present,
    numeric non-negative timestamps in globally non-decreasing order,
    every ``B`` closed by a matching ``E`` on its (pid, tid) lane,
    non-negative ``X`` durations, integral pids/tids.
    """
    problems: List[str] = []
    if not isinstance(payload, dict) or "traceEvents" not in payload:
        return ["payload is not an object with a traceEvents list"]
    events = payload["traceEvents"]
    if not isinstance(events, list):
        return ["traceEvents is not a list"]
    last_ts: Optional[float] = None
    open_spans: Dict[Tuple[int, int], List[str]] = {}
    for i, event in enumerate(events):
        if not isinstance(event, dict) or "ph" not in event:
            problems.append(f"event {i}: not an object with a 'ph' field")
            continue
        ph = event["ph"]
        pid, tid = event.get("pid"), event.get("tid")
        if not isinstance(pid, int) or not isinstance(tid, int):
            problems.append(f"event {i}: pid/tid must be integers")
            continue
        if ph == "M":
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"event {i}: bad ts {ts!r}")
            continue
        if last_ts is not None and ts < last_ts:
            problems.append(
                f"event {i}: ts {ts} goes backwards (previous {last_ts})"
            )
        last_ts = ts
        if ph == "B":
            open_spans.setdefault((pid, tid), []).append(event.get("name", ""))
        elif ph == "E":
            stack = open_spans.get((pid, tid))
            if not stack:
                problems.append(f"event {i}: E without open B on lane {(pid, tid)}")
            else:
                begun = stack.pop()
                name = event.get("name", begun)
                if name != begun:
                    problems.append(
                        f"event {i}: E name {name!r} closes B name {begun!r}"
                    )
        elif ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"event {i}: X with bad dur {dur!r}")
    for lane, stack in sorted(open_spans.items()):
        if stack:
            problems.append(f"lane {lane}: unclosed B span(s) {stack}")
    return problems


# --------------------------------------------------------------------------- #
# Gantt timelines (text + SVG) straight from an EngineRun
# --------------------------------------------------------------------------- #
def _lane_intervals(
    run: Any,
) -> Dict[Tuple[int, int], List[Tuple[float, float, str]]]:
    """(node, core) -> sorted [(start, finish, kernel name)] of one run."""
    names = run.kernel_names()
    lanes: Dict[Tuple[int, int], List[Tuple[float, float, str]]] = {}
    for op_id in range(len(run)):
        key = (run.node_of[op_id], run.core_of[op_id])
        lanes.setdefault(key, []).append(
            (run.start[op_id], run.finish[op_id], names[op_id])
        )
    for intervals in lanes.values():
        intervals.sort()
    return lanes


def _lane_busy_fractions(run: Any) -> Any:
    """(n_nodes, cores) busy fractions via the shared obs.util helper."""
    per_core = core_busy_seconds(
        run.start, run.finish, run.node_of, run.core_of,
        run.n_nodes, run.cores_per_node,
    )
    return per_core / run.makespan if run.makespan > 0 else per_core


def gantt_text(
    run: Any,
    *,
    width: int = 100,
    max_lanes: Optional[int] = 32,
) -> str:
    """ASCII Gantt chart of one engine run, one lane per core plus NIC rows.

    Each column spans ``makespan / width`` simulated seconds; a cell shows
    the kernel glyph that occupied the majority of the slice (``.`` =
    idle).  NIC rows (``~`` = injecting) appear under each node that sent
    messages.  Every lane ends with its busy fraction from the shared
    utilization helper.
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    if run.makespan <= 0 or len(run) == 0:
        return "(empty schedule)"
    makespan = run.makespan
    dt = makespan / width
    lanes = _lane_intervals(run)
    busy_frac = _lane_busy_fractions(run)

    nic_rows: Dict[int, List[Tuple[float, float]]] = {}
    for record in run.transfers:
        nic_rows.setdefault(record.src, []).append(
            (record.inject_start, record.inject_start + record.injection)
        )

    lines: List[str] = [
        f"{run.label}: policy={run.policy} network={run.network} "
        f"makespan={makespan:.4g}s  ({width} columns, '.' = idle)",
        "legend: "
        + "  ".join(f"{g}={n}" for n, g in sorted(KERNEL_GLYPHS.items()))
        + "  ~=NIC injecting",
    ]
    shown = 0
    for key in sorted(lanes):
        if max_lanes is not None and shown >= max_lanes:
            lines.append(f"... ({len(lanes) - shown} more core lanes not shown)")
            break
        node, core = key
        intervals = lanes[key]
        row = []
        for col in range(width):
            t0, t1 = col * dt, (col + 1) * dt
            best_kernel, best_overlap = None, 0.0
            for s, f, kernel in intervals:
                overlap = min(f, t1) - max(s, t0)
                if overlap > best_overlap:
                    best_overlap = overlap
                    best_kernel = kernel
            row.append(KERNEL_GLYPHS.get(best_kernel, "#") if best_kernel else ".")
        frac = float(busy_frac[node][core])
        lines.append(f"n{node:02d}c{core:02d} |" + "".join(row) + f"| {frac:5.1%}")
        shown += 1
        if core == run.cores_per_node - 1 and node in nic_rows:
            row = []
            for col in range(width):
                t0, t1 = col * dt, (col + 1) * dt
                hit = any(
                    min(f, t1) - max(s, t0) > 0 for s, f in nic_rows[node]
                )
                row.append("~" if hit else ".")
            lines.append(f"n{node:02d} nic|" + "".join(row) + "|")
    return "\n".join(lines)


def _kernel_color(name: str) -> str:
    """Deterministic per-kernel color (golden-angle hue walk)."""
    index = sorted(KERNEL_GLYPHS).index(name) if name in KERNEL_GLYPHS else 12
    hue = (index * 137) % 360
    return f"hsl({hue},65%,55%)"


def gantt_svg(
    run: Any,
    *,
    width_px: int = 1200,
    lane_px: int = 14,
    max_lanes: Optional[int] = 64,
) -> str:
    """SVG Gantt timeline of one engine run (tasks + NIC injections).

    One horizontal band per core (``max_lanes`` caps the band count for
    very large machines), colored by kernel, with the NIC injection
    windows as grey bands under each node.  Self-contained SVG — no
    external CSS or scripts — so it opens in any browser.
    """
    if run.makespan <= 0 or len(run) == 0:
        return '<svg xmlns="http://www.w3.org/2000/svg" width="10" height="10"/>'
    makespan = run.makespan
    scale = width_px / makespan
    label_px = 70
    lanes = _lane_intervals(run)
    lane_keys = sorted(lanes)
    truncated = 0
    if max_lanes is not None and len(lane_keys) > max_lanes:
        truncated = len(lane_keys) - max_lanes
        lane_keys = lane_keys[:max_lanes]

    nic_rows: Dict[int, List[Any]] = {}
    for record in run.transfers:
        if record.src in {node for node, _ in lane_keys}:
            nic_rows.setdefault(record.src, []).append(record)

    rows: List[Tuple[str, Any]] = [(f"n{n:02d}c{c:02d}", (n, c)) for n, c in lane_keys]
    nodes_shown = []
    for node, _ in lane_keys:
        if node not in nodes_shown:
            nodes_shown.append(node)
    for node in nodes_shown:
        if node in nic_rows:
            rows.append((f"n{node:02d} nic", ("nic", node)))

    height = (len(rows) + 2) * lane_px + 20
    parts: List[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{label_px + width_px + 10}" height="{height}" '
        f'font-family="monospace" font-size="{lane_px - 4}px">',
        f'<text x="2" y="{lane_px - 2}">{run.label}: policy={run.policy} '
        f"network={run.network} makespan={makespan:.4g}s"
        + (f" ({truncated} lanes hidden)" if truncated else "")
        + "</text>",
    ]
    y = lane_px + 4
    for label, key in rows:
        parts.append(
            f'<text x="2" y="{y + lane_px - 3}" fill="#333">{label}</text>'
        )
        parts.append(
            f'<rect x="{label_px}" y="{y}" width="{width_px}" '
            f'height="{lane_px - 1}" fill="#f2f2f2"/>'
        )
        if key[0] == "nic":
            for record in nic_rows.get(key[1], ()):
                x = label_px + record.inject_start * scale
                w = max(record.injection * scale, 0.5)
                parts.append(
                    f'<rect x="{x:.2f}" y="{y}" width="{w:.2f}" '
                    f'height="{lane_px - 1}" fill="#888">'
                    f"<title>op {record.op_id} to node{record.dst} "
                    f"({record.n_bytes} B)</title></rect>"
                )
        else:
            for s, f, kernel in lanes[key]:
                x = label_px + s * scale
                w = max((f - s) * scale, 0.5)
                parts.append(
                    f'<rect x="{x:.2f}" y="{y}" width="{w:.2f}" '
                    f'height="{lane_px - 1}" fill="{_kernel_color(kernel)}">'
                    f"<title>{kernel} [{s:.4g}s, {f:.4g}s]</title></rect>"
                )
        y += lane_px
    legend_y = y + lane_px - 3
    x = label_px
    for name in sorted(KERNEL_GLYPHS):
        parts.append(
            f'<rect x="{x}" y="{legend_y - lane_px + 4}" width="10" '
            f'height="10" fill="{_kernel_color(name)}"/>'
        )
        parts.append(f'<text x="{x + 12}" y="{legend_y}">{name}</text>')
        x += 12 + 6 * len(name) + 14
    parts.append("</svg>")
    return "\n".join(parts)
