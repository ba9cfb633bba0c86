"""Shared utilization / idle-time helpers over executed schedules.

Per-node and per-core busy/idle accounting has one implementation, here:
:meth:`repro.runtime.scheduler.Schedule.node_utilization`, the metrics
registry, the Gantt exporters and the benchmarks all share it.

Everything is duck-typed over the ``Schedule`` record (``makespan``,
``busy_time_per_node``, ``start`` / ``finish`` / ``node_of_task`` /
``core_of_task``) and the ``Machine`` (``cores_per_node``), so the module
imports nothing from :mod:`repro.runtime` and can sit below it in the
layering.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

import numpy as np


def node_busy_fractions(
    busy_time_per_node: Sequence[float],
    makespan: float,
    cores_per_node: int,
) -> List[float]:
    """Fraction of available core-seconds each node spent computing.

    Backs ``Schedule.node_utilization``: a zero (or negative) makespan
    yields all-zero fractions rather than a division error.
    """
    if makespan <= 0:
        return [0.0 for _ in busy_time_per_node]
    capacity = cores_per_node * makespan
    return [busy / capacity for busy in busy_time_per_node]


def idle_seconds_per_node(
    busy_time_per_node: Sequence[float],
    makespan: float,
    cores_per_node: int,
) -> List[float]:
    """Idle core-seconds of each node over the makespan."""
    return [cores_per_node * makespan - busy for busy in busy_time_per_node]


def core_busy_seconds(
    start: Sequence[float],
    finish: Sequence[float],
    node_of_task: Sequence[int],
    core_of_task: Sequence[int],
    n_nodes: int,
    cores_per_node: int,
) -> np.ndarray:
    """Busy seconds of every core, as an ``(n_nodes, cores_per_node)`` array.

    One vectorized ``bincount`` over the schedule rows — no per-task
    Python loop, so attaching per-core metrics to a million-op run stays
    cheap.
    """
    if not len(start):
        return np.zeros((n_nodes, cores_per_node), dtype=np.float64)
    durations = np.asarray(finish, dtype=np.float64) - np.asarray(
        start, dtype=np.float64
    )
    lane = (
        np.asarray(node_of_task, dtype=np.int64) * cores_per_node
        + np.asarray(core_of_task, dtype=np.int64)
    )
    flat = np.bincount(lane, weights=durations, minlength=n_nodes * cores_per_node)
    return flat.reshape(n_nodes, cores_per_node)


def utilization_summary(schedule: Any, machine: Any) -> Dict[str, Any]:
    """Busy/idle breakdown of one executed schedule (JSON-serializable).

    Used by the metrics registry (``RunResult.metrics["utilization"]``),
    the Gantt exporters (per-lane busy fractions) and the analysis layer.
    Per-core figures require the engine's core assignment
    (``schedule.core_of_task``); hand-built schedules without one get the
    per-node view only.
    """
    makespan = float(schedule.makespan)
    busy_per_node = list(schedule.busy_time_per_node)
    n_nodes = len(busy_per_node)
    cores = int(machine.cores_per_node)
    total_busy = float(sum(busy_per_node))
    capacity = n_nodes * cores * makespan
    out: Dict[str, Any] = {
        "makespan": makespan,
        "busy_fraction_per_node": node_busy_fractions(busy_per_node, makespan, cores),
        "idle_seconds_per_node": idle_seconds_per_node(busy_per_node, makespan, cores),
        "overall_busy_fraction": total_busy / capacity if capacity > 0 else 0.0,
        "total_idle_seconds": max(capacity - total_busy, 0.0),
    }
    core_of: Optional[Sequence[int]] = schedule.core_of_task
    if core_of is not None and makespan > 0:
        per_core = core_busy_seconds(
            schedule.start,
            schedule.finish,
            schedule.node_of_task,
            core_of,
            n_nodes,
            cores,
        )
        out["busy_seconds_per_core"] = [
            [float(x) for x in row] for row in per_core
        ]
        out["busy_fraction_per_core"] = [
            [float(x) / makespan for x in row] for row in per_core
        ]
    return out
