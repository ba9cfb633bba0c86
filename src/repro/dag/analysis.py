"""Structural analysis of compiled programs.

These tools quantify *why* a reduction tree behaves the way it does:

* **work / span / average parallelism** — the classical DAG metrics; the
  span (critical path) is what Section IV of the paper analyses, the
  average parallelism bounds the core count beyond which adding resources
  cannot help;
* **parallelism profile** — how many ops are simultaneously runnable over
  (weighted) time under an ASAP schedule with unbounded resources; the
  FLATTS profile is flat and low, the GREEDY profile has tall spikes, which
  is exactly the trade-off the AUTO tree balances;
* **kernel and step breakdowns** — where the work goes (panel vs update
  kernels, QR vs LQ steps).

Every helper reads the program's packed columns (kernel codes, weights,
CSR offsets), so analysing a cached program never materializes its
``Op`` objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.ir.program import Program
from repro.kernels.costs import KERNEL_LIST

_TS_KERNELS = ("TSMQR", "TSMLQ", "TSQRT", "TSLQT")
_TT_KERNELS = ("TTMQR", "TTMLQ", "TTQRT", "TTLQT")


@dataclass(frozen=True)
class GraphStats:
    """Summary statistics of a program's DAG.

    Attributes
    ----------
    n_tasks, n_edges:
        Number of ops and dependency edges.
    work:
        Total weight (units of ``nb^3 / 3`` flops) — sequential time.
    span:
        Critical-path weight — time with unbounded resources.
    average_parallelism:
        ``work / span``; above this core count speedup saturates.
    max_in_degree, max_out_degree:
        Largest dependency fan-in / fan-out of any op.
    n_sources, n_sinks:
        Ops without predecessors / successors.
    """

    n_tasks: int
    n_edges: int
    work: float
    span: float
    average_parallelism: float
    max_in_degree: int
    max_out_degree: int
    n_sources: int
    n_sinks: int


def graph_stats(program: Program) -> GraphStats:
    """Compute the :class:`GraphStats` of a program."""
    work = float(program.total_weight())
    span = program.critical_path()
    in_deg = np.diff(program.pred_indptr_np)
    out_deg = np.diff(program.succ_indptr_np)
    return GraphStats(
        n_tasks=len(program),
        n_edges=program.n_edges,
        work=work,
        span=span,
        average_parallelism=work / span if span > 0 else 0.0,
        max_in_degree=int(in_deg.max(initial=0)),
        max_out_degree=int(out_deg.max(initial=0)),
        n_sources=int(np.count_nonzero(in_deg == 0)),
        n_sinks=int(np.count_nonzero(out_deg == 0)),
    )


def parallelism_profile(program: Program, n_bins: int = 50) -> List[Tuple[float, int]]:
    """Number of concurrently running ops over time (ASAP, unbounded cores).

    Every op starts as soon as its predecessors finish (weights are the
    Table-I units).  The profile is sampled at ``n_bins`` evenly spaced
    points of the span and returned as ``(time, active_ops)`` pairs.
    """
    if len(program) == 0:
        return []
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    weights = program.weights_np.astype(np.float64)
    finish = program.finish_times_np(weights)
    start = finish - weights
    span = float(finish.max())
    if span <= 0:
        return [(0.0, len(program))]
    times = [span * (b + 0.5) / n_bins for b in range(n_bins)]
    # Active at t: started (start <= t) and not yet finished (finish > t);
    # weights are non-negative, so every finished op has also started.
    started = np.searchsorted(np.sort(start), times, side="right")
    finished = np.searchsorted(np.sort(finish), times, side="right")
    return [(t, int(a)) for t, a in zip(times, started - finished)]


def max_parallelism(program: Program, n_bins: int = 200) -> int:
    """Peak of the :func:`parallelism_profile` (sampled)."""
    profile = parallelism_profile(program, n_bins=n_bins)
    return max((active for _, active in profile), default=0)


def _work_by_kernel(program: Program) -> Tuple[np.ndarray, np.ndarray]:
    """Per-kernel-code op counts and summed weights."""
    codes = program.kernel_codes_np
    k = len(KERNEL_LIST)
    counts = np.bincount(codes, minlength=k)
    work = np.bincount(codes, weights=program.weights_np, minlength=k)
    return counts, work


def kernel_breakdown(program: Program) -> Dict[str, Dict[str, float]]:
    """Per-kernel op counts and work shares.

    Returns ``{kernel_name: {"count": ..., "work": ..., "work_fraction": ...}}``.
    """
    counts, work = _work_by_kernel(program)
    total = float(program.total_weight())
    return {
        KERNEL_LIST[code].value: {
            "count": float(counts[code]),
            "work": float(work[code]),
            "work_fraction": float(work[code]) / total if total > 0 else 0.0,
        }
        for code in np.flatnonzero(counts).tolist()
    }


def ts_tt_work_split(program: Program) -> Tuple[float, float]:
    """Fractions of the update work done by TS kernels vs TT kernels.

    The paper's AUTO tree exists because TS updates run near GEMM speed
    while TT updates do not; this split quantifies how much of the work each
    tree routes through the efficient kernels.
    """
    _, work = _work_by_kernel(program)
    by_name = {k.value: float(w) for k, w in zip(KERNEL_LIST, work)}
    ts = sum(by_name[name] for name in _TS_KERNELS)
    tt = sum(by_name[name] for name in _TT_KERNELS)
    total = ts + tt
    if total <= 0:
        return 0.0, 0.0
    return ts / total, tt / total


def step_breakdown(program: Program) -> Dict[str, float]:
    """Work per algorithm step (``QR(k)`` / ``LQ(k)``) as labelled by the recorder.

    Ops with an empty ``step`` label are aggregated under ``"(unlabelled)"``.
    """
    out: Dict[str, float] = {}
    for step, weight in zip(program.step_labels(), program.weights_np.tolist()):
        key = step or "(unlabelled)"
        out[key] = out.get(key, 0.0) + float(weight)
    return out


def memory_footprint_tiles(program: Program) -> int:
    """Number of distinct tiles touched by the program (working-set size in tiles)."""
    tiles = set()
    for index in range(len(program)):
        op = program.op(index)  # decoded one at a time, not kept
        tiles.update((i, j) for _, i, j in op.reads | op.writes)
    return len(tiles)
