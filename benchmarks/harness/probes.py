"""Per-layer measurement from outside the program.

:class:`Probes` wraps each layer's public functions at the module or class
attribute its caller looks up, and records every call as a phase span of
one :class:`repro.obs.Tracer`.  Activated as the ambient tracer, the same
instance also collects the program's own phase spans (``compile``,
``dep-analysis``, ``rank``, ``simulate``, ``batch.*``), so wrapper spans
and program spans nest in one timeline.  A layer's self time is its span's
duration minus the spans nested directly inside it.

:class:`LayerTotals` sums what the traced ops measured and turns the sums
into the per-layer metrics ``BENCHMARK.json`` declares, as means per op.
"""

from __future__ import annotations

import functools
import importlib
import os
from collections import defaultdict
from contextlib import ExitStack
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.kernels.costs import kernel_flops
from repro.obs.metrics import REGISTRY
from repro.obs.tracer import Tracer
from repro.runtime.engine import engine_memo_stats

KERNELS = (
    "GEQRT", "UNMQR", "TSQRT", "TSMQR", "TTQRT", "TTMQR",
    "GELQT", "UNMLQ", "TSLQT", "TSMLQ", "TTLQT", "TTMLQ",
)

#: Distinct tiles each kernel reads or writes (the access sets of
#: ``repro.verify.semantics``); prices ``kernels.bytes_computed``.
TILES_TOUCHED = {
    "GEQRT": 1, "UNMQR": 2, "TSQRT": 2, "TSMQR": 3, "TTQRT": 2, "TTMQR": 3,
    "GELQT": 1, "UNMLQ": 2, "TSLQT": 2, "TSMLQ": 3, "TTLQT": 2, "TTMLQ": 3,
}

_STORE_METHODS = (
    "__init__", "close", "get_meta", "set_meta", "register", "requeue_interrupted",
    "mark_running", "mark_done", "charge_failure", "release", "requeue_quarantined",
    "counts", "status_of", "records", "result_rows",
)


def _targets() -> List[Tuple[Any, str, str]]:
    """(owner, attribute, span name) of every wrapped call site."""
    from repro.campaign.runner import CampaignRunner
    from repro.campaign.store import ResultStore
    from repro.runtime.engine import SimulationEngine

    def mod(name: str) -> Any:
        # Module objects, never the package attribute: ``repro.api.execute``
        # resolves to the function of that name.
        return importlib.import_module(name)

    qr, lq = mod("repro.kernels.qr_kernels"), mod("repro.kernels.lq_kernels")
    targets = [
        (mod("repro.api.execute"), "resolve", "api.resolve"),
        (mod("repro.campaign.spec"), "resolve", "api.resolve"),
        (mod("repro.ir.compiler"), "compile_program", "ir.compile"),
        (mod("repro.ir"), "replay", "algorithms.replay"),
        (mod("repro.algorithms.bnd2bd"), "band_to_bidiagonal", "algorithms.bnd2bd"),
        (mod("repro.algorithms.bd2val"), "bidiagonal_singular_values", "algorithms.bd2val"),
        (SimulationEngine, "run", "runtime.engine"),
        (mod("repro.runtime.simulator"), "run_scenario", "runtime.scenario"),
        (mod("repro.runtime.batch"), "run_scenario", "runtime.scenario"),
        (CampaignRunner, "run", "campaign.run"),
        (mod("repro.obs.metrics"), "run_metrics", "obs.run_metrics"),
    ]
    targets += [(qr if k in KERNELS[:6] else lq, k.lower(), f"kernels.{k}") for k in KERNELS]
    targets += [(ResultStore, method, "campaign.store") for method in _STORE_METHODS]
    return targets


class Probes:
    """Context manager that wraps every layer entry point while active.

    Calls made in another process (a forked campaign worker inherits the
    wrappers) pass straight through.  ``compiled`` collects the programs
    ``compile_program`` returned.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.compiled: List[Any] = []
        self._saved: List[Tuple[Any, str, Any]] = []

    def _wrap(self, fn: Callable, name: str) -> Callable:
        pid = os.getpid()
        phase = self.tracer.phase
        keep = self.compiled.append if name == "ir.compile" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != pid:
                return fn(*args, **kwargs)
            with phase(name):
                out = fn(*args, **kwargs)
            if keep is not None:
                keep(out)
            return out

        return wrapper

    def __enter__(self) -> "Probes":
        for owner, attr, name in _targets():
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def memo_counts() -> Dict[str, float]:
    """The memo and batch counters of ``engine_memo_stats`` the metrics use."""
    stats = engine_memo_stats()
    out = {
        "memo_hits": sum(v for k, v in stats.items() if k.endswith("_hits")),
        "memo_misses": sum(v for k, v in stats.items() if k.endswith("_misses")),
    }
    for name in ("candidates", "simulated", "deduped", "pruned"):
        out[f"batch_{name}"] = stats[f"batch_{name}"]
    return out


class TracedOp:
    """Context manager around one timed op.

    Wraps the layers, makes the tracer ambient when the op's layers run in
    this process, and takes the registry and memo counter deltas.
    """

    def __init__(self, in_process: bool) -> None:
        self.tracer = Tracer()
        self.in_process = in_process

    def __enter__(self) -> "TracedOp":
        self._counters = REGISTRY.snapshot()
        self._memo = memo_counts()
        self._stack = ExitStack()
        self.probes = self._stack.enter_context(Probes(self.tracer))
        if self.in_process:
            self._stack.enter_context(self.tracer.activate())
        return self

    def __exit__(self, *exc) -> None:
        self._stack.close()
        memo = memo_counts()
        self.counter_delta = REGISTRY.delta_since(self._counters)
        self.memo_delta = {key: memo[key] - self._memo[key] for key in memo}


def span_times(phases: Iterable[Any]) -> Tuple[Dict[str, List[float]], float]:
    """Per span name ``[inclusive s, self s, calls]``, plus top-level seconds.

    Spans arrive in closing order (children before their parent) with
    their nesting depth, so one pass attributes each closed span's
    duration to the next span that closes one level up.
    """
    totals: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0.0, 0])
    closed_at: Dict[int, float] = defaultdict(float)
    for span in phases:
        seconds = span.end - span.begin
        entry = totals[span.name]
        entry[0] += seconds
        entry[1] += seconds - closed_at.pop(span.depth + 1, 0.0)
        entry[2] += 1
        closed_at[span.depth] += seconds
    return dict(totals), closed_at.get(0, 0.0)


class LayerTotals:
    """Sums over traced ops; :meth:`metrics` reports them per op."""

    def __init__(self, tile_size: Optional[int], workers: int) -> None:
        self.tile_size = tile_size
        self.workers = workers
        self.ops = 0
        self.wall = 0.0
        self.covered = 0.0
        self.spans: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0.0, 0])
        self.counts: Dict[str, float] = defaultdict(float)

    def add(
        self,
        wall: float,
        traced: TracedOp,
        rows: Optional[List[Dict[str, Any]]],
        extras: Dict[str, float],
    ) -> None:
        """Fold in one traced op: its wall time, spans, counter deltas and rows."""
        self.ops += 1
        self.wall += wall
        spans, covered = span_times(traced.tracer.phases)
        self.covered += covered
        for name, (incl, self_s, calls) in spans.items():
            entry = self.spans[name]
            entry[0] += incl
            entry[1] += self_s
            entry[2] += calls
        counts = self.counts
        counts["ir.ops"] += sum(len(program) for program in traced.probes.compiled)
        counts["ir.edges"] += sum(program.n_edges for program in traced.probes.compiled)
        counters = traced.counter_delta
        counts["cache_hits"] += counters.get("program_cache.hits", 0)
        counts["cache_misses"] += counters.get("program_cache.misses", 0)
        counts["scenario_draws"] += counters.get("engine.mc.draws", 0)
        for key, value in traced.memo_delta.items():
            counts[key] += value
        for row in rows or ():
            counts["ops_replayed"] += row["n_tasks"] * (1 + row.get("mc_draws", 0))
            counts["messages"] += row["messages"]
            counts["comm_bytes"] += row["comm_bytes"]
        for key, value in extras.items():
            counts[key] += value

    def metrics(
        self,
        untraced_median: float,
        traced_median: float,
        serial_s: Optional[float],
    ) -> Dict[str, float]:
        """Every per-layer metric, as a mean per traced op."""
        n = max(self.ops, 1)

        def incl(name: str) -> float:
            return self.spans[name][0] if name in self.spans else 0.0

        def self_time(name: str) -> float:
            return self.spans[name][1] if name in self.spans else 0.0

        def calls(name: str) -> float:
            return self.spans[name][2] if name in self.spans else 0

        counts = self.counts
        nb = self.tile_size or 0
        flops = sum(calls(f"kernels.{k}") * kernel_flops(k, nb) for k in KERNELS)
        tile_bytes = nb * nb * 8
        data = sum(calls(f"kernels.{k}") * TILES_TOUCHED[k] * tile_bytes for k in KERNELS)
        kernel_s = sum(incl(f"kernels.{k}") for k in KERNELS)
        engine_s = incl("runtime.engine")
        priced_s = engine_s + incl("batch.simulate")
        store_s = self_time("campaign.store")
        out = {
            "api.resolve_s": incl("api.resolve") / n,
            "api.residual_s": (self.wall - self.covered) / n,
            "ir.compile_s": incl("ir.compile") / n,
            "ir.compile_calls": calls("ir.compile") / n,
            "ir.dep_analysis_s": incl("dep-analysis") / n,
            "ir.cache_hits": counts["cache_hits"] / n,
            "ir.cache_misses": counts["cache_misses"] / n,
            "ir.ops": counts["ir.ops"] / n,
            "ir.edges": counts["ir.edges"] / n,
        }
        for k in KERNELS:
            out[f"kernels.{k}.calls"] = calls(f"kernels.{k}") / n
            out[f"kernels.{k}.s"] = incl(f"kernels.{k}") / n
        out.update({
            "kernels.flops": flops / n,
            "kernels.gflops": flops / kernel_s / 1e9 if kernel_s else 0.0,
            "kernels.bytes_computed": data / n,
            "kernels.flops_per_byte": flops / data if data else 0.0,
            "algorithms.replay_s": incl("algorithms.replay") / n,
            "algorithms.executor_s": self_time("algorithms.replay") / n,
            "algorithms.bnd2bd_s": incl("algorithms.bnd2bd") / n,
            "algorithms.bd2val_s": incl("algorithms.bd2val") / n,
            "runtime.engine_s": engine_s / n,
            "runtime.engine_calls": calls("runtime.engine") / n,
            "runtime.rank_s": incl("rank") / n,
            "runtime.loop_s": self_time("simulate") / n,
            "runtime.batch_prepare_s": incl("batch.prepare") / n,
            "runtime.batch_simulate_s": incl("batch.simulate") / n,
            "runtime.scenario_s": incl("runtime.scenario") / n,
            "runtime.scenario_draws": counts["scenario_draws"] / n,
            "runtime.ops_replayed": counts["ops_replayed"] / n,
            "runtime.ops_per_s": counts["ops_replayed"] / priced_s if priced_s else 0.0,
        })
        for name in ("candidates", "simulated", "deduped", "pruned"):
            out[f"runtime.batch_{name}"] = counts[f"batch_{name}"] / n
        out.update({
            "runtime.memo_hits": counts["memo_hits"] / n,
            "runtime.memo_misses": counts["memo_misses"] / n,
            "runtime.messages": counts["messages"] / n,
            "runtime.comm_bytes": counts["comm_bytes"] / n,
            "campaign.store_s": store_s / n,
            "campaign.store_calls": calls("campaign.store") / n,
            "campaign.worker_busy_s": counts["worker_busy_s"] / n,
            "campaign.dispatch_s": self_time("campaign.run") / n,
            "campaign.pool_efficiency": counts["worker_busy_s"] / (self.workers * self.wall),
            "campaign.serial_s": serial_s or 0.0,
            "campaign.pool_speedup": serial_s / untraced_median if serial_s else 0.0,
            "campaign.retries": counts["retries"] / n,
            "campaign.respawns": counts["respawns"] / n,
            "campaign.timeouts": counts["timeouts"] / n,
            "obs.run_metrics_s": incl("obs.run_metrics") / n,
            "obs.trace_overhead_frac": traced_median / untraced_median - 1.0,
            "obs.coverage": self.covered / self.wall if self.wall else 0.0,
        })
        return out
