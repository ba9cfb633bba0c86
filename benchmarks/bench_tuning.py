"""Autotuner search cost: serial vs parallel, cold vs cached.

Times the :mod:`repro.tuning` grid search over one Section-VI-B-shaped
space four ways — exhaustive on 1 and on 4 worker processes, pruned, and
cache-hit — and writes the measured trajectory to ``BENCH_tuning.json``
at the repo root so successive runs can be compared.  Only an unprunable
race (``GridSearch(prune=False)`` here) is scored on the tuner's worker
pool; a prunable one walks serially whatever ``workers`` says.  Both
exhaustive rows and the ``cold-cache`` row start from a cleared program
cache, so none inherits another row's compiles: ``cold-cache`` is the
whole search a plan-cache hit (``warm-cache``) saves.

The parallel speedup assertion is deliberately lenient (container CPU
quotas vary); the cache assertion is not — a cache hit must be orders of
magnitude faster than any search.
"""

from __future__ import annotations

import json
import os
import time

from benchmarks.conftest import print_table
from repro.api import SvdPlan
from repro.experiments.figures import format_rows, full_scale
from repro.ir import clear_program_cache
from repro.tuning import GridSearch, PlanCache, SearchSpace, tune

ARTIFACT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCH_tuning.json"
)

#: One miriel node, square problem, paper-shaped space (Section VI-B).
M = N = 20000 if full_scale() else 1600
SPACE = SearchSpace(
    tile_sizes=(80, 120, 160, 240) if full_scale() else (40, 64, 100, 160),
    trees=("flatts", "flattt", "greedy", "auto"),
    variants=("bidiag",),
)


def _plan() -> SvdPlan:
    return SvdPlan(m=M, n=N, stage="ge2val", n_cores=24)


def _timed(label: str, **kwargs):
    start = time.perf_counter()
    result = tune(_plan(), space=SPACE, **kwargs)
    elapsed = time.perf_counter() - start
    return {
        "mode": label,
        "seconds": elapsed,
        "evaluated": result.n_evaluated,
        "pruned": result.n_pruned,
        "best_nb": result.best_plan.tile_size,
        "best_tree": str(result.best_plan.tree),
        "from_cache": result.from_cache,
    }, result


def test_bench_tuning_trajectory(benchmark, tmp_path):
    cache = PlanCache(tmp_path / "plan_cache.json")
    rows = []

    def run():
        rows.clear()
        for label, kwargs in (
            ("exhaustive-serial", dict(strategy=GridSearch(prune=False), cache=False)),
            (
                "exhaustive-parallel-4",
                dict(strategy=GridSearch(prune=False), cache=False, workers=4),
            ),
            ("pruned-serial", dict(cache=False)),
            ("cold-cache", dict(cache=cache)),
            ("warm-cache", dict(cache=cache)),
            ("halving-serial", dict(strategy="halving", cache=False)),
        ):
            if label.startswith("exhaustive") or label == "cold-cache":
                clear_program_cache()
            row, _ = _timed(label, **kwargs)
            rows.append(row)
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        f"Autotuner search cost, m=n={M}, {SPACE.size(_plan())} candidates",
        format_rows(rows),
    )

    by_mode = {r["mode"]: r for r in rows}
    # Every search mode agrees on the winner; the cache serves it verbatim.
    winners = {(r["best_nb"], r["best_tree"]) for r in rows if r["mode"] != "halving-serial"}
    assert len(winners) == 1
    # Pruning skips candidates and never loses to exhaustive.
    assert by_mode["pruned-serial"]["pruned"] > 0
    assert by_mode["pruned-serial"]["evaluated"] < by_mode["exhaustive-serial"]["evaluated"]
    # The warm cache answers without evaluating anything, basically for free.
    assert by_mode["warm-cache"]["from_cache"]
    assert by_mode["warm-cache"]["evaluated"] == 0
    assert by_mode["warm-cache"]["seconds"] < 0.25 * by_mode["cold-cache"]["seconds"]
    # Parallel search is measurably faster wherever there is more than one
    # core to use; on a single-core machine all it can cost is pool
    # overhead.  (The artifact records the exact speedup either way.)
    parallel_budget = 1.0 if (os.cpu_count() or 1) >= 4 else 2.5
    assert (
        by_mode["exhaustive-parallel-4"]["seconds"]
        < parallel_budget * by_mode["exhaustive-serial"]["seconds"]
    )

    trajectory = {
        "problem": {"m": M, "n": N, "stage": "ge2val", "n_cores": 24},
        "space_size": SPACE.size(_plan()),
        "rows": rows,
        "speedup_parallel_vs_serial": by_mode["exhaustive-serial"]["seconds"]
        / by_mode["exhaustive-parallel-4"]["seconds"],
        "speedup_cache_vs_search": by_mode["cold-cache"]["seconds"]
        / max(by_mode["warm-cache"]["seconds"], 1e-9),
    }
    with open(ARTIFACT, "w", encoding="utf-8") as fh:
        json.dump(trajectory, fh, indent=2)
    print(f"wrote {ARTIFACT}")
