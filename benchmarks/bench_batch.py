"""Batched candidate simulation: one engine pass over a whole sweep.

The PR-3/PR-5 bench shape — all 32 (tree, inner-block, policy) candidates
of one GE2BND problem — timed four ways, written to ``BENCH_batch.json``:

1. ``sequential-cold``  — the BENCH_scale ``soa-fast-path`` row replica:
   every candidate compiles its DAG fresh and runs the engine alone;
2. ``sequential-warm``  — per-candidate engine runs through the shared
   program cache (what PR 5 already gives a sweep that reuses programs);
3. ``batch-full``       — :class:`repro.runtime.batch.BatchEngine` over
   the same candidates: axes hoisted per unique (machine, grid, network),
   dense rank orders memoized across candidates, schedule dedup on —
   every candidate still simulated, schedules **bit-identical** to the
   per-candidate runs and to the object-path reference scheduler
   (audited field-by-field as part of the exit status);
4. ``batch-pruned``     — the end-to-end plan path
   (:func:`repro.runtime.batch.simulate_resolved_batch` behind
   ``SvdPlan.sweep``): analytic critical-path/area bounds rank the
   candidates and provably-worse ones never touch the event loop.  The
   winning candidate and its score are audited against ``batch-full``.
   Timed twice: ``batch-pruned-cold`` is a first-ever sweep (program
   compiles included), ``batch-pruned`` the amortized steady state every
   later sweep in the process sees (warm program cache and memo tables —
   a tuning rung, a re-run with one axis changed).

Acceptance bar: the pruned batch path beats the cold sequential sweep by
at least **5x** per candidate (the ISSUE-8 headline), with the bit-identity
and winner audits as hard gates.

Scaled-down by default (CI smoke-runs it in this reduced mode, also
reachable as ``python benchmarks/bench_batch.py --reduced``); set
``REPRO_FULL_SCALE=1`` for the paper's problem sizes.
"""

from __future__ import annotations

import json
import os
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.api.plan import SvdPlan  # noqa: E402
from repro.api.resolver import resolve  # noqa: E402
from repro.config import Config  # noqa: E402
from repro.experiments.figures import format_rows, full_scale  # noqa: E402
from repro.ir import clear_program_cache, compile_program, get_program  # noqa: E402
from repro.runtime.batch import (  # noqa: E402
    BatchCandidate,
    BatchEngine,
    simulate_resolved_batch,
)
from repro.runtime.engine import SimulationEngine, engine_memo_stats  # noqa: E402
from repro.runtime.machine import Machine  # noqa: E402
from repro.tiles.layout import ceil_div  # noqa: E402
from repro.trees import make_tree  # noqa: E402
from repro.verify.reference import reference_schedule  # noqa: E402

ARTIFACT = os.path.join(_ROOT, "BENCH_batch.json")

#: One miriel node; the candidate axes of the BENCH_scale 32-candidate row.
M = N = 20000 if full_scale() else 1600
NB = 160 if full_scale() else 100
N_CORES = 24
TREES = ("flatts", "flattt", "greedy", "auto")
INNER_BLOCKS = (32, 40)
POLICIES = ("list", "critical-path", "locality", "random")


def _trees():
    return {
        name: make_tree(name) if name != "auto" else make_tree(
            "auto", n_cores=N_CORES
        )
        for name in TREES
    }


def _candidates(trees):
    """(tree_name, tree, p, q, machine, policy), policy varying fastest."""
    p = q = ceil_div(M, NB)
    for tree_name in TREES:
        for ib in INNER_BLOCKS:
            machine = Machine(
                n_nodes=1, cores_per_node=N_CORES, tile_size=NB, inner_block=ib
            )
            for policy in POLICIES:
                yield tree_name, trees[tree_name], p, q, machine, policy


def _plans():
    """The same 32 candidates as plans (same axis nesting = same order)."""
    base = SvdPlan(m=M, n=N, tile_size=NB, stage="ge2bnd", n_cores=N_CORES)
    return base.sweep(
        tree=list(TREES),
        config=[Config(tile_size=NB, inner_block=ib) for ib in INNER_BLOCKS],
        policy=list(POLICIES),
    )


def _min_of(repeats, run):
    """Min wall-clock over ``repeats`` runs (identical work; the minimum
    strips scheduler noise) plus the last run's payload."""
    best, payload = None, None
    for _ in range(repeats):
        start = time.perf_counter()
        payload = run()
        seconds = time.perf_counter() - start
        if best is None or seconds < best:
            best = seconds
    return best, payload


def sequential_cold(trees):
    def run():
        clear_program_cache()
        makespans = []
        for _name, tree, p, q, machine, policy in _candidates(trees):
            program = compile_program("bidiag", p, q, tree)
            schedule = SimulationEngine(machine, policy=policy).run(program)
            makespans.append(schedule.makespan)
        return makespans

    return _min_of(2, run)


def sequential_warm(trees):
    def run():
        return [
            SimulationEngine(machine, policy=policy).run(
                get_program("bidiag", p, q, tree)
            )
            for _name, tree, p, q, machine, policy in _candidates(trees)
        ]

    run()  # warm the program cache: this row times engine runs, not compiles
    return _min_of(2, run)


def batch_full(trees):
    def run():
        schedules = []
        for tree_name in TREES:  # one batch per shared program
            program = get_program(
                "bidiag", ceil_div(M, NB), ceil_div(N, NB), trees[tree_name]
            )
            candidates = [
                BatchCandidate(machine, policy=policy)
                for name, _t, _p, _q, machine, policy in _candidates(trees)
                if name == tree_name
            ]
            schedules.extend(BatchEngine().run_batch(program, candidates))
        return schedules

    return _min_of(2, run)


def batch_pruned(warm):
    """The end-to-end plan path.  ``warm=False`` clears the program cache
    every repeat (a first-ever sweep, compiles included); ``warm=True``
    keeps the program cache and memo tables hot (every later sweep in the
    same process — a tuning rung, a re-run with one axis changed)."""
    plans = _plans()

    def run():
        if not warm:
            clear_program_cache()
        resolved = [resolve(plan) for plan in plans]
        return simulate_resolved_batch(resolved, objective="makespan",
                                       prune=True)

    if warm:
        run()
    return _min_of(2, run)


def _schedules_equal(a, b):
    return (
        a.makespan == b.makespan
        and a.start == b.start
        and a.finish == b.finish
        and a.node_of_task == b.node_of_task
        and a.core_of_task == b.core_of_task
        and a.messages == b.messages
        and a.comm_bytes == b.comm_bytes
        and a.comm_time_per_node == b.comm_time_per_node
        and a.messages_per_node == b.messages_per_node
        and a.busy_time_per_node == b.busy_time_per_node
    )


def main() -> int:
    trees = _trees()
    n_candidates = sum(1 for _ in _candidates(trees))

    cold_seconds, cold_makespans = sequential_cold(trees)
    warm_seconds, reference = sequential_warm(trees)
    full_seconds, batched = batch_full(trees)
    pruned_cold_seconds, _ = batch_pruned(warm=False)
    pruned_seconds, outcomes = batch_pruned(warm=True)

    # Hard gate 1: batched schedules == per-candidate runs == the
    # object-path reference scheduler, every field.  The batch and the
    # engine share the replay kernel; the reference shares nothing.
    oracle = [
        reference_schedule(get_program("bidiag", p, q, tree), machine,
                           policy=policy)
        for _name, tree, p, q, machine, policy in _candidates(trees)
    ]
    assert len(batched) == len(reference) == len(oracle) == n_candidates
    for i, (got, ref, want) in enumerate(zip(batched, reference, oracle)):
        assert _schedules_equal(got, ref) and _schedules_equal(got, want), (
            f"batched schedule differs from the per-candidate run or the "
            f"reference scheduler for candidate {i}"
        )
    assert [s.makespan for s in reference] == cold_makespans, (
        "warm program-cache replays changed makespans vs cold compiles"
    )
    print(f"bit-identity audit: {n_candidates} batched schedules equal the "
          "per-candidate engine runs and the reference on every field")

    # Hard gate 2: pruning never changes the winner or its score.
    best = min(range(n_candidates), key=lambda i: reference[i].makespan)
    scored = [o for o in outcomes if o.score is not None]
    n_pruned = sum(1 for o in outcomes if o.pruned)
    assert scored, "pruned sweep scored no candidates"
    assert outcomes[best].score == reference[best].makespan, (
        "pruned sweep scored the best candidate differently"
    )
    assert min(o.score for o in scored) == reference[best].makespan, (
        "pruned sweep changed the winning score"
    )
    print(f"winner audit: pruned sweep kept the exhaustive winner "
          f"({n_pruned}/{n_candidates} candidates pruned before the engine)")

    rows = [
        {
            "mode": mode,
            "seconds": seconds,
            "candidates": n_candidates,
            "ms_per_candidate": 1000.0 * seconds / n_candidates,
        }
        for mode, seconds in (
            ("sequential-cold", cold_seconds),
            ("sequential-warm", warm_seconds),
            ("batch-full", full_seconds),
            ("batch-pruned-cold", pruned_cold_seconds),
            ("batch-pruned", pruned_seconds),
        )
    ]
    title = (
        f"Candidate sweep, m=n={M}, nb={NB}, {n_candidates} candidates"
    )
    print(f"\n{'=' * len(title)}\n{title}\n{'=' * len(title)}")
    print(format_rows(rows))

    speedup_full = warm_seconds / full_seconds
    speedup_cold = cold_seconds / pruned_cold_seconds
    speedup = cold_seconds / pruned_seconds
    print(f"batch-full vs sequential-warm (same work, shared axes): "
          f"{speedup_full:.2f}x")
    print(f"batch-pruned-cold vs sequential-cold (first-ever sweep, "
          f"compiles included): {speedup_cold:.2f}x")
    print(f"batch-pruned vs sequential-cold (the BENCH_scale sweep row, "
          f"batched): {speedup:.2f}x")

    stats = engine_memo_stats()
    batch_stats = {
        k: v for k, v in stats.items() if k.startswith(("batch_", "order_"))
    }

    trajectory = {
        "problem": {"m": M, "n": N, "nb": NB, "n_cores": N_CORES},
        "sweep": {
            "trees": list(TREES),
            "inner_blocks": list(INNER_BLOCKS),
            "policies": list(POLICIES),
            "candidates": n_candidates,
        },
        "rows": rows,
        "speedup_batch_full_vs_warm": speedup_full,
        "speedup_batch_pruned_cold_vs_cold": speedup_cold,
        "speedup_batch_pruned_vs_cold": speedup,
        "pruned_candidates": n_pruned,
        "equivalence_checked": n_candidates,
        "memo_stats": batch_stats,
    }
    with open(ARTIFACT, "w", encoding="utf-8") as fh:
        json.dump(trajectory, fh, indent=2)
    print(f"wrote {ARTIFACT}")

    # Acceptance bar: the batched end-to-end sweep must beat the cold
    # per-candidate sweep by at least 5x per candidate.  CI runs on noisy
    # shared runners and lowers the floor via the environment (the two
    # audits above are the hard CI gates; the 5x claim is pinned by the
    # checked-in BENCH_batch.json measured on quiet hardware).
    floor = float(os.environ.get("REPRO_BENCH_BATCH_FLOOR", "5.0"))
    assert speedup >= floor, (
        f"batched sweep only {speedup:.2f}x faster than the cold "
        f"per-candidate sweep (floor {floor}x)"
    )
    return 0


if __name__ == "__main__":
    if "--reduced" in sys.argv[1:]:
        os.environ.pop("REPRO_FULL_SCALE", None)
    raise SystemExit(main())
