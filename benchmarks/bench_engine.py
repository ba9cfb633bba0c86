"""Engine replay cost: cold per-candidate tracing vs cached Program replay.

Runs a tuning-style sweep — every (tree, inner-block, policy) candidate of
one GE2BND problem, scored by simulated makespan — two ways:

* ``cold-trace``     — compile a fresh :class:`Program` per candidate
  (cache bypassed) and replay it on the :class:`SimulationEngine`;
* ``cached-replay``  — resolve each candidate through the shared
  :class:`ProgramCache`, so each DAG shape is traced once and replayed for
  every candidate that shares it.

Writes the measured trajectory to ``BENCH_engine.json`` at the repo root
and asserts the acceptance bar: cached replay beats cold per-candidate
tracing by at least 2x.  Scaled-down by default (CI smoke-runs it in this
reduced mode: ``python benchmarks/bench_engine.py``); set
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

from repro.experiments.figures import format_rows, full_scale  # noqa: E402
from repro.ir import ProgramCache, compile_program, get_program  # noqa: E402
from repro.runtime.engine import SimulationEngine  # noqa: E402
from repro.runtime.machine import Machine  # noqa: E402
from repro.tiles.layout import ceil_div  # noqa: E402
from repro.trees import make_tree  # noqa: E402

ARTIFACT = os.path.join(_ROOT, "BENCH_engine.json")

#: One miriel node; the candidate axes of a Section-VI-B-style sweep.
M = N = 20000 if full_scale() else 1600
NB = 160 if full_scale() else 100
TREES = ("flatts", "flattt", "greedy", "auto")
INNER_BLOCKS = (32, 40)
POLICIES = ("list", "critical-path", "locality", "random")


def _candidates():
    p = q = ceil_div(M, NB)
    for tree_name in TREES:
        tree = make_tree(tree_name) if tree_name != "auto" else make_tree(
            "auto", n_cores=24
        )
        for ib in INNER_BLOCKS:
            machine = Machine(
                n_nodes=1, cores_per_node=24, tile_size=NB, inner_block=ib
            )
            for policy in POLICIES:
                yield tree_name, tree, p, q, machine, policy


def _sweep(mode: str, cache: ProgramCache | None):
    """Score every candidate; returns (seconds, makespans, shapes_traced)."""
    makespans = []
    traced = 0
    start = time.perf_counter()
    for _name, tree, p, q, machine, policy in _candidates():
        if mode == "cold-trace":
            program = compile_program("bidiag", p, q, tree)
            schedule = SimulationEngine(machine, policy=policy).run(program)
            traced += 1
        else:  # cached-replay
            before = cache.stats["misses"]
            program = get_program("bidiag", p, q, tree, cache=cache)
            traced += cache.stats["misses"] - before
            schedule = SimulationEngine(machine, policy=policy).run(program)
        makespans.append(schedule.makespan)
    return time.perf_counter() - start, makespans, traced


def main() -> int:
    n_candidates = sum(1 for _ in _candidates())
    rows = []
    results = {}
    for mode in ("cold-trace", "cached-replay"):
        cache = ProgramCache() if mode == "cached-replay" else None
        seconds, makespans, traced = _sweep(mode, cache)
        results[mode] = (seconds, makespans)
        rows.append(
            {
                "mode": mode,
                "seconds": seconds,
                "candidates": n_candidates,
                "dags_traced": traced,
            }
        )

    title = f"Engine sweep cost, m=n={M}, nb={NB}, {n_candidates} candidates"
    print(f"\n{'=' * len(title)}\n{title}\n{'=' * len(title)}")
    print(format_rows(rows))

    # The list-policy candidates agree across both paths (the cached
    # program is the same DAG a fresh compile builds).
    def list_policy_makespans(mode):
        return [
            makespan
            for makespan, candidate in zip(results[mode][1], _candidates())
            if candidate[-1] == "list"
        ]

    assert list_policy_makespans("cold-trace") == list_policy_makespans(
        "cached-replay"
    ), "cached replay changed list-policy makespans"

    speedup_vs_cold = results["cold-trace"][0] / results["cached-replay"][0]
    print(f"cached-replay speedup vs cold-trace: {speedup_vs_cold:.2f}x")

    trajectory = {
        "problem": {"m": M, "n": N, "nb": NB, "n_cores": 24},
        "sweep": {
            "trees": list(TREES),
            "inner_blocks": list(INNER_BLOCKS),
            "policies": list(POLICIES),
            "candidates": n_candidates,
        },
        "rows": rows,
        "speedup_cached_vs_cold": speedup_vs_cold,
    }
    with open(ARTIFACT, "w", encoding="utf-8") as fh:
        json.dump(trajectory, fh, indent=2)
    print(f"wrote {ARTIFACT}")

    # Acceptance bar: replaying a cached Program must beat re-tracing the
    # DAG for every candidate by at least 2x on this tuning-style sweep.
    assert speedup_vs_cold >= 2.0, (
        f"cached replay only {speedup_vs_cold:.2f}x faster than cold tracing"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
