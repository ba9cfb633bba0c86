#!/usr/bin/env python3
"""Reduction-tree study: critical paths, task graphs and simulated performance.

Reproduces, at laptop scale, the comparison at the heart of the paper:
for a given tile shape, how do FLATTS, FLATTT, GREEDY and AUTO differ in

* the number of tasks and total work of their DAGs,
* their critical paths (parallel time with unbounded resources),
* their simulated GFlop/s on one 24-core node (bounded resources),

and how does the picture change between a square and a tall-skinny matrix.

Run:  python examples/tree_study.py
      (REPRO_EXAMPLE_FAST=1 shrinks the problem sizes for smoke tests)
"""

import os

from repro.api import SvdPlan, execute
from repro.dag.critical_path import critical_path_tasks
from repro.experiments.figures import format_rows
from repro.ir import get_program
from repro.kernels.costs import KERNEL_LIST
from repro.trees import AutoTree, FlatTSTree, FlatTTTree, GreedyTree

TREES = {
    "FlatTS": FlatTSTree(),
    "FlatTT": FlatTTTree(),
    "Greedy": GreedyTree(),
    "Auto(24 cores)": AutoTree(n_cores=24),
}


def dag_study(p: int, q: int) -> None:
    print(f"\n--- task graphs for a {p} x {q} tile matrix (BIDIAG) ---")
    rows = []
    for name, tree in TREES.items():
        program = get_program("bidiag", p, q, tree)
        cp = program.critical_path()
        rows.append(
            {
                "tree": name,
                "tasks": len(program),
                "edges": program.n_edges,
                "work (nb^3/3)": program.total_weight(),
                "critical path": cp,
                "parallelism": program.total_weight() / cp,
            }
        )
    print(format_rows(rows))


def critical_path_anatomy(p: int, q: int) -> None:
    print(f"\n--- what lies on the critical path ({p} x {q}, Greedy vs FlatTS) ---")
    for name in ("FlatTS", "Greedy"):
        program = get_program("bidiag", p, q, TREES[name])
        path = critical_path_tasks(program)
        codes = program.kernel_codes_np
        kernels = {}
        for op_id in path:
            kernel = KERNEL_LIST[codes[op_id]].value
            kernels[kernel] = kernels.get(kernel, 0) + 1
        summary = ", ".join(f"{k}x{v}" for v, k in sorted(((v, k) for k, v in kernels.items()), reverse=True))
        print(f"  {name:8s}: {len(path)} tasks on the path ({summary})")


def simulated_performance(m: int, n: int) -> None:
    print(f"\n--- simulated GE2BND on one 24-core node, m={m}, n={n} ---")
    rows = []
    for tree in ("flatts", "flattt", "greedy", "auto"):
        for algorithm in ("bidiag", "rbidiag") if m >= 2 * n else ("bidiag",):
            plan = SvdPlan(m=m, n=n, stage="ge2bnd", variant=algorithm, tree=tree,
                           tile_size=160, n_cores=24)
            sim = execute(plan, "simulate")
            rows.append(
                {
                    "tree": tree,
                    "algorithm": algorithm,
                    "gflops": sim.gflops,
                    "time_s": sim.time_seconds,
                    "tasks": sim.n_tasks,
                }
            )
    print(format_rows(rows))


FAST = os.environ.get("REPRO_EXAMPLE_FAST", "0") not in ("", "0")


def main() -> None:
    # Square case: GREEDY/FLATTT shine on small sizes, FLATTS on large ones,
    # AUTO adapts.
    dag_study(8 if FAST else 16, 8 if FAST else 16)
    critical_path_anatomy(8 if FAST else 16, 8 if FAST else 16)
    simulated_performance(*((1500, 1500) if FAST else (5000, 5000)))

    # Tall-skinny case: R-BIDIAG and AUTO take over.
    dag_study(24 if FAST else 48, 6)
    simulated_performance(*((6000, 500) if FAST else (24000, 2000)))


if __name__ == "__main__":
    main()
