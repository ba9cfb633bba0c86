"""Additional ablations: kernel-efficiency gap and scheduler policy.

* **TS/TT kernel efficiency gap** — the AUTO tree exists because TS updates
  run near GEMM speed while TT updates do not.  Erasing that gap (all
  kernels equally efficient) removes most of AUTO's advantage over GREEDY,
  confirming the paper's motivation for the adaptive tree.
* **Scheduler priority policy** — PaRSEC schedules ready tasks by a
  priority function; replacing the bottom-level priority with FIFO or
  weight-only ordering shows how much the DAG ordering (rather than raw
  parallelism) contributes to the simulated rates.
"""

import pytest

from benchmarks.conftest import print_table
from repro.api import SvdPlan, execute
from repro.experiments.figures import format_rows
from repro.ir import get_program
from repro.kernels import costs
from repro.runtime.machine import Machine
from repro.runtime.engine import SimulationEngine
from repro.trees import AutoTree, GreedyTree


def test_ablation_kernel_efficiency_gap(benchmark, monkeypatch):
    base = SvdPlan(m=6000, n=6000, stage="ge2bnd", variant="bidiag",
                   tile_size=160, n_cores=24)

    def run():
        rows = []
        for label, efficiencies in (
            ("paper (TS fast, TT slow)", None),
            ("uniform kernel efficiency", {k: 0.85 for k in costs.KernelName}),
        ):
            if efficiencies is not None:
                monkeypatch.setattr(costs, "KERNEL_EFFICIENCY", efficiencies)
            auto = execute(base.with_(tree=AutoTree(n_cores=24)), "simulate")
            greedy = execute(base.with_(tree="greedy"), "simulate")
            rows.append(
                {
                    "scenario": label,
                    "auto_gflops": auto.gflops,
                    "greedy_gflops": greedy.gflops,
                    "auto_advantage": auto.gflops / greedy.gflops,
                }
            )
            monkeypatch.undo()
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table("Ablation: TS/TT kernel-efficiency gap (m=n=6000)", format_rows(rows))
    paper, uniform = rows[0], rows[1]
    # With the real gap AUTO clearly beats GREEDY; with a uniform efficiency
    # most of that advantage disappears.
    assert paper["auto_advantage"] > 1.05
    assert uniform["auto_advantage"] < paper["auto_advantage"]
    assert uniform["auto_advantage"] == pytest.approx(1.0, abs=0.15)


def test_ablation_scheduler_policy(benchmark):
    machine = Machine(n_nodes=1, cores_per_node=16, tile_size=160)
    program = get_program("bidiag", 24, 24, GreedyTree())

    def run():
        rows = []
        for policy in ("list", "fifo", "weight"):
            schedule = SimulationEngine(machine, policy=policy).run(program)
            rows.append({"policy": policy, "makespan_ms": schedule.makespan * 1e3})
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table("Ablation: scheduler priority policy (24x24 tiles, 16 cores)", format_rows(rows))
    by_policy = {r["policy"]: r["makespan_ms"] for r in rows}
    # The bottom-level (critical-path aware) priority is the best of the three
    # (or tied within 5%).
    best = min(by_policy.values())
    assert by_policy["list"] <= best * 1.05
