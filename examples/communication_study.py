#!/usr/bin/env python3
"""Distributed-memory study: communication volume, Gantt chart and scaling bounds.

Section VI-D of the paper attributes the distributed behaviour of the trees
to two effects: the amount of parallelism they expose and the number of
inter-node messages they trigger (the greedy top tree roughly doubles the
volume of the flat one on square matrices).  This example makes both
effects visible with the simulation tooling:

* communication volume and per-node traffic of flat vs greedy top trees;
* the runtime simulator's schedule, utilization and an ASCII Gantt chart;
* work/span/Brent bounds versus the simulated makespan;
* the Amdahl-style GE2VAL bound imposed by the single-node BND2BD stage.

Run:  python examples/communication_study.py
      (REPRO_EXAMPLE_FAST=1 shrinks the problem sizes for smoke tests)
"""

import os

import numpy as np

from repro.analysis.communication import communication_volume, panel_messages_estimate
from repro.analysis.speedup import amdahl_ge2val_bound, speedup_bounds, strong_scaling_efficiency
from repro.api import SvdPlan, execute
from repro.ir import get_program
from repro.kernels.costs import KERNEL_LIST
from repro.obs import Tracer, utilization_summary
from repro.runtime.machine import Machine
from repro.runtime.engine import SimulationEngine
from repro.tiles.distribution import BlockCyclicDistribution, ProcessGrid
from repro.trees import GreedyTree, HierarchicalTree


FAST = os.environ.get("REPRO_EXAMPLE_FAST", "0") not in ("", "0")


def main() -> None:
    nodes, grid_rows = 4, 4
    p, q = 20, 6  # tall-and-skinny tile shape, nodes x 1 grid
    dist = BlockCyclicDistribution(ProcessGrid(grid_rows, 1))

    print(f"== communication volume, {p}x{q} tiles on a {grid_rows}x1 grid ==")
    for top in ("flat", "greedy"):
        tree = HierarchicalTree(local_tree=GreedyTree(), top=top, grid_rows=grid_rows)
        program = get_program("bidiag", p, q, tree, grid_rows=grid_rows)
        stats = communication_volume(program, dist)
        estimate = panel_messages_estimate(grid_rows, top)
        print(f"  top tree {top:7s}: {stats.messages:5d} messages "
              f"({stats.bytes_moved / 1e6:6.1f} MB at nb=160), "
              f"~{estimate} inter-node eliminations per panel, "
              f"sent per node {stats.per_node_sent}")

    print("\n== simulated schedule on 4 nodes x 4 cores (small instance) ==")
    machine = Machine(n_nodes=nodes, cores_per_node=4, tile_size=160)
    tree = HierarchicalTree(local_tree=GreedyTree(), top="flat", grid_rows=grid_rows)
    program = get_program("bidiag", p, q, tree, grid_rows=grid_rows)
    tracer = Tracer()
    with tracer.activate():
        schedule = SimulationEngine(machine, dist).run(program)
    summary = utilization_summary(schedule, machine)
    busy_by_kernel = np.bincount(
        program.kernel_codes_np, weights=np.subtract(schedule.finish, schedule.start)
    )
    print(f"  makespan           : {schedule.makespan * 1e3:.2f} ms")
    print(f"  overall utilization: {summary['overall_busy_fraction']:.2%}")
    print(f"  dominant kernel    : {KERNEL_LIST[int(busy_by_kernel.argmax())].value}")
    bounds = speedup_bounds(program, machine, schedule)
    print(f"  T1 = {bounds.t1_seconds*1e3:.2f} ms, Tinf = {bounds.tinf_seconds*1e3:.2f} ms, "
          f"Brent bound = {bounds.brent_bound_seconds*1e3:.2f} ms, "
          f"measured/Brent = {bounds.brent_gap:.2f}")
    print("\n" + tracer.gantt(width=88, max_lanes=8))

    sm, sn = (4800, 1200) if FAST else (24000, 6000)
    node_counts = (1, 4) if FAST else (1, 4, 9)
    print(f"\n== strong scaling of GE2BND vs the GE2VAL Amdahl bound (m={sm}, n={sn}) ==")
    base = SvdPlan(m=sm, n=sn, stage="ge2bnd", variant="rbidiag", tree="auto",
                   tile_size=160, n_cores=24)
    single_node = execute(base, "simulate")
    times = {}
    for n_nodes in node_counts:
        sim = execute(base.with_(n_nodes=n_nodes), "simulate")
        ge2val = execute(
            base.with_(n_nodes=n_nodes, stage="ge2val", variant="auto"), "simulate"
        )
        bound = amdahl_ge2val_bound(
            single_node.time_seconds, ge2val.stage_seconds["post"], n_nodes
        )
        times[n_nodes] = sim.time_seconds
        print(f"  {n_nodes:2d} nodes: GE2BND {sim.gflops:7.1f} GFlop/s, "
              f"GE2VAL {ge2val.gflops:7.1f} GFlop/s, "
              f"GE2VAL lower bound on time {bound:6.2f}s (single-node BND2BD stage)")
    eff = strong_scaling_efficiency(times)
    print("  GE2BND strong-scaling efficiency: "
          + ", ".join(f"{n} nodes {e:.0%}" for n, e in sorted(eff.items())))


if __name__ == "__main__":
    main()
