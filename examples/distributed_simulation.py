#!/usr/bin/env python3
"""Distributed-memory simulation: strong and weak scaling on a virtual cluster.

Reproduces the setup of Figures 3 and 4 of the paper on a simulated
``miriel`` cluster (24-core nodes, 40 Gb/s InfiniBand): 2D block-cyclic
data distribution, hierarchical reduction trees (local tree per node +
flat/greedy tree across nodes), owner-computes task mapping and per-tile
message costs.

Run:  python examples/distributed_simulation.py
      (REPRO_EXAMPLE_FAST=1 shrinks the problem sizes for smoke tests)
"""

import os

from repro.api import SvdPlan, execute
from repro.experiments.figures import format_rows
from repro.models.competitors import COMPETITORS
from repro.runtime.machine import Machine


def simulate(m: int, n: int, nodes: int, cores: int, **fields):
    """Simulate one plan on ``nodes`` miriel nodes with nb = 160."""
    plan = SvdPlan(m=m, n=n, tile_size=160, n_nodes=nodes, n_cores=cores, **fields)
    return execute(plan, "simulate")


def strong_scaling(m: int, n: int, node_counts) -> None:
    print(f"\n--- strong scaling, GE2BND, m={m}, n={n} ---")
    rows = []
    for nodes in node_counts:
        for tree in ("flatts", "greedy", "auto"):
            sim = simulate(m, n, nodes, 23, stage="ge2bnd", variant="bidiag", tree=tree)
            rows.append(
                {
                    "nodes": nodes,
                    "tree": tree,
                    "gflops": sim.gflops,
                    "messages": sim.messages,
                    "comm_MB": sim.comm_bytes / 1e6,
                }
            )
    print(format_rows(rows))


def ge2val_vs_competitors(m: int, n: int, node_counts) -> None:
    print(f"\n--- GE2VAL vs competitors, m={m}, n={n} ---")
    rows = []
    for nodes in node_counts:
        machine = Machine(n_nodes=nodes, cores_per_node=23, tile_size=160)
        dplasma = simulate(m, n, nodes, 23, stage="ge2val", tree="auto")
        rows.append({"nodes": nodes, "library": "DPLASMA (this work)", "gflops": dplasma.gflops})
        for name in ("Elemental", "ScaLAPACK"):
            rows.append(
                {"nodes": nodes, "library": name, "gflops": COMPETITORS[name].gflops(m, n, machine)}
            )
    print(format_rows(rows))


def weak_scaling(n: int, rows_per_node: int, node_counts) -> None:
    print(f"\n--- weak scaling, R-BIDIAG, n={n}, m = {rows_per_node} x nodes ---")
    rows = []
    for nodes in node_counts:
        m = rows_per_node * nodes
        machine = Machine(n_nodes=nodes, cores_per_node=24, tile_size=160)
        sim = simulate(m, n, nodes, 24, stage="ge2bnd", variant="rbidiag", tree="auto")
        rows.append(
            {
                "nodes": nodes,
                "grid": sim.grid,
                "m": m,
                "gflops": sim.gflops,
                "gflops/node": sim.gflops / nodes,
                "efficiency": sim.gflops / machine.peak_gflops,
            }
        )
    print(format_rows(rows))


FAST = os.environ.get("REPRO_EXAMPLE_FAST", "0") not in ("", "0")


def main() -> None:
    if FAST:
        node_counts = (1, 4)
        strong_scaling(1600, 1600, node_counts)
        ge2val_vs_competitors(1600, 1600, node_counts)
        weak_scaling(800, 1600, (1, 2))
        return
    node_counts = (1, 4, 9, 16)
    strong_scaling(8000, 8000, node_counts)
    ge2val_vs_competitors(8000, 8000, node_counts)
    weak_scaling(2000, 8000, (1, 2, 4, 8))


if __name__ == "__main__":
    main()
