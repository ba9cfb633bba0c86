"""Classical one-stage baselines vs the tiled two-stage pipeline.

Numerically, the one-stage Golub–Kahan reduction (GEBD2/GEBRD), Chan's
algorithm and the tiled two-stage pipeline must all produce the same
singular values; performance-wise, the one-stage algorithm is memory bound
(the roofline model places its BLAS-2 half far below the compute roof),
which is the reason the paper's two-stage approach wins.  Both facts are
checked here.
"""

import numpy as np

from benchmarks.conftest import print_table
from repro.algorithms.bd2val import bidiagonal_singular_values
from repro.api import SvdPlan, execute
from repro.experiments.figures import format_rows
from repro.lapack import chan_bidiagonalization, chan_flops, gebd2, gebd2_flops
from repro.models.competitors import ScalapackModel
from repro.models.roofline import attainable_gflops, gemv_intensity, tile_kernel_intensity
from repro.runtime.machine import Machine
from repro.utils.generators import latms


def test_all_algorithms_agree_numerically(benchmark):
    def run():
        rows = []
        for m, n in ((120, 60), (200, 40)):
            sv = np.linspace(1.0, 100.0, n)[::-1]
            a = latms(m, n, sv, seed=7)
            plan = SvdPlan(matrix=a, tile_size=max(8, n // 5), tree="greedy")
            tiled = execute(plan, backend="numeric").singular_values
            one_stage = gebd2(a)
            one_stage_sv = bidiagonal_singular_values(one_stage.d, one_stage.e)
            chan = chan_bidiagonalization(a)
            chan_sv = bidiagonal_singular_values(chan.d, chan.e)
            rows.append(
                {
                    "m": m,
                    "n": n,
                    "tiled_vs_prescribed": float(np.max(np.abs(tiled - sv)) / sv[0]),
                    "gebd2_vs_prescribed": float(np.max(np.abs(one_stage_sv - sv)) / sv[0]),
                    "chan_vs_prescribed": float(np.max(np.abs(chan_sv - sv)) / sv[0]),
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table("One-stage vs two-stage: singular-value agreement", format_rows(rows))
    for row in rows:
        assert row["tiled_vs_prescribed"] < 1e-12
        assert row["gebd2_vs_prescribed"] < 1e-12
        assert row["chan_vs_prescribed"] < 1e-12


def test_one_stage_is_memory_bound_two_stage_is_not(benchmark):
    machine = Machine(n_nodes=1, cores_per_node=24, tile_size=160)

    def run():
        rows = []
        blas2_roof = attainable_gflops(gemv_intensity())
        tile_roof = attainable_gflops(tile_kernel_intensity(160))
        for m, n in ((8000, 8000), (24000, 2000)):
            dplasma = execute(
                SvdPlan(m=m, n=n, tree="auto", tile_size=160, n_cores=24), "simulate"
            )
            scalapack = ScalapackModel().gflops(m, n, machine)
            rows.append(
                {
                    "m": m,
                    "n": n,
                    "dplasma_gflops": dplasma.gflops,
                    "scalapack_gflops": scalapack,
                    "blas2_roof_gflops": blas2_roof,
                    "tile_kernel_roof_gflops": tile_roof,
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table("Roofline: one-stage vs two-stage GE2VAL (single node)", format_rows(rows))
    for row in rows:
        # The one-stage model cannot exceed roughly twice the BLAS-2 roof
        # (half its flops are memory bound)...
        assert row["scalapack_gflops"] < 2.5 * row["blas2_roof_gflops"]
        # ...while the two-stage pipeline clears that roof comfortably.
        assert row["dplasma_gflops"] > 2.5 * row["blas2_roof_gflops"]
        assert row["dplasma_gflops"] < row["tile_kernel_roof_gflops"]


def test_flop_counts_cross_at_5n_over_3(benchmark):
    def run():
        rows = []
        n = 2000
        for ratio in (1.0, 1.5, 5.0 / 3.0, 2.0, 4.0):
            m = int(round(ratio * n))
            rows.append(
                {
                    "m/n": ratio,
                    "gebd2_gflop": gebd2_flops(m, n) / 1e9,
                    "chan_gflop": chan_flops(m, n) / 1e9,
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table("Flop crossover of Chan's algorithm (n = 2000)", format_rows(rows))
    for row in rows:
        if row["m/n"] < 5.0 / 3.0 - 1e-9:
            assert row["gebd2_gflop"] < row["chan_gflop"]
        elif row["m/n"] > 5.0 / 3.0 + 1e-9:
            assert row["gebd2_gflop"] > row["chan_gflop"]
