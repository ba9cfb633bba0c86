"""Roofline placement of the one-stage model and the tiled two-stage pipeline.

The one-stage algorithm (ScaLAPACK's ``PxGEBRD``) is memory bound: the
roofline model places its BLAS-2 half far below the compute roof, which
is the reason the paper's two-stage approach wins.  The simulated tiled
GE2VAL clears that roof while staying under the tile kernels' own.
"""

from benchmarks.conftest import print_table
from repro.api import SvdPlan, execute
from repro.experiments.figures import format_rows
from repro.models.competitors import ScalapackModel
from repro.models.roofline import attainable_gflops, gemv_intensity, tile_kernel_intensity
from repro.runtime.machine import Machine


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
