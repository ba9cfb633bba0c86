"""Singular-vector pipeline — accuracy and the cost of accumulating vectors.

The paper computes singular values only and notes that computing the
vectors requires applying every reduction stage in reverse, "adding a
non-negligible overhead" (Section II).  This benchmark runs the numeric
two-stage GESVD on moderate matrices and reports

* the accuracy of the computed factorization (residual, orthogonality,
  singular-value error against NumPy), and
* the overhead of the vector-enabled pipeline relative to the values-only
  pipeline (GE2VAL), per stage.
"""

import numpy as np

from benchmarks.conftest import print_table
from repro.api import SvdPlan, execute
from repro.experiments.figures import format_rows
from repro.utils.generators import graded_singular_values, latms
from repro.utils.validation import orthogonality_error, reconstruction_error


def test_gesvd_vector_accuracy(benchmark):
    shapes = [(120, 60), (160, 40), (96, 96)]

    def run():
        rows = []
        for m, n in shapes:
            sv = graded_singular_values(n, condition=1e8)
            a = latms(m, n, sv, seed=m + n)
            plan = SvdPlan(matrix=a, stage="gesvd", tile_size=max(8, n // 6),
                           tree="auto", n_cores=8)
            res = execute(plan, backend="numeric")
            rows.append(
                {
                    "m": m,
                    "n": n,
                    "residual": reconstruction_error(a, res.u, res.singular_values, res.vt),
                    "orth_u": orthogonality_error(res.u),
                    "orth_v": orthogonality_error(res.vt.T),
                    "sv_error": float(np.max(np.abs(res.singular_values - sv)) / sv[0]),
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table("GESVD (two-stage, with vectors): accuracy", format_rows(rows))
    for row in rows:
        assert row["residual"] < 1e-12
        assert row["orth_u"] < 1e-12
        assert row["orth_v"] < 1e-12
        assert row["sv_error"] < 1e-12


def test_vector_accumulation_overhead(benchmark):
    m, n = 160, 80

    def run():
        rng = np.random.default_rng(5)
        a = rng.standard_normal((m, n))
        plan = SvdPlan(matrix=a, tile_size=16, tree="greedy")
        values_only = execute(plan, backend="numeric").time_seconds

        res = execute(plan.with_(stage="gesvd"), backend="numeric")
        with_vectors = res.time_seconds
        rows = [
            {"pipeline": "GE2VAL (values only)", "seconds": values_only},
            {"pipeline": "GESVD (with vectors)", "seconds": with_vectors},
        ]
        rows.extend(
            {"pipeline": f"  stage {k}", "seconds": v} for k, v in res.stage_seconds.items()
        )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table("Vector accumulation overhead (160 x 80, nb=16)", format_rows(rows))
    values_only = rows[0]["seconds"]
    with_vectors = rows[1]["seconds"]
    # Computing vectors is genuinely more expensive than values only.
    assert with_vectors > values_only
