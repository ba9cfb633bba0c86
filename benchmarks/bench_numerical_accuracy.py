"""Numerical accuracy — "computed singular values satisfactory to machine
precision" (Section VI-A).

The paper validates every run against LATMS-generated matrices with
prescribed singular values.  This bench does the same for the full GE2VAL
pipeline (both BIDIAG and R-BIDIAG, several trees) and also times the
numeric pipeline at a small size.
"""

import numpy as np

from benchmarks.conftest import print_table
from repro.api import SvdPlan, execute
from repro.experiments.figures import format_rows
from repro.utils.generators import graded_singular_values, latms
from repro.utils.validation import max_relative_error


def test_latms_accuracy_table(benchmark):
    rng = np.random.default_rng(42)

    def run():
        rows = []
        cases = [
            ("square/greedy", 48, 48, "greedy", "bidiag"),
            ("square/auto", 48, 48, "auto", "bidiag"),
            ("tall/flatts", 96, 24, "flatts", "bidiag"),
            ("tall/rbidiag", 96, 24, "greedy", "rbidiag"),
            ("graded/auto", 60, 30, "auto", "auto"),
        ]
        for name, m, n, tree, variant in cases:
            if name.startswith("graded"):
                sigma = graded_singular_values(n, condition=1e8)
            else:
                sigma = np.linspace(10.0, 1.0, n)
            a = latms(m, n, sigma, rng=rng)
            plan = SvdPlan(matrix=a, tile_size=8, tree=tree, variant=variant)
            sv = execute(plan, backend="numeric").singular_values
            rows.append({"case": name, "max_rel_err": max_relative_error(sv, sigma)})
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table("Numerical accuracy vs prescribed singular values", format_rows(rows))
    for r in rows:
        assert r["max_rel_err"] < 1e-8, r


def test_bench_ge2val_numeric(benchmark):
    rng = np.random.default_rng(0)
    a = rng.standard_normal((64, 32))
    plan = SvdPlan(matrix=a, tile_size=8, tree="greedy")
    result = benchmark(execute, plan, "numeric")
    ref = np.linalg.svd(a, compute_uv=False)
    assert np.allclose(result.singular_values, ref, atol=1e-9)
