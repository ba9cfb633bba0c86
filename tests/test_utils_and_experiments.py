"""Tests for the generators, validation helpers and the experiment harness."""

import hashlib
import json

import numpy as np
import pytest

from repro.experiments.figures import (
    critical_path_table,
    crossover_study,
    fig2_ge2bnd_square,
    fig2_ge2bnd_tall_skinny,
    fig2_ge2val_comparison,
    fig3_strong_scaling_ge2bnd,
    fig3_strong_scaling_ge2val,
    fig4_weak_scaling,
    format_rows,
    table1_kernel_costs,
)
from repro.utils.generators import graded_singular_values, latms, random_matrix
from repro.utils.validation import (
    max_relative_error,
    orthogonality_error,
    reconstruction_error,
    relative_error,
)


def _rows_digest(rows) -> str:
    """Short sha256 of a figure's rows: pins every value bitwise."""
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()[:16]


class TestGenerators:
    def test_latms_prescribes_singular_values(self, rng):
        sigma = np.array([4.0, 3.0, 2.0, 1.0])
        a = latms(8, 4, sigma, rng=rng)
        np.testing.assert_allclose(np.linalg.svd(a, compute_uv=False), sigma, atol=1e-12)

    def test_latms_seed_reproducible(self):
        sigma = np.ones(3)
        a1 = latms(5, 3, sigma, seed=7)
        a2 = latms(5, 3, sigma, seed=7)
        np.testing.assert_array_equal(a1, a2)

    def test_latms_validation(self):
        with pytest.raises(ValueError):
            latms(3, 5, np.ones(5))
        with pytest.raises(ValueError):
            latms(5, 3, np.ones(4))
        with pytest.raises(ValueError):
            latms(5, 3, [-1.0, 1.0, 1.0])

    def test_graded_values(self):
        s = graded_singular_values(5, condition=1e4)
        assert s[0] == pytest.approx(1.0)
        assert s[-1] == pytest.approx(1e-4)
        assert np.all(np.diff(s) < 0)

    def test_graded_validation(self):
        with pytest.raises(ValueError):
            graded_singular_values(0)
        with pytest.raises(ValueError):
            graded_singular_values(5, condition=0.5)

    def test_random_matrix_shape(self):
        assert random_matrix(4, 7, seed=0).shape == (4, 7)


class TestValidationHelpers:
    def test_relative_error(self):
        assert relative_error(np.array([1.1, 2.0]), np.array([1.0, 2.0])) == pytest.approx(
            0.1 / np.sqrt(5.0)
        )
        assert relative_error(np.array([1.0]), np.array([0.0])) == 1.0

    def test_max_relative_error(self):
        got = max_relative_error(np.array([1.0, 2.2]), np.array([1.0, 2.0]))
        assert got == pytest.approx(0.1)
        with pytest.raises(ValueError):
            max_relative_error(np.zeros(3), np.zeros(4))

    def test_orthogonality_error(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((8, 5)))
        assert orthogonality_error(q) < 1e-14
        assert orthogonality_error(q * 2.0) > 0.1

    def test_reconstruction_error(self, rng):
        a = rng.standard_normal((6, 4))
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        assert reconstruction_error(a, u, s, vt) < 1e-14


class TestExperimentHarness:
    def test_table1(self):
        rows = table1_kernel_costs()
        assert {r["panel"] for r in rows} == {"GEQRT", "TSQRT", "TTQRT"}
        costs = {r["panel"]: (r["panel_cost"], r["update_cost"]) for r in rows}
        assert costs["GEQRT"] == (4, 6)
        assert costs["TSQRT"] == (6, 12)
        assert costs["TTQRT"] == (2, 6)

    def test_critical_path_table_consistency(self):
        rows = critical_path_table(shapes=[(4, 4), (8, 4)])
        for r in rows:
            if r["algorithm"] == "bidiag":
                assert r["cp_measured"] == r["cp_formula"]
            else:
                assert r["cp_measured"] <= r["cp_formula"]

    def test_crossover_study(self):
        rows = crossover_study(q_values=(4, 8))
        assert all(2.0 <= r["delta_s"] <= 9.0 for r in rows)

    def test_fig2_square_small(self):
        rows = fig2_ge2bnd_square(
            sizes=(1500, 3000), trees=("flatts", "greedy"), n_cores=8, nb=250
        )
        assert len(rows) == 4
        assert all(r["gflops"] > 0 for r in rows)
        assert _rows_digest(rows) == "766756918bc58463"

    def test_fig2_tall_skinny_small(self):
        rows = fig2_ge2bnd_tall_skinny(
            n=1000, m_values=(4000, 8000), trees=("greedy",), n_cores=8, nb=250
        )
        by_alg = {(r["m"], r["algorithm"]): r["gflops"] for r in rows}
        # R-BIDIAG overtakes BIDIAG as the matrix gets taller.
        assert by_alg[(8000, "rbidiag")] > by_alg[(8000, "bidiag")] * 0.8
        assert _rows_digest(rows) == "1dd60bfc70dc2cac"

    def test_fig2_ge2val_small(self):
        rows = fig2_ge2val_comparison(shapes=[(3000, 3000)], n_cores=8, nb=250)
        libs = {r["library"] for r in rows}
        assert {"DPLASMA", "PLASMA", "MKL", "ScaLAPACK", "Elemental"} <= libs
        assert _rows_digest(rows) == "ae05b720d4f69fc4"

    def test_fig3_strong_scaling_small(self):
        rows = fig3_strong_scaling_ge2bnd(
            m=3000, n=3000, node_counts=(1, 4), trees=("greedy",), nb=250
        )
        g = {r["nodes"]: r["gflops"] for r in rows}
        assert g[4] > g[1]
        assert _rows_digest(rows) == "e342e2c45f7cce2c"

    def test_fig3_ge2val_small(self):
        rows = fig3_strong_scaling_ge2val(m=3000, n=3000, node_counts=(1, 4), nb=250)
        assert {r["library"] for r in rows} == {"DPLASMA", "Elemental", "ScaLAPACK"}
        assert _rows_digest(rows) == "7913a93fd477aa65"

    def test_fig4_weak_scaling_small(self):
        rows = fig4_weak_scaling(
            n=1000, rows_per_node=4000, node_counts=(1, 2), trees=("greedy",), nb=250
        )
        stages = {r["stage"] for r in rows}
        assert stages == {"ge2bnd", "ge2val"}
        assert _rows_digest(rows) == "641696e801483e54"

    def test_format_rows(self):
        text = format_rows([{"a": 1, "b": 2.5}, {"a": 10, "b": 0.123}])
        assert "a" in text and "b" in text
        assert "10" in text
        assert format_rows([]) == "(no data)"
