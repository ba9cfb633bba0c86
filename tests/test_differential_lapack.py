"""Differential test suite: the tiled numeric backend vs numpy.

Every numeric path — GE2VAL through the plan API, the tiled GE2BND band
reduced to bidiagonal form by BND2BD, and the full GESVD vector pipeline —
is compared against ``numpy.linalg.svd`` (LAPACK's ``dgesdd``) across a
deliberately awkward shape matrix:

* square, tall (R-BIDIAG side of the Chan crossover), and wide (via the
  transpose, as the drivers require ``m >= n``);
* a single-tile problem (every reduction tree degenerates);
* prime tile counts (no tile divides evenly into the process grid);
* near-rank-deficient spectra (clustered and tiny singular values);
* hostile inputs for GE2VAL and GESVD: scales from subnormal to 1e150,
  the zero and rank-1 matrices, and a single tile column.

Assertions are in units of the baseline's largest singular value
(``max |sigma - sigma_ref| / sigma_ref[0]``), plus explicit orthogonality
and reconstruction bounds for the vector pipeline.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.bd2val import bidiagonal_singular_values
from repro.algorithms.bnd2bd import band_to_bidiagonal
from repro.api import SvdPlan, execute
from repro.tiles.matrix import TiledMatrix

#: Relative accuracy bar for singular values (units of sigma_max).
SV_TOL = 1e-12
#: Orthogonality / reconstruction bar for the vector pipeline.
UV_TOL = 1e-11

#: (label, m, n, tile_size) — the shape matrix of the differential sweep.
SHAPES = [
    ("square", 48, 48, 8),
    ("tall-rbidiag", 96, 32, 8),         # m >= 5n/3: Chan picks R-BIDIAG
    ("one-tile", 12, 10, 16),            # nb > max(m, n): 1x1 tile grid
    ("prime-tiles", 70, 50, 10),         # 7x5 tiles: prime p, no even grid
    ("ragged-edge", 53, 37, 8),          # prime dims: ragged last tile row/col
]

#: (label, m, n, tile_size, kind) — hostile inputs of the whole pipeline.
#: ``kind`` scales the standard normal matrix (0.0 gives the zero matrix)
#: or is ``"rank-1"``.
HOSTILE = [
    ("scale-1e-150", 48, 32, 8, 1e-150),
    ("scale-1e150", 48, 32, 8, 1e150),
    ("scale-1e-300", 48, 32, 8, 1e-300),
    ("subnormal-2e-309", 48, 32, 8, 2e-309),
    ("zero", 40, 24, 8, 0.0),
    ("rank-1", 40, 24, 8, "rank-1"),
    ("one-tile-column", 40, 6, 8, 1.0),  # q = 1 with p = 5
]

#: Inputs of the GE2VAL and GESVD differentials: the shape matrix, then
#: the hostile inputs.
INPUTS = [(*shape, 1.0) for shape in SHAPES] + HOSTILE


def _matrix(m: int, n: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((m, n))


def _input(m: int, n: int, seed: int, kind: float | str) -> np.ndarray:
    a = _matrix(m, n, seed)
    if kind == "rank-1":
        return np.outer(a[:, 0], a[0])
    return kind * a


def _rank_deficient(m: int, n: int, seed: int = 3) -> np.ndarray:
    """Spectrum spanning 1 .. 1e-14 with a cluster near the noise floor."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((m, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = np.logspace(0, -14, n)
    s[-3:] = 1e-14  # clustered, effectively zero singular values
    return (u * s) @ v.T


def _sv_error(values: np.ndarray, ref: np.ndarray) -> float:
    return float(np.max(np.abs(values - ref)) / (ref[0] if ref[0] > 0 else 1.0))


class TestSingularValuesAgainstNumpy:
    @pytest.mark.parametrize("label,m,n,tile_size,kind", INPUTS,
                             ids=[s[0] for s in INPUTS])
    @pytest.mark.parametrize("variant", ["bidiag", "rbidiag"])
    def test_ge2val_matches_numpy(self, label, m, n, tile_size, kind, variant):
        a = _input(m, n, 0, kind)
        plan = SvdPlan(matrix=a, stage="ge2val", variant=variant,
                       tile_size=tile_size)
        result = execute(plan, backend="numeric")
        ref = np.linalg.svd(a, compute_uv=False)
        assert _sv_error(result.singular_values, ref) < SV_TOL
        # execute() computes the same quantity itself; the two must agree.
        assert result.max_rel_error < SV_TOL

    @pytest.mark.parametrize("tree", ["flatts", "flattt", "greedy", "auto"])
    def test_every_tree_same_values(self, tree):
        a = _matrix(64, 40, seed=7)
        plan = SvdPlan(matrix=a, stage="ge2val", tree=tree, tile_size=8,
                       n_cores=4)
        result = execute(plan, backend="numeric")
        ref = np.linalg.svd(a, compute_uv=False)
        assert _sv_error(result.singular_values, ref) < SV_TOL

    def test_wide_matrix_via_transpose(self):
        """The drivers require m >= n; a wide matrix is solved transposed
        and must produce the same spectrum."""
        a = _matrix(32, 96, seed=11)
        plan = SvdPlan(matrix=a.T.copy(), stage="ge2val", tile_size=8)
        result = execute(plan, backend="numeric")
        ref = np.linalg.svd(a, compute_uv=False)
        assert _sv_error(result.singular_values, ref) < SV_TOL

    def test_near_rank_deficient(self):
        a = _rank_deficient(60, 30)
        plan = SvdPlan(matrix=a, stage="ge2val", tile_size=10)
        result = execute(plan, backend="numeric")
        ref = np.linalg.svd(a, compute_uv=False)
        # Absolute error in units of sigma_max: the tiny cluster cannot be
        # resolved below machine precision, but must not be reported above.
        assert _sv_error(result.singular_values, ref) < SV_TOL
        assert np.all(result.singular_values >= 0.0)
        assert np.all(np.diff(result.singular_values) <= 1e-15)


class TestBidiagonalizationAgainstLapackBaseline:
    """Tiled GE2BND, then BND2BD (``dgbbrd``) and BD2VAL (``dbdsqr``), vs
    ``numpy.linalg.svd``: the band must preserve the input's spectrum."""

    @pytest.mark.parametrize("label,m,n,tile_size", SHAPES,
                             ids=[s[0] for s in SHAPES])
    def test_band_spectrum_matches(self, label, m, n, tile_size):
        a = _matrix(m, n, seed=5)
        ref = np.linalg.svd(a, compute_uv=False)

        tiled = TiledMatrix.from_dense(a, tile_size)
        plan = SvdPlan(matrix=tiled, stage="ge2bnd")
        band = execute(plan, backend="numeric").extras["band"]
        d, e = band_to_bidiagonal(band)
        tiled_values = bidiagonal_singular_values(d, e)
        assert _sv_error(tiled_values, ref) < SV_TOL


class TestVectorPipelineOrthogonality:
    @pytest.mark.parametrize("label,m,n,tile_size,kind", INPUTS,
                             ids=[s[0] for s in INPUTS])
    def test_gesvd_orthogonality_and_reconstruction(self, label, m, n, tile_size, kind):
        a = _input(m, n, 9, kind)
        plan = SvdPlan(matrix=a, stage="gesvd", tile_size=tile_size)
        res = execute(plan, backend="numeric")
        ref = np.linalg.svd(a, compute_uv=False)
        assert _sv_error(res.singular_values, ref) < SV_TOL
        assert res.max_rel_error < SV_TOL
        eye_u = res.u.T @ res.u
        eye_v = res.vt @ res.vt.T
        assert np.linalg.norm(eye_u - np.eye(n)) < UV_TOL
        assert np.linalg.norm(eye_v - np.eye(n)) < UV_TOL
        # Residuals of A / max|A|: the norm of a 1e-300 residual underflows.
        amax = np.max(np.abs(a)) or 1.0
        recon = (res.u * (res.singular_values / amax)) @ res.vt
        scale = np.linalg.norm(a / amax) or 1.0
        assert np.linalg.norm(recon - a / amax) / scale < UV_TOL

    def test_gesvd_through_plan_api(self):
        a = _matrix(40, 24, seed=13)
        plan = SvdPlan(matrix=a, stage="gesvd", tile_size=8)
        result = execute(plan, backend="numeric")
        assert result.u is not None and result.vt is not None
        recon = result.u @ np.diag(result.singular_values) @ result.vt
        assert np.linalg.norm(recon - a) / np.linalg.norm(a) < UV_TOL


class TestNearOverflowInput:
    """Input near overflow is reduced scaled by a power of two, and σ and the
    band are scaled back exactly; U and Vᵀ do not change.  Without the
    front-door rescale, 1e307·A raised ``LinAlgError: Singular matrix``
    from the T factor."""

    @staticmethod
    def _matrix():
        return np.random.default_rng(9).standard_normal((96, 64))

    def _run(self, a, stage):
        return execute(SvdPlan(matrix=a, tile_size=16, stage=stage), "numeric")

    def test_exponent_leaves_the_normal_range_alone(self):
        from repro.api.resolver import (
            NUMERIC_MAX_ABS_LOG2,
            NUMERIC_MIN_ABS_LOG2,
            scaling_exponent,
        )

        a = self._matrix()
        unit = a / np.abs(a).max()
        edges = (unit * 2.0**NUMERIC_MAX_ABS_LOG2, unit * 2.0**NUMERIC_MIN_ABS_LOG2)
        for scaled in (a, 1e150 * a, 1e300 * a, 1e-300 * a, *edges, 0.0 * a):
            assert scaling_exponent(TiledMatrix.from_dense(scaled, 16)) == 0
        e = scaling_exponent(TiledMatrix.from_dense(1e307 * a, 16))
        assert e > 0
        assert np.abs(1e307 * a).max() * 2.0**-e <= 2.0**NUMERIC_MAX_ABS_LOG2
        # Near underflow the exponent is negative, and the least that
        # lifts max|a| to the lower bound.
        for tiny in (1e-310 * a, edges[1] / 2, np.ldexp(unit, -1074)):
            e = scaling_exponent(tiny)
            assert e < 0
            assert 2.0**NUMERIC_MIN_ABS_LOG2 <= np.ldexp(np.abs(tiny).max(), -e)
            assert np.ldexp(np.abs(tiny).max(), -e - 1) < 2.0**NUMERIC_MIN_ABS_LOG2

    @pytest.mark.parametrize("stage", ["ge2bnd", "ge2val", "gesvd"])
    @pytest.mark.parametrize("label", ["scale-1e307", "one-entry-1e308"])
    def test_scaled_back_exactly(self, stage, label):
        from repro.api.resolver import scaling_exponent

        a = self._matrix()
        if label == "scale-1e307":
            big = 1e307 * a
        else:
            big = a.copy()
            big[3, 5] = 1e308
        e = scaling_exponent(TiledMatrix.from_dense(big, 16))
        got = self._run(big, stage)
        # The same reduction on the pre-scaled input, by hand.
        want = self._run(np.ldexp(big, -e), stage)
        if stage == "gesvd":
            np.testing.assert_array_equal(got.u, want.u)
            np.testing.assert_array_equal(got.vt, want.vt)
        if stage == "ge2bnd":
            np.testing.assert_array_equal(
                got.extras["band"].data, np.ldexp(want.extras["band"].data, e)
            )
            assert np.isfinite(got.extras["band"].data).all()
        else:
            np.testing.assert_array_equal(
                got.singular_values, np.ldexp(want.singular_values, e)
            )
            assert got.max_rel_error < SV_TOL

    def test_gesvd_reconstructs_the_scaled_input(self):
        a = 1e307 * self._matrix()
        result = self._run(a, "gesvd")
        # Norms of a itself overflow, so check on copies scaled by 2**-1020.
        s = np.ldexp(result.singular_values, -1020)
        resid = np.ldexp(a, -1020) - (result.u[:, : s.size] * s) @ result.vt
        assert np.linalg.norm(resid) / np.linalg.norm(np.ldexp(a, -1020)) < UV_TOL

    def test_unrepresentable_singular_values_raise(self):
        # sigma_max of 2.5e307·A is about 4e308: no double holds it.
        with pytest.raises(ValueError, match="exceed the double precision range"):
            self._run(2.5e307 * self._matrix(), "ge2val")
