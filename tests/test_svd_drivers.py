"""Integration tests for the GE2BND / GE2VAL / GESVD stages of the numeric backend."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import SvdPlan, execute
from repro.tiles.matrix import TiledMatrix
from repro.utils.generators import graded_singular_values, latms
from repro.utils.validation import orthogonality_error, reconstruction_error


def _sv(a):
    return np.linalg.svd(a, compute_uv=False)


def _run(a, stage="ge2val", **plan):
    return execute(SvdPlan(matrix=a, stage=stage, **plan), backend="numeric")


def _band(a, **plan):
    return _run(a, "ge2bnd", **plan).extras["band"]


def _values(a, **plan):
    return _run(a, "ge2val", **plan).singular_values


def _usvt(a, **plan):
    result = _run(a, "gesvd", **plan)
    return result.u, result.singular_values, result.vt


class TestGe2Bnd:
    def test_returns_band_and_matrix(self, rng):
        a = rng.standard_normal((24, 16))
        result = _run(a, "ge2bnd", tile_size=4)
        band = result.extras["band"]
        assert band.n == 16
        assert (result.m, result.n) == (24, 16)
        np.testing.assert_allclose(_sv(band.to_dense()), _sv(a), atol=1e-9)

    def test_accepts_tiled_matrix(self, rng):
        a = rng.standard_normal((16, 16))
        mat = TiledMatrix.from_dense(a, 4)
        band = _band(mat)
        np.testing.assert_allclose(_sv(band.to_dense()), _sv(a), atol=1e-9)

    def test_explicit_variants_agree(self, rng):
        a = rng.standard_normal((32, 8))
        b1 = _band(a, tile_size=4, variant="bidiag")
        b2 = _band(a, tile_size=4, variant="rbidiag")
        np.testing.assert_allclose(
            _sv(b1.to_dense()), _sv(b2.to_dense()), atol=1e-9
        )

    def test_rejects_wide(self, rng):
        with pytest.raises(ValueError):
            _band(rng.standard_normal((8, 16)), tile_size=4)

    def test_rejects_unknown_variant(self, rng):
        with pytest.raises(ValueError):
            _band(rng.standard_normal((8, 8)), tile_size=4, variant="bogus")

    def test_tree_by_name(self, rng):
        a = rng.standard_normal((16, 8))
        band = _band(a, tile_size=4, tree="flatts")
        np.testing.assert_allclose(_sv(band.to_dense()), _sv(a), atol=1e-9)

    def test_auto_tree_by_name(self, rng):
        a = rng.standard_normal((16, 8))
        band = _band(a, tile_size=4, tree="auto", n_cores=8)
        np.testing.assert_allclose(_sv(band.to_dense()), _sv(a), atol=1e-9)


class TestGe2Val:
    @pytest.mark.parametrize("tree", ["flatts", "flattt", "greedy", "auto"])
    def test_matches_numpy_square(self, tree, rng):
        a = rng.standard_normal((24, 24))
        got = _values(a, tile_size=6, tree=tree)
        np.testing.assert_allclose(got, _sv(a), atol=1e-9 * np.linalg.norm(a))

    def test_matches_numpy_tall_skinny(self, rng):
        a = rng.standard_normal((60, 12))
        got = _values(a, tile_size=5)
        np.testing.assert_allclose(got, _sv(a), atol=1e-9 * np.linalg.norm(a))

    def test_latms_prescribed_values(self, rng):
        sigma = np.linspace(5.0, 0.5, 16)
        a = latms(40, 16, sigma, rng=rng)
        got = _values(a, tile_size=5)
        np.testing.assert_allclose(got, sigma, rtol=1e-9)

    def test_graded_singular_values(self, rng):
        sigma = graded_singular_values(12, condition=1e6)
        a = latms(24, 12, sigma, rng=rng)
        got = _values(a, tile_size=4)
        np.testing.assert_allclose(got, sigma, rtol=1e-7)

    def test_default_tile_size(self, rng):
        a = rng.standard_normal((20, 12))
        got = _values(a)
        np.testing.assert_allclose(got, _sv(a), atol=1e-9)

    @settings(max_examples=10, deadline=None)
    @given(
        m=st.integers(min_value=4, max_value=30),
        n=st.integers(min_value=1, max_value=12),
        nb=st.integers(min_value=2, max_value=6),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    def test_property_arbitrary_shapes(self, m, n, nb, seed):
        if m < n:
            m, n = n, m
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((m, n))
        got = _values(a, tile_size=nb)
        np.testing.assert_allclose(got, _sv(a), atol=1e-8 * max(1.0, np.linalg.norm(a)))


class TestGesvd:
    def test_full_svd(self, rng):
        a = rng.standard_normal((30, 18))
        u, s, vt = _usvt(a, tile_size=5)
        assert reconstruction_error(a, u, s, vt) < 1e-12
        assert orthogonality_error(u) < 1e-12
        assert orthogonality_error(vt.T) < 1e-12
        np.testing.assert_allclose(s, _sv(a), atol=1e-9)

    def test_tall_skinny_rbidiag_path(self, rng):
        a = rng.standard_normal((50, 10))
        u, s, vt = _usvt(a, tile_size=5, variant="rbidiag")
        assert reconstruction_error(a, u, s, vt) < 1e-12
        np.testing.assert_allclose(s, _sv(a), atol=1e-9)

    def test_singular_vectors_diagonalize(self, rng):
        a = rng.standard_normal((16, 16))
        u, s, vt = _usvt(a, tile_size=4)
        np.testing.assert_allclose(u.T @ a @ vt.T, np.diag(s), atol=1e-9)
