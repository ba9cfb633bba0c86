"""Integration tests for BIDIAG and R-BIDIAG (GE2BND)."""

import numpy as np
import pytest

from repro.algorithms.band import BandBidiagonal, band_residual, extract_band
from repro.algorithms.bidiag import bidiag_ge2bnd
from repro.algorithms.executor import NumericExecutor
from repro.algorithms.rbidiag import rbidiag_ge2bnd
from repro.tiles.matrix import TiledMatrix
from repro.trees import AutoTree, FibonacciTree, FlatTSTree, FlatTTTree, GreedyTree
from repro.utils.generators import latms

TREES = [FlatTSTree(), FlatTTTree(), GreedyTree(), FibonacciTree(), AutoTree(n_cores=4)]


def _sv(a):
    return np.linalg.svd(a, compute_uv=False)


class TestExtractBand:
    @pytest.mark.parametrize(
        "shape, nb, n_cols",
        [((16, 16), 4, None), ((13, 9), 3, None), ((30, 7), 4, None), ((24, 12), 5, 9), ((5, 3), 8, None)],
    )
    def test_reads_the_band_of_the_dense_block(self, shape, nb, n_cols, rng):
        # extract_band reads only the diagonal and superdiagonal tiles; on
        # any matrix it must pack what the whole dense n x n block holds.
        mat = TiledMatrix.from_dense(rng.standard_normal(shape), nb)
        n = min(shape[1] if n_cols is None else n_cols, shape[0])
        band = extract_band(mat, n_cols=n_cols)
        want = BandBidiagonal.from_dense(mat.to_dense()[:n, :n], min(nb, n - 1))
        assert (band.n, band.bandwidth) == (want.n, want.bandwidth)
        np.testing.assert_array_equal(band.data, want.data)


class TestBidiag:
    @pytest.mark.parametrize("tree", TREES, ids=lambda t: type(t).__name__)
    @pytest.mark.parametrize("shape,nb", [((16, 16), 4), ((24, 12), 4), ((20, 8), 4), ((13, 9), 3)])
    def test_band_structure_and_singular_values(self, tree, shape, nb, rng):
        a = rng.standard_normal(shape)
        mat = TiledMatrix.from_dense(a, nb)
        bidiag_ge2bnd(NumericExecutor(mat), tree)
        scale = np.linalg.norm(a)
        # Everything outside the band must be zero.
        assert band_residual(mat) < 1e-10 * scale
        # The band has the same singular values as the input.
        band = extract_band(mat)
        np.testing.assert_allclose(_sv(band.to_dense()), _sv(a), atol=1e-10 * scale)

    def test_different_qr_and_lq_trees(self, rng):
        a = rng.standard_normal((20, 12))
        mat = TiledMatrix.from_dense(a, 4)
        bidiag_ge2bnd(NumericExecutor(mat), qr_tree=GreedyTree(), lq_tree=FlatTSTree())
        assert band_residual(mat) < 1e-10 * np.linalg.norm(a)

    def test_single_tile_column(self, rng):
        a = rng.standard_normal((12, 3))
        mat = TiledMatrix.from_dense(a, 4)
        bidiag_ge2bnd(NumericExecutor(mat), GreedyTree())
        np.testing.assert_allclose(_sv(mat.to_dense()), _sv(a), atol=1e-10)

    def test_rejects_wide_matrices(self, rng):
        mat = TiledMatrix.from_dense(rng.standard_normal((8, 16)), 4)
        with pytest.raises(ValueError):
            bidiag_ge2bnd(NumericExecutor(mat), GreedyTree())

    def test_latms_singular_values_recovered(self, rng):
        sigma = np.linspace(10.0, 1.0, 12)
        a = latms(20, 12, sigma, rng=rng)
        mat = TiledMatrix.from_dense(a, 4)
        bidiag_ge2bnd(NumericExecutor(mat), AutoTree(n_cores=4))
        band = extract_band(mat)
        np.testing.assert_allclose(np.sort(_sv(band.to_dense()))[::-1], sigma, rtol=1e-10)


class TestRBidiag:
    @pytest.mark.parametrize("tree", TREES, ids=lambda t: type(t).__name__)
    @pytest.mark.parametrize("shape,nb", [((32, 8), 4), ((24, 12), 4), ((19, 7), 3)])
    def test_band_structure_and_singular_values(self, tree, shape, nb, rng):
        a = rng.standard_normal(shape)
        mat = TiledMatrix.from_dense(a, nb)
        rbidiag_ge2bnd(NumericExecutor(mat), tree)
        scale = np.linalg.norm(a)
        assert band_residual(mat) < 1e-10 * scale
        band = extract_band(mat)
        np.testing.assert_allclose(_sv(band.to_dense()), _sv(a), atol=1e-10 * scale)

    def test_distinct_prequr_tree(self, rng):
        a = rng.standard_normal((30, 10))
        mat = TiledMatrix.from_dense(a, 5)
        rbidiag_ge2bnd(NumericExecutor(mat), GreedyTree(), prequr_tree=FlatTSTree())
        assert band_residual(mat) < 1e-10 * np.linalg.norm(a)

    def test_bidiag_and_rbidiag_agree_on_singular_values(self, rng):
        a = rng.standard_normal((28, 8))
        m1 = TiledMatrix.from_dense(a, 4)
        m2 = TiledMatrix.from_dense(a, 4)
        bidiag_ge2bnd(NumericExecutor(m1), GreedyTree())
        rbidiag_ge2bnd(NumericExecutor(m2), GreedyTree())
        np.testing.assert_allclose(
            _sv(extract_band(m1).to_dense()), _sv(extract_band(m2).to_dense()), atol=1e-9
        )

    def test_rejects_wide_matrices(self, rng):
        mat = TiledMatrix.from_dense(rng.standard_normal((8, 16)), 4)
        with pytest.raises(ValueError):
            rbidiag_ge2bnd(NumericExecutor(mat), GreedyTree())

    def test_square_case_works(self, rng):
        a = rng.standard_normal((16, 16))
        mat = TiledMatrix.from_dense(a, 4)
        rbidiag_ge2bnd(NumericExecutor(mat), GreedyTree())
        assert band_residual(mat) < 1e-10 * np.linalg.norm(a)
