"""Integration tests: the tiled QR factorization and a panel-by-panel LQ
factorization with every tree, and the QR / LQ panel steps' range checks."""

import numpy as np
import pytest

from repro.algorithms.executor import NumericExecutor
from repro.algorithms.tiled_qr import tiled_qr
from repro.tiles.matrix import TiledMatrix
from repro.trees import AutoTree, FibonacciTree, FlatTSTree, FlatTTTree, GreedyTree

TREES = [FlatTSTree(), FlatTTTree(), GreedyTree(), FibonacciTree(), AutoTree(n_cores=4)]


def _sv(a):
    return np.linalg.svd(a, compute_uv=False)


class TestTiledQR:
    @pytest.mark.parametrize("tree", TREES, ids=lambda t: type(t).__name__)
    @pytest.mark.parametrize("shape,nb", [((16, 16), 4), ((24, 12), 4), ((18, 10), 4), ((13, 7), 3)])
    def test_qr_structure_and_values(self, tree, shape, nb, rng):
        a = rng.standard_normal(shape)
        mat = TiledMatrix.from_dense(a, nb)
        tiled_qr(NumericExecutor(mat), tree)
        r = mat.to_dense()
        # Strictly-lower part is zero (within roundoff).
        assert np.max(np.abs(np.tril(r, -1))) < 1e-10
        # Orthogonal transformations preserve singular values.
        np.testing.assert_allclose(_sv(r), _sv(a), atol=1e-10 * np.linalg.norm(a))

    def test_qr_r_matches_reference_up_to_signs(self, rng):
        a = rng.standard_normal((12, 8))
        mat = TiledMatrix.from_dense(a, 4)
        tiled_qr(NumericExecutor(mat), GreedyTree())
        r_tiled = mat.to_dense()[:8, :8]
        r_ref = np.linalg.qr(a, mode="r")
        np.testing.assert_allclose(np.abs(r_tiled), np.abs(r_ref), atol=1e-10)

    def test_single_tile(self, rng):
        a = rng.standard_normal((3, 3))
        mat = TiledMatrix.from_dense(a, 4)
        tiled_qr(NumericExecutor(mat), FlatTSTree())
        np.testing.assert_allclose(np.tril(mat.to_dense(), -1), 0.0, atol=1e-12)

    def test_default_tree(self, rng):
        a = rng.standard_normal((8, 8))
        mat = TiledMatrix.from_dense(a, 4)
        tiled_qr(NumericExecutor(mat))
        np.testing.assert_allclose(_sv(mat.to_dense()), _sv(a), atol=1e-10)


def _lq_by_steps(a, nb, tree):
    """LQ-factorize ``a`` with one ``lq_step`` per tile row; return ``L``.

    ``lq_step(k)`` reduces tile row ``k`` from column ``k + 1`` on (the
    BIDIAG convention), so ``a`` sits behind a zero tile column that no
    step touches: step ``k`` on ``[0 | a]`` is the LQ panel step ``k`` of
    ``a`` itself, on wide and ragged panels that BIDIAG never forms.
    """
    from repro.algorithms.bidiag import lq_step

    m = a.shape[0]
    mat = TiledMatrix.from_dense(np.hstack([np.zeros((m, nb)), a]), nb)
    executor = NumericExecutor(mat)
    for k in range(min(mat.p, mat.q - 1)):
        lq_step(executor, k, tree)
    return mat.to_dense()[:, nb:]


class TestLQSteps:
    @pytest.mark.parametrize("tree", TREES, ids=lambda t: type(t).__name__)
    @pytest.mark.parametrize("shape,nb", [((12, 12), 4), ((8, 20), 4), ((7, 13), 3)])
    def test_lq_structure_and_values(self, tree, shape, nb, rng):
        a = rng.standard_normal(shape)
        lower = _lq_by_steps(a, nb, tree)
        assert np.max(np.abs(np.triu(lower, 1))) < 1e-10
        np.testing.assert_allclose(_sv(lower), _sv(a), atol=1e-10 * np.linalg.norm(a))

    def test_lq_matches_qr_of_transpose(self, rng):
        a = rng.standard_normal((8, 12))
        lower = _lq_by_steps(a, 4, GreedyTree())[:8, :8]
        r_ref = np.linalg.qr(a.T, mode="r")
        np.testing.assert_allclose(np.abs(lower), np.abs(r_ref.T), atol=1e-10)


class TestStepErrors:
    def test_qr_step_out_of_range(self, rng):
        from repro.algorithms.tiled_qr import qr_step

        mat = TiledMatrix.from_dense(rng.standard_normal((8, 8)), 4)
        with pytest.raises(ValueError):
            qr_step(NumericExecutor(mat), 5, FlatTSTree())

    def test_lq_step_out_of_range(self, rng):
        from repro.algorithms.bidiag import lq_step

        mat = TiledMatrix.from_dense(rng.standard_normal((8, 8)), 4)
        with pytest.raises(ValueError):
            lq_step(NumericExecutor(mat), 7, FlatTSTree())
