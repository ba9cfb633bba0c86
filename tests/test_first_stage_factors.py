"""The first stage as a factorization: its orthogonal factors and its inner blocking.

Each tiled reduction -- ``tiled_qr``, BIDIAG (``bidiag_ge2bnd``) and
R-BIDIAG (``rbidiag_ge2bnd``, Chan's QR-first algorithm at tile level) --
runs on a logging ``NumericExecutor``, and ``accumulate_orthogonal_factors``
rebuilds ``U1`` and ``V1`` from the log.  The reduction must be a
factorization, ``A = U1 · B · V1^T`` with orthogonal ``U1`` and ``V1``, on
every tree and on a ragged tile grid.  The inner block size ``ib`` only
blocks the kernels' ``T`` factors, so it must not change the reduced
matrix.
"""

import numpy as np
import pytest

from repro.algorithms.accumulate import accumulate_orthogonal_factors
from repro.algorithms.bidiag import bidiag_ge2bnd
from repro.algorithms.executor import NumericExecutor
from repro.algorithms.rbidiag import rbidiag_ge2bnd
from repro.algorithms.tiled_qr import tiled_qr
from repro.tiles.matrix import TiledMatrix
from repro.trees import AutoTree, FibonacciTree, FlatTSTree, FlatTTTree, GreedyTree

TREES = [FlatTSTree(), FlatTTTree(), GreedyTree(), FibonacciTree(), AutoTree(n_cores=4)]
DRIVERS = {"tiled_qr": tiled_qr, "bidiag": bidiag_ge2bnd, "rbidiag": rbidiag_ge2bnd}

#: (m, n, nb): 7 x 3 tiles, whose last tile row and column are ragged.
SHAPE = (19, 7, 3)


def _factor(a, nb, driver, tree, **executor_args):
    """Run ``driver`` on ``a`` and return the reduced matrix, ``U1`` and ``V1``."""
    mat = TiledMatrix.from_dense(a, nb)
    executor = NumericExecutor(mat, log_transformations=True, **executor_args)
    driver(executor, tree)
    u1, v1 = accumulate_orthogonal_factors(mat.layout, executor.transform_log)
    return mat.to_dense(), u1, v1


@pytest.mark.parametrize("tree", TREES, ids=lambda t: type(t).__name__)
@pytest.mark.parametrize("name", DRIVERS)
class TestOrthogonalFactors:
    def test_reconstruction(self, name, tree, rng):
        m, n, nb = SHAPE
        a = rng.standard_normal((m, n))
        reduced, u1, v1 = _factor(a, nb, DRIVERS[name], tree)
        np.testing.assert_allclose(u1 @ reduced @ v1.T, a, atol=1e-12 * np.linalg.norm(a))
        if name == "tiled_qr":
            # QR applies no reflector from the right.
            np.testing.assert_array_equal(v1, np.eye(n))

    def test_orthogonality(self, name, tree, rng):
        m, n, nb = SHAPE
        _, u1, v1 = _factor(rng.standard_normal((m, n)), nb, DRIVERS[name], tree)
        np.testing.assert_allclose(u1.T @ u1, np.eye(m), atol=1e-12)
        np.testing.assert_allclose(v1.T @ v1, np.eye(n), atol=1e-12)


class TestInnerBlock:
    @pytest.mark.parametrize("ib", [1, 4])
    @pytest.mark.parametrize("name", DRIVERS)
    def test_inner_block_does_not_change_the_result(self, name, ib, rng):
        # ib = 32 covers a whole 6-column tile: one T block per reflector.
        a = rng.standard_normal((26, 14))
        blocked = _factor(a, 6, DRIVERS[name], GreedyTree(), inner_block=ib)
        whole = _factor(a, 6, DRIVERS[name], GreedyTree(), inner_block=32)
        for got, want in zip(blocked, whole):
            np.testing.assert_allclose(got, want, atol=1e-12 * np.linalg.norm(a))

    def test_rejects_non_positive_inner_block(self, rng):
        mat = TiledMatrix.from_dense(rng.standard_normal((8, 4)), 4)
        with pytest.raises(ValueError, match="inner_block"):
            NumericExecutor(mat, inner_block=0)
