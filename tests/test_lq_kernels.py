"""Unit tests for the LQ tile kernels."""

import numpy as np
import pytest

from repro.kernels.lq_kernels import gelqt, tslqt, tsmlq, ttlqt, ttmlq, unmlq
from repro.kernels.qr_kernels import geqrt, unmqr


class TestGelqtUnmlq:
    def test_gelqt_lower_triangular(self, rng):
        a = rng.standard_normal((5, 5))
        l, refl = gelqt(a)
        np.testing.assert_allclose(np.triu(l, 1), 0.0, atol=1e-12)
        # Singular values preserved (L = A Q^T with Q orthogonal).
        np.testing.assert_allclose(
            np.linalg.svd(l, compute_uv=False),
            np.linalg.svd(a, compute_uv=False),
            atol=1e-10,
        )

    def test_unmlq_consistency(self, rng):
        """Applying the LQ update to a second row keeps [A; C] factorized."""
        a = rng.standard_normal((4, 6))
        c = rng.standard_normal((3, 6))
        l, refl = gelqt(a)
        c_updated = unmlq(refl, c)
        # The rows of [L; C_updated] must span the same space and have the
        # same Gram matrix as [A; C] (they differ by the orthogonal Q^T on
        # the right).
        before = np.vstack([a, c])
        after = np.vstack([l, c_updated])
        np.testing.assert_allclose(before @ before.T, after @ after.T, atol=1e-10)

    def test_unmlq_rejects_wrong_reflector(self, rng):
        l_left = np.tril(rng.standard_normal((3, 3)))
        _, _, refl = tslqt(l_left, rng.standard_normal((3, 3)))
        with pytest.raises(ValueError):
            unmlq(refl, rng.standard_normal((3, 3)))

    def test_unmlq_rejects_column_mismatch(self, rng):
        _, refl = gelqt(rng.standard_normal((3, 4)))
        with pytest.raises(ValueError):
            unmlq(refl, rng.standard_normal((3, 3)))


class TestTslqtTsmlq:
    def test_tslqt_zeroes_right(self, rng):
        l_left = np.tril(rng.standard_normal((4, 4)))
        a_right = rng.standard_normal((4, 4))
        new_left, new_right, refl = tslqt(l_left, a_right)
        np.testing.assert_array_equal(new_right, 0.0)
        np.testing.assert_allclose(np.triu(new_left, 1), 0.0, atol=1e-12)
        # Row Gram matrix preserved: [L | A] and [L' | 0] differ by an
        # orthogonal transformation on the right.
        before = np.hstack([l_left, a_right])
        after = np.hstack([new_left, new_right])
        np.testing.assert_allclose(before @ before.T, after @ after.T, atol=1e-10)

    def test_tslqt_row_mismatch(self, rng):
        with pytest.raises(ValueError):
            tslqt(rng.standard_normal((4, 4)), rng.standard_normal((3, 4)))

    def test_tsmlq_preserves_products(self, rng):
        l_left = np.tril(rng.standard_normal((3, 3)))
        a_right = rng.standard_normal((3, 3))
        new_left, new_right, refl = tslqt(l_left, a_right)
        c_left = rng.standard_normal((2, 3))
        c_right = rng.standard_normal((2, 3))
        u_left, u_right = tsmlq(refl, c_left, c_right)
        # Inner products between the panel rows and the updated rows are
        # preserved by the shared right orthogonal transformation.
        before = np.hstack([np.vstack([l_left, c_left]), np.vstack([a_right, c_right])])
        after = np.hstack([np.vstack([new_left, u_left]), np.vstack([new_right, u_right])])
        np.testing.assert_allclose(before @ before.T, after @ after.T, atol=1e-10)

    def test_tsmlq_rejects_wrong_reflector(self, rng):
        _, refl = gelqt(rng.standard_normal((3, 3)))
        with pytest.raises(ValueError):
            tsmlq(refl, rng.standard_normal((3, 3)), rng.standard_normal((3, 3)))

    def test_tsmlq_rejects_bad_split(self, rng):
        l_left = np.tril(rng.standard_normal((3, 3)))
        _, _, refl = tslqt(l_left, rng.standard_normal((3, 3)))
        with pytest.raises(ValueError):
            tsmlq(refl, rng.standard_normal((2, 2)), rng.standard_normal((2, 3)))


class TestTtlqtTtmlq:
    def test_ttlqt_combines_triangles(self, rng):
        l_left = np.tril(rng.standard_normal((4, 4)))
        l_right = np.tril(rng.standard_normal((4, 4)))
        new_left, new_right, refl = ttlqt(l_left, l_right)
        np.testing.assert_array_equal(new_right, 0.0)
        before = np.hstack([l_left, l_right])
        after = np.hstack([new_left, new_right])
        np.testing.assert_allclose(before @ before.T, after @ after.T, atol=1e-10)

    def test_ttmlq_rejects_wrong_reflector(self, rng):
        l_left = np.tril(rng.standard_normal((3, 3)))
        _, _, refl = tslqt(l_left, rng.standard_normal((3, 3)))
        with pytest.raises(ValueError):
            ttmlq(refl, rng.standard_normal((3, 3)), rng.standard_normal((3, 3)))

    def test_inputs_not_modified(self, rng):
        l_left = np.tril(rng.standard_normal((4, 4)))
        l_right = np.tril(rng.standard_normal((4, 4)))
        left_copy, right_copy = l_left.copy(), l_right.copy()
        ttlqt(l_left, l_right)
        np.testing.assert_array_equal(l_left, left_copy)
        np.testing.assert_array_equal(l_right, right_copy)


#: (rows, left columns, right columns) of the pair-kernel tests: the
#: transposes of ``test_qr_kernels.PAIR_SHAPES``.
PAIR_SHAPES = [(8, 8, 8), (3, 8, 5), (5, 8, 3), (1, 8, 8), (8, 8, 1), (1, 1, 1)]


def form_q(refl, update):
    """``Q`` with ``update(refl, C_left, C_right) = [C_left | C_right] Q``."""
    eye = np.eye(refl.split + refl.v.shape[0])
    return np.hstack(update(refl, eye[:, : refl.split], eye[:, refl.split :]))


class TestRaggedTilesAndInnerBlocking:
    """The LQ kernels on every tile shape a grid has, at several ``ib``:
    the QR kernels' tests through the transpose."""

    @pytest.mark.parametrize("ib", [1, 3, 32])
    @pytest.mark.parametrize("rows, cols", [(8, 8), (3, 5), (5, 3), (8, 1), (1, 8)])
    def test_gelqt_is_geqrt_transposed(self, rng, rows, cols, ib):
        a = rng.standard_normal((rows, cols))
        l_tile, refl = gelqt(a, ib)
        r, qr_refl = geqrt(a.T, ib)
        np.testing.assert_array_equal(l_tile, r.T)
        np.testing.assert_array_equal(refl.v, qr_refl.v)
        np.testing.assert_array_equal(refl.t, qr_refl.t)
        q = unmlq(refl, np.eye(cols))
        np.testing.assert_allclose(q.T @ q, np.eye(cols), atol=1e-14)
        np.testing.assert_allclose(l_tile @ q.T, a, atol=1e-13)
        c = rng.standard_normal((4, cols))
        np.testing.assert_allclose(unmlq(refl, c), unmqr(qr_refl, c.T).T, atol=1e-13)

    @pytest.mark.parametrize("ib", [1, 3, 32])
    @pytest.mark.parametrize("rows, left, right", PAIR_SHAPES)
    @pytest.mark.parametrize("factor, update", [(tslqt, tsmlq), (ttlqt, ttmlq)])
    def test_pair_kernels(self, rng, rows, left, right, factor, update, ib):
        l_left = np.tril(rng.standard_normal((rows, left)))
        a_right = rng.standard_normal((rows, right))
        if factor is ttlqt:
            a_right = np.tril(a_right)
        new_left, new_right, refl = factor(l_left, a_right, ib)
        k = rows
        assert new_left.shape == l_left.shape and not np.triu(new_left, 1).any()
        np.testing.assert_array_equal(new_right, np.zeros_like(a_right))
        assert refl.t.shape == (min(ib, k), k) and refl.v.shape == (right, k)
        # The pair times Q is [L | 0] ...
        got_left, got_right = update(refl, l_left, a_right)
        np.testing.assert_allclose(got_left, new_left, atol=1e-13)
        np.testing.assert_allclose(got_right, 0.0, atol=1e-13)
        # ... and Q is orthogonal with [L | 0] Q^T = [left | right].
        q = form_q(refl, update)
        np.testing.assert_allclose(q.T @ q, np.eye(left + right), atol=1e-14)
        np.testing.assert_allclose(
            np.hstack([new_left, new_right]) @ q.T, np.hstack([l_left, a_right]), atol=1e-13
        )
        np.testing.assert_array_equal(new_left[:, k:], l_left[:, k:])

    def test_checks(self, rng):
        a = rng.standard_normal((8, 8))
        narrow = rng.standard_normal((8, 5))
        _, panel = gelqt(a)
        _, _, ts = tslqt(np.tril(a), rng.standard_normal((8, 8)))
        _, _, tt = ttlqt(np.tril(a), np.tril(a))
        with pytest.raises(ValueError, match="GELQT reflector"):
            unmlq(ts, a)
        with pytest.raises(ValueError, match="column mismatch"):
            unmlq(panel, narrow)
        with pytest.raises(ValueError, match="TSLQT reflector"):
            tsmlq(tt, a, a)
        with pytest.raises(ValueError, match="TTLQT reflector"):
            ttmlq(ts, a, a)
        with pytest.raises(ValueError, match="split"):
            tsmlq(ts, narrow, a)
        with pytest.raises(ValueError, match="stacked column count"):
            ttmlq(tt, a, narrow)
        with pytest.raises(ValueError, match="row mismatch"):
            tslqt(a, rng.standard_normal((5, 8)))
        with pytest.raises(ValueError, match="triangle"):
            tslqt(rng.standard_normal((5, 3)), rng.standard_normal((5, 5)))
