"""Unit tests for the LQ tile kernels."""

import numpy as np
import pytest

from repro.kernels.lq_kernels import gelqt, tslqt, tsmlq, ttlqt, ttmlq, unmlq


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


#: Stack sizes of the stacked-kernel tests: a single slice, a few, and
#: the size of a typical numeric-tall level group.
STACKS = (1, 3, 22)


def _assert_same_reflector(stacked, index, single):
    np.testing.assert_array_equal(stacked.v[index], single.v)
    np.testing.assert_array_equal(stacked.t[index], single.t)
    assert (stacked.split, stacked.kind) == (single.split, single.kind)


class TestStackedKernels:
    """A stack of g tiles gives bitwise what g 2-D kernel calls give.

    The LQ counterpart of ``test_qr_kernels.TestStackedKernels``.  Slice 0
    of every stack has a row whose reflector is the identity (tau = 0).
    """

    @pytest.mark.parametrize("g", STACKS)
    @pytest.mark.parametrize("rows, cols", [(8, 8), (3, 5)])
    def test_gelqt_unmlq(self, rng, g, rows, cols):
        a = rng.standard_normal((g, rows, cols))
        a[0, 0, 1:] = 0.0
        c = rng.standard_normal((g, 6, cols))
        l, refl = gelqt(a)
        assert refl.t[0, 0, 0] == 0.0
        updated = unmlq(refl, c)
        for s in range(g):
            l_s, refl_s = gelqt(a[s])
            np.testing.assert_array_equal(l[s], l_s)
            _assert_same_reflector(refl, s, refl_s)
            np.testing.assert_array_equal(updated[s], unmlq(refl_s, c[s]))

    @pytest.mark.parametrize("g", STACKS)
    @pytest.mark.parametrize("rows, left, right", [(8, 8, 8), (3, 8, 5)])
    @pytest.mark.parametrize("factor, update", [(tslqt, tsmlq), (ttlqt, ttmlq)])
    def test_pair_kernels(self, rng, g, rows, left, right, factor, update):
        l_left = np.tril(rng.standard_normal((g, rows, left)))
        a_right = rng.standard_normal((g, rows, right))
        a_right[0, 0, :] = 0.0
        c_left = rng.standard_normal((g, 4, left))
        c_right = rng.standard_normal((g, 4, right))
        new_left, new_right, refl = factor(l_left, a_right)
        assert refl.t[0, 0, 0] == 0.0
        got_left, got_right = update(refl, c_left, c_right)
        for s in range(g):
            left_s, right_s, refl_s = factor(l_left[s], a_right[s])
            np.testing.assert_array_equal(new_left[s], left_s)
            np.testing.assert_array_equal(new_right[s], right_s)
            _assert_same_reflector(refl, s, refl_s)
            want_left, want_right = update(refl_s, c_left[s], c_right[s])
            np.testing.assert_array_equal(got_left[s], want_left)
            np.testing.assert_array_equal(got_right[s], want_right)

    def test_checks_raise_on_stacks(self, rng):
        a = rng.standard_normal((3, 8, 8))
        narrow = rng.standard_normal((3, 8, 5))
        _, panel = gelqt(a)
        _, _, ts = tslqt(np.tril(a), rng.standard_normal((3, 8, 8)))
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
            tslqt(a, rng.standard_normal((3, 5, 8)))
