"""Unit tests for the QR tile kernels (GEQRT/TSQRT/TTQRT and updates)."""

import numpy as np
import pytest

from repro.kernels.householder import form_q
from repro.kernels.qr_kernels import geqrt, tsmqr, tsqrt, ttmqr, ttqrt, unmqr


class TestGeqrtUnmqr:
    def test_geqrt_triangularizes(self, rng):
        a = rng.standard_normal((5, 5))
        r, refl = geqrt(a)
        np.testing.assert_allclose(np.tril(r, -1), 0.0, atol=1e-12)
        q = form_q(refl.v, refl.t)
        np.testing.assert_allclose(q @ r, a, atol=1e-12)

    def test_unmqr_applies_qt(self, rng):
        a = rng.standard_normal((4, 4))
        c = rng.standard_normal((4, 4))
        r, refl = geqrt(a)
        q = form_q(refl.v, refl.t)
        np.testing.assert_allclose(unmqr(refl, c), q.T @ c, atol=1e-12)

    def test_unmqr_rejects_wrong_reflector(self, rng):
        a = rng.standard_normal((4, 4))
        _, _, refl = tsqrt(np.triu(a), rng.standard_normal((4, 4)))
        with pytest.raises(ValueError):
            unmqr(refl, a)

    def test_unmqr_rejects_row_mismatch(self, rng):
        _, refl = geqrt(rng.standard_normal((4, 4)))
        with pytest.raises(ValueError):
            unmqr(refl, rng.standard_normal((3, 4)))

    def test_rectangular_tile(self, rng):
        a = rng.standard_normal((3, 5))
        r, refl = geqrt(a)
        q = form_q(refl.v, refl.t)
        np.testing.assert_allclose(q @ r, a, atol=1e-12)


class TestTsqrtTsmqr:
    def test_tsqrt_zeroes_bottom(self, rng):
        r_top = np.triu(rng.standard_normal((4, 4)))
        a_bot = rng.standard_normal((4, 4))
        new_top, new_bot, refl = tsqrt(r_top, a_bot)
        np.testing.assert_array_equal(new_bot, 0.0)
        # Stacked factorization is exact.
        q = form_q(refl.v, refl.t)
        stacked = np.vstack([r_top, a_bot])
        np.testing.assert_allclose(q @ np.vstack([new_top, new_bot]), stacked, atol=1e-12)

    def test_tsqrt_ragged_bottom(self, rng):
        r_top = np.triu(rng.standard_normal((4, 4)))
        a_bot = rng.standard_normal((2, 4))
        new_top, new_bot, refl = tsqrt(r_top, a_bot)
        assert new_bot.shape == (2, 4)
        q = form_q(refl.v, refl.t)
        np.testing.assert_allclose(
            q @ np.vstack([new_top, new_bot]), np.vstack([r_top, a_bot]), atol=1e-12
        )

    def test_tsqrt_column_mismatch(self, rng):
        with pytest.raises(ValueError):
            tsqrt(rng.standard_normal((4, 4)), rng.standard_normal((4, 3)))

    def test_tsmqr_matches_explicit(self, rng):
        r_top = np.triu(rng.standard_normal((3, 3)))
        a_bot = rng.standard_normal((3, 3))
        _, _, refl = tsqrt(r_top, a_bot)
        c_top = rng.standard_normal((3, 4))
        c_bot = rng.standard_normal((3, 4))
        q = form_q(refl.v, refl.t)
        expected = q.T @ np.vstack([c_top, c_bot])
        got_top, got_bot = tsmqr(refl, c_top, c_bot)
        np.testing.assert_allclose(np.vstack([got_top, got_bot]), expected, atol=1e-12)

    def test_tsmqr_rejects_wrong_reflector(self, rng):
        _, refl = geqrt(rng.standard_normal((3, 3)))
        with pytest.raises(ValueError):
            tsmqr(refl, rng.standard_normal((3, 3)), rng.standard_normal((3, 3)))

    def test_tsmqr_rejects_bad_split(self, rng):
        r_top = np.triu(rng.standard_normal((3, 3)))
        _, _, refl = tsqrt(r_top, rng.standard_normal((3, 3)))
        with pytest.raises(ValueError):
            tsmqr(refl, rng.standard_normal((2, 3)), rng.standard_normal((3, 3)))


class TestTtqrtTtmqr:
    def test_ttqrt_combines_triangles(self, rng):
        r_top = np.triu(rng.standard_normal((4, 4)))
        r_bot = np.triu(rng.standard_normal((4, 4)))
        new_top, new_bot, refl = ttqrt(r_top, r_bot)
        np.testing.assert_array_equal(new_bot, 0.0)
        np.testing.assert_allclose(np.tril(new_top, -1), 0.0, atol=1e-12)
        q = form_q(refl.v, refl.t)
        np.testing.assert_allclose(
            q @ np.vstack([new_top, new_bot]), np.vstack([r_top, r_bot]), atol=1e-12
        )

    def test_ttmqr_matches_explicit(self, rng):
        r_top = np.triu(rng.standard_normal((3, 3)))
        r_bot = np.triu(rng.standard_normal((3, 3)))
        _, _, refl = ttqrt(r_top, r_bot)
        c_top = rng.standard_normal((3, 5))
        c_bot = rng.standard_normal((3, 5))
        q = form_q(refl.v, refl.t)
        expected = q.T @ np.vstack([c_top, c_bot])
        got_top, got_bot = ttmqr(refl, c_top, c_bot)
        np.testing.assert_allclose(np.vstack([got_top, got_bot]), expected, atol=1e-12)

    def test_ttmqr_rejects_wrong_reflector(self, rng):
        r_top = np.triu(rng.standard_normal((3, 3)))
        _, _, refl = tsqrt(r_top, rng.standard_normal((3, 3)))
        with pytest.raises(ValueError):
            ttmqr(refl, rng.standard_normal((3, 3)), rng.standard_normal((3, 3)))

    def test_kernels_do_not_modify_inputs(self, rng):
        r_top = np.triu(rng.standard_normal((4, 4)))
        r_bot = np.triu(rng.standard_normal((4, 4)))
        top_copy, bot_copy = r_top.copy(), r_bot.copy()
        ttqrt(r_top, r_bot)
        np.testing.assert_array_equal(r_top, top_copy)
        np.testing.assert_array_equal(r_bot, bot_copy)


#: Stack sizes of the stacked-kernel tests: a single slice, a few, and
#: the size of a typical numeric-tall level group.
STACKS = (1, 3, 22)


def _assert_same_reflector(stacked, index, single):
    np.testing.assert_array_equal(stacked.v[index], single.v)
    np.testing.assert_array_equal(stacked.t[index], single.t)
    assert (stacked.split, stacked.kind) == (single.split, single.kind)


class TestStackedKernels:
    """A stack of g tiles gives bitwise what g 2-D kernel calls give.

    The numeric replay runs each (DAG level, kernel) group as one stacked
    call, so these equalities are what keep its results bitwise equal to
    a per-op drive.  Slice 0 of every stack has a column whose reflector
    is the identity (tau = 0).
    """

    @pytest.mark.parametrize("g", STACKS)
    @pytest.mark.parametrize("rows, cols", [(8, 8), (5, 3)])
    def test_geqrt_unmqr(self, rng, g, rows, cols):
        a = rng.standard_normal((g, rows, cols))
        a[0, 1:, 0] = 0.0
        c = rng.standard_normal((g, rows, 6))
        r, refl = geqrt(a)
        assert refl.t[0, 0, 0] == 0.0
        updated = unmqr(refl, c)
        for s in range(g):
            r_s, refl_s = geqrt(a[s])
            np.testing.assert_array_equal(r[s], r_s)
            _assert_same_reflector(refl, s, refl_s)
            np.testing.assert_array_equal(updated[s], unmqr(refl_s, c[s]))

    @pytest.mark.parametrize("g", STACKS)
    @pytest.mark.parametrize("top, bottom, cols", [(8, 8, 8), (8, 5, 3)])
    @pytest.mark.parametrize("factor, update", [(tsqrt, tsmqr), (ttqrt, ttmqr)])
    def test_pair_kernels(self, rng, g, top, bottom, cols, factor, update):
        r_top = np.triu(rng.standard_normal((g, top, cols)))
        a_bot = rng.standard_normal((g, bottom, cols))
        a_bot[0, :, 0] = 0.0
        c_top = rng.standard_normal((g, top, 5))
        c_bot = rng.standard_normal((g, bottom, 5))
        new_top, new_bot, refl = factor(r_top, a_bot)
        assert refl.t[0, 0, 0] == 0.0
        got_top, got_bot = update(refl, c_top, c_bot)
        for s in range(g):
            top_s, bot_s, refl_s = factor(r_top[s], a_bot[s])
            np.testing.assert_array_equal(new_top[s], top_s)
            np.testing.assert_array_equal(new_bot[s], bot_s)
            _assert_same_reflector(refl, s, refl_s)
            want_top, want_bot = update(refl_s, c_top[s], c_bot[s])
            np.testing.assert_array_equal(got_top[s], want_top)
            np.testing.assert_array_equal(got_bot[s], want_bot)

    def test_checks_raise_on_stacks(self, rng):
        a = rng.standard_normal((3, 8, 8))
        short = rng.standard_normal((3, 5, 8))
        _, panel = geqrt(a)
        _, _, ts = tsqrt(np.triu(a), rng.standard_normal((3, 8, 8)))
        _, _, tt = ttqrt(np.triu(a), np.triu(a))
        with pytest.raises(ValueError, match="GEQRT reflector"):
            unmqr(ts, a)
        with pytest.raises(ValueError, match="row mismatch"):
            unmqr(panel, short)
        with pytest.raises(ValueError, match="TSQRT reflector"):
            tsmqr(tt, a, a)
        with pytest.raises(ValueError, match="TTQRT reflector"):
            ttmqr(ts, a, a)
        with pytest.raises(ValueError, match="split"):
            tsmqr(ts, short, a)
        with pytest.raises(ValueError, match="stacked row count"):
            ttmqr(tt, a, short)
        with pytest.raises(ValueError, match="column mismatch"):
            tsqrt(a, rng.standard_normal((3, 8, 5)))
