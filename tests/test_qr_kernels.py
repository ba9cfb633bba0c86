"""Unit tests for the QR tile kernels (GEQRT/TSQRT/TTQRT and updates)."""

import numpy as np
import pytest

from repro.kernels.qr_kernels import geqrt, tsmqr, tsqrt, ttmqr, ttqrt, unmqr


def form_q(refl):
    """The orthogonal factor of ``refl``: its update kernel on the identity is ``Q^T``."""
    if refl.kind == "GEQRT":
        return unmqr(refl, np.eye(refl.v.shape[0])).T
    eye = np.eye(refl.split + refl.v.shape[0])
    update = tsmqr if refl.kind == "TSQRT" else ttmqr
    return np.vstack(update(refl, eye[: refl.split], eye[refl.split :])).T


class TestGeqrtUnmqr:
    def test_geqrt_triangularizes(self, rng):
        a = rng.standard_normal((5, 5))
        r, refl = geqrt(a)
        np.testing.assert_allclose(np.tril(r, -1), 0.0, atol=1e-12)
        q = form_q(refl)
        np.testing.assert_allclose(q @ r, a, atol=1e-12)

    def test_unmqr_applies_qt(self, rng):
        a = rng.standard_normal((4, 4))
        c = rng.standard_normal((4, 4))
        r, refl = geqrt(a)
        q = form_q(refl)
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
        q = form_q(refl)
        np.testing.assert_allclose(q @ r, a, atol=1e-12)


class TestTsqrtTsmqr:
    def test_tsqrt_zeroes_bottom(self, rng):
        r_top = np.triu(rng.standard_normal((4, 4)))
        a_bot = rng.standard_normal((4, 4))
        new_top, new_bot, refl = tsqrt(r_top, a_bot)
        np.testing.assert_array_equal(new_bot, 0.0)
        # Stacked factorization is exact.
        q = form_q(refl)
        stacked = np.vstack([r_top, a_bot])
        np.testing.assert_allclose(q @ np.vstack([new_top, new_bot]), stacked, atol=1e-12)

    def test_tsqrt_ragged_bottom(self, rng):
        r_top = np.triu(rng.standard_normal((4, 4)))
        a_bot = rng.standard_normal((2, 4))
        new_top, new_bot, refl = tsqrt(r_top, a_bot)
        assert new_bot.shape == (2, 4)
        q = form_q(refl)
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
        q = form_q(refl)
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
        q = form_q(refl)
        np.testing.assert_allclose(
            q @ np.vstack([new_top, new_bot]), np.vstack([r_top, r_bot]), atol=1e-12
        )

    def test_ttmqr_matches_explicit(self, rng):
        r_top = np.triu(rng.standard_normal((3, 3)))
        r_bot = np.triu(rng.standard_normal((3, 3)))
        _, _, refl = ttqrt(r_top, r_bot)
        c_top = rng.standard_normal((3, 5))
        c_bot = rng.standard_normal((3, 5))
        q = form_q(refl)
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


#: (top rows, bottom rows, columns) of the pair-kernel tests: square
#: tiles, then the ragged last tile row and column a tile grid can have.
PAIR_SHAPES = [(8, 8, 8), (8, 5, 3), (8, 3, 5), (8, 8, 1), (8, 1, 8), (1, 1, 1)]


class TestRaggedTilesAndInnerBlocking:
    """The kernels on every tile shape a grid has, at several ``ib``.

    ``ib`` blocks the ``T`` factor (``min(ib, k) x k``): it changes the
    rounding, never the factorization.
    """

    @pytest.mark.parametrize("ib", [1, 3, 32])
    @pytest.mark.parametrize("rows, cols", [(8, 8), (5, 3), (3, 5), (1, 8), (8, 1)])
    def test_geqrt(self, rng, rows, cols, ib):
        a = rng.standard_normal((rows, cols))
        r, refl = geqrt(a, ib)
        k = min(rows, cols)
        assert r.shape == a.shape and not np.tril(r, -1).any()
        assert refl.t.shape == (min(ib, k), k) and refl.v.shape == (rows, k)
        q = form_q(refl)
        np.testing.assert_allclose(q.T @ q, np.eye(rows), atol=1e-14)
        np.testing.assert_allclose(q @ r, a, atol=1e-13)
        np.testing.assert_allclose(r, geqrt(a, 1)[0], atol=1e-13)

    @pytest.mark.parametrize("ib", [1, 3, 32])
    @pytest.mark.parametrize("top, bottom, cols", PAIR_SHAPES)
    @pytest.mark.parametrize("factor, update", [(tsqrt, tsmqr), (ttqrt, ttmqr)])
    def test_pair_kernels(self, rng, top, bottom, cols, factor, update, ib):
        r_top = np.triu(rng.standard_normal((top, cols)))
        a_bot = rng.standard_normal((bottom, cols))
        if factor is ttqrt:
            a_bot = np.triu(a_bot)
        new_top, new_bot, refl = factor(r_top, a_bot, ib)
        k = cols
        assert new_top.shape == r_top.shape and not np.tril(new_top, -1).any()
        np.testing.assert_array_equal(new_bot, np.zeros_like(a_bot))
        assert refl.t.shape == (min(ib, k), k) and refl.v.shape == (bottom, k)
        assert refl.tri_rows == (min(bottom, k) if factor is ttqrt else 0)
        # Q^T maps the factored pair onto [R; 0] ...
        got_top, got_bot = update(refl, r_top, a_bot)
        np.testing.assert_allclose(got_top, new_top, atol=1e-13)
        np.testing.assert_allclose(got_bot, 0.0, atol=1e-13)
        # ... and Q is orthogonal with Q [R; 0] = [top; bottom].
        q = form_q(refl)
        np.testing.assert_allclose(q.T @ q, np.eye(top + bottom), atol=1e-14)
        np.testing.assert_allclose(
            q @ np.vstack([new_top, new_bot]), np.vstack([r_top, a_bot]), atol=1e-13
        )
        # The pivot's rows below its k x k triangle are neither read nor
        # changed, by the factor kernel and by its update.
        np.testing.assert_array_equal(new_top[k:], r_top[k:])
        c_top, c_bot = rng.standard_normal((top, 4)), rng.standard_normal((bottom, 4))
        np.testing.assert_array_equal(update(refl, c_top, c_bot)[0][k:], c_top[k:])

    def test_tt_reads_only_the_upper_trapezoid_of_the_bottom(self, rng):
        r_top = np.triu(rng.standard_normal((6, 6)))
        r_bot = np.triu(rng.standard_normal((6, 6)))
        junk = r_bot + np.tril(rng.standard_normal((6, 6)), -1)
        np.testing.assert_array_equal(ttqrt(r_top, junk)[0], ttqrt(r_top, r_bot)[0])

    def test_pivot_must_hold_a_triangle(self, rng):
        with pytest.raises(ValueError, match="triangle"):
            tsqrt(rng.standard_normal((3, 5)), rng.standard_normal((5, 5)))

    def test_pair_update_checks_the_bottom_rows(self, rng):
        r_top, r_bot = (np.triu(rng.standard_normal((8, 8))) for _ in range(2))
        _, _, refl = ttqrt(r_top, r_bot)
        with pytest.raises(ValueError, match="stacked row count"):
            ttmqr(refl, rng.standard_normal((8, 4)), rng.standard_normal((5, 4)))
