"""Tests for the band container, BND2BD and BD2VAL."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.band import BandBidiagonal
from repro.algorithms.bd2val import (
    ConvergenceError,
    bdsqr,
    bidiagonal_singular_values,
    bidiagonal_sv_bisection,
    bidiagonal_to_dense,
)
from repro.algorithms.bnd2bd import band_to_bidiagonal
from repro.api import SvdPlan, execute
from repro.kernels import flapack

#: Kinds of the ``structured_band`` fixture.
STRUCTURED = ("zero", "rank-1", "bidiagonal", "exact-zeros")

EPS = np.finfo(float).eps


def _sv(a):
    return np.linalg.svd(a, compute_uv=False)


def _random_band(n, bw, rng):
    a = np.triu(rng.standard_normal((n, n)))
    a = np.triu(a) - np.triu(a, bw + 1)
    return a


def _givens(f, g):
    """Return ``(c, s, r)`` with ``c*f + s*g = r`` and ``-s*f + c*g = 0``."""
    if g == 0.0:
        return 1.0, 0.0, f
    if f == 0.0:
        return 0.0, 1.0, g
    r = math.hypot(f, g)
    return f / r, g / r, r


def _rotate(x, y, c, s):
    """``(x, y) := (c x + s y, -s x + c y)`` on two views, in place."""
    x[:], y[:] = c * x + s * y, -s * x + c * y


def reference_chase(a, bw):
    """Givens bulge chase: the differential oracle of BND2BD.

    One rotation per annihilated band element and one per bulge step, each
    spanning a whole row or column prefix, so the chase costs ``O(n^3)``;
    returns ``(d, e)`` like :func:`band_to_bidiagonal`.
    """
    b = np.array(a, dtype=float, copy=True)
    n = b.shape[0]
    for i in range(n - 1):
        # Annihilate row i beyond the superdiagonal, rightmost first.
        for j in range(min(i + bw, n - 1), i + 1, -1):
            if b[i, j] == 0.0:
                continue
            # Column rotation (j-1, j); may create a bulge at (j, j-1).
            c, s, _ = _givens(b[i, j - 1], b[i, j])
            _rotate(b[: j + 1, j - 1], b[: j + 1, j], c, s)
            b[i, j] = 0.0
            row, col = j, j - 1
            while b[row, col] != 0.0:
                # Row rotation (col, row) removing the subdiagonal bulge;
                # may create a bulge above the band at (col, row + bw).
                c, s, _ = _givens(b[col, col], b[row, col])
                _rotate(b[col, col:], b[row, col:], c, s)
                b[row, col] = 0.0
                fill = row + bw
                if fill >= n or b[col, fill] == 0.0:
                    break
                # Column rotation (fill-1, fill) removing it; may create the
                # next subdiagonal bulge at (fill, fill - 1).
                c, s, _ = _givens(b[col, fill - 1], b[col, fill])
                _rotate(b[: fill + 1, fill - 1], b[: fill + 1, fill], c, s)
                b[col, fill] = 0.0
                row, col = fill, fill - 1
    return np.diagonal(b).copy(), np.diagonal(b, offset=1).copy()


class TestBandContainer:
    def test_from_dense_round_trip(self, rng):
        dense = _random_band(10, 3, rng)
        band = BandBidiagonal.from_dense(dense, 3)
        np.testing.assert_allclose(band.to_dense(), dense)

    def test_getitem_outside_band_is_zero(self, rng):
        band = BandBidiagonal.from_dense(_random_band(8, 2, rng), 2)
        assert band[5, 1] == 0.0
        assert band[0, 7] == 0.0

    def test_setitem_outside_band_raises(self):
        band = BandBidiagonal.zeros(6, 2)
        with pytest.raises(IndexError):
            band[0, 5] = 1.0
        with pytest.raises(IndexError):
            band[3, 1] = 1.0

    def test_getitem_out_of_matrix_raises(self):
        band = BandBidiagonal.zeros(6, 2)
        with pytest.raises(IndexError):
            _ = band[6, 0]

    def test_frobenius_norm(self, rng):
        dense = _random_band(9, 3, rng)
        band = BandBidiagonal.from_dense(dense, 3)
        assert band.frobenius_norm() == pytest.approx(np.linalg.norm(dense))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            BandBidiagonal.from_dense(np.zeros((3, 4)), 1)

    def test_copy_is_deep(self, rng):
        band = BandBidiagonal.from_dense(_random_band(6, 2, rng), 2)
        dup = band.copy()
        dup.data[:] = 0.0
        assert band.frobenius_norm() > 0


class TestBnd2Bd:
    @pytest.mark.parametrize(
        "n,bw,kind",
        [
            pytest.param(n, bw, "random", id=f"{n}-{bw}")
            for n, bw in [(8, 2), (12, 3), (20, 4), (15, 5), (10, 9)]
        ]
        + [pytest.param(12, 4, kind, id=kind) for kind in STRUCTURED],
    )
    def test_preserves_singular_values(self, n, bw, kind, rng, structured_band):
        if kind == "random":
            dense = _random_band(n, bw, rng)
        else:
            dense = structured_band(kind, n, bw)
        d, e = band_to_bidiagonal(dense, bandwidth=bw)
        b = bidiagonal_to_dense(d, e)
        np.testing.assert_allclose(np.sort(_sv(b)), np.sort(_sv(dense)), atol=1e-9)

    @pytest.mark.parametrize(
        "rows",
        [
            # Sweep 0 swaps columns 1 and 3, then rows 1 and 3, which drops
            # row 1's entry to (3, 2) below the diagonal.  Sweep 1's right
            # reflector has tau = 0; its left reflector must still run.
            pytest.param(
                [[0, 0, 0, -2], [0, 0, 2, 0], [0, 0, 0, 0], [0, 0, 0, 2]],
                id="right-tau-zero",
            ),
            # Sweep 1's left reflector has tau = 0 while row 2 still holds
            # sweep 0's spill at (2, 6); the next right reflector clears it.
            pytest.param(
                [
                    [0, 0, 0, 1, 0, 0, 0],
                    [0, 0, 0, 0, 0, 0, 0],
                    [0, 0, -3, 0, -3, 0, 0],
                    [0, 0, 0, 2, 1, 0, -3],
                    [0, 0, 0, 0, 0, 0, 0],
                    [0, 0, 0, 0, 0, -1, 0],
                    [0, 0, 0, 0, 0, 0, 0],
                ],
                id="left-tau-zero",
            ),
        ],
    )
    def test_zero_reflector_does_not_end_the_sweep(self, rows):
        dense = np.array(rows, dtype=float)
        b = bidiagonal_to_dense(*band_to_bidiagonal(dense, bandwidth=3))
        np.testing.assert_allclose(np.sort(_sv(b)), np.sort(_sv(dense)), atol=1e-12)

    @pytest.mark.parametrize(
        "m,n,nb",
        [(1536, 96, 16), (256, 256, 32)],
        ids=["numeric-tall", "numeric-square"],
    )
    def test_matches_givens_oracle_at_harness_bands(self, m, n, nb):
        # The GE2BND bands of the benchmark harness's numeric workloads.
        a = np.random.default_rng(1).standard_normal((m, n))
        plan = SvdPlan(matrix=a, tile_size=nb, stage="ge2bnd", tree="greedy")
        band = execute(plan, "numeric").extras["band"]
        got = bidiagonal_singular_values(*band_to_bidiagonal(band))
        want = bidiagonal_singular_values(
            *reference_chase(band.to_dense(), band.bandwidth)
        )
        assert np.max(np.abs(got - want)) <= 1e-14 * want[0]

    def test_accepts_band_container(self, rng):
        dense = _random_band(12, 3, rng)
        band = BandBidiagonal.from_dense(dense, 3)
        d, e = band_to_bidiagonal(band)
        np.testing.assert_allclose(
            np.sort(_sv(bidiagonal_to_dense(d, e))), np.sort(_sv(dense)), atol=1e-9
        )

    def test_already_bidiagonal_is_identity(self, rng):
        n = 7
        d_in = rng.standard_normal(n)
        e_in = rng.standard_normal(n - 1)
        dense = bidiagonal_to_dense(d_in, e_in)
        d, e = band_to_bidiagonal(dense, bandwidth=1)
        np.testing.assert_allclose(d, d_in)
        np.testing.assert_allclose(e, e_in)

    def test_single_element(self):
        d, e = band_to_bidiagonal(np.array([[3.0]]), bandwidth=1)
        assert d[0] == 3.0
        assert e.size == 0

    def test_requires_bandwidth_for_dense_input(self, rng):
        with pytest.raises(ValueError):
            band_to_bidiagonal(_random_band(5, 2, rng))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            band_to_bidiagonal(np.zeros((3, 4)), bandwidth=1)

    @pytest.mark.parametrize(
        "where", [(3, 1), (0, 3), (5, 0)], ids=["below-diagonal", "past-bandwidth", "corner"]
    )
    def test_rejects_entries_outside_the_band(self, where, rng):
        dense = _random_band(6, 2, rng)
        dense[where] = 0.5
        with pytest.raises(ValueError, match=rf"bandwidth 2: entry \({where[0]}, {where[1]}\)"):
            band_to_bidiagonal(dense, bandwidth=2)

    def test_rejects_a_full_matrix_at_a_narrow_bandwidth(self):
        # A seed-0 6 x 6 standard normal: σ_max 3.206, its band's 2.376.
        dense = np.random.default_rng(0).standard_normal((6, 6))
        with pytest.raises(ValueError, match=r"entry \(0, 3\) is"):
            band_to_bidiagonal(dense, bandwidth=2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_band(self, bad, rng):
        dense = _random_band(8, 3, rng)
        dense[2, 4] = bad
        dense[5, 6] = np.nan
        with pytest.raises(ValueError, match=rf"\(2, 4\) is {bad}"):
            band_to_bidiagonal(dense, bandwidth=3)

    def test_factors_with_more_rows_than_n(self, rng):
        # bdsqr's u may have more rows than n and its vt more columns
        # (LAPACK's NRU and NCVT): BND2BD's factors times outer ones.
        n, bw = 11, 4
        a = _random_band(n, bw, rng)
        q1, _ = np.linalg.qr(rng.standard_normal((n + 9, n)))
        q2, _ = np.linalg.qr(rng.standard_normal((n, n + 5)).T)
        d, e, q, pt = band_to_bidiagonal(a, bandwidth=bw, vectors=True)
        res = bdsqr(d, e, u=np.asfortranarray(q1 @ q), vt=np.asfortranarray(pt @ q2.T))
        assert res.u.shape == (n + 9, n) and res.vt.shape == (n, n + 5)
        np.testing.assert_allclose(
            (res.u * res.singular_values) @ res.vt, q1 @ a @ q2.T, atol=1e-12
        )

    def test_zero_band_row_stays_zero(self, rng):
        # Nothing to annihilate in row 0: it comes out as d[0] = e[0] = 0.
        n, bw = 10, 3
        a = _random_band(n, bw, rng)
        a[0] = 0.0
        d, e, q, pt = band_to_bidiagonal(a, bandwidth=bw, vectors=True)
        assert d[0] == 0.0 and e[0] == 0.0
        b = bidiagonal_to_dense(d, e)
        np.testing.assert_allclose(q @ b @ pt, a, atol=1e-12)
        assert np.max(np.abs(_sv(b) - _sv(a))) <= 16 * n * EPS * _sv(a)[0]

    def test_bandwidth_n_minus_one(self, rng):
        # A full upper triangle: every sweep starts n - i - 2 bulges deep.
        n = 13
        a = np.triu(rng.standard_normal((n, n)))
        d, e, u, vt = band_to_bidiagonal(a, bandwidth=n - 1, vectors=True)
        b = bidiagonal_to_dense(d, e)
        np.testing.assert_allclose(u @ b @ vt, a, atol=1e-12)
        want = bidiagonal_singular_values(*reference_chase(a, n - 1))
        assert np.max(np.abs(bidiagonal_singular_values(d, e) - want)) <= 1e-14 * want[0]


def _assert_values(d, e):
    """``bidiagonal_singular_values`` within ``16·n·ε·σ_max`` of numpy's
    ``dgesdd`` on the dense bidiagonal and of the bisection."""
    d, e = np.asarray(d, dtype=float), np.asarray(e, dtype=float)
    n = d.size
    got = bidiagonal_singular_values(d, e)
    want = _sv(bidiagonal_to_dense(d, e))
    assert got.shape == (n,) and np.all(np.diff(got) <= 0) and np.all(got >= 0)
    bar = 16 * n * EPS * want[0]
    assert np.max(np.abs(got - want)) <= bar
    assert np.max(np.abs(got - bidiagonal_sv_bisection(d, e, tol=EPS))) <= bar


class TestBd2ValLapack:
    """The values path: one ``dbdsqr`` call without vectors (dqds)."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_smallest_sizes(self, n, rng):
        _assert_values(rng.standard_normal(n), rng.standard_normal(n - 1))

    @pytest.mark.parametrize("where", [0, 7, 15], ids=["first", "middle", "last"])
    def test_zero_diagonal_entries(self, where, rng):
        d, e = rng.standard_normal(16), rng.standard_normal(15)
        d[where] = 0.0
        _assert_values(d, e)

    def test_zero_superdiagonal_entries_split_the_matrix(self, rng):
        d, e = rng.standard_normal(20), rng.standard_normal(19)
        e[[0, 6, 7, 18]] = 0.0
        _assert_values(d, e)

    @pytest.mark.parametrize("n", [1, 2, 9])
    def test_zero_matrix_gives_exact_zeros(self, n):
        got = bidiagonal_singular_values(np.zeros(n), np.zeros(n - 1))
        np.testing.assert_array_equal(got, np.zeros(n))

    def test_graded(self):
        n = 40
        _assert_values(2.0 ** -np.arange(n), 2.0 ** -np.arange(0.5, n - 1))

    def test_clustered(self, rng):
        n = 40
        _assert_values(1.0 + 1e-12 * rng.standard_normal(n), 1e-9 * rng.standard_normal(n - 1))

    @pytest.mark.parametrize("scale", [1e300, 1e-300])
    def test_scaled_to_the_ends_of_the_range(self, scale, rng):
        _assert_values(scale * rng.standard_normal(24), scale * rng.standard_normal(23))

    def test_entries_spanning_three_hundred_orders(self):
        # dsterf on the Golub–Kahan tridiagonal misses σ by 5.5e-4·σ_max here.
        rng = np.random.default_rng(13)
        d = rng.standard_normal(64) * 10.0 ** rng.uniform(-150, 150, 64)
        e = rng.standard_normal(63) * 10.0 ** rng.uniform(-150, 150, 63)
        _assert_values(d, e)

    @pytest.mark.parametrize(
        "solver", [bidiagonal_singular_values, bdsqr], ids=["values", "vectors"]
    )
    def test_dbdsqr_failure_raises_convergence_error(self, solver, monkeypatch):
        d, e = np.arange(1.0, 5.0), np.ones(3)
        monkeypatch.setattr(flapack, "dbdsqr", lambda *args: 2)
        with pytest.raises(ConvergenceError, match="dbdsqr") as caught:
            solver(d, e)
        assert isinstance(caught.value, RuntimeError)
        assert caught.value.info == 2
        np.testing.assert_array_equal(caught.value.d, d)
        np.testing.assert_array_equal(caught.value.e, e)


class TestBd2Val:
    def test_matches_numpy(self, rng):
        n = 30
        d = rng.standard_normal(n)
        e = rng.standard_normal(n - 1)
        ref = np.sort(_sv(bidiagonal_to_dense(d, e)))[::-1]
        got = bidiagonal_singular_values(d, e)
        np.testing.assert_allclose(got, ref, atol=1e-10 * max(1, ref[0]))

    def test_bisection_matches_qr_iteration(self, rng):
        n = 20
        d = rng.standard_normal(n)
        e = rng.standard_normal(n - 1)
        qr_vals = bidiagonal_singular_values(d, e)
        bis_vals = bidiagonal_sv_bisection(d, e)
        np.testing.assert_allclose(bis_vals, qr_vals, atol=1e-8 * max(1, qr_vals[0]))

    @pytest.mark.parametrize("scale", [1e-20, 1e-300, 1e200])
    def test_bisection_at_any_scale(self, scale):
        # The stopping rule is relative to the Gershgorin bound and the Sturm
        # counts run rescaled: at 1e-20 an absolute rule stopped at once,
        # and at 1e200 the squared entries overflowed.
        rng = np.random.default_rng(0)
        d, e = rng.standard_normal(5), rng.standard_normal(4)
        want = _sv(bidiagonal_to_dense(d, e))
        got = bidiagonal_sv_bisection(scale * d, scale * e)
        assert np.max(np.abs(got / scale - want)) <= 1e-10 * want[0]

    def test_diagonal_matrix(self):
        d = np.array([3.0, -1.0, 2.0])
        e = np.zeros(2)
        np.testing.assert_allclose(bidiagonal_singular_values(d, e), [3.0, 2.0, 1.0])

    def test_zero_diagonal_entry(self, rng):
        d = np.array([2.0, 0.0, 1.0, 4.0])
        e = np.array([1.0, 1.5, 0.5])
        ref = np.sort(_sv(bidiagonal_to_dense(d, e)))[::-1]
        got = bidiagonal_singular_values(d, e)
        np.testing.assert_allclose(got, ref, atol=1e-10)

    def test_single_value(self):
        np.testing.assert_allclose(bidiagonal_singular_values([-5.0], []), [5.0])
        np.testing.assert_allclose(bidiagonal_sv_bisection([-5.0], []), [5.0], atol=1e-10)

    def test_empty(self):
        assert bidiagonal_singular_values([], []).size == 0
        assert bidiagonal_sv_bisection([], []).size == 0

    def test_wrong_superdiagonal_length(self):
        with pytest.raises(ValueError):
            bidiagonal_singular_values([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            bidiagonal_sv_bisection([1.0, 2.0], [1.0, 2.0])

    def test_bidiagonal_to_dense_validates(self):
        with pytest.raises(ValueError):
            bidiagonal_to_dense([1.0, 2.0], [1.0, 2.0])

    @pytest.mark.parametrize(
        "solver",
        [bidiagonal_singular_values, bdsqr, bidiagonal_sv_bisection, bidiagonal_to_dense],
    )
    @pytest.mark.parametrize(
        "d,e,message",
        [
            ([1.0, np.inf, 2.0], [1.0, np.nan], r"d\[1\] is inf"),
            ([1.0, 2.0, np.nan], [1.0, 1.0], r"d\[2\] is nan"),
            ([1.0, 2.0, 3.0], [1.0, -np.inf], r"e\[1\] is -inf"),
        ],
        ids=["inf-in-d", "nan-in-d", "inf-in-e"],
    )
    def test_rejects_non_finite_diagonals(self, solver, d, e, message):
        with pytest.raises(ValueError, match=message):
            solver(d, e)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(min_value=1, max_value=25), seed=st.integers(min_value=0, max_value=10**6))
    def test_property_random_bidiagonals(self, n, seed):
        rng = np.random.default_rng(seed)
        d = rng.standard_normal(n)
        e = rng.standard_normal(max(n - 1, 0))
        ref = np.sort(_sv(bidiagonal_to_dense(d, e)))[::-1]
        got = bidiagonal_singular_values(d, e)
        np.testing.assert_allclose(got, ref, atol=1e-8 * max(1.0, abs(ref[0])))


class TestBdsqrScaling:
    @pytest.mark.parametrize("exponent", [-1020, 1000])
    def test_vectors_at_the_ends_of_the_range(self, exponent):
        # dbdsqr's QR iteration (the vectors path) does not scale its input;
        # bdsqr runs it on (d, e) rescaled by a power of two.
        n = 24
        rng = np.random.default_rng(3)
        d = np.ldexp(rng.standard_normal(n), exponent)
        e = np.ldexp(rng.standard_normal(n - 1), exponent)
        res = bdsqr(d, e)
        want = np.ldexp(_sv(bidiagonal_to_dense(np.ldexp(d, -exponent), np.ldexp(e, -exponent))),
                        exponent)
        assert np.max(np.abs(res.singular_values - want)) <= 16 * n * EPS * want[0]
        assert np.max(np.abs(res.u.T @ res.u - np.eye(n))) <= 16 * n * EPS
        assert np.max(np.abs(res.vt @ res.vt.T - np.eye(n))) <= 16 * n * EPS


class TestLapackWrappers:
    """The pointer wrappers check every array before LAPACK sees it."""

    @pytest.fixture
    def no_lapack(self, monkeypatch):
        def unreachable(name):
            raise AssertionError(f"{name} was called")

        monkeypatch.setattr(flapack, "_routine", unreachable)

    @pytest.mark.parametrize(
        "d,e",
        [
            (np.ones(4, dtype=np.float32), np.ones(3)),
            (np.ones(4), np.ones(2)),
            (np.ones(8)[::2], np.ones(3)),
            (np.ones(4), np.ones(3, dtype=np.int64)),
        ],
        ids=["float32", "too-short", "strided", "int"],
    )
    def test_dbdsqr_rejects_bad_diagonals(self, d, e, no_lapack):
        with pytest.raises(ValueError, match="LAPACK argument"):
            flapack.dbdsqr(d, e)

    @pytest.mark.parametrize(
        "u,vt",
        [
            (np.eye(4), None),
            (None, np.eye(4, dtype=np.float32, order="F")),
            (np.eye(3, order="F"), None),
            (None, np.ones((3, 4), order="F")),
        ],
        ids=["u-c-ordered", "vt-float32", "u-too-narrow", "vt-too-short"],
    )
    def test_dbdsqr_rejects_bad_vectors(self, u, vt, no_lapack):
        with pytest.raises(ValueError, match="LAPACK argument"):
            flapack.dbdsqr(np.ones(4), np.ones(3), vt, u)

    @pytest.mark.parametrize(
        "ab,q",
        [
            (np.ones((3, 6)), None),
            (np.ones((3, 6), dtype=np.float32, order="F"), None),
            (np.ones((3, 6), order="F"), np.ones((6, 5), order="F")),
            (np.ones((3, 6), order="F"), np.ones((6, 6))[:, ::-1]),
        ],
        ids=["ab-c-ordered", "ab-float32", "q-too-short", "q-reversed"],
    )
    def test_dgbbrd_rejects_bad_arrays(self, ab, q, no_lapack):
        with pytest.raises(ValueError, match="LAPACK argument"):
            flapack.dgbbrd(ab, q)

    def test_read_only_output_is_rejected(self, no_lapack):
        d = np.ones(4)
        d.flags.writeable = False
        with pytest.raises(ValueError, match="read-only"):
            flapack.dbdsqr(d, np.ones(3))
