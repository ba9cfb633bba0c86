"""Tests for the singular-vector pipeline (BND2BD with vectors, BDSQR, GESVD)."""

import numpy as np
import pytest

from repro.algorithms.band import BandBidiagonal
from repro.algorithms.bd2val import bdsqr, bidiagonal_singular_values
from repro.algorithms.bnd2bd import band_to_bidiagonal
from repro.api import SvdPlan, execute
from repro.utils.generators import latms


def _bidiagonal(d, e):
    n = d.size
    b = np.zeros((n, n))
    np.fill_diagonal(b, d)
    if n > 1:
        b[np.arange(n - 1), np.arange(1, n)] = e
    return b


def _random_band(n, bw, seed=0):
    rng = np.random.default_rng(seed)
    a = np.triu(rng.standard_normal((n, n)))
    return a - np.triu(a, bw + 1)


def _chase_uv(band, bandwidth=None):
    """BND2BD with its orthogonal factors: ``(d, e, u2, v2t)``."""
    return band_to_bidiagonal(band, bandwidth, vectors=True)


#: Random bands, then the kinds of the ``structured_band`` fixture.
BAND_KINDS = ["random", "zero", "rank-1", "bidiagonal", "exact-zeros"]


class TestBnd2bdUV:
    @pytest.mark.parametrize("kind", BAND_KINDS)
    def test_reconstruction(self, kind, structured_band):
        if kind == "random":
            a = _random_band(14, 4, seed=1)
        else:
            a = structured_band(kind, 14, 4)
        d, e, u2, v2t = _chase_uv(a, bandwidth=4)
        assert np.allclose(u2 @ _bidiagonal(d, e) @ v2t, a, atol=1e-12)

    @pytest.mark.parametrize("kind", BAND_KINDS)
    def test_orthogonality(self, kind, structured_band):
        if kind == "random":
            a = _random_band(10, 3, seed=2)
        else:
            a = structured_band(kind, 10, 3)
        _, _, u2, v2t = _chase_uv(a, bandwidth=3)
        assert np.allclose(u2.T @ u2, np.eye(10), atol=1e-12)
        assert np.allclose(v2t @ v2t.T, np.eye(10), atol=1e-12)

    def test_matches_vectorless_variant(self):
        a = _random_band(12, 5, seed=3)
        d1, e1 = band_to_bidiagonal(a, bandwidth=5)
        d2, e2, _, _ = _chase_uv(a, bandwidth=5)
        np.testing.assert_array_equal(d1, d2)
        np.testing.assert_array_equal(e1, e2)

    def test_accumulates_into_given_factors(self):
        # The NRU/NCVT convention: bdsqr post-multiplies u and pre-multiplies
        # vt in place, so BND2BD's factors and outer ones pass straight
        # through.
        a = _random_band(9, 3, seed=6)
        rng = np.random.default_rng(7)
        q1, _ = np.linalg.qr(rng.standard_normal((15, 9)))
        q2, _ = np.linalg.qr(rng.standard_normal((9, 9)))
        d, e, u2, v2t = _chase_uv(a, bandwidth=3)
        u, vt = np.asfortranarray(q1 @ u2), np.asfortranarray(v2t @ q2.T)
        res = bdsqr(d, e, u=u, vt=vt)
        assert res.u is u and res.vt is vt
        alone = bdsqr(d, e)
        np.testing.assert_allclose(u, q1 @ u2 @ alone.u, atol=1e-12)
        np.testing.assert_allclose(vt, alone.vt @ v2t @ q2.T, atol=1e-12)
        assert np.allclose((u * res.singular_values) @ vt, q1 @ a @ q2.T, atol=1e-12)

    @pytest.mark.parametrize(
        "n,bw,zero_row",
        [(1, 1, None), (2, 1, None), (9, 8, None), (9, 3, 4), (9, 8, 0)],
        ids=["n1", "n2", "bandwidth-n-minus-1", "zero-row", "full-zero-first-row"],
    )
    def test_vectors_reproduce_the_band(self, n, bw, zero_row):
        # gesvd's path: q and pt from BND2BD straight into bdsqr.
        a = _random_band(n, bw, seed=n + bw)
        if zero_row is not None:
            a[zero_row] = 0.0
        d, e, q, pt = _chase_uv(a, bandwidth=bw)
        bar = 16 * n * np.finfo(float).eps * max(np.linalg.norm(a, 2), 1.0)
        assert np.max(np.abs(q @ _bidiagonal(d, e) @ pt - a)) <= bar
        res = bdsqr(d, e, u=q, vt=pt)
        assert np.max(np.abs((res.u * res.singular_values) @ res.vt - a)) <= bar
        np.testing.assert_allclose(res.singular_values, np.linalg.svd(a, compute_uv=False),
                                   atol=bar)

    def test_band_container_input(self):
        a = _random_band(9, 2, seed=4)
        band = BandBidiagonal.from_dense(a, bandwidth=2)
        d, e, u2, v2t = _chase_uv(band)
        assert np.allclose(u2 @ _bidiagonal(d, e) @ v2t, a, atol=1e-12)

    def test_bandwidth_one_is_identity(self):
        a = _random_band(7, 1, seed=5)
        d, e, u2, v2t = _chase_uv(a, bandwidth=1)
        assert np.allclose(u2, np.eye(7))
        assert np.allclose(v2t, np.eye(7))
        assert np.allclose(d, np.diagonal(a))

    def test_trivial_sizes(self):
        d, e, u2, v2t = _chase_uv(np.array([[3.0]]), bandwidth=1)
        assert d.shape == (1,) and e.shape == (0,)
        assert u2.shape == (1, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            _chase_uv(np.zeros((3, 4)), bandwidth=2)
        with pytest.raises(ValueError):
            _chase_uv(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            _chase_uv(np.zeros((3, 3)), bandwidth=0)


def _random_20():
    rng = np.random.default_rng(2024)
    return rng.standard_normal(20), rng.standard_normal(19)


def _zero_diagonal_9():
    d = np.array([2.0, 0.0, 1.5, -3.0, 0.0, 0.5, 1.0, 4.0, 0.0])
    e = np.array([1.0, 1.5, 0.5, -2.0, 1.0, 0.25, 3.0, 1.0])
    return d, e


def _scaled_1e200_12():
    rng = np.random.default_rng(5)
    return rng.standard_normal(12) * 1e200, rng.standard_normal(11) * 1e200


_BDSQR_INPUTS = {
    "random-20": _random_20,
    "zero-diagonal-9": _zero_diagonal_9,
    "scaled-1e200-12": _scaled_1e200_12,
}


class TestBdsqr:
    def test_full_svd_of_bidiagonal(self):
        rng = np.random.default_rng(6)
        d = rng.standard_normal(15)
        e = rng.standard_normal(14)
        res = bdsqr(d, e)
        b = _bidiagonal(d, e)
        assert np.allclose(res.u @ np.diag(res.singular_values) @ res.vt, b, atol=1e-10)

    def test_values_match_valueonly_solver(self):
        # Two algorithms of dbdsqr (the QR iteration with vectors, dqds
        # without), each accurate to about eps·||B||.
        rng = np.random.default_rng(7)
        d = rng.standard_normal(20)
        e = rng.standard_normal(19)
        got = bdsqr(d, e).singular_values
        want = bidiagonal_singular_values(d, e)
        assert np.max(np.abs(got - want)) <= 16 * 20 * np.finfo(float).eps * want[0]

    @pytest.mark.parametrize("name", sorted(_BDSQR_INPUTS))
    def test_backward_error_and_orthogonality(self, name):
        # Within 16·n·ε: the zero-diagonal input splits on the zero and the
        # scaled one runs on the power-of-two rescaling.
        d, e = _BDSQR_INPUTS[name]()
        n = d.size
        res = bdsqr(d, e)
        bar = 16 * n * np.finfo(float).eps
        b = _bidiagonal(d, e)
        residual = (res.u * res.singular_values) @ res.vt - b
        assert np.max(np.abs(residual)) <= bar * res.singular_values[0]
        assert np.max(np.abs(res.u.T @ res.u - np.eye(n))) <= bar
        assert np.max(np.abs(res.vt @ res.vt.T - np.eye(n))) <= bar
        assert np.all(np.diff(res.singular_values) <= 0) and res.singular_values[-1] >= 0

    def test_orthogonality(self):
        rng = np.random.default_rng(8)
        d = rng.standard_normal(12)
        e = rng.standard_normal(11)
        res = bdsqr(d, e)
        assert np.allclose(res.u.T @ res.u, np.eye(12), atol=1e-11)
        assert np.allclose(res.vt @ res.vt.T, np.eye(12), atol=1e-11)

    def test_descending_nonnegative(self):
        rng = np.random.default_rng(9)
        res = bdsqr(rng.standard_normal(10), rng.standard_normal(9))
        s = res.singular_values
        assert np.all(s >= 0)
        assert np.all(np.diff(s) <= 1e-12)

    def test_zero_diagonal_entry(self):
        d = np.array([2.0, 0.0, 3.0, 1.0])
        e = np.array([1.0, 1.5, 0.5])
        res = bdsqr(d, e)
        b = _bidiagonal(d, e)
        assert np.allclose(res.singular_values, np.linalg.svd(b, compute_uv=False), atol=1e-10)
        assert np.allclose(res.u @ np.diag(res.singular_values) @ res.vt, b, atol=1e-10)

    def test_negative_diagonal_sign_fix(self):
        d = np.array([-3.0, 2.0])
        e = np.array([0.0])
        res = bdsqr(d, e)
        assert np.allclose(res.singular_values, [3.0, 2.0])
        assert np.allclose(res.u @ np.diag(res.singular_values) @ res.vt, _bidiagonal(d, e))

    def test_size_one_and_empty(self):
        res = bdsqr(np.array([-2.0]), np.array([]))
        assert np.allclose(res.singular_values, [2.0])
        empty = bdsqr(np.array([]), np.array([]))
        assert empty.singular_values.size == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            bdsqr(np.ones(4), np.ones(4))


def _gesvd(a, **plan):
    return execute(SvdPlan(matrix=a, stage="gesvd", **plan), backend="numeric")


def _reconstruct(res):
    return res.u @ np.diag(res.singular_values) @ res.vt


class TestGesvdTwoStage:
    @pytest.mark.parametrize("tree", ["flatts", "flattt", "greedy", "auto"])
    def test_reconstruction_all_trees(self, tree):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((18, 10))
        res = _gesvd(a, tile_size=4, tree=tree, n_cores=4)
        assert np.allclose(_reconstruct(res), a, atol=1e-10)

    def test_values_match_numpy(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((20, 12))
        res = _gesvd(a, tile_size=5)
        assert np.allclose(res.singular_values, np.linalg.svd(a, compute_uv=False), atol=1e-10)

    def test_vectors_orthonormal(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((16, 8))
        res = _gesvd(a, tile_size=4)
        assert np.allclose(res.u.T @ res.u, np.eye(8), atol=1e-10)
        assert np.allclose(res.vt @ res.vt.T, np.eye(8), atol=1e-10)

    def test_rbidiag_variant(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((30, 8))
        res = _gesvd(a, tile_size=4, variant="rbidiag")
        assert np.allclose(_reconstruct(res), a, atol=1e-10)

    def test_prescribed_singular_values(self):
        sv = np.array([10.0, 5.0, 2.0, 1.0, 0.5, 0.1])
        a = latms(18, 6, sv, seed=3)
        res = _gesvd(a, tile_size=3)
        assert np.allclose(res.singular_values, sv, atol=1e-10)

    def test_stage_timings_present(self):
        rng = np.random.default_rng(14)
        a = rng.standard_normal((12, 6))
        res = _gesvd(a, tile_size=3)
        assert set(res.stage_seconds) == {
            "ge2bnd",
            "accumulate_u1v1",
            "bnd2bd",
            "bd2val",
            "compose",
        }
        assert all(t >= 0 for t in res.stage_seconds.values())

    def test_square_matrix(self):
        rng = np.random.default_rng(15)
        a = rng.standard_normal((12, 12))
        res = _gesvd(a, tile_size=4)
        assert np.allclose(_reconstruct(res), a, atol=1e-10)
