"""Unit and property tests for the Householder machinery.

:func:`householder_vector` (``dlarfg``) builds the reference QR loop that
the LAPACK panel kernel (``geqrt``, one ``dgeqrt`` call) is checked
against, on ordinary and hostile tiles.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.kernels.householder import householder_vector
from repro.kernels.qr_kernels import geqrt, tsmqr, tsqrt, unmqr

EPS = np.finfo(float).eps


def reference_qr(a):
    """Column-by-column Householder QR: the differential oracle.

    One ``householder_vector`` and one rank-1 update per column, then the
    ``dlarft`` recursion for ``T`` column by column; returns ``(V, T, R)``,
    ``V`` unit lower trapezoidal with zeros above the diagonal.
    """
    a = np.array(a, dtype=float, copy=True)
    m, n = a.shape
    k = min(m, n)
    v = np.zeros((m, k))
    taus = np.zeros(k)
    for j in range(k):
        vec, tau, beta = householder_vector(a[j:, j])
        v[j:, j] = vec
        taus[j] = tau
        a[j, j] = beta
        a[j + 1 :, j] = 0.0
        if tau != 0.0 and j + 1 < n:
            a[j:, j + 1 :] -= np.outer(vec, tau * (vec @ a[j:, j + 1 :]))
    t = np.zeros((k, k))
    for j in range(k):
        t[j, j] = taus[j]
        if j > 0 and taus[j] != 0.0:
            t[:j, j] = -taus[j] * (t[:j, :j] @ (v[:, :j].T @ v[:, j]))
    return v, t, a


def _hostile_qr_inputs():
    """Extreme scales, degenerate structure and edge shapes for geqrt."""
    gen = np.random.default_rng(2017)
    a = gen.standard_normal((16, 16))
    zero_column = a.copy()
    zero_column[:, 5] = 0.0
    upper = np.triu(gen.standard_normal((16, 16)))
    cases = {
        "scale-1e-162": a * 1e-162,
        "scale-2e-309-subnormal": a * 2e-309,
        "scale-1e150": a * 1e150,
        "zero": np.zeros((16, 16)),
        "zero-column": zero_column,
        "rank-1": np.outer(gen.standard_normal(16), gen.standard_normal(16)),
        "upper-triangular": upper,
        "stacked-r-over-zero": np.vstack([upper, np.zeros((16, 16))]),
        "1x1": gen.standard_normal((1, 1)),
        "1x5": gen.standard_normal((1, 5)),
        "10x16": gen.standard_normal((10, 16)),
        "16x10": gen.standard_normal((16, 10)),
    }
    return [pytest.param(case, id=name) for name, case in cases.items()]


def finite_vectors(min_size=1, max_size=12):
    return hnp.arrays(
        dtype=np.float64,
        shape=st.integers(min_value=min_size, max_value=max_size),
        elements=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    )


class TestHouseholderVector:
    def test_annihilates_tail(self, rng):
        x = rng.standard_normal(7)
        v, tau, beta = householder_vector(x)
        h = np.eye(7) - tau * np.outer(v, v)
        y = h @ x
        assert y[0] == pytest.approx(beta, rel=1e-12)
        np.testing.assert_allclose(y[1:], 0.0, atol=1e-12)

    def test_norm_preserved(self, rng):
        x = rng.standard_normal(5)
        _, _, beta = householder_vector(x)
        assert abs(beta) == pytest.approx(np.linalg.norm(x), rel=1e-12)

    def test_already_aligned(self):
        x = np.array([3.0, 0.0, 0.0])
        v, tau, beta = householder_vector(x)
        assert tau == 0.0
        assert beta == 3.0

    def test_single_element(self):
        v, tau, beta = householder_vector(np.array([-2.5]))
        assert tau == 0.0
        assert beta == -2.5

    @pytest.mark.parametrize("scale", [7.24853263e-162, 1e-200, 1e180])
    def test_extreme_magnitudes_stay_orthogonal(self, scale):
        # Squared entries under/overflow double precision; the dlarfg-style
        # rescaling must keep the reflector orthogonal (hypothesis found the
        # 7.2e-162 case).
        x = np.array([1.0, 1.0]) * scale
        v, tau, beta = householder_vector(x)
        h = np.eye(x.size) - tau * np.outer(v, v)
        np.testing.assert_allclose(h @ h, np.eye(x.size), atol=1e-12)
        assert abs(beta) == pytest.approx(np.sqrt(2.0) * scale, rel=1e-12)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            householder_vector(np.array([]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="entry 1 is"):
            householder_vector(np.array([1.0, bad, 2.0]))

    @settings(max_examples=50, deadline=None)
    @given(x=finite_vectors())
    def test_property_reflection(self, x):
        v, tau, beta = householder_vector(x)
        h = np.eye(x.size) - tau * np.outer(v, v)
        y = h @ x
        np.testing.assert_allclose(y[1:], 0.0, atol=1e-9 * max(1.0, np.linalg.norm(x)))
        # H is orthogonal and symmetric (an elementary reflector).
        np.testing.assert_allclose(h @ h, np.eye(x.size), atol=1e-12)


def _unit_lower(refl):
    """The reflector's ``V`` as an explicit unit lower trapezoid."""
    v = np.tril(refl.v, -1)
    k = v.shape[1]
    v[np.arange(k), np.arange(k)] = 1.0
    return v


class TestGeqrtKernel:
    """The LAPACK panel kernel against the reference loop and hostile tiles.

    ``Q`` is formed by applying the update kernel to the identity.
    """

    @pytest.mark.parametrize(
        "shape",
        [(4, 4), (6, 3), (3, 3), (8, 5), (5, 1), (1, 1)] + _hostile_qr_inputs(),
    )
    def test_factorization(self, shape, rng):
        # A shape draws a standard normal matrix; the hostile inputs are
        # the matrix itself.
        a = rng.standard_normal(shape) if isinstance(shape, tuple) else shape
        m, n = a.shape
        r, refl = geqrt(a)
        q = unmqr(refl, np.eye(m)).T
        tol = 10 * max(m, n) * EPS
        # R upper trapezoidal, exactly
        assert not np.tril(r, -1).any()
        # A = Q R, relative to the input's scale (max norms: no squares to
        # under- or overflow at the extreme scales)
        assert np.max(np.abs(q @ r - a)) <= tol * np.max(np.abs(a))
        # Q orthogonal
        assert np.max(np.abs(q.T @ q - np.eye(m))) <= tol
        # T's blocks are upper triangular; a length-1 last reflector is
        # the identity (tau = 0 on T's diagonal).
        ib, k = refl.t.shape
        for start in range(0, k, ib):
            block = refl.t[:, start : start + ib]
            assert not np.tril(block[: block.shape[1]], -1).any()
        if m <= n:
            assert refl.t[(k - 1) % ib, k - 1] == 0.0

    @pytest.mark.parametrize("shape", [(16, 16), (32, 16), (32, 32), (10, 16), (16, 10), (7, 1)])
    def test_matches_reference_loop(self, shape, rng):
        # ib = 32 >= k: one block, so T is the reference's k x k T.
        a = rng.standard_normal(shape)
        r, refl = geqrt(a, 32)
        v0, t0, r0 = reference_qr(a)
        for got, want in ((_unit_lower(refl), v0), (refl.t, t0), (r, r0)):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        k = min(shape)
        np.testing.assert_array_equal(np.sign(np.diagonal(r)[:k]), np.sign(np.diagonal(r0)[:k]))

    def test_t_factor_matches_product_of_reflectors(self, rng):
        a = rng.standard_normal((5, 5))
        _, refl = geqrt(a, 32)
        # Rebuild Q from the individual reflectors and compare.
        q_ref = np.eye(5)
        v, taus = _unit_lower(refl), np.diagonal(refl.t)
        for j in range(5):
            h = np.eye(5) - taus[j] * np.outer(v[:, j], v[:, j])
            q_ref = q_ref @ h
        np.testing.assert_allclose(unmqr(refl, np.eye(5)).T, q_ref, atol=1e-12)

    def test_update_kernels_do_not_modify_inputs(self, rng):
        a = rng.standard_normal((4, 4))
        c = rng.standard_normal((4, 2))
        c_copy = c.copy()
        _, refl = geqrt(a)
        unmqr(refl, c)
        np.testing.assert_array_equal(c, c_copy)
        _, _, pair = tsqrt(np.triu(a), rng.standard_normal((4, 4)))
        c_bottom = rng.standard_normal((4, 2))
        bottom_copy = c_bottom.copy()
        tsmqr(pair, c, c_bottom)
        np.testing.assert_array_equal(c, c_copy)
        np.testing.assert_array_equal(c_bottom, bottom_copy)
