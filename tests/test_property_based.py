"""Property-based tests (hypothesis) for the core numerical and planning invariants."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.band import BandBidiagonal
from repro.algorithms.bd2val import bdsqr, bidiagonal_singular_values, bidiagonal_sv_bisection
from repro.algorithms.bnd2bd import band_to_bidiagonal
from repro.kernels.householder import householder_vector
from repro.kernels.qr_kernels import geqrt, tsqrt, ttqrt, unmqr
from repro.tiles.layout import TileLayout
from repro.trees import AutoTree, FibonacciTree, FlatTSTree, FlatTTTree, GreedyTree
from repro.trees.base import PanelContext, validate_plan

SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

finite_vectors = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=12,
)


class TestHouseholderProperties:
    @given(x=finite_vectors)
    @settings(**SETTINGS)
    def test_householder_zeroes_tail(self, x):
        x = np.asarray(x)
        v, tau, beta = householder_vector(x)
        h = np.eye(x.size) - tau * np.outer(v, v)
        y = h @ x
        assert np.isclose(abs(y[0]), np.linalg.norm(x), rtol=1e-9, atol=1e-9)
        assert np.allclose(y[1:], 0.0, atol=1e-8 * max(1.0, np.linalg.norm(x)))

    @given(
        m=st.integers(min_value=1, max_value=10),
        n=st.integers(min_value=1, max_value=10),
        seed=st.integers(min_value=0, max_value=10**6),
        exponent=st.integers(min_value=-307, max_value=300),
    )
    @settings(**SETTINGS)
    def test_geqrt_reconstructs(self, m, n, seed, exponent):
        # Scaled over the whole double range, down to the edge of the
        # subnormals; the tolerances scale with the input.  Q is the
        # update kernel applied to the identity.
        scale = 10.0**exponent
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((m, n)) * scale
        r, refl = geqrt(a)
        q = unmqr(refl, np.eye(m)).T
        assert np.allclose(q @ r, a, rtol=0.0, atol=1e-9 * scale)
        assert np.allclose(q.T @ q, np.eye(m), atol=1e-9)
        assert np.allclose(np.tril(r[:, : min(m, n)], -1), 0.0, atol=1e-10 * scale)


class TestTileKernelProperties:
    @given(
        nb=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(**SETTINGS)
    def test_geqrt_unmqr_preserve_frobenius_norm(self, nb, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((nb, nb))
        c = rng.standard_normal((nb, nb))
        r, refl = geqrt(a)
        assert np.isclose(np.linalg.norm(r), np.linalg.norm(a), rtol=1e-9)
        assert np.isclose(np.linalg.norm(unmqr(refl, c)), np.linalg.norm(c), rtol=1e-9)

    @given(
        nb=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=10**6),
        use_tt=st.booleans(),
    )
    @settings(**SETTINGS)
    def test_ts_tt_elimination_preserves_stacked_norm(self, nb, seed, use_tt):
        rng = np.random.default_rng(seed)
        top = np.triu(rng.standard_normal((nb, nb)))
        bottom = np.triu(rng.standard_normal((nb, nb))) if use_tt else rng.standard_normal((nb, nb))
        kernel = ttqrt if use_tt else tsqrt
        new_top, new_bottom, _ = kernel(top, bottom)
        before = np.linalg.norm(np.vstack([top, bottom]))
        after = np.linalg.norm(np.vstack([new_top, new_bottom]))
        assert np.isclose(before, after, rtol=1e-9)
        assert np.allclose(new_bottom, 0.0, atol=1e-9 * max(1.0, before))


class TestBidiagonalSolversAgree:
    @given(
        n=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(**SETTINGS)
    def test_qr_iteration_and_bisection_agree(self, n, seed):
        rng = np.random.default_rng(seed)
        d = rng.standard_normal(n)
        e = rng.standard_normal(max(n - 1, 0))
        qr_vals = bidiagonal_singular_values(d, e)
        bis_vals = bidiagonal_sv_bisection(d, e)
        scale = max(qr_vals[0], 1e-12)
        assert np.allclose(qr_vals, bis_vals, atol=1e-6 * scale)

    @given(
        n=st.integers(min_value=1, max_value=10),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(**SETTINGS)
    def test_bdsqr_matches_value_only_solver(self, n, seed):
        # Two algorithms of dbdsqr (the QR iteration with vectors, dqds
        # without), each accurate to about eps·||B||.
        rng = np.random.default_rng(seed)
        d = rng.standard_normal(n)
        e = rng.standard_normal(max(n - 1, 0))
        want = bidiagonal_singular_values(d, e)
        got = bdsqr(d, e).singular_values
        assert np.max(np.abs(got - want)) <= 16 * n * np.finfo(float).eps * want[0]


class TestBandAndReductionProperties:
    @given(
        n=st.integers(min_value=2, max_value=14),
        bw=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(**SETTINGS)
    def test_bnd2bd_preserves_singular_values(self, n, bw, seed):
        bw = min(bw, n - 1)
        rng = np.random.default_rng(seed)
        dense = np.triu(rng.standard_normal((n, n)))
        dense -= np.triu(dense, bw + 1)
        band = BandBidiagonal.from_dense(dense, bandwidth=bw)
        d, e = band_to_bidiagonal(band)
        b = np.zeros((n, n))
        np.fill_diagonal(b, d)
        b[np.arange(n - 1), np.arange(1, n)] = e
        got = np.linalg.svd(b, compute_uv=False)
        want = np.linalg.svd(dense, compute_uv=False)
        assert np.allclose(got, want, atol=1e-9 * max(1.0, want[0]))


class TestTreePlanProperties:
    @given(
        rows=st.integers(min_value=1, max_value=64),
        cols=st.integers(min_value=0, max_value=20),
        cores=st.integers(min_value=1, max_value=48),
    )
    @settings(**SETTINGS)
    def test_every_tree_produces_a_valid_plan(self, rows, cols, cores):
        ctx = PanelContext(rows=rows, cols_remaining=cols, n_cores=cores)
        for tree in (
            FlatTSTree(),
            FlatTTTree(),
            GreedyTree(),
            FibonacciTree(),
            AutoTree(n_cores=cores),
            AutoTree(fixed_domain_size=4),
        ):
            plan = tree.plan(ctx)
            validate_plan(plan, rows)

    @given(rows=st.integers(min_value=2, max_value=128))
    @settings(**SETTINGS)
    def test_greedy_depth_is_logarithmic(self, rows):
        plan = GreedyTree().plan(PanelContext(rows=rows))
        depth = max(e.round for e in plan.eliminations) + 1
        assert depth == int(np.ceil(np.log2(rows)))


class TestLayoutProperties:
    @given(
        m=st.integers(min_value=1, max_value=300),
        n=st.integers(min_value=1, max_value=300),
        nb=st.integers(min_value=1, max_value=64),
    )
    @settings(**SETTINGS)
    def test_tile_ranges_partition_the_matrix(self, m, n, nb):
        layout = TileLayout(m, n, nb)
        row_total = sum(layout.tile_rows(i) for i in range(layout.p))
        col_total = sum(layout.tile_cols(j) for j in range(layout.q))
        assert row_total == m
        assert col_total == n
        # Every element belongs to exactly one tile.
        r0, r1 = layout.row_range(layout.p - 1)
        assert r1 == m
        c0, c1 = layout.col_range(layout.q - 1)
        assert c1 == n
