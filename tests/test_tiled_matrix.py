"""Unit tests for the TiledMatrix container."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.tiles.matrix import TiledMatrix


class TestConstruction:
    def test_from_dense_round_trip(self, rng):
        a = rng.standard_normal((13, 9))
        mat = TiledMatrix.from_dense(a, 4)
        assert mat.shape == (13, 9)
        assert mat.tile_shape == (4, 3)
        np.testing.assert_allclose(mat.to_dense(), a)

    def test_zeros(self):
        mat = TiledMatrix.zeros(6, 4, 3)
        assert mat.norm_fro() == 0.0
        np.testing.assert_array_equal(mat.to_dense(), np.zeros((6, 4)))

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            TiledMatrix.from_dense(np.zeros(5), 2)

    def test_edge_tiles_have_correct_shape(self, rng):
        a = rng.standard_normal((7, 5))
        mat = TiledMatrix.from_dense(a, 3)
        assert mat[2, 1].shape == (1, 2)
        assert mat[0, 0].shape == (3, 3)


class TestAccess:
    def test_get_set_tile(self, rng):
        mat = TiledMatrix.zeros(6, 6, 3)
        block = rng.standard_normal((3, 3))
        mat[1, 0] = block
        np.testing.assert_allclose(mat[1, 0], block)
        np.testing.assert_allclose(mat.to_dense()[3:6, 0:3], block)

    def test_set_wrong_shape(self):
        mat = TiledMatrix.zeros(6, 6, 3)
        with pytest.raises(ValueError):
            mat[0, 0] = np.zeros((2, 2))

    def test_bad_index_type(self):
        mat = TiledMatrix.zeros(6, 6, 3)
        with pytest.raises(TypeError):
            _ = mat[0]

    def test_out_of_range_index(self):
        mat = TiledMatrix.zeros(6, 6, 3)
        with pytest.raises(IndexError):
            _ = mat[2, 0]

    def test_tiles_iterator(self):
        mat = TiledMatrix.zeros(6, 4, 3)
        coords = [ij for ij, _ in mat.tiles()]
        assert coords == [(0, 0), (0, 1), (1, 0), (1, 1)]


class TestStore:
    def test_store_is_the_live_tile_dict(self, rng):
        # The numeric executor writes kernel outputs straight into it.
        a = rng.standard_normal((8, 7))
        mat = TiledMatrix.from_dense(a, 3)
        store = mat.store
        assert sorted(store) == [(i, j) for i in range(3) for j in range(3)]
        assert store[2, 1] is mat[2, 1] and store[2, 1].shape == (2, 3)
        store[0, 1] = np.ones((3, 3))
        np.testing.assert_array_equal(mat.to_dense()[0:3, 3:6], 1.0)
        assert mat.store is store


class TestOperations:
    def test_copy_is_deep(self, rng):
        a = rng.standard_normal((6, 6))
        mat = TiledMatrix.from_dense(a, 3)
        dup = mat.copy()
        dup[0, 0][:] = 0.0
        np.testing.assert_allclose(mat.to_dense(), a)

    def test_norm_matches_numpy(self, rng):
        a = rng.standard_normal((11, 7))
        mat = TiledMatrix.from_dense(a, 4)
        assert mat.norm_fro() == pytest.approx(np.linalg.norm(a))

    def test_submatrix(self, rng):
        a = rng.standard_normal((12, 8))
        mat = TiledMatrix.from_dense(a, 4)
        sub = mat.submatrix(2, 2)
        np.testing.assert_allclose(sub.to_dense(), a[:8, :8])

    def test_submatrix_out_of_range(self):
        mat = TiledMatrix.zeros(8, 8, 4)
        with pytest.raises(ValueError):
            mat.submatrix(3, 1)

    @settings(max_examples=25, deadline=None)
    @given(
        m=st.integers(min_value=1, max_value=40),
        n=st.integers(min_value=1, max_value=40),
        nb=st.integers(min_value=1, max_value=10),
    )
    def test_property_round_trip(self, m, n, nb):
        rng = np.random.default_rng(m * 1000 + n * 10 + nb)
        a = rng.standard_normal((m, n))
        mat = TiledMatrix.from_dense(a, nb)
        np.testing.assert_allclose(mat.to_dense(), a)
