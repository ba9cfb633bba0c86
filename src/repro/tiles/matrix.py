"""Tiled matrix container.

:class:`TiledMatrix` stores an ``m x n`` matrix as a ``p x q`` grid of
independent NumPy tiles, matching the storage used by PLASMA / DPLASMA.
Tile ``(i, j)`` can be read and written independently of every other tile,
which is what allows the tiled algorithms to expose task parallelism.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.tiles.layout import TileLayout


class TiledMatrix:
    """An ``m x n`` matrix stored as ``nb x nb`` tiles.

    Parameters
    ----------
    layout:
        The tile geometry (matrix size and tile size).
    dtype:
        NumPy dtype of the tiles (default ``float64``).
    tiles:
        Optional pre-existing tile dictionary; used internally by
        :meth:`copy` — normal users should start from :meth:`from_dense`
        or :meth:`zeros`.
    """

    def __init__(
        self,
        layout: TileLayout,
        dtype: np.dtype = np.float64,
        tiles: Optional[Dict[Tuple[int, int], np.ndarray]] = None,
    ) -> None:
        self.layout = layout
        self.dtype = np.dtype(dtype)
        if tiles is None:
            tiles = {
                (i, j): np.zeros(layout.tile_size_of(i, j), dtype=self.dtype)
                for i, j in layout.tiles()
            }
        self._tiles = tiles

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_dense(cls, a: np.ndarray, tile_size: int) -> "TiledMatrix":
        """Cut a dense real 2-D array into tiles of size ``tile_size``."""
        a = np.asarray(a)
        if a.ndim != 2:
            raise ValueError(f"expected a 2-D array, got ndim={a.ndim}")
        if np.iscomplexobj(a):
            raise ValueError(f"expected a real array, got dtype {a.dtype}")
        layout = TileLayout(a.shape[0], a.shape[1], tile_size)
        dtype = a.dtype if a.dtype.kind == "f" else np.float64
        a = a.astype(dtype, copy=False)
        nb = layout.nb
        # Slicing clips at the matrix edge, which gives the ragged last
        # tile row and column their layout shapes.
        tiles = {
            (i, j): a[i * nb : (i + 1) * nb, j * nb : (j + 1) * nb].copy()
            for i in range(layout.p)
            for j in range(layout.q)
        }
        return cls(layout, dtype=dtype, tiles=tiles)

    @classmethod
    def zeros(cls, m: int, n: int, tile_size: int, dtype=np.float64) -> "TiledMatrix":
        """An all-zero tiled matrix of size ``m x n``."""
        return cls(TileLayout(m, n, tile_size), dtype=dtype)

    # ------------------------------------------------------------------ #
    # Geometry shortcuts
    # ------------------------------------------------------------------ #
    @property
    def m(self) -> int:
        return self.layout.m

    @property
    def n(self) -> int:
        return self.layout.n

    @property
    def p(self) -> int:
        return self.layout.p

    @property
    def q(self) -> int:
        return self.layout.q

    @property
    def nb(self) -> int:
        return self.layout.nb

    @property
    def shape(self) -> Tuple[int, int]:
        return self.layout.shape

    @property
    def tile_shape(self) -> Tuple[int, int]:
        return self.layout.tile_shape

    # ------------------------------------------------------------------ #
    # Tile access
    # ------------------------------------------------------------------ #
    def __getitem__(self, key: Tuple[int, int]) -> np.ndarray:
        """Return tile ``(i, j)`` (a live view of the stored array)."""
        return self._tiles[self._normalize_key(key)]

    def __setitem__(self, key: Tuple[int, int], value: np.ndarray) -> None:
        """Replace tile ``(i, j)``; the shape must match the layout."""
        i, j = self._normalize_key(key)
        expected = self.layout.tile_size_of(i, j)
        value = np.asarray(value, dtype=self.dtype)
        if value.shape != expected:
            raise ValueError(
                f"tile ({i}, {j}) must have shape {expected}, got {value.shape}"
            )
        self._tiles[(i, j)] = value

    def _normalize_key(self, key: Tuple[int, int]) -> Tuple[int, int]:
        if not (isinstance(key, tuple) and len(key) == 2):
            raise TypeError("tile index must be an (i, j) tuple")
        i, j = key
        layout = self.layout
        layout._check_tile_index(i, layout.p, "row")
        layout._check_tile_index(j, layout.q, "column")
        return (i, j)

    @property
    def store(self) -> Dict[Tuple[int, int], np.ndarray]:
        """The ``(i, j) -> tile`` dict itself, for hot loops.

        Writes into it skip :meth:`__setitem__`'s checks: each value must be
        a tile of its layout shape and of this matrix's dtype, as the tile
        kernels return (tiles of their inputs' shapes).
        """
        return self._tiles

    def tiles(self) -> Iterator[Tuple[Tuple[int, int], np.ndarray]]:
        """Iterate over ``((i, j), tile)`` pairs in row-major order."""
        for ij in self.layout.tiles():
            yield ij, self._tiles[ij]

    # ------------------------------------------------------------------ #
    # Conversions & utilities
    # ------------------------------------------------------------------ #
    def to_dense(self) -> np.ndarray:
        """Assemble the tiles back into a dense 2-D array."""
        out = np.zeros(self.shape, dtype=self.dtype)
        nb = self.nb
        for (i, j), tile in self._tiles.items():
            out[i * nb : (i + 1) * nb, j * nb : (j + 1) * nb] = tile
        return out

    def copy(self) -> "TiledMatrix":
        """Deep copy of the matrix."""
        tiles = {ij: tile.copy() for ij, tile in self._tiles.items()}
        return TiledMatrix(self.layout, dtype=self.dtype, tiles=tiles)

    def all_finite(self) -> bool:
        """Whether every element is finite (no NaN or Inf)."""
        return bool(np.isfinite(np.concatenate(list(self._tiles.values()), axis=None)).all())

    def norm_fro(self) -> float:
        """Frobenius norm, computed tile by tile."""
        acc = 0.0
        for _, tile in self.tiles():
            acc += float(np.sum(tile * tile))
        return float(np.sqrt(acc))

    def submatrix(self, rows: int, cols: int) -> "TiledMatrix":
        """Return a copy of the top-left ``rows x cols`` *tile* block."""
        if not (1 <= rows <= self.p and 1 <= cols <= self.q):
            raise ValueError(
                f"requested {rows}x{cols} tile block from a {self.p}x{self.q} tile matrix"
            )
        r1 = self.layout.row_range(rows - 1)[1]
        c1 = self.layout.col_range(cols - 1)[1]
        dense = self.to_dense()[:r1, :c1]
        return TiledMatrix.from_dense(dense, self.nb)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TiledMatrix(m={self.m}, n={self.n}, nb={self.nb}, "
            f"tiles={self.p}x{self.q}, dtype={self.dtype})"
        )
