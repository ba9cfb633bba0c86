"""Tile layout arithmetic.

A :class:`TileLayout` describes how an ``m x n`` dense matrix is cut into a
``p x q`` grid of tiles of nominal size ``nb x nb``.  Tiles in the last tile
row / column may be smaller when ``m`` or ``n`` is not a multiple of ``nb``
(as in PLASMA's tile layout).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Tuple


def ceil_div(a: int, b: int) -> int:
    """Integer ceiling division ``ceil(a / b)`` for non-negative ``a``."""
    if b <= 0:
        raise ValueError(f"divisor must be positive, got {b}")
    return -(-a // b)


@dataclass(frozen=True)
class TileLayout:
    """Geometry of a tiled ``m x n`` matrix with tile size ``nb``.

    Attributes
    ----------
    m, n:
        Element-wise matrix dimensions.
    nb:
        Nominal tile size.
    """

    m: int
    n: int
    nb: int

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise ValueError(f"matrix dimensions must be >= 1, got {self.m}x{self.n}")
        if self.nb < 1:
            raise ValueError(f"tile size must be >= 1, got {self.nb}")

    # Cached on the instance (outside the dataclass fields, so equality
    # and hashing stay on (m, n, nb)): every tile access bounds-checks
    # against them.
    @cached_property
    def p(self) -> int:
        """Number of tile rows."""
        return ceil_div(self.m, self.nb)

    @cached_property
    def q(self) -> int:
        """Number of tile columns."""
        return ceil_div(self.n, self.nb)

    @property
    def shape(self) -> Tuple[int, int]:
        """Element-wise shape ``(m, n)``."""
        return (self.m, self.n)

    @property
    def tile_shape(self) -> Tuple[int, int]:
        """Tile-wise shape ``(p, q)``."""
        return (self.p, self.q)

    def tile_rows(self, i: int) -> int:
        """Number of element rows of tile row ``i``."""
        self._check_tile_index(i, self.p, "row")
        if i == self.p - 1:
            return self.m - i * self.nb
        return self.nb

    def tile_cols(self, j: int) -> int:
        """Number of element columns of tile column ``j``."""
        self._check_tile_index(j, self.q, "column")
        if j == self.q - 1:
            return self.n - j * self.nb
        return self.nb

    def tile_size_of(self, i: int, j: int) -> Tuple[int, int]:
        """Element-wise shape of tile ``(i, j)``."""
        return (self.tile_rows(i), self.tile_cols(j))

    def row_range(self, i: int) -> Tuple[int, int]:
        """Half-open element row range ``[start, stop)`` of tile row ``i``."""
        self._check_tile_index(i, self.p, "row")
        start = i * self.nb
        return (start, start + self.tile_rows(i))

    def col_range(self, j: int) -> Tuple[int, int]:
        """Half-open element column range ``[start, stop)`` of tile column ``j``."""
        self._check_tile_index(j, self.q, "column")
        start = j * self.nb
        return (start, start + self.tile_cols(j))

    def tiles(self) -> Iterator[Tuple[int, int]]:
        """Iterate over all tile coordinates in row-major order."""
        for i in range(self.p):
            for j in range(self.q):
                yield (i, j)

    def tile_of_element(self, row: int, col: int) -> Tuple[int, int]:
        """Tile coordinate containing element ``(row, col)``."""
        if not (0 <= row < self.m and 0 <= col < self.n):
            raise IndexError(f"element ({row}, {col}) outside {self.m}x{self.n} matrix")
        return (row // self.nb, col // self.nb)

    @staticmethod
    def _check_tile_index(idx: int, bound: int, what: str) -> None:
        if not (0 <= idx < bound):
            raise IndexError(f"tile {what} index {idx} out of range [0, {bound})")
