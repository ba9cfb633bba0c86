"""Band bidiagonal form: container, extraction and validation.

The output of GE2BND (BIDIAG or R-BIDIAG) is an upper *banded* matrix of
element bandwidth ``nb``: the only nonzero tiles are the diagonal tiles
``(k, k)`` (upper triangular) and the superdiagonal tiles ``(k, k+1)``
(lower triangular).  :class:`BandBidiagonal` stores that band compactly and
is the input of the BND2BD stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.tiles.layout import ceil_div
from repro.tiles.matrix import TiledMatrix


@dataclass
class BandBidiagonal:
    """An ``n x n`` upper-banded matrix with bandwidth ``bandwidth``.

    The band is stored in LAPACK-like packed form: ``data[d, j]`` holds
    element ``(j - d, j)`` of the matrix, for ``d = 0`` (main diagonal) to
    ``d = bandwidth`` (outermost superdiagonal).  Entries that fall outside
    the matrix are zero.
    """

    data: np.ndarray
    n: int
    bandwidth: int

    @classmethod
    def zeros(cls, n: int, bandwidth: int) -> "BandBidiagonal":
        """An all-zero band of size ``n`` and bandwidth ``bandwidth``."""
        if n < 1:
            raise ValueError("n must be >= 1")
        if bandwidth < 1:
            raise ValueError("bandwidth must be >= 1")
        return cls(data=np.zeros((bandwidth + 1, n)), n=n, bandwidth=bandwidth)

    @classmethod
    def from_dense(cls, a: np.ndarray, bandwidth: int) -> "BandBidiagonal":
        """Pack the upper band of a square dense matrix."""
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        n = a.shape[0]
        band = cls.zeros(n, bandwidth)
        for d in range(bandwidth + 1):
            diag = np.diagonal(a, offset=d)
            band.data[d, d : d + diag.size] = diag
        return band

    def __getitem__(self, key: Tuple[int, int]) -> float:
        """Element access ``band[i, j]`` (zero outside the band)."""
        i, j = key
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise IndexError(f"index ({i}, {j}) outside {self.n}x{self.n} matrix")
        d = j - i
        if d < 0 or d > self.bandwidth:
            return 0.0
        return float(self.data[d, j])

    def __setitem__(self, key: Tuple[int, int], value: float) -> None:
        i, j = key
        d = j - i
        if d < 0 or d > self.bandwidth:
            raise IndexError(
                f"element ({i}, {j}) is outside the band (bandwidth {self.bandwidth})"
            )
        self.data[d, j] = value

    def to_dense(self) -> np.ndarray:
        """Expand the band back into a dense ``n x n`` array."""
        out = np.zeros((self.n, self.n))
        for d in range(self.bandwidth + 1):
            vals = self.data[d, d:]
            idx = np.arange(self.n - d)
            out[idx, idx + d] = vals
        return out

    def frobenius_norm(self) -> float:
        """Frobenius norm of the banded matrix."""
        return float(np.sqrt(np.sum(self.data**2)))

    def copy(self) -> "BandBidiagonal":
        return BandBidiagonal(data=self.data.copy(), n=self.n, bandwidth=self.bandwidth)


def extract_band(matrix: TiledMatrix, *, n_cols: int | None = None) -> BandBidiagonal:
    """Extract the band bidiagonal factor from a reduced tiled matrix.

    ``matrix`` was reduced by the replay of a BIDIAG or R-BIDIAG Program
    (:func:`~repro.algorithms.bidiag.bidiag_ge2bnd`,
    :func:`~repro.algorithms.rbidiag.rbidiag_ge2bnd`); the band lives in
    the top-left ``n x n`` block with ``n = min(m, n_cols or n)`` and
    bandwidth ``nb``.
    """
    n = matrix.n if n_cols is None else n_cols
    n = min(n, matrix.m)
    nb = matrix.nb
    # Every band element (r, c), 0 <= c - r <= nb, lies in a diagonal tile
    # (k, k) or a superdiagonal tile (k, k + 1): read only those tiles of
    # the top-left n x n block, not the whole matrix.
    dense = np.zeros((n, n), dtype=matrix.dtype)
    for k in range(ceil_div(n, nb)):
        for j in (k, k + 1):
            if j * nb < n:
                block = dense[k * nb : (k + 1) * nb, j * nb : (j + 1) * nb]
                block[...] = matrix[k, j][: block.shape[0], : block.shape[1]]
    return BandBidiagonal.from_dense(dense, bandwidth=min(nb, n - 1) if n > 1 else 1)


def band_residual(matrix: TiledMatrix, *, n_cols: int | None = None) -> float:
    """Frobenius norm of everything *outside* the expected band.

    A successful GE2BND leaves this at roundoff level (relative to the norm
    of the matrix); tests use it to assert the structural correctness of the
    reduction independently of the singular values.
    """
    n = matrix.n if n_cols is None else n_cols
    dense = matrix.to_dense()
    nb = matrix.nb
    mask = np.ones_like(dense, dtype=bool)
    rows, cols = np.indices(dense.shape)
    inside = (cols >= rows) & (cols - rows <= nb) & (rows < n) & (cols < n)
    mask[inside] = False
    return float(np.linalg.norm(dense[mask]))
