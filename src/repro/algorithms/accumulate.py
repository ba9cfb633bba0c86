"""Accumulation of the orthogonal factors of the tiled reduction.

When the numeric backend's ``gesvd`` stage needs singular vectors, the
:class:`~repro.algorithms.executor.NumericExecutor` is run with
``log_transformations=True`` and this module replays the logged compact-WY
reflectors onto identity matrices, producing the orthogonal factors
``U1`` (left) and ``V1`` (right) such that ``A = U1 · B_band · V1^T``.

The replay applies each block reflector only to the element rows / columns
it touches, so the cost is the same order as applying the reduction itself.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.kernels.householder import apply_q_right
from repro.tiles.layout import TileLayout


def _row_indices(layout: TileLayout, tile_rows: Sequence[int]) -> np.ndarray:
    """Element row indices of the given tile rows, concatenated in order."""
    chunks = [np.arange(*layout.row_range(i)) for i in tile_rows]
    return np.concatenate(chunks)


def _col_indices(layout: TileLayout, tile_cols: Sequence[int]) -> np.ndarray:
    """Element column indices of the given tile columns, concatenated in order."""
    chunks = [np.arange(*layout.col_range(j)) for j in tile_cols]
    return np.concatenate(chunks)


def accumulate_orthogonal_factors(
    layout: TileLayout,
    transform_log: List[Tuple[str, str, Tuple[int, ...], object]],
) -> Tuple[np.ndarray, np.ndarray]:
    """Rebuild ``U1`` (``m x m``) and ``V1`` (``n x n``) from a transform log.

    ``transform_log`` is the list produced by
    :class:`~repro.algorithms.executor.NumericExecutor` when
    ``log_transformations=True``: tuples ``(side, kernel, indices,
    reflector)`` in application order.  The convention is
    ``B_band = U1^T · A · V1``  i.e.  ``A = U1 · B_band · V1^T``.
    """
    u = np.eye(layout.m)
    v = np.eye(layout.n)
    for side, kernel, idx, refl in transform_log:
        if side == "left":
            if kernel == "GEQRT":
                i, _k = idx
                rows = _row_indices(layout, [i])
            else:  # TSQRT / TTQRT: stacked (piv, i)
                piv, i, _k = idx
                rows = _row_indices(layout, [piv, i])
            # A := Q^T A on those rows, hence U := U Q restricted to the
            # corresponding columns of U.
            u[:, rows] = apply_q_right(refl.v, refl.t, u[:, rows])
        elif side == "right":
            if kernel == "GELQT":
                _k, j = idx
                cols = _col_indices(layout, [j])
            else:  # TSLQT / TTLQT: stacked (piv, j)
                piv, j, _k = idx
                cols = _col_indices(layout, [piv, j])
            # A := A Q_lq^T = A (I - V T V^T) on those columns, hence
            # V := V (I - V T V^T) on the same columns.
            v[:, cols] = apply_q_right(refl.v, refl.t, v[:, cols])
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown transformation side {side!r}")
    return u, v
