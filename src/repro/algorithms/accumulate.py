"""Accumulation of the orthogonal factors of the tiled reduction.

When the numeric backend's ``gesvd`` stage needs singular vectors, the
:class:`~repro.algorithms.executor.NumericExecutor` is run with
``log_transformations=True`` and this module applies the logged
reflectors to identity matrices from the right, with the LQ update
kernels' right-side applications (:func:`~repro.kernels.lq_kernels.apply_right`,
:func:`~repro.kernels.lq_kernels.apply_pair_right`), producing the
orthogonal factors ``U1`` (left) and ``V1`` (right) such that
``A = U1 · B_band · V1^T``.

Each block reflector touches only the element columns of its tiles, so
the cost is the same order as applying the reduction itself.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.kernels.lq_kernels import apply_pair_right, apply_right
from repro.tiles.layout import TileLayout


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
            # A := Q^T A on the reflector's tile rows, hence U := U Q on the
            # same columns of U.  GEQRT (i, k); TSQRT / TTQRT (piv, i, k).
            factor, span = u, layout.row_range
            tiles = idx[:1] if kernel == "GEQRT" else idx[:2]
        elif side == "right":
            # A := A Q on the reflector's tile columns, hence V := V Q on
            # the same columns.  GELQT (k, j); TSLQT / TTLQT (piv, j, k).
            factor, span = v, layout.col_range
            tiles = idx[1:] if kernel == "GELQT" else idx[:2]
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown transformation side {side!r}")
        cols = [slice(*span(tile)) for tile in tiles]
        if len(cols) == 1:
            factor[:, cols[0]] = apply_right(refl, factor[:, cols[0]])
        else:
            first, second = cols
            factor[:, first], factor[:, second] = apply_pair_right(
                refl, factor[:, first], factor[:, second]
            )
    return u, v
