"""QR tile kernels (PLASMA ``core_blas`` equivalents).

Every kernel is one LAPACK call, through scipy's f2py wrappers
(:mod:`repro.kernels.flapack`), and performs the real Householder
transformations, so running a tiled algorithm with these kernels produces
a genuine factorization whose residual and orthogonality can be checked.

Naming follows Table I of the paper:

* ``GEQRT``  — factor a tile into a triangle (panel kernel): ``dgeqrt``;
* ``UNMQR``  — apply the panel reflectors to a tile on the same tile-row:
  ``dgemqrt``;
* ``TSQRT``  — zero a square tile using the triangle on top of it:
  ``dtpqrt`` with ``l = 0``;
* ``TSMQR``  — apply the TSQRT reflectors to the corresponding tile pair:
  ``dtpmqrt`` with ``l = 0``;
* ``TTQRT``  — zero a triangular tile using the triangle on top of it:
  ``dtpqrt`` with ``l`` the rows of the eliminated triangle, so the zeros
  below it cost nothing (a third of TSQRT's flops on square tiles);
* ``TTMQR``  — apply the TTQRT reflectors to the corresponding tile pair
  (half of TSMQR's flops).

A pair kernel reads only the ``k`` leading rows of the pivot triangle
(``k`` the tiles' column count); a ragged last tile column leaves the
pivot's remaining rows zero and untouched.  Reflectors carry LAPACK's
``V`` and its ``T`` factor blocked by ``ib = min(inner_block, k)``.

The kernels are pure functions: they never modify their inputs and return
new tiles of their inputs' shapes together with a :class:`QRReflector`
for the corresponding update kernel.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Tuple

import numpy as np

from repro.config import default_config
from repro.kernels import flapack

#: Inner blocking of the factor kernels unless the caller passes one.
INNER_BLOCK = default_config.inner_block


class QRReflector(NamedTuple):
    """LAPACK's compact-WY representation of the reflectors of a QR kernel.

    Attributes
    ----------
    v:
        Householder vectors.  GEQRT: the ``rows x k`` ``dgeqrt`` output
        (unit lower trapezoidal ``V`` below the diagonal).  TS/TT: the
        ``dtpqrt`` ``V`` of the bottom tile, ``bottom rows x k``; the top
        tile's part is the ``k x k`` identity.
    t:
        ``ib x k`` triangular block factors.
    tri_rows:
        ``dtpqrt``'s ``l``: rows of the trailing triangle of a TT ``V``,
        ``0`` for TS and GEQRT.
    split:
        Rows of the top tile for the pair kernels (TS/TT), ``0`` for GEQRT.
    kind:
        Kernel that produced the reflector (``"GEQRT"``, ``"TSQRT"`` or
        ``"TTQRT"``).
    """

    v: np.ndarray
    t: np.ndarray
    tri_rows: int
    split: int
    kind: str


@lru_cache(maxsize=64)
def upper_mask(rows: int, cols: int) -> np.ndarray:
    """Read-only mask of the upper trapezoid (diagonal included), in the
    Fortran order LAPACK returns its arrays in."""
    mask = np.asfortranarray(np.triu(np.ones((rows, cols), dtype=bool)))
    mask.setflags(write=False)
    return mask


def geqrt(a: np.ndarray, ib: int = INNER_BLOCK) -> Tuple[np.ndarray, QRReflector]:
    """Factor tile ``A`` into ``Q R`` (panel kernel, ``dgeqrt``).

    Returns the upper-trapezoidal ``R`` (same shape as ``A``, exact zeros
    below the diagonal) and the reflector to be passed to :func:`unmqr`.
    """
    k = min(a.shape)
    packed, t, _ = flapack.dgeqrt(min(ib, k), a)
    r = np.where(upper_mask(*packed.shape), packed, 0.0)
    return r, QRReflector(packed[:, :k], t, 0, 0, "GEQRT")


def unmqr(refl: QRReflector, c: np.ndarray) -> np.ndarray:
    """Apply ``Q^T`` from a :func:`geqrt` factorization to tile ``C`` (``dgemqrt``)."""
    if refl.kind != "GEQRT":
        raise ValueError(f"unmqr expects a GEQRT reflector, got {refl.kind}")
    if c.shape[0] != refl.v.shape[0]:
        raise ValueError(
            f"row mismatch: C has {c.shape[0]} rows, reflector expects {refl.v.shape[0]}"
        )
    return flapack.dgemqrt(refl.v, refl.t, c, trans="T")[0]


def _pair_factor(
    top: np.ndarray, bottom: np.ndarray, ib: int, kind: str
) -> Tuple[np.ndarray, np.ndarray, QRReflector]:
    """``dtpqrt`` of ``[top; bottom]``; shared by TSQRT/TTQRT."""
    rows, k = top.shape
    if bottom.shape[1] != k:
        raise ValueError(f"column mismatch: top has {k} columns, bottom has {bottom.shape[1]}")
    if rows < k:
        raise ValueError(f"the top tile must hold a {k}x{k} triangle, it has {rows} rows")
    tri_rows = min(bottom.shape) if kind == "TTQRT" else 0
    tri, v, t, _ = flapack.dtpqrt(tri_rows, min(ib, k), top[:k], bottom)
    new_top = tri if rows == k else np.concatenate((tri, top[k:]))
    return new_top, np.zeros(bottom.shape), QRReflector(v, t, tri_rows, rows, kind)


def tsqrt(
    r_top: np.ndarray, a_bottom: np.ndarray, ib: int = INNER_BLOCK
) -> Tuple[np.ndarray, np.ndarray, QRReflector]:
    """Zero the square tile ``a_bottom`` using the triangle ``r_top`` above it.

    Computes the QR factorization of the stacked ``[r_top; a_bottom]`` block
    (only the upper triangle of ``r_top`` is read) and returns
    ``(new_r_top, zero_tile, reflector)``.
    """
    return _pair_factor(r_top, a_bottom, ib, "TSQRT")


def ttqrt(
    r_top: np.ndarray, r_bottom: np.ndarray, ib: int = INNER_BLOCK
) -> Tuple[np.ndarray, np.ndarray, QRReflector]:
    """Zero the *triangular* tile ``r_bottom`` using the triangle ``r_top``.

    Like :func:`tsqrt`, but only the upper trapezoid of ``r_bottom`` is
    read, which is what makes a TT elimination cheaper than a TS one
    (Table I) and lets the reduction trees expose more parallelism.
    """
    return _pair_factor(r_top, r_bottom, ib, "TTQRT")


def _pair_apply(
    refl: QRReflector, c_top: np.ndarray, c_bottom: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``dtpmqrt`` of ``Q^T`` on ``[c_top; c_bottom]``; shared by TSMQR/TTMQR."""
    rows = c_top.shape[0]
    if rows != refl.split:
        raise ValueError(
            f"top tile has {rows} rows but reflector was built with split={refl.split}"
        )
    if c_bottom.shape[0] != refl.v.shape[0]:
        raise ValueError(
            "stacked row count does not match the reflector "
            f"(bottom has {c_bottom.shape[0]} rows, V has {refl.v.shape[0]})"
        )
    k = refl.v.shape[1]
    top, bottom, _ = flapack.dtpmqrt(
        refl.tri_rows, refl.v, refl.t, c_top[:k], c_bottom, trans="T"
    )
    if rows > k:
        top = np.concatenate((top, c_top[k:]))
    return top, bottom


def tsmqr(refl: QRReflector, c_top: np.ndarray, c_bottom: np.ndarray) -> Tuple[
    np.ndarray, np.ndarray
]:
    """Apply the reflectors of a :func:`tsqrt` to the tile pair ``(c_top, c_bottom)``."""
    if refl.kind != "TSQRT":
        raise ValueError(f"tsmqr expects a TSQRT reflector, got {refl.kind}")
    return _pair_apply(refl, c_top, c_bottom)


def ttmqr(refl: QRReflector, c_top: np.ndarray, c_bottom: np.ndarray) -> Tuple[
    np.ndarray, np.ndarray
]:
    """Apply the reflectors of a :func:`ttqrt` to the tile pair ``(c_top, c_bottom)``."""
    if refl.kind != "TTQRT":
        raise ValueError(f"ttmqr expects a TTQRT reflector, got {refl.kind}")
    return _pair_apply(refl, c_top, c_bottom)
