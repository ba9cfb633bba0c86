"""LQ tile kernels.

These are the exact column-wise counterparts of the QR kernels: where a QR
step combines two tile *rows* to zero a tile below the diagonal, an LQ step
combines two tile *columns* to zero a tile to the right of the
superdiagonal.  They go through the transpose duality
``A = L Q  <=>  A^T = Q^T L^T``: a factor kernel is the LAPACK QR call of
:mod:`repro.kernels.qr_kernels` on the transposed tiles (``dgeqrt``,
``dtpqrt``), and an update kernel applies that QR's orthogonal factor from
the right (``dgemqrt`` / ``dtpmqrt`` with ``side="R"``).  A pair kernel
reads only the ``k`` leading columns of the pivot triangle, ``k`` the
tiles' row count.  The right-side applications, :func:`apply_right` and
:func:`apply_pair_right`, take either family's reflector; gesvd's
accumulation of ``U1`` and ``V1`` applies both through them.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple, Union

import numpy as np

from repro.kernels import flapack
from repro.kernels.qr_kernels import INNER_BLOCK, QRReflector, upper_mask


class LQReflector(NamedTuple):
    """LAPACK's compact-WY representation of the reflectors of an LQ kernel.

    The reflectors are stored exactly as their QR-on-the-transpose
    counterparts (:class:`~repro.kernels.qr_kernels.QRReflector`): ``v``
    has one column per Householder vector (each vector acts on matrix
    *columns*), ``t`` holds the ``ib x k`` block factors, ``tri_rows`` is
    ``dtpqrt``'s ``l`` and ``split`` the number of columns of the *left*
    tile for the pair kernels.
    """

    v: np.ndarray
    t: np.ndarray
    tri_rows: int
    split: int
    kind: str


#: Either family's reflector: both hold LAPACK's ``V`` and ``T`` of a QR.
Reflector = Union[QRReflector, LQReflector]


def gelqt(a: np.ndarray, ib: int = INNER_BLOCK) -> Tuple[np.ndarray, LQReflector]:
    """Factor tile ``A`` into ``L Q`` (LQ panel kernel).

    Returns the lower-trapezoidal ``L`` (same shape as ``A``, exact zeros
    above the diagonal) and the reflector to be passed to :func:`unmlq`.
    """
    k = min(a.shape)
    packed, t, _ = flapack.dgeqrt(min(ib, k), a.T)
    l_tile = np.where(upper_mask(*packed.shape), packed, 0.0).T
    return l_tile, LQReflector(packed[:, :k], t, 0, 0, "GELQT")


def apply_right(refl: Reflector, c: np.ndarray) -> np.ndarray:
    """``C Q`` for a panel reflector, a GELQT's or a GEQRT's (``dgemqrt``).

    ``Q = I - V T V^T`` is the orthogonal factor of the QR that made the
    reflector; ``C`` needs one column per row of ``V``.
    """
    return flapack.dgemqrt(refl.v, refl.t, c, side="R", trans="N")[0]


def apply_pair_right(
    refl: Reflector, c_left: np.ndarray, c_right: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``[C_left | C_right] Q`` for a pair reflector, LQ's or QR's (``dtpmqrt``).

    ``C_left`` has ``split`` columns, of which only the ``k`` leading ones
    change, and ``C_right`` one column per row of ``V``.
    """
    cols = c_left.shape[1]
    if cols != refl.split:
        raise ValueError(
            f"left tile has {cols} columns but reflector was built with split={refl.split}"
        )
    if c_right.shape[1] != refl.v.shape[0]:
        raise ValueError(
            "stacked column count does not match the reflector "
            f"(right has {c_right.shape[1]} columns, V has {refl.v.shape[0]})"
        )
    k = refl.v.shape[1]
    left, right, _ = flapack.dtpmqrt(
        refl.tri_rows, refl.v, refl.t, c_left[:, :k], c_right, side="R", trans="N"
    )
    if cols > k:
        left = np.concatenate((left, c_left[:, k:]), axis=1)
    return left, right


def unmlq(refl: LQReflector, c: np.ndarray) -> np.ndarray:
    """Apply ``Q^T`` of a :func:`gelqt` factorization to tile ``C`` from the right."""
    if refl.kind != "GELQT":
        raise ValueError(f"unmlq expects a GELQT reflector, got {refl.kind}")
    if c.shape[1] != refl.v.shape[0]:
        raise ValueError(
            f"column mismatch: C has {c.shape[1]} columns, reflector expects {refl.v.shape[0]}"
        )
    # A = L Q with Q = Qqr^T (Qqr from the QR of A^T); the trailing update is
    # C := C Q^T = C Qqr.
    return apply_right(refl, c)


def _pair_factor(
    left: np.ndarray, right: np.ndarray, ib: int, kind: str
) -> Tuple[np.ndarray, np.ndarray, LQReflector]:
    """``dtpqrt`` of ``[left | right]^T``; shared by TSLQT/TTLQT."""
    k, cols = left.shape
    if right.shape[0] != k:
        raise ValueError(f"row mismatch: left has {k} rows, right has {right.shape[0]}")
    if cols < k:
        raise ValueError(f"the left tile must hold a {k}x{k} triangle, it has {cols} columns")
    tri_rows = min(right.shape) if kind == "TTLQT" else 0
    tri, v, t, _ = flapack.dtpqrt(tri_rows, min(ib, k), left[:, :k].T, right.T)
    new_left = tri.T if cols == k else np.concatenate((tri.T, left[:, k:]), axis=1)
    return new_left, np.zeros(right.shape), LQReflector(v, t, tri_rows, cols, kind)


def tslqt(
    l_left: np.ndarray, a_right: np.ndarray, ib: int = INNER_BLOCK
) -> Tuple[np.ndarray, np.ndarray, LQReflector]:
    """Zero the square tile ``a_right`` using the lower triangle ``l_left``."""
    return _pair_factor(l_left, a_right, ib, "TSLQT")


def ttlqt(
    l_left: np.ndarray, l_right: np.ndarray, ib: int = INNER_BLOCK
) -> Tuple[np.ndarray, np.ndarray, LQReflector]:
    """Zero the *triangular* tile ``l_right`` using the lower triangle ``l_left``.

    Like :func:`tslqt`, but only the lower trapezoid of ``l_right`` is read
    (the cost model's TS/TT distinction).
    """
    return _pair_factor(l_left, l_right, ib, "TTLQT")


def tsmlq(refl: LQReflector, c_left: np.ndarray, c_right: np.ndarray) -> Tuple[
    np.ndarray, np.ndarray
]:
    """Apply the reflectors of a :func:`tslqt` to the tile pair ``(c_left, c_right)``."""
    if refl.kind != "TSLQT":
        raise ValueError(f"tsmlq expects a TSLQT reflector, got {refl.kind}")
    return apply_pair_right(refl, c_left, c_right)


def ttmlq(refl: LQReflector, c_left: np.ndarray, c_right: np.ndarray) -> Tuple[
    np.ndarray, np.ndarray
]:
    """Apply the reflectors of a :func:`ttlqt` to the tile pair ``(c_left, c_right)``."""
    if refl.kind != "TTLQT":
        raise ValueError(f"ttmlq expects a TTLQT reflector, got {refl.kind}")
    return apply_pair_right(refl, c_left, c_right)
