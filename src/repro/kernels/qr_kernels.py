"""QR tile kernels (PLASMA ``core_blas`` equivalents).

Every kernel is numerically exact: it performs the real Householder
transformations, so running a tiled algorithm with these kernels produces a
genuine factorization whose residual and orthogonality can be checked.

Naming follows Table I of the paper:

* ``GEQRT``  — factor a square tile into a triangle (panel kernel);
* ``UNMQR``  — apply the panel reflectors to a tile on the same tile-row;
* ``TSQRT``  — zero a square tile using the triangle on top of it;
* ``TSMQR``  — apply the TSQRT reflectors to the corresponding tile pair;
* ``TTQRT``  — zero a triangular tile using the triangle on top of it;
* ``TTMQR``  — apply the TTQRT reflectors to the corresponding tile pair.

The kernels are pure functions: they never modify their inputs and return
new tiles together with a :class:`QRReflector` holding the compact-WY
representation needed by the corresponding update kernel.

Every kernel also accepts a stack of ``g`` same-shaped tiles (a leading
axis) and then returns stacked tiles and a reflector whose ``v`` and ``t``
carry the same leading axis; an update kernel takes such a stacked
reflector with its stack of tiles.  Each slice is bitwise what the 2-D
call on that slice returns (see :mod:`repro.kernels.householder`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.kernels.householder import apply_qt, qr_factor


@dataclass(frozen=True)
class QRReflector:
    """Compact-WY representation ``Q = I - V T V^T`` produced by a QR kernel.

    Attributes
    ----------
    v:
        Householder vectors (unit lower trapezoidal), ``rows x k``, or a
        ``g x rows x k`` stack of them.
    t:
        ``k x k`` upper triangular factor, or a ``g x k x k`` stack.
    split:
        For the two-tile kernels (TS/TT), the number of rows of the *top*
        tile inside the stacked representation; ``0`` for single-tile
        kernels (GEQRT).
    kind:
        Kernel that produced the reflector (``"GEQRT"``, ``"TSQRT"`` or
        ``"TTQRT"``), kept for debugging and validation.
    """

    v: np.ndarray
    t: np.ndarray
    split: int
    kind: str


def geqrt(a: np.ndarray) -> Tuple[np.ndarray, QRReflector]:
    """Factor tile ``A`` into ``Q R`` (panel kernel).

    Returns the upper-trapezoidal ``R`` (same shape as ``A``) and the
    reflector to be passed to :func:`unmqr`.
    """
    v, t, r = qr_factor(a)
    return r, QRReflector(v=v, t=t, split=0, kind="GEQRT")


def unmqr(refl: QRReflector, c: np.ndarray) -> np.ndarray:
    """Apply ``Q^T`` from a :func:`geqrt` factorization to tile ``C``."""
    if refl.kind != "GEQRT":
        raise ValueError(f"unmqr expects a GEQRT reflector, got {refl.kind}")
    if c.shape[-2] != refl.v.shape[-2]:
        raise ValueError(
            f"row mismatch: C has {c.shape[-2]} rows, reflector expects {refl.v.shape[-2]}"
        )
    return apply_qt(refl.v, refl.t, c)


def _stacked_qr(top: np.ndarray, bottom: np.ndarray, kind: str) -> Tuple[
    np.ndarray, np.ndarray, QRReflector
]:
    """QR of ``[top; bottom]`` stacked vertically; shared by TSQRT/TTQRT."""
    if top.shape[-1] != bottom.shape[-1]:
        raise ValueError(
            f"column mismatch: top has {top.shape[-1]} columns, bottom has {bottom.shape[-1]}"
        )
    stacked = np.concatenate([top, bottom], axis=-2)
    v, t, r = qr_factor(stacked)
    split = top.shape[-2]
    new_top = r[..., :split, :]
    new_bottom = np.zeros_like(bottom)
    return new_top, new_bottom, QRReflector(v=v, t=t, split=split, kind=kind)


def tsqrt(r_top: np.ndarray, a_bottom: np.ndarray) -> Tuple[np.ndarray, np.ndarray, QRReflector]:
    """Zero the square tile ``a_bottom`` using the triangle ``r_top`` above it.

    Computes the QR factorization of the stacked ``[r_top; a_bottom]`` block
    and returns ``(new_r_top, zero_tile, reflector)``.
    """
    return _stacked_qr(r_top, a_bottom, kind="TSQRT")


def ttqrt(r_top: np.ndarray, r_bottom: np.ndarray) -> Tuple[np.ndarray, np.ndarray, QRReflector]:
    """Zero the *triangular* tile ``r_bottom`` using the triangle ``r_top``.

    Numerically identical to :func:`tsqrt`; the distinction matters for the
    cost model (a TT elimination costs a third of a TS one, Table I) and for
    the amount of parallelism the reduction trees can expose.
    """
    return _stacked_qr(r_top, r_bottom, kind="TTQRT")


def _stacked_apply(refl: QRReflector, c_top: np.ndarray, c_bottom: np.ndarray) -> Tuple[
    np.ndarray, np.ndarray
]:
    if c_top.shape[-2] != refl.split:
        raise ValueError(
            f"top tile has {c_top.shape[-2]} rows but reflector was built with split={refl.split}"
        )
    if c_top.shape[-2] + c_bottom.shape[-2] != refl.v.shape[-2]:
        raise ValueError(
            "stacked row count does not match the reflector "
            f"({c_top.shape[-2]} + {c_bottom.shape[-2]} != {refl.v.shape[-2]})"
        )
    stacked = np.concatenate([c_top, c_bottom], axis=-2)
    updated = apply_qt(refl.v, refl.t, stacked)
    return updated[..., : refl.split, :], updated[..., refl.split :, :]


def tsmqr(refl: QRReflector, c_top: np.ndarray, c_bottom: np.ndarray) -> Tuple[
    np.ndarray, np.ndarray
]:
    """Apply the reflectors of a :func:`tsqrt` to the tile pair ``(c_top, c_bottom)``."""
    if refl.kind != "TSQRT":
        raise ValueError(f"tsmqr expects a TSQRT reflector, got {refl.kind}")
    return _stacked_apply(refl, c_top, c_bottom)


def ttmqr(refl: QRReflector, c_top: np.ndarray, c_bottom: np.ndarray) -> Tuple[
    np.ndarray, np.ndarray
]:
    """Apply the reflectors of a :func:`ttqrt` to the tile pair ``(c_top, c_bottom)``."""
    if refl.kind != "TTQRT":
        raise ValueError(f"ttmqr expects a TTQRT reflector, got {refl.kind}")
    return _stacked_apply(refl, c_top, c_bottom)
