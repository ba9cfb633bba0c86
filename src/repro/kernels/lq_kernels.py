"""LQ tile kernels.

These are the exact column-wise counterparts of the QR kernels: where a QR
step combines two tile *rows* to zero a tile below the diagonal, an LQ step
combines two tile *columns* to zero a tile to the right of the
superdiagonal.  They are implemented through the transpose duality
``A = L Q  <=>  A^T = Q^T L^T`` so the numerics are shared with
:mod:`repro.kernels.qr_kernels` — an LQ kernel is a QR kernel on the
transposed tiles, with the orthogonal factor applied from the right.
Like the QR kernels, every kernel also accepts a stack of same-shaped
tiles (a leading axis), bitwise equal per slice to the 2-D call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.kernels.householder import apply_q_right, qr_factor


@dataclass(frozen=True)
class LQReflector:
    """Compact-WY representation of the row-space reflectors of an LQ kernel.

    The reflectors are stored exactly as their QR-on-the-transpose
    counterparts: ``v`` has one column per Householder vector (each vector
    acts on matrix *columns*), and ``split`` is the number of columns of the
    *left* tile for the two-tile kernels.  A stacked kernel call gives ``v``
    and ``t`` a leading stack axis.
    """

    v: np.ndarray
    t: np.ndarray
    split: int
    kind: str


def gelqt(a: np.ndarray) -> Tuple[np.ndarray, LQReflector]:
    """Factor tile ``A`` into ``L Q`` (LQ panel kernel).

    Returns the lower-trapezoidal ``L`` (same shape as ``A``) and the
    reflector to be passed to :func:`unmlq`.
    """
    v, t, r = qr_factor(a.mT)
    return r.mT, LQReflector(v=v, t=t, split=0, kind="GELQT")


def unmlq(refl: LQReflector, c: np.ndarray) -> np.ndarray:
    """Apply ``Q^T`` of a :func:`gelqt` factorization to tile ``C`` from the right."""
    if refl.kind != "GELQT":
        raise ValueError(f"unmlq expects a GELQT reflector, got {refl.kind}")
    if c.shape[-1] != refl.v.shape[-2]:
        raise ValueError(
            f"column mismatch: C has {c.shape[-1]} columns, reflector expects {refl.v.shape[-2]}"
        )
    # A = L Q with Q = Qqr^T (Qqr from the QR of A^T); the trailing update is
    # C := C Q^T = C Qqr = C (I - V T V^T).
    return apply_q_right(refl.v, refl.t, c)


def _stacked_lq(left: np.ndarray, right: np.ndarray, kind: str) -> Tuple[
    np.ndarray, np.ndarray, LQReflector
]:
    """LQ of ``[left | right]`` side by side; shared by TSLQT/TTLQT."""
    if left.shape[-2] != right.shape[-2]:
        raise ValueError(
            f"row mismatch: left has {left.shape[-2]} rows, right has {right.shape[-2]}"
        )
    stacked_t = np.concatenate([left.mT, right.mT], axis=-2)
    v, t, r = qr_factor(stacked_t)
    split = left.shape[-1]
    new_left = r[..., :split, :].mT
    new_right = np.zeros_like(right)
    return new_left, new_right, LQReflector(v=v, t=t, split=split, kind=kind)


def tslqt(l_left: np.ndarray, a_right: np.ndarray) -> Tuple[np.ndarray, np.ndarray, LQReflector]:
    """Zero the square tile ``a_right`` using the lower triangle ``l_left``."""
    return _stacked_lq(l_left, a_right, kind="TSLQT")


def ttlqt(l_left: np.ndarray, l_right: np.ndarray) -> Tuple[np.ndarray, np.ndarray, LQReflector]:
    """Zero the *triangular* tile ``l_right`` using the lower triangle ``l_left``.

    Numerically identical to :func:`tslqt`; the TS/TT distinction only
    affects the cost model and the available parallelism.
    """
    return _stacked_lq(l_left, l_right, kind="TTLQT")


def _stacked_apply_right(refl: LQReflector, c_left: np.ndarray, c_right: np.ndarray) -> Tuple[
    np.ndarray, np.ndarray
]:
    if c_left.shape[-1] != refl.split:
        raise ValueError(
            f"left tile has {c_left.shape[-1]} columns but reflector was built with split={refl.split}"
        )
    if c_left.shape[-1] + c_right.shape[-1] != refl.v.shape[-2]:
        raise ValueError(
            "stacked column count does not match the reflector "
            f"({c_left.shape[-1]} + {c_right.shape[-1]} != {refl.v.shape[-2]})"
        )
    stacked = np.concatenate([c_left, c_right], axis=-1)
    updated = apply_q_right(refl.v, refl.t, stacked)
    return updated[..., : refl.split], updated[..., refl.split :]


def tsmlq(refl: LQReflector, c_left: np.ndarray, c_right: np.ndarray) -> Tuple[
    np.ndarray, np.ndarray
]:
    """Apply the reflectors of a :func:`tslqt` to the tile pair ``(c_left, c_right)``."""
    if refl.kind != "TSLQT":
        raise ValueError(f"tsmlq expects a TSLQT reflector, got {refl.kind}")
    return _stacked_apply_right(refl, c_left, c_right)


def ttmlq(refl: LQReflector, c_left: np.ndarray, c_right: np.ndarray) -> Tuple[
    np.ndarray, np.ndarray
]:
    """Apply the reflectors of a :func:`ttlqt` to the tile pair ``(c_left, c_right)``."""
    if refl.kind != "TTLQT":
        raise ValueError(f"ttmlq expects a TTLQT reflector, got {refl.kind}")
    return _stacked_apply_right(refl, c_left, c_right)
