"""Elementary Householder reflectors (LAPACK ``dlarfg``).

:func:`householder_vector` computes one reflector of a vector in Python.
It is the independent oracle of the panel kernel: the column-by-column
QR built from it in ``tests/test_householder.py`` is what
:func:`repro.kernels.qr_kernels.geqrt` (one ``dgeqrt`` call) is checked
against.  The tile kernels' blocked reflectors and the second stage
(:mod:`repro.algorithms.bnd2bd`) come from LAPACK itself.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

#: Entry-magnitude range within which ``x . x`` neither underflows nor
#: overflows in double precision; outside it the reflector is computed on
#: a rescaled vector (cf. LAPACK ``dlarfg`` / ``dlassq``).
_RESCALE_MIN = 1e-140
_RESCALE_MAX = 1e140


def householder_vector(x: np.ndarray) -> Tuple[np.ndarray, float, float]:
    """Compute an elementary Householder reflector for the vector ``x``.

    Returns ``(v, tau, beta)`` with ``v[0] == 1`` such that
    ``(I - tau * v v^T) x = beta * e_1`` and ``|beta| == ||x||_2``.

    Follows the sign convention of LAPACK ``dlarfg`` (``beta`` has the
    opposite sign of ``x[0]``) which avoids cancellation.  A NaN or Inf
    entry raises :class:`ValueError`.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("householder_vector expects a non-empty 1-D array")
    xmax = float(np.max(np.abs(x)))
    if not math.isfinite(xmax):
        index = int(np.flatnonzero(~np.isfinite(x))[0])
        raise ValueError(
            f"householder_vector: x must be finite: entry {index} is {float(x[index])}"
        )
    if xmax != 0.0 and not (_RESCALE_MIN <= xmax <= _RESCALE_MAX):
        # dlarfg-style guard: squaring entries this small (large) under-
        # (over-)flows, destroying the reflector's orthogonality.  Compute
        # on a power-of-two rescaling (exact) and scale beta back; v and
        # tau are invariant under scaling of x.  The exponent is clamped to
        # 1023 (the largest finite power of two): for subnormal xmax the
        # ideal factor 2**1026+ is not representable, and 2**1023 already
        # lifts any subnormal to at least 2**-51.
        s = 2.0 ** min(1023.0, -float(np.floor(np.log2(xmax))))
        v, tau, beta = householder_vector(x * s)
        return v, tau, beta / s
    alpha = x[0]
    sigma = float(np.dot(x[1:], x[1:]))
    v = x.copy()
    v[0] = 1.0
    if sigma == 0.0:
        # x is already a multiple of e_1: no reflection needed.
        return v, 0.0, float(alpha)
    norm_x = np.sqrt(alpha * alpha + sigma)
    beta = -norm_x if alpha >= 0 else norm_x
    v0 = alpha - beta
    v[1:] = x[1:] / v0
    tau = (beta - alpha) / beta
    return v, float(tau), float(beta)
