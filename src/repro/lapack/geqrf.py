"""Blocked Householder QR factorization (LAPACK ``xGEQRF``).

Used as the ``preQR`` phase of Chan's algorithm
(:mod:`repro.lapack.chan`) and as an independent numerical reference for
the tiled QR factorization: both must produce the same ``R`` factor up to
column signs and the same reconstruction ``A = Q R``.  The factorization
is one LAPACK ``dgeqrt`` call (panels of ``block_size`` columns, each
with its compact-WY ``T``), and ``Q`` is applied by ``dgemqrt``, both
through :mod:`repro.kernels.flapack`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.kernels import flapack


@dataclass(frozen=True)
class QRFactorization:
    """Compact blocked QR factorization ``A = Q R``.

    Attributes
    ----------
    r:
        The ``m x n`` upper-trapezoidal factor.
    v:
        ``m x k`` Householder vectors (``k = min(m, n)``), unit lower
        trapezoidal below the diagonal, as ``dgeqrt`` returns them.
    t:
        ``block_size x k`` triangular block factors of the panels.
    shape:
        Original matrix shape ``(m, n)``.
    """

    r: np.ndarray
    v: np.ndarray
    t: np.ndarray
    shape: Tuple[int, int]

    def apply_qt(self, c: np.ndarray) -> np.ndarray:
        """Compute ``Q^T C`` without forming ``Q`` (``C`` has ``m`` rows)."""
        return flapack.dgemqrt(self.v, self.t, np.asarray(c, dtype=float), trans="T")[0]

    def apply_q(self, c: np.ndarray) -> np.ndarray:
        """Compute ``Q C`` without forming ``Q`` (``C`` has ``m`` rows)."""
        return flapack.dgemqrt(self.v, self.t, np.asarray(c, dtype=float), trans="N")[0]


def geqrf(a: np.ndarray, *, block_size: int = 32) -> QRFactorization:
    """Blocked Householder QR factorization of a real ``m x n`` matrix.

    The matrix is processed in panels of ``block_size`` columns (fewer
    when the matrix has fewer): one ``dgeqrt`` call factors every panel
    and applies its block reflector to the trailing columns.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError("geqrf expects a 2-D array")
    m, n = a.shape
    if m < 1 or n < 1:
        raise ValueError(f"matrix dimensions must be >= 1, got {m}x{n}")
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    k = min(m, n)
    packed, t, _ = flapack.dgeqrt(min(block_size, k), a)
    # The strictly lower part holds V, no data of R; return the clean triangle.
    return QRFactorization(r=np.triu(packed), v=packed[:, :k], t=t, shape=(m, n))


def form_q_from_qr(fact: QRFactorization, economy: bool = True) -> np.ndarray:
    """Explicitly form the orthogonal factor ``Q`` of a blocked QR.

    With ``economy=True`` only the first ``n`` columns are returned
    (``m x n``), which is what Chan's algorithm and the GESVD driver need.
    """
    m, n = fact.shape
    cols = min(m, n) if economy else m
    q = np.eye(m)[:, :cols]
    return fact.apply_q(q)


def geqrf_flops(m: int, n: int) -> float:
    """Operation count of the Householder QR factorization: ``2n^2(m - n/3)``."""
    if m < 1 or n < 1:
        raise ValueError(f"matrix dimensions must be >= 1, got {m}x{n}")
    return 2.0 * n * n * (m - n / 3.0)
