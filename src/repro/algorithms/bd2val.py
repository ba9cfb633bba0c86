"""BD2VAL: singular values (and vectors) of a real upper bidiagonal matrix.

The last stage of the GE2VAL / GESVD pipeline.  Its two solvers are one
call each of LAPACK's ``dbdsqr`` (:mod:`repro.kernels.flapack`):

* :func:`bidiagonal_singular_values` — the values alone: ``dbdsqr``
  without vectors runs dqds (``dlasq1``; Fernando & Parlett, Numer. Math.
  67, 1994), which computes every σ to high relative accuracy;
* :func:`bdsqr` — the full SVD ``bidiag(d, e) = U · diag(σ) · V^T``:
  ``dbdsqr`` with vectors runs the implicit QR iteration (Demmel & Kahan,
  SISC 11(5), 1990) and folds its rotations into given ``U`` and ``V^T``
  (LAPACK's ``NRU`` / ``NCVT`` convention), so BND2BD's orthogonal factors
  pass straight through.

A third, :func:`bidiagonal_sv_bisection`, is bisection on Sturm counts of
the Golub–Kahan tridiagonal ``TGK`` of ``B`` — the ``2n x 2n`` symmetric
tridiagonal with zero diagonal and off-diagonal ``d_1, e_1, d_2, ...,
d_n``, whose eigenvalues are ``±σ_i(B)`` (Golub & Kahan, 1965) — the
algorithm behind ``xBDSVX``.  It is slow and serves as an independent
cross-check.  All three take the two diagonals ``(d, e)``, reject NaN and
Inf entries, and return the singular values in descending order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.kernels import flapack

#: :func:`bdsqr` scales ``(d, e)`` by a power of two when their largest
#: magnitude lies outside this range.  ``dbdsqr`` scales its input only on
#: the values path (``dlasq1``); its QR iteration runs unscaled, and its
#: shifts and convergence tests square the entries, which overflow or
#: underflow beyond it.
_SAFE_MIN = 2.0**-255
_SAFE_MAX = 2.0**255


class ConvergenceError(RuntimeError):
    """A bidiagonal solver failed to converge.

    Raised when LAPACK ``dbdsqr`` reports that ``info`` superdiagonal
    entries did not converge to zero; carries ``info`` and the input
    diagonals ``d`` and ``e``.
    """

    def __init__(self, message: str, d: np.ndarray, e: np.ndarray, *, info: int = 0) -> None:
        super().__init__(message)
        self.d = d
        self.e = e
        self.info = info


@dataclass
class BdsqrResult:
    """SVD of an upper bidiagonal matrix.

    Attributes
    ----------
    singular_values:
        The singular values in descending order.
    u:
        Left singular vectors (``nru x n``), column ``i`` pairs with
        ``singular_values[i]``.
    vt:
        Right singular vectors, transposed (``n x ncvt``).
    """

    singular_values: np.ndarray
    u: np.ndarray
    vt: np.ndarray


def bidiagonal_to_dense(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Assemble the dense upper bidiagonal matrix from its two diagonals."""
    d, e = _diagonals(d, e)
    b = np.diag(d)
    if d.size > 1:
        b[np.arange(d.size - 1), np.arange(1, d.size)] = e
    return b


def _diagonals(d: np.ndarray, e: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Private float copies of ``(d, e)``, checked for matching lengths and
    for NaN or Inf entries."""
    d = np.array(d, dtype=float, copy=True).ravel()
    e = np.array(e, dtype=float, copy=True).ravel()
    if e.size != max(d.size - 1, 0):
        raise ValueError(f"superdiagonal must have length {d.size - 1}, got {e.size}")
    for name, values in (("d", d), ("e", e)):
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise ValueError(f"the bidiagonal must be finite: {name}[{bad[0]}] is {values[bad[0]]}")
    return d, e


def _max_abs(d: np.ndarray, e: np.ndarray) -> float:
    return max(float(np.max(np.abs(d), initial=0.0)), float(np.max(np.abs(e), initial=0.0)))


def _dbdsqr(
    d: np.ndarray,
    e: np.ndarray,
    scale: int = 0,
    vt: Optional[np.ndarray] = None,
    u: Optional[np.ndarray] = None,
) -> np.ndarray:
    """σ of ``bidiag(d, e)`` from one ``dbdsqr`` call on copies scaled by
    ``2**-scale``, scaled back; :class:`ConvergenceError` on failure."""
    sigma, rest = np.ldexp(d, -scale), np.ldexp(e, -scale)
    info = flapack.dbdsqr(sigma, rest, vt, u)
    if info:
        raise ConvergenceError(
            f"LAPACK dbdsqr did not converge: {info} superdiagonal entries "
            "are not zero",
            d,
            e,
            info=info,
        )
    return np.ldexp(sigma, scale)


def bidiagonal_singular_values(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Singular values of the upper bidiagonal matrix ``B = bidiag(d, e)``.

    One LAPACK ``dbdsqr`` call without vectors, which runs dqds: every σ,
    however tiny, to high relative accuracy, at any scale (``dlasq1``
    scales its input).

    Parameters
    ----------
    d, e:
        Main diagonal (length ``n``) and superdiagonal (length ``n - 1``).

    Raises
    ------
    ConvergenceError
        ``dbdsqr`` did not converge (``info > 0``).
    """
    return _dbdsqr(*_diagonals(d, e))


def bdsqr(
    d: np.ndarray,
    e: np.ndarray,
    *,
    u: Optional[np.ndarray] = None,
    vt: Optional[np.ndarray] = None,
) -> BdsqrResult:
    """Full SVD of the upper bidiagonal matrix ``bidiag(d, e)``.

    One LAPACK ``dbdsqr`` call with vectors (the implicit QR iteration),
    on ``(d, e)`` scaled by a power of two into ``[2**-255, 2**255]``.

    Parameters
    ----------
    d, e:
        Main diagonal (length ``n``) and superdiagonal (length ``n - 1``).
    u, vt:
        Fortran-ordered float64 arrays, ``nru x n`` and ``n x ncvt``,
        updated in place: ``u`` is post-multiplied by the left singular
        vectors and ``vt`` pre-multiplied by the right ones, transposed
        (LAPACK's ``NRU`` / ``NCVT`` convention).  Each defaults to the
        ``n x n`` identity.  Passing BND2BD's ``q`` and ``pt`` gives the
        SVD of the band (``band = u · diag(σ) · vt``).

    Returns
    -------
    BdsqrResult
        Singular values in descending order with matching ``u`` / ``vt``.

    Raises
    ------
    ConvergenceError
        ``dbdsqr`` did not converge (``info > 0``); ``u`` and ``vt`` then
        hold partial updates.
    """
    d, e = _diagonals(d, e)
    n = d.size
    u = np.eye(n, order="F") if u is None else u
    vt = np.eye(n, order="F") if vt is None else vt
    big = _max_abs(d, e)
    scale = math.frexp(big)[1] if big > 0.0 and not _SAFE_MIN <= big <= _SAFE_MAX else 0
    sigma = _dbdsqr(d, e, scale, vt, u)
    return BdsqrResult(singular_values=sigma, u=u, vt=vt)


# --------------------------------------------------------------------------- #
# Bisection on the Golub–Kahan tridiagonal form
# --------------------------------------------------------------------------- #
def _tgk_offdiagonal(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Off-diagonal of the (permuted) Golub–Kahan tridiagonal ``TGK``.

    ``TGK`` is the ``2n x 2n`` symmetric tridiagonal matrix with zero
    diagonal and off-diagonal ``[d_1, e_1, d_2, e_2, ..., e_{n-1}, d_n]``;
    its eigenvalues are ``±σ_i(B)``.
    """
    n = d.size
    off = np.zeros(2 * n - 1)
    off[0::2] = d
    if n > 1:
        off[1::2] = e
    return off


def _sturm_count(offdiag: np.ndarray, x: float) -> int:
    """Number of eigenvalues of the zero-diagonal tridiagonal that are < x."""
    count = 0
    q = -x
    if q < 0.0:
        count += 1
    tiny = 1e-300
    for b in offdiag:
        if q == 0.0:
            q = tiny
        q = -x - (b * b) / q
        if q < 0.0:
            count += 1
    return count


def bidiagonal_sv_bisection(
    d: np.ndarray,
    e: np.ndarray,
    *,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> np.ndarray:
    """Singular values of ``bidiag(d, e)`` by bisection on Sturm counts.

    Robust (never fails to converge) but slower than ``dbdsqr``; used as
    an independent cross-check.  The counts run on ``TGK`` scaled by a
    power of two to a largest entry in ``[0.5, 1)``, where squaring the
    entries neither overflows nor loses the large ones, and each σ stops
    once its bracket is within ``tol`` times ``TGK``'s Gershgorin bound:
    σ comes out to about ``tol·σ_max`` at any scale.
    """
    d, e = _diagonals(d, e)
    n = d.size
    big = _max_abs(d, e)
    if big == 0.0:
        return np.zeros(n)
    scale = math.frexp(big)[1]
    off = np.ldexp(_tgk_offdiagonal(d, e), -scale)
    # Gershgorin on TGK (zero diagonal): every |eigenvalue| is at most the
    # sum of the two off-diagonal entries in its row.
    padded = np.abs(np.concatenate([[0.0], off, [0.0]]))
    bound = float(np.max(padded[:-1] + padded[1:]))

    sigmas = np.zeros(n)
    for k in range(1, n + 1):
        # TGK's eigenvalues are -σ_1 <= ... <= -σ_n <= σ_n <= ... <= σ_1,
        # so the k-th largest σ is the (2n - k + 1)-th smallest: the count
        # of eigenvalues below x reaches 2n - k + 1 once x exceeds σ_k.
        target = 2 * n - k + 1
        lo_x, hi_x = 0.0, bound * (1.0 + 1e-10)
        for _ in range(max_iter):
            mid = 0.5 * (lo_x + hi_x)
            if _sturm_count(off, mid) >= target:
                hi_x = mid
            else:
                lo_x = mid
            if hi_x - lo_x <= tol * bound:
                break
        sigmas[k - 1] = 0.5 * (lo_x + hi_x)
    return np.ldexp(sigmas, scale)
