"""BD2VAL: singular values (and vectors) of a real upper bidiagonal matrix.

Three independent solvers are provided.  Two of them work on the
Golub–Kahan tridiagonal ``TGK`` of ``B``: the ``2n x 2n`` symmetric
tridiagonal with zero diagonal and off-diagonal ``d_1, e_1, d_2, ...,
d_n`` (``[[0, B^T], [B, 0]]`` permuted), whose eigenvalues are
``±σ_i(B)`` (Golub & Kahan, 1965).

* :func:`bidiagonal_singular_values` — the values alone, from one LAPACK
  ``dstemr`` call on ``TGK`` (MRRR; Willems, Lang & Vömel, SIMAX 2006);
* :func:`bdsqr` — the Golub–Kahan implicit-shift QR iteration on ``B``
  (the algorithm behind LAPACK ``xBDSQR``), with deflation and the
  standard zero-diagonal handling, accumulating its rotations for the
  full SVD ``bidiag(d, e) = U · diag(σ) · V^T``;
* :func:`bidiagonal_sv_bisection` — bisection on Sturm counts of ``TGK``,
  the algorithm behind ``xBDSVX``.

All take the two diagonals ``(d, e)``, reject NaN and Inf entries, and
return the singular values in descending order.  They are the last stage
of the GE2VAL / GESVD pipeline and cross-check each other in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.kernels import flapack

#: The QR iteration scales ``(d, e)`` by a power of two when their largest
#: magnitude lies outside this range: the Wilkinson shift forms fourth
#: powers of the entries, which overflow or underflow beyond it.
_SAFE_MIN = 2.0**-255
_SAFE_MAX = 2.0**255


class ConvergenceError(RuntimeError):
    """A bidiagonal solver failed to converge.

    :func:`bdsqr` raises it when its QR iteration exhausts the sweep budget,
    with the state at the failure: ``sweeps`` performed, the active
    ``block`` ``(lo, hi)`` being swept, and copies of the current diagonals
    ``d`` and ``e`` (in the input's scale).  :func:`bidiagonal_singular_values`
    raises it when ``dstemr`` reports failure, with LAPACK's ``info`` and
    the input diagonals.
    """

    def __init__(
        self,
        message: str,
        d: np.ndarray,
        e: np.ndarray,
        *,
        sweeps: int = 0,
        block: Tuple[int, int] = (0, 0),
        info: int = 0,
    ) -> None:
        super().__init__(message)
        self.d = d
        self.e = e
        self.sweeps = sweeps
        self.block = block
        self.info = info


@dataclass
class BdsqrResult:
    """SVD of an upper bidiagonal matrix.

    Attributes
    ----------
    singular_values:
        The singular values in descending order.
    u:
        Left singular vectors (``n x n``), column ``i`` pairs with
        ``singular_values[i]``.
    vt:
        Right singular vectors, transposed (``n x n``).
    sweeps:
        Number of QR sweeps performed (diagnostic).
    """

    singular_values: np.ndarray
    u: np.ndarray
    vt: np.ndarray
    sweeps: int


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


def _givens(f: float, g: float) -> Tuple[float, float, float]:
    """Return ``(c, s, r)`` with ``c*f + s*g = r`` and ``-s*f + c*g = 0``."""
    if g == 0.0:
        return 1.0, 0.0, f
    if f == 0.0:
        return 0.0, 1.0, g
    r = math.hypot(f, g)
    return f / r, g / r, r


def _rotate_cols(a: np.ndarray, c1: int, c2: int, c: float, s: float) -> None:
    """Rotate columns ``(c1, c2)`` of ``a``:
    ``c1 := c*c1 + s*c2`` and ``c2 := -s*c1 + c*c2``."""
    col1 = a[:, c1].copy()
    col2 = a[:, c2].copy()
    a[:, c1] = c * col1 + s * col2
    a[:, c2] = -s * col1 + c * col2


def _rotate_rows(a: np.ndarray, r1: int, r2: int, c: float, s: float) -> None:
    """Rotate rows ``(r1, r2)`` of ``a``, as :func:`_rotate_cols` does columns."""
    row1 = a[r1].copy()
    row2 = a[r2].copy()
    a[r1] = c * row1 + s * row2
    a[r2] = -s * row1 + c * row2


def _wilkinson_shift(d: List[float], e: List[float], lo: int, hi: int) -> float:
    """Wilkinson shift from the trailing 2x2 block of ``B^T B``."""
    dm = d[hi - 1] ** 2 + (e[hi - 2] ** 2 if hi - 1 > lo else 0.0)
    dn = d[hi] ** 2 + e[hi - 1] ** 2
    off = d[hi - 1] * e[hi - 1]
    if off == 0.0:
        return dn
    delta = (dm - dn) / 2.0
    sign = 1.0 if delta >= 0 else -1.0
    denom = delta + sign * math.hypot(delta, off)
    if denom == 0.0:
        return dn
    return dn - off * off / denom


def _gk_sweep(
    d: List[float], e: List[float], lo: int, hi: int, u: np.ndarray, vt: np.ndarray
) -> None:
    """One implicit-shift Golub–Kahan QR sweep on the block ``[lo, hi]``."""
    mu = _wilkinson_shift(d, e, lo, hi)
    y = d[lo] * d[lo] - mu
    z = d[lo] * e[lo]
    for k in range(lo, hi):
        # Right rotation on columns (k, k+1): zeroes the above-superdiagonal
        # bulge (or, at k == lo, introduces the shift).
        c, s, r = _givens(y, z)
        if k > lo:
            e[k - 1] = r
        f, g = d[k], e[k]
        d[k] = c * f + s * g
        e[k] = -s * f + c * g
        h = d[k + 1]
        bulge = s * h
        d[k + 1] = c * h
        _rotate_rows(vt, k, k + 1, c, s)
        # Left rotation on rows (k, k+1): zeroes the subdiagonal bulge.
        c, s, r = _givens(d[k], bulge)
        d[k] = r
        f, g = e[k], d[k + 1]
        e[k] = c * f + s * g
        d[k + 1] = -s * f + c * g
        _rotate_cols(u, k, k + 1, c, s)
        if k < hi - 1:
            g = e[k + 1]
            bulge = s * g
            e[k + 1] = c * g
            y = e[k]
            z = bulge


def _chase_zero_diagonal(
    d: List[float], e: List[float], hi: int, idx: int, u: np.ndarray
) -> None:
    """Rotate away the superdiagonal entry coupled to a zero diagonal ``d[idx]``.

    When ``d[idx] == 0`` the implicit QR iteration stalls; the standard cure
    (LAPACK ``dbdsqr``) applies row rotations that chase ``e[idx]`` to the
    right until it vanishes, splitting the problem.
    """
    f = e[idx]
    e[idx] = 0.0
    for j in range(idx + 1, hi + 1):
        c, s, r = _givens(d[j], f)
        d[j] = r
        _rotate_cols(u, j, idx, c, s)
        if j < hi:
            f = -s * e[j]
            e[j] = c * e[j]
        if f == 0.0:
            break


def _qr_iteration(
    d: np.ndarray, e: np.ndarray, tol: float, max_sweeps: int, u: np.ndarray, vt: np.ndarray
) -> int:
    """Diagonalize ``bidiag(d, e)`` in place; return the sweep count.

    On return ``d`` holds the signed singular values and ``e`` is zero.
    Every left rotation is folded into the columns of ``u`` and every right
    rotation into the rows of ``vt``, so identities passed in come back as
    ``U`` and ``V^T`` with ``bidiag(d, e) = U · diag(d) · V^T``.
    Raises :class:`ConvergenceError` beyond ``max_sweeps`` sweeps per
    singular value.
    """
    n = d.size
    if n < 2:
        return 0
    big = max(float(np.max(np.abs(d))), float(np.max(np.abs(e))))
    scale = 0
    if big > 0.0 and not _SAFE_MIN <= big <= _SAFE_MAX:
        # Exact power-of-two scaling into [0.5, 1): rotations are
        # scale-invariant, so only sigma needs scaling back.
        scale = math.frexp(big)[1]
        d[:] = np.ldexp(d, -scale)
        e[:] = np.ldexp(e, -scale)
        big = math.ldexp(big, -scale)
    norm = max(big, 1e-300)
    # The scalar core runs on Python floats: element access and arithmetic
    # on numpy scalars cost several times more, for the same IEEE results.
    # The shift squares with `** 2`, not `x * x`: both float types square
    # through C `pow`, which rounds differently from `x * x` on a few
    # inputs, so `** 2` keeps σ, U and V^T independent of the scalar type.
    d_out, e_out = d, e
    d, e = d.tolist(), e.tolist()
    total_sweeps = 0
    sweep_budget = max_sweeps * n
    hi = n - 1
    while hi > 0:
        # Deflate negligible superdiagonal entries.
        for i in range(hi):
            if abs(e[i]) <= tol * (abs(d[i]) + abs(d[i + 1])) + tol * norm * 1e-2:
                e[i] = 0.0
        if e[hi - 1] == 0.0:
            hi -= 1
            continue
        # Active block [lo, hi]: the largest trailing unreduced block.
        lo = hi - 1
        while lo > 0 and e[lo - 1] != 0.0:
            lo -= 1
        # Zero diagonal inside the block: split explicitly.
        zero_idx = None
        for i in range(lo, hi):
            if abs(d[i]) <= tol * norm:
                zero_idx = i
                break
        if zero_idx is not None:
            d[zero_idx] = 0.0
            _chase_zero_diagonal(d, e, hi, zero_idx, u)
            continue
        _gk_sweep(d, e, lo, hi, u, vt)
        total_sweeps += 1
        if total_sweeps > sweep_budget:
            raise ConvergenceError(
                f"bidiagonal QR iteration did not converge after {total_sweeps} "
                f"sweeps (active block {lo}..{hi})",
                np.ldexp(d, scale),
                np.ldexp(e, scale),
                sweeps=total_sweeps,
                block=(lo, hi),
            )
    d_out[:] = d
    e_out[:] = e
    if scale:
        d_out[:] = np.ldexp(d_out, scale)
    return total_sweeps


def bidiagonal_singular_values(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Singular values of the upper bidiagonal matrix ``B = bidiag(d, e)``.

    One LAPACK ``dstemr`` call (MRRR, eigenvalues only) on the Golub–Kahan
    tridiagonal ``TGK``; the ``n`` largest of its ``2n`` eigenvalues are
    ``σ(B)``, returned in descending order.  Like the QR iteration, it is
    accurate to about ``ε·‖B‖``, not to high relative accuracy in tiny σ.
    ``dsterf`` on ``TGK`` is not: on a bidiagonal whose entries span
    ``10**±150`` it misses σ by ``5.5e-4·σ_max`` (see the tests).

    Parameters
    ----------
    d, e:
        Main diagonal (length ``n``) and superdiagonal (length ``n - 1``).

    Raises
    ------
    ConvergenceError
        ``dstemr`` reported failure (``info != 0``) or fewer than ``2n``
        eigenvalues.
    """
    d, e = _diagonals(d, e)
    n = d.size
    if n == 0:
        return np.zeros(0)
    # dstemr reads an off-diagonal of length 2n; the last entry is unused.
    off = np.zeros(2 * n)
    off[:-1] = _tgk_offdiagonal(d, e)
    # range 0 is 'A' (all eigenvalues); vl, vu, il and iu are then unread.
    m, w, _, info = flapack.dstemr(np.zeros(2 * n), off, 0, 0.0, 0.0, 0, 0, compute_v=0)
    if info != 0 or m != 2 * n:
        raise ConvergenceError(
            f"dstemr on the Golub–Kahan tridiagonal failed (info {info}, "
            f"{m} of {2 * n} eigenvalues)",
            d,
            e,
            info=info,
        )
    return np.sort(np.abs(w[n:]))[::-1]


def bdsqr(
    d: np.ndarray,
    e: np.ndarray,
    *,
    tol: float = 1e-14,
    max_sweeps: int = 200,
) -> BdsqrResult:
    """Full SVD of the upper bidiagonal matrix ``bidiag(d, e)``.

    The implicit-shift Golub–Kahan QR iteration, with its rotations
    accumulated into ``U`` and ``V^T``.

    Parameters
    ----------
    d, e:
        Main diagonal (length ``n``) and superdiagonal (length ``n - 1``).
    tol:
        Relative deflation threshold for superdiagonal entries.
    max_sweeps:
        Sweep budget per singular value (:class:`ConvergenceError` beyond it).

    Returns
    -------
    BdsqrResult
        Singular values in descending order with matching ``u`` / ``vt``.
    """
    d, e = _diagonals(d, e)
    u = np.eye(d.size)
    vt = np.eye(d.size)
    sweeps = _qr_iteration(d, e, tol, max_sweeps, u, vt)
    # Fix signs (singular values must be non-negative) and sort descending.
    u = u * np.where(d < 0, -1.0, 1.0)[np.newaxis, :]
    sigma = np.abs(d)
    order = np.argsort(sigma)[::-1]
    return BdsqrResult(
        singular_values=sigma[order],
        u=u[:, order],
        vt=vt[order, :],
        sweeps=sweeps,
    )


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

    Robust (never fails to converge) but slower than ``dstemr``; used as
    an independent cross-check and for subset computations.
    """
    d, e = _diagonals(d, e)
    n = d.size
    if n == 0:
        return np.array([])
    off = _tgk_offdiagonal(d, e)
    # Upper bound on the spectral radius: Gershgorin on TGK.
    bound = 0.0
    full = np.concatenate([[0.0], np.abs(off), [0.0]])
    for i in range(full.size - 1):
        bound = max(bound, full[i] + full[i + 1])
    bound = max(bound, 1e-300)

    sigmas = np.zeros(n)
    for k in range(1, n + 1):
        # The k-th largest singular value is the (n + k)-th smallest
        # eigenvalue of TGK (eigenvalues are -σ_n <= ... <= -σ_1 <= σ_1*...
        # actually ±σ_i); equivalently the number of eigenvalues < x reaches
        # n + (n - k) + 1 once x exceeds σ_k.
        target = n + (n - k) + 1
        lo_x, hi_x = 0.0, bound * (1.0 + 1e-10)
        for _ in range(max_iter):
            mid = 0.5 * (lo_x + hi_x)
            if _sturm_count(off, mid) >= target:
                hi_x = mid
            else:
                lo_x = mid
            if hi_x - lo_x <= tol * max(1.0, hi_x):
                break
        sigmas[k - 1] = 0.5 * (lo_x + hi_x)
    return sigmas
