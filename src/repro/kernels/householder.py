"""Compact-WY Householder machinery on top of LAPACK.

The building blocks the tile kernels are made of:

* :func:`householder_vector` — LAPACK ``dlarfg``: one elementary reflector
  (used by the unblocked bidiagonal reductions);
* :func:`qr_factor` — Householder QR of a (possibly rectangular) block by
  one LAPACK ``dgeqrf`` call, returning the ``V`` / ``T`` compact-WY
  representation and ``R``;
* :func:`build_t_factor` — LAPACK ``dlarft`` (forward, column-wise) in
  closed form;
* :func:`apply_q` / :func:`apply_qt` — LAPACK ``dlarfb``: apply
  ``Q = I - V T V^T`` or its transpose to a block, from the left or right.

Only NumPy is used: ``dgeqrf`` is reached through
``np.linalg.qr(mode="raw")``, and ``T`` and the block reflector
applications are a handful of matrix products on whole tiles, so no
Python loop runs over the columns of a tile.

Every function but :func:`householder_vector` and :func:`form_q` also
accepts a *stack* of blocks (a leading axis of independent problems of
one shape) and treats each slice exactly as a 2-D call would: numpy runs
``dgeqrf``, the ``T`` inversion and the matrix products slice by slice,
so a stacked call gives bitwise the same result per slice.  This is what
lets the numeric replay run all the same-shaped ops of one DAG level as
one kernel call.
"""

from __future__ import annotations

import math
from functools import lru_cache
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


@lru_cache(maxsize=64)
def _trapezoids(m: int, n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only masks of an ``m x n`` ``dgeqrf`` output, ``k = min(m, n)``.

    Returns the upper trapezoid (``R``, diagonal included), the strictly
    lower ``m x k`` trapezoid (the stored part of ``V``) and ``V``'s
    implicit unit diagonal as an ``m x k`` array.  Cached because the
    kernels factor a handful of tile shapes thousands of times, and
    ``np.tril`` / ``np.triu`` would rebuild their masks on every call.
    """
    rows, cols = np.indices((m, n))
    upper = cols >= rows
    below = ~upper[:, : min(m, n)]
    unit = np.eye(m, min(m, n))
    for arr in (upper, below, unit):
        arr.setflags(write=False)
    return upper, below, unit


def build_t_factor(v: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """Build the upper-triangular ``T`` factor of the compact-WY form.

    Given the ``m x k`` matrix of Householder vectors ``V`` (unit diagonal,
    zero above) and their scalars ``tau``, returns the ``k x k`` upper
    triangular ``T`` such that ``H_1 H_2 ... H_k = I - V T V^T``
    (LAPACK ``dlarft``, direction *forward*, storage *column-wise*).  A
    stack of ``V`` (``g x m x k``) with its ``g x k`` scalars gives the
    ``g x k x k`` stack of ``T``.

    ``T`` comes from the closed form ``T^{-1} = diag(1/tau) + striu(V^T V)``
    (Joffrain et al., "Accumulating Householder transformations,
    revisited", ACM TOMS 2006) and one ``k x k`` inversion.  A reflector
    with ``tau = 0`` is the identity: it enters ``T^{-1}`` with a unit
    diagonal and no coupling, and its row and column of ``T`` are zero,
    exactly as ``dlarft`` leaves them.
    """
    v = np.asarray(v, dtype=float)
    taus = np.asarray(taus, dtype=float)
    k = taus.shape[-1]
    live = taus != 0.0
    # One mask serves T^{-1} and T: the upper triangle, less the rows and
    # columns of identity reflectors.  T is thus exactly upper triangular.
    keep = _trapezoids(k, k)[0] & (live[..., :, None] & live[..., None, :])
    t_inv = np.where(keep, v.mT @ v, 0.0)
    diag = np.arange(k)
    t_inv[..., diag, diag] = 1.0 / np.where(live, taus, 1.0)
    return np.where(keep, np.linalg.inv(t_inv), 0.0)


def qr_factor(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Householder QR factorization ``A = Q R`` by one LAPACK ``dgeqrf`` call.

    Returns ``(V, T, R)`` where ``Q = I - V T V^T`` is ``m x m`` orthogonal,
    ``V`` is ``m x k`` unit-lower-trapezoidal (``k = min(m, n)``) and ``R``
    is the ``m x n`` upper-trapezoidal factor (zero below the diagonal).
    A stack of ``g`` blocks (``g x m x n``) gives stacks of all three, one
    ``dgeqrf`` call per slice.

    ``V`` and ``R`` are unpacked from ``dgeqrf``'s output
    (``np.linalg.qr(mode="raw")``) and ``T`` is built by
    :func:`build_t_factor`.  ``dgeqrf`` (through ``dlarfg``) gives a
    length-1 or exactly zero sub-column ``tau = 0``; that reflector is the
    identity and its row and column of ``T`` are zero.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2:
        raise ValueError("qr_factor expects a 2-D array or a stack of them")
    upper, below, unit = _trapezoids(*a.shape[-2:])
    # np.linalg.qr returns LAPACK's packed array transposed: R on and above
    # the diagonal, the Householder vectors below it.
    packed, taus = np.linalg.qr(a, mode="raw")
    packed = packed.mT
    v = np.where(below, packed[..., : unit.shape[1]], unit)
    return v, build_t_factor(v, taus), np.where(upper, packed, 0.0)


def apply_qt(v: np.ndarray, t: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Apply ``Q^T = I - V T^T V^T`` to ``C`` from the left; ``C`` is unchanged."""
    return c - v @ (t.mT @ (v.mT @ c))


def apply_q(v: np.ndarray, t: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Apply ``Q = I - V T V^T`` to ``C`` from the left; ``C`` is unchanged."""
    return c - v @ (t @ (v.mT @ c))


def apply_q_right(v: np.ndarray, t: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Apply ``Q = I - V T V^T`` to ``C`` from the right; ``C`` is unchanged."""
    return c - ((c @ v) @ t) @ v.mT


def apply_qt_right(v: np.ndarray, t: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Apply ``Q^T = I - V T^T V^T`` to ``C`` from the right; ``C`` is unchanged."""
    return c - ((c @ v) @ t.mT) @ v.mT


def form_q(v: np.ndarray, t: np.ndarray, m: int | None = None) -> np.ndarray:
    """Explicitly form the orthogonal factor ``Q = I - V T V^T``.

    Mostly useful in tests and for accumulating singular vectors on small
    problems; the tiled algorithms themselves never form ``Q`` explicitly.
    """
    rows = v.shape[0] if m is None else m
    if rows < v.shape[0]:
        raise ValueError("m must be at least the number of rows of V")
    q = np.eye(rows)
    q[: v.shape[0], : v.shape[0]] -= v @ t @ v.T
    return q
