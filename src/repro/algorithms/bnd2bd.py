"""BND2BD: reduce a band (upper, bandwidth ``nb``) matrix to bidiagonal form.

This is the second stage of the two-stage approach (Großer & Lang; PLASMA's
``BND2BD``): the band produced by GE2BND is reduced to a proper bidiagonal
matrix by a Householder *bulge chase*, the scheme of PLASMA's second stage
(Ltaief, Luszczek & Dongarra, "High-performance bidiagonal reduction using
tile algorithms on homogeneous multicore architectures", ACM TOMS 39(3),
2013) and of successive band reduction (Bischof, Lang & Sun, ACM TOMS
26(4), 2000).

Sweep ``i`` annihilates row ``i`` beyond the superdiagonal with one right
reflector.  That fills the ``nb x nb`` block below it (a bulge); one left
reflector removes the bulge's first column, which pushes fill one band
width to the right of the block's top row, and the next right reflector
removes that row.  The sweep walks down the band this way, one reflector
per bulge row or column.  The rest of each bulge (its lower triangle past
the first column) stays behind and the following sweeps clear it, as
PLASMA's element-wise kernels do.  Every reflector touches a block of at
most ``2 nb x nb`` entries, so the stage performs ``O(n^2 nb)`` flops on
the band plus the transient bulges — much less work than GE2BND but
memory-bound, which is why the paper keeps it on a single node.

Each reflector is one LAPACK ``dlarfg`` call and each update one ``dlarf``
call (:mod:`repro.kernels.flapack`), as in LAPACK's ``dgebd2``.  The
implementation works on a dense copy for indexing simplicity (the
matrices handed to the *numeric* layer are moderate); the runtime
simulator uses the analytic cost from :mod:`repro.models.flops`, not this
code.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.algorithms.band import BandBidiagonal
from repro.kernels import flapack


def band_to_bidiagonal(
    band: "BandBidiagonal | np.ndarray",
    bandwidth: Optional[int] = None,
    *,
    u: Optional[np.ndarray] = None,
    vt: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Reduce an upper-banded matrix to upper bidiagonal form.

    Parameters
    ----------
    band:
        Either a :class:`~repro.algorithms.band.BandBidiagonal` or a dense
        square array that is upper banded.
    bandwidth:
        Required when ``band`` is a dense array; ignored otherwise.
    u, vt:
        Optional accumulators, updated in place (the ``NRU`` / ``NCVT``
        convention of LAPACK ``dbdsqr``): every left reflector of the band
        is applied to the columns of ``u`` (``n`` columns) and every right
        reflector to the rows of ``vt`` (``n`` rows).  Passed in as
        identities they come back as the orthogonal factors of the
        reduction, ``B_band = u · bidiag(d, e) · vt`` — the piece that
        extends GE2VAL to singular vectors (GESVD).

    Returns
    -------
    (d, e):
        Main diagonal and superdiagonal of the bidiagonal factor.  Its
        singular values equal those of the input band.
    """
    # Fortran order: f2py's copies of the blocks dlarf updates are cheaper.
    if isinstance(band, BandBidiagonal):
        b = np.asfortranarray(band.to_dense())
        bw = band.bandwidth
    else:
        b = np.array(band, dtype=float, order="F", copy=True)
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {b.shape}")
        if bandwidth is None:
            raise ValueError("bandwidth is required when passing a dense array")
        bw = int(bandwidth)
    n = b.shape[0]
    if bw < 1:
        raise ValueError("bandwidth must be >= 1")
    if (u is not None and u.shape[1] != n) or (vt is not None and vt.shape[0] != n):
        raise ValueError(f"u needs {n} columns and vt {n} rows")
    finite = np.isfinite(b)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise ValueError(f"the band must be finite: entry ({row}, {col}) is {b[row, col]}")
    if n == 1:
        return np.array([b[0, 0]]), np.array([])
    if bw == 1:
        return np.diagonal(b).copy(), np.diagonal(b, offset=1).copy()

    dlarfg, dlarf = flapack.dlarfg, flapack.dlarf
    # dlarf's workspace: one entry per row of a block it updates from the
    # right, per column of one it updates from the left.
    work = np.empty(max(n, 0 if u is None else u.shape[0], 0 if vt is None else vt.shape[1]))
    v = np.empty(bw)
    v[0] = 1.0
    # The update slices below cover every nonzero a reflector reaches, the
    # bulge fill included; a narrower slice silently drops part of it.
    # f2py hands dlarf a copy of each slice, so the result is stored back.
    for i in range(n - 1):
        row, c0 = i, i + 1
        while c0 + 1 < n:  # the block [c0, c1) has two or more columns
            c1 = min(c0 + bw, n)
            h = v[: c1 - c0]
            # Right reflector on columns [c0, c1): zeroes row `row` past
            # column c0 and fills the block below it (the bulge).  A zero
            # tau needs no update, but the sweep goes on: the bulges that
            # earlier sweeps left behind still need clearing further down.
            beta, h[1:], tau = dlarfg(c1 - c0, b[row, c0], b[row, c0 + 1 : c1])
            if tau != 0.0:
                b[row + 1 : c1, c0:c1] = dlarf(h, tau, b[row + 1 : c1, c0:c1], work, side="R")
                if vt is not None:
                    vt[c0:c1] = dlarf(h, tau, vt[c0:c1], work, side="L")
            b[row, c0] = beta
            b[row, c0 + 1 : c1] = 0.0
            # Left reflector on rows [c0, c1): zeroes the bulge's first
            # column and spills the rows up to one band width past the
            # block; the next step's right reflector clears row c0.
            end = min(c1 + bw, n)
            beta, h[1:], tau = dlarfg(c1 - c0, b[c0, c0], b[c0 + 1 : c1, c0])
            if tau != 0.0:
                b[c0:c1, c0 + 1 : end] = dlarf(h, tau, b[c0:c1, c0 + 1 : end], work, side="L")
                if u is not None:
                    u[:, c0:c1] = dlarf(h, tau, u[:, c0:c1], work, side="R")
            b[c0, c0] = beta
            b[c0 + 1 : c1, c0] = 0.0
            row, c0 = c0, c0 + bw

    d = np.diagonal(b).copy()
    e = np.diagonal(b, offset=1).copy()
    return d, e
