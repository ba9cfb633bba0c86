"""BND2BD: reduce a band (upper, bandwidth ``nb``) matrix to bidiagonal form.

This is the second stage of the two-stage approach (Großer & Lang; PLASMA's
``BND2BD``): the band produced by GE2BND is reduced to a proper bidiagonal
matrix by *bulge chasing* with Givens rotations.  Each band element beyond
the first superdiagonal is annihilated by a column rotation whose fill-in
(a bulge) is chased down and off the matrix by alternating row and column
rotations.  The stage performs ``O(n^2 b)`` flops on an ``O(n b)`` data
footprint — much less work than GE2BND but memory-bound, which is why the
paper keeps it on a single node.

The implementation operates on a dense copy for indexing simplicity (the
matrices handed to the *numeric* layer are moderate) but only ever touches
the banded region plus the transient bulge, so its operation count matches
the real algorithm; the runtime simulator uses the analytic cost from
:mod:`repro.models.flops`, not this code.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.algorithms.band import BandBidiagonal
from repro.algorithms.bd2val import _givens, _rotate_cols, _rotate_rows


def band_to_bidiagonal(
    band: "BandBidiagonal | np.ndarray",
    bandwidth: Optional[int] = None,
    *,
    zero_tol: float = 0.0,
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
    zero_tol:
        Entries whose magnitude is at most ``zero_tol`` are treated as
        already zero (skipping their annihilation).
    u, vt:
        Optional accumulators, updated in place (the ``NRU`` / ``NCVT``
        convention of LAPACK ``dbdsqr``): every left rotation of the band is
        applied to the columns of ``u`` (``n`` columns) and every right
        rotation to the rows of ``vt`` (``n`` rows).  Passed in as
        identities they come back as the orthogonal factors of the
        reduction, ``B_band = u · bidiag(d, e) · vt`` — the piece that
        extends GE2VAL to singular vectors (GESVD).

    Returns
    -------
    (d, e):
        Main diagonal and superdiagonal of the bidiagonal factor.  Its
        singular values equal those of the input band.
    """
    if isinstance(band, BandBidiagonal):
        b = band.to_dense()
        bw = band.bandwidth
    else:
        b = np.array(band, dtype=float, copy=True)
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
    if n == 1:
        return np.array([b[0, 0]]), np.array([])
    if bw == 1:
        return np.diagonal(b).copy(), np.diagonal(b, offset=1).copy()

    for i in range(n - 1):
        # Annihilate the band elements of row i beyond the superdiagonal,
        # rightmost first so earlier zeros are preserved.
        for j in range(min(i + bw, n - 1), i + 1, -1):
            if abs(b[i, j]) <= zero_tol:
                continue
            # Column rotation (j-1, j) zeroing b[i, j]; may create a
            # subdiagonal bulge at (j, j-1).
            c, s, _ = _givens(b[i, j - 1], b[i, j])
            _rotate_cols(b, j - 1, j, c, s, stop=min(j + 1, n))
            if vt is not None:
                _rotate_rows(vt, j - 1, j, c, s)
            b[i, j] = 0.0

            bulge_row, bulge_col = j, j - 1
            while True:
                if abs(b[bulge_row, bulge_col]) <= zero_tol:
                    b[bulge_row, bulge_col] = 0.0
                    break
                # Row rotation (bulge_col, bulge_row) removing the
                # subdiagonal bulge; may create an above-band bulge at
                # (bulge_col, bulge_row + bw).
                c, s, _ = _givens(b[bulge_col, bulge_col], b[bulge_row, bulge_col])
                _rotate_rows(b, bulge_col, bulge_row, c, s, start=bulge_col)
                if u is not None:
                    _rotate_cols(u, bulge_col, bulge_row, c, s)
                b[bulge_row, bulge_col] = 0.0

                fill_row, fill_col = bulge_col, bulge_row + bw
                if fill_col >= n or abs(b[fill_row, fill_col]) <= zero_tol:
                    break
                # Column rotation (fill_col-1, fill_col) removing the
                # above-band bulge; may create the next subdiagonal bulge at
                # (fill_col, fill_col - 1).
                c, s, _ = _givens(b[fill_row, fill_col - 1], b[fill_row, fill_col])
                _rotate_cols(b, fill_col - 1, fill_col, c, s, stop=min(fill_col + 1, n))
                if vt is not None:
                    _rotate_rows(vt, fill_col - 1, fill_col, c, s)
                b[fill_row, fill_col] = 0.0
                bulge_row, bulge_col = fill_col, fill_col - 1

    d = np.diagonal(b).copy()
    e = np.diagonal(b, offset=1).copy()
    return d, e
