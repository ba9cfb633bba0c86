"""BND2BD: reduce a band (upper, bandwidth ``nb``) matrix to bidiagonal form.

This is the second stage of the two-stage approach (Großer & Lang; PLASMA's
``BND2BD``): the band produced by GE2BND is reduced to a proper bidiagonal
matrix by a *bulge chase*.  Sweep ``i`` annihilates row ``i`` beyond the
superdiagonal; each annihilation fills an entry below the band (a bulge),
whose removal fills one a band width further right, and so on down the
band.  The stage performs ``O(n^2 nb)`` flops on the band and the transient
bulges — much less work than GE2BND but memory-bound, which is why the
paper keeps it on a single node.

The chase is one call of LAPACK's ``dgbbrd`` (Kaufman, "Banded eigenvalue
solvers on vector machines", ACM TOMS 10(1), 1984) on the packed band
(:mod:`repro.kernels.flapack`).  ``dgbbrd`` chases the bulges with Givens
rotations, where PLASMA's second stage (Ltaief, Luszczek & Dongarra, ACM
TOMS 39(3), 2013) applies Householder reflectors to tiles; the numeric
second stage is sequential either way, and the runtime simulator prices
BND2BD with the analytic cost of :mod:`repro.models.flops`, not this code.
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
    vectors: bool = False,
) -> Tuple[np.ndarray, ...]:
    """Reduce an upper-banded matrix to upper bidiagonal form.

    Parameters
    ----------
    band:
        Either a :class:`~repro.algorithms.band.BandBidiagonal` or a dense
        square array that is upper banded; a dense array with a nonzero
        entry below the diagonal or past ``bandwidth`` raises
        :class:`ValueError`.
    bandwidth:
        Required when ``band`` is a dense array; ignored otherwise.
    vectors:
        Also return the orthogonal factors of the reduction.

    Returns
    -------
    (d, e) or (d, e, q, pt):
        Main diagonal and superdiagonal of the bidiagonal factor, whose
        singular values equal those of the input band; with ``vectors``
        also the Fortran-ordered ``n x n`` factors with
        ``band = q · bidiag(d, e) · pt``, ready to pass to
        :func:`~repro.algorithms.bd2val.bdsqr` as its ``u`` and ``vt``.
    """
    if not isinstance(band, BandBidiagonal):
        band = _packed(band, bandwidth)
    n = band.n
    ku = min(band.bandwidth, n - 1)
    # LAPACK's band storage is the packed band upside down: row ku - k of
    # ``ab`` holds superdiagonal k.  A private copy: dgbbrd overwrites it.
    ab = np.array(band.data[ku::-1], dtype=float, order="F")
    finite = np.isfinite(ab)
    if not finite.all():
        row, col = min((j - ku + r, j) for r, j in np.argwhere(~finite))
        raise ValueError(
            f"the band must be finite: entry ({row}, {col}) is {ab[ku - col + row, col]}"
        )
    if not vectors:
        return flapack.dgbbrd(ab)
    q, pt = np.empty((n, n), order="F"), np.empty((n, n), order="F")
    d, e = flapack.dgbbrd(ab, q, pt)
    return d, e, q, pt


def _packed(dense: np.ndarray, bandwidth: Optional[int]) -> BandBidiagonal:
    """The band of a dense square array, which must have no nonzero entry
    below the diagonal or past ``bandwidth``."""
    a = np.asarray(dense, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if bandwidth is None:
        raise ValueError("bandwidth is required when passing a dense array")
    bandwidth = int(bandwidth)
    outside = np.argwhere(np.tril(a, -1) + np.triu(a, bandwidth + 1))
    if outside.size:
        row, col = outside[0]
        raise ValueError(
            f"the matrix must be upper banded with bandwidth {bandwidth}: "
            f"entry ({row}, {col}) is {a[row, col]}"
        )
    return BandBidiagonal.from_dense(a, bandwidth)
