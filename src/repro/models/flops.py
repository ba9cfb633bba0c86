"""Operation counts (Section III-C and Section VI-B of the paper).

All counts are in floating-point operations for a real ``m x n`` matrix
with ``m >= n``:

* direct bidiagonalization (GE2BD / GE2BND): ``4 n^2 (m - n/3)``;
* R-bidiagonalization (QR first):            ``2 n^2 (m + n)``;
* the crossover (Chan): R-BIDIAG is cheaper whenever ``m >= 5n/3``.

For *performance reporting* the paper always divides by the direct
bidiagonalization count, even when R-BIDIAG is used ("we use the same
number of flops as for BIDIAG"), so that GFlop/s of the two variants are
directly comparable; :func:`ge2bnd_reported_flops` implements that
convention.
"""

from __future__ import annotations

#: Chan's crossover ratio ``m / n``: R-bidiagonalization performs fewer
#: flops than direct bidiagonalization as soon as ``m >= 5n/3``.
CHAN_FLOP_CROSSOVER = 5.0 / 3.0


def _check_mn(m: int, n: int) -> None:
    if m < 1 or n < 1:
        raise ValueError(f"matrix dimensions must be >= 1, got {m}x{n}")
    if m < n:
        raise ValueError(f"expected m >= n, got {m}x{n}")


def ge2bd_flops(m: int, n: int) -> float:
    """Flops of the direct (one-stage or tiled) bidiagonalization: ``4n^2(m - n/3)``."""
    _check_mn(m, n)
    return 4.0 * n * n * (m - n / 3.0)


def rbidiag_flops(m: int, n: int) -> float:
    """Flops of R-bidiagonalization (QR + square bidiagonalization): ``2n^2(m + n)``."""
    _check_mn(m, n)
    return 2.0 * n * n * (m + n)


def chan_crossover_m(n: int) -> float:
    """The row count above which R-BIDIAG performs fewer flops: ``m = 5n/3``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return CHAN_FLOP_CROSSOVER * n


def ge2bnd_reported_flops(m: int, n: int) -> float:
    """Operation count used to report GE2BND GFlop/s (paper convention).

    Both BIDIAG and R-BIDIAG runs are normalised by the direct
    bidiagonalization count so their GFlop/s are comparable.
    """
    return ge2bd_flops(m, n)


def bnd2bd_flops(n: int, nb: int) -> float:
    """Approximate flops of the band-to-bidiagonal bulge chasing.

    Each of the ``O(n^2 / 2)`` annihilated band entries triggers a chase of
    ``O(n / nb)`` steps, each applying two Givens rotations over ``O(nb)``
    elements — about ``6 n^2 nb`` flops in total (the classical estimate for
    the one-stage band reduction).  The constant only matters for the
    performance model of the second stage, which the paper keeps on a
    single node.
    """
    if n < 1 or nb < 1:
        raise ValueError("n and nb must be >= 1")
    return 6.0 * n * n * nb


def bd2val_flops(n: int) -> float:
    """Approximate flops of the bidiagonal QR iteration (singular values only).

    About 2–3 sweeps per singular value, each sweep costing ``O(n)`` — the
    paper treats this cost as negligible ``O(n^2)``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return 30.0 * n * n


def ge2val_reported_flops(m: int, n: int) -> float:
    """Operation count used to report GE2VAL GFlop/s (paper convention).

    The BND2BD and BD2VAL stages add only lower-order terms, so GE2VAL is
    normalised with the same count as GE2BND.
    """
    return ge2bd_flops(m, n)
