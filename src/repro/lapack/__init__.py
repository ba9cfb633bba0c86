"""Classical (non-tiled) LAPACK-style baselines.

The paper positions the tiled two-stage algorithms against the classical
one-stage reductions found in LAPACK and ScaLAPACK (Section II).  This
subpackage implements those baselines (the bidiagonal reductions from
scratch, the QR through LAPACK itself) so they can be compared
numerically and used as references in tests and benchmarks:

* :mod:`repro.lapack.gebd2` — the unblocked Golub–Kahan bidiagonalization
  (LAPACK ``xGEBD2``), one Householder reflector per column and per row;
* :mod:`repro.lapack.gebrd` — the panel-blocked one-stage bidiagonalization
  (LAPACK ``xGEBRD``), organised in panels of ``nb`` columns;
* :mod:`repro.lapack.geqrf` — blocked Householder QR (LAPACK ``xGEQRF``),
  the building block of Chan's algorithm, as one LAPACK ``dgeqrt`` call;
* :mod:`repro.lapack.chan` — Chan's algorithm (preQR + bidiagonalization of
  the R factor) together with its flop-count crossover analysis.
"""

from repro.lapack.gebd2 import gebd2, gebd2_flops
from repro.lapack.gebrd import gebrd, gebrd_level3_fraction
from repro.lapack.geqrf import geqrf, geqrf_flops, form_q_from_qr
from repro.lapack.chan import chan_bidiagonalization, chan_flops, chan_crossover

__all__ = [
    "gebd2",
    "gebd2_flops",
    "gebrd",
    "gebrd_level3_fraction",
    "geqrf",
    "geqrf_flops",
    "form_q_from_qr",
    "chan_bidiagonalization",
    "chan_flops",
    "chan_crossover",
]
