"""Tiled algorithms and the numeric stages of the SVD pipeline.

The tiled QR, BIDIAG and R-BIDIAG (GE2BND) drivers, which issue tile
operations to a :class:`KernelExecutor` (the compiler records them into a
Program), BND2BD bulge chasing and the BD2VAL bidiagonal solvers.
:func:`repro.api.execute` with the ``"numeric"`` backend replays the
Program and chains the stages into GE2VAL and GESVD.
"""

from repro.algorithms.executor import KernelExecutor, NumericExecutor
from repro.algorithms.tiled_qr import tiled_qr, qr_step
from repro.algorithms.bidiag import bidiag_ge2bnd, lq_step
from repro.algorithms.rbidiag import rbidiag_ge2bnd
from repro.algorithms.band import BandBidiagonal, extract_band
from repro.algorithms.bnd2bd import band_to_bidiagonal
from repro.algorithms.bd2val import (
    ConvergenceError,
    bdsqr,
    bidiagonal_singular_values,
    bidiagonal_sv_bisection,
)

__all__ = [
    "KernelExecutor",
    "NumericExecutor",
    "tiled_qr",
    "qr_step",
    "lq_step",
    "bidiag_ge2bnd",
    "rbidiag_ge2bnd",
    "BandBidiagonal",
    "extract_band",
    "band_to_bidiagonal",
    "bidiagonal_singular_values",
    "bidiagonal_sv_bisection",
    "bdsqr",
    "ConvergenceError",
]
