"""Numerically exact tile kernels (one LAPACK call each) and their cost model.

The QR kernels follow the PLASMA ``core_blas`` naming (Table I of the paper):

===========  =====================================================
``GEQRT``    QR factorization of a single tile (panel kernel)
``UNMQR``    apply the GEQRT reflectors to a tile on the same row
``TSQRT``    QR of a triangle stacked on top of a square tile
``TSMQR``    apply the TSQRT reflectors to a pair of tiles
``TTQRT``    QR of a triangle stacked on top of a triangle
``TTMQR``    apply the TTQRT reflectors to a pair of tiles
===========  =====================================================

The LQ kernels (``GELQT`` / ``UNMLQ`` / ``TSLQT`` / ``TSMLQ`` / ``TTLQT`` /
``TTMLQ``) are the exact column-wise counterparts and are implemented through
the transpose duality ``LQ(A) == QR(A^T)^T``.  The LAPACK routines are
scipy's f2py wrappers, loaded on the first kernel call by
:mod:`repro.kernels.flapack`, which also serves the second stage's
routines (BND2BD's ``dgbbrd``, BD2VAL's ``dbdsqr``) through the function
pointers of scipy's ``cython_lapack``.
"""

from repro.kernels.householder import householder_vector
from repro.kernels.qr_kernels import (
    geqrt,
    unmqr,
    tsqrt,
    tsmqr,
    ttqrt,
    ttmqr,
    QRReflector,
)
from repro.kernels.lq_kernels import (
    gelqt,
    unmlq,
    tslqt,
    tsmlq,
    ttlqt,
    ttmlq,
    LQReflector,
)
from repro.kernels.costs import KERNEL_WEIGHTS, kernel_weight, kernel_flops, KernelName

__all__ = [
    "householder_vector",
    "geqrt",
    "unmqr",
    "tsqrt",
    "tsmqr",
    "ttqrt",
    "ttmqr",
    "QRReflector",
    "gelqt",
    "unmlq",
    "tslqt",
    "tsmlq",
    "ttlqt",
    "ttmlq",
    "LQReflector",
    "KERNEL_WEIGHTS",
    "kernel_weight",
    "kernel_flops",
    "KernelName",
]
