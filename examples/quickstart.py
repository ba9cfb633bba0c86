#!/usr/bin/env python3
"""Quickstart: compute singular values with the tiled bidiagonalization pipeline.

This walks through the full GE2VAL pipeline of the paper on a small matrix:

1. tile the matrix (nb x nb tiles);
2. GE2BND — tiled bidiagonalization (BIDIAG) with the GREEDY reduction tree;
3. BND2BD — bulge-chase the band down to a true bidiagonal matrix;
4. BD2VAL — bidiagonal QR iteration for the singular values;

and checks the result against NumPy and against the prescribed singular
values of an LATMS-style test matrix.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import SvdPlan, execute
from repro.algorithms.bd2val import bidiagonal_singular_values
from repro.algorithms.bnd2bd import band_to_bidiagonal
from repro.utils.generators import latms
from repro.utils.validation import max_relative_error, reconstruction_error


def main() -> None:
    rng = np.random.default_rng(7)

    # ----------------------------------------------------------------- #
    # 1. One-call interface
    # ----------------------------------------------------------------- #
    a = rng.standard_normal((120, 60))
    result = execute(SvdPlan(matrix=a, tile_size=12, tree="greedy"), backend="numeric")
    sv = result.singular_values
    ref = np.linalg.svd(a, compute_uv=False)
    print(f"one-call ge2val ({result.variant}, {result.p}x{result.q} tiles):")
    print(f"  max relative error vs numpy.linalg.svd : {max_relative_error(sv, ref):.2e}")

    # ----------------------------------------------------------------- #
    # 2. Stage by stage (what the one-call interface does internally)
    # ----------------------------------------------------------------- #
    plan = SvdPlan(matrix=a, tile_size=12, tree="auto", n_cores=8, stage="ge2bnd")
    band = execute(plan, backend="numeric").extras["band"]
    print("\nstage by stage:")
    print(f"  band bidiagonal form : n={band.n}, bandwidth={band.bandwidth}")
    d, e = band_to_bidiagonal(band)
    print(f"  bidiagonal factor    : {d.size} diagonal / {e.size} superdiagonal entries")
    sv_staged = bidiagonal_singular_values(d, e)
    print(f"  stage-by-stage error : {max_relative_error(sv_staged, ref):.2e}")

    # ----------------------------------------------------------------- #
    # 3. Prescribed singular values (the paper's LATMS validation)
    # ----------------------------------------------------------------- #
    sigma = np.linspace(10.0, 0.1, 40)
    a_latms = latms(100, 40, sigma, rng=rng)
    plan = SvdPlan(matrix=a_latms, tile_size=10, variant="rbidiag")
    sv_latms = execute(plan, backend="numeric").singular_values
    print("\nLATMS matrix with prescribed singular values (R-BIDIAG path):")
    print(f"  max relative error vs prescription : {max_relative_error(sv_latms, sigma):.2e}")

    # ----------------------------------------------------------------- #
    # 4. Full SVD with singular vectors
    # ----------------------------------------------------------------- #
    full = execute(SvdPlan(matrix=a, tile_size=12, stage="gesvd"), backend="numeric")
    u, s, vt = full.u, full.singular_values, full.vt
    print("\nfull SVD (gesvd):")
    print(f"  reconstruction error ||A - U S V^T|| / ||A|| : {reconstruction_error(a, u, s, vt):.2e}")


if __name__ == "__main__":
    main()
