#!/usr/bin/env python3
"""Singular vectors with the two-stage tiled pipeline (GESVD).

The paper focuses on singular *values* (GE2VAL) and lists the computation
of singular vectors — applying every reduction stage in reverse on the
vectors — as the costly extension (Section II, Section VII).  This example
runs that full pipeline on a low-rank-plus-noise matrix, the typical PCA /
compression scenario that motivates large SVDs:

1. GE2BND (tiled BIDIAG or R-BIDIAG) with transformation logging;
2. BND2BD, one LAPACK ``dgbbrd`` call that also forms its orthogonal
   factors Q and Pᵀ;
3. BD2VAL, one ``dbdsqr`` call whose QR iteration applies its rotations
   to those factors;
4. composition of the three orthogonal factors.

It then uses the vectors to build the best rank-k approximation
(Eckart–Young) and reports the per-stage timings, showing where the
vector-accumulation overhead lives.

Run:  python examples/singular_vectors.py
"""

import numpy as np

from repro import SvdPlan, execute
from repro.utils.validation import orthogonality_error, reconstruction_error


def make_low_rank_plus_noise(m: int, n: int, rank: int, noise: float, seed: int = 0):
    """A rank-``rank`` signal matrix plus dense Gaussian noise."""
    rng = np.random.default_rng(seed)
    left = rng.standard_normal((m, rank))
    right = rng.standard_normal((rank, n))
    signal = left @ right / np.sqrt(rank)
    return signal + noise * rng.standard_normal((m, n)), signal


def main() -> None:
    m, n, rank = 180, 90, 8
    a, signal = make_low_rank_plus_noise(m, n, rank, noise=0.05, seed=3)

    print(f"matrix: {m} x {n}, true signal rank {rank}, tile size 18")
    plan = SvdPlan(matrix=a, stage="gesvd", tile_size=18, tree="auto", n_cores=8)
    result = execute(plan, backend="numeric")

    print("\nstage timings (seconds):")
    for stage, seconds in result.stage_seconds.items():
        print(f"  {stage:16s} {seconds:8.4f}")

    # Accuracy of the factorization itself.
    print("\naccuracy:")
    print(f"  reconstruction error ||A - U S V^T|| / ||A|| : "
          f"{reconstruction_error(a, result.u, result.singular_values, result.vt):.2e}")
    print(f"  left orthogonality  ||U^T U - I||            : {orthogonality_error(result.u):.2e}")
    print(f"  right orthogonality ||V V^T - I||            : {orthogonality_error(result.vt.T):.2e}")
    ref = np.linalg.svd(a, compute_uv=False)
    print(f"  max singular-value error vs numpy            : "
          f"{np.max(np.abs(result.singular_values - ref)) / ref[0]:.2e}")

    # Eckart-Young: the leading singular vectors capture the signal.
    print("\nlow-rank approximation (Eckart-Young):")
    for k in (2, rank, 2 * rank):
        approx = (result.u[:, :k] * result.singular_values[:k]) @ result.vt[:k, :]
        err = np.linalg.norm(a - approx) / np.linalg.norm(a)
        sig = np.linalg.norm(signal - approx) / np.linalg.norm(signal)
        print(f"  rank {k:3d}: relative error vs A = {err:.3f}, vs noiseless signal = {sig:.3f}")

    # The spectrum itself shows the rank-8 signal followed by the noise floor.
    print("\nleading singular values:")
    print("  " + "  ".join(f"{s:.2f}" for s in result.singular_values[: rank + 4]))


if __name__ == "__main__":
    main()
