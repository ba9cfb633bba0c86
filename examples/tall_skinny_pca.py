#!/usr/bin/env python3
"""Tall-and-skinny SVD for principal component analysis.

The paper's motivating use case: PCA needs the singular values (and a few
singular vectors) of a very tall data matrix — many samples, few features.
This is exactly the regime where R-BIDIAG (QR first, then bidiagonalize the
small R factor) pays off: Chan's crossover puts the switch at m >= 5n/3.

The example

* builds a synthetic data set with a known low-dimensional structure,
* runs both BIDIAG and R-BIDIAG numerically and checks they agree,
* compares their *critical paths* (the paper's contribution: the comparison
  in parallel time, not flops),
* and extracts the leading principal components with the ``gesvd`` stage.

Run:  python examples/tall_skinny_pca.py
"""

import numpy as np

from repro import SvdPlan, execute
from repro.analysis.crossover import measured_bidiag_cp, measured_rbidiag_cp
from repro.models.flops import chan_crossover_m, ge2bd_flops, rbidiag_flops
from repro.utils.validation import max_relative_error


def make_dataset(n_samples: int, n_features: int, n_components: int, rng) -> np.ndarray:
    """Samples drawn from a low-rank linear model plus isotropic noise."""
    basis = rng.standard_normal((n_components, n_features))
    weights = rng.standard_normal((n_samples, n_components)) * np.linspace(
        5.0, 1.0, n_components
    )
    noise = 0.05 * rng.standard_normal((n_samples, n_features))
    return weights @ basis + noise


def main() -> None:
    rng = np.random.default_rng(3)
    n_samples, n_features, n_components = 600, 48, 5
    data = make_dataset(n_samples, n_features, n_components, rng)
    data -= data.mean(axis=0)

    # ----------------------------------------------------------------- #
    # Flop counts: where is Chan's crossover for this shape?
    # ----------------------------------------------------------------- #
    print(f"data matrix: {n_samples} x {n_features}")
    print(f"Chan crossover at m = 5n/3 = {chan_crossover_m(n_features):.0f} rows")
    print(f"  BIDIAG   flops: {ge2bd_flops(n_samples, n_features) / 1e6:8.1f} Mflop")
    print(f"  R-BIDIAG flops: {rbidiag_flops(n_samples, n_features) / 1e6:8.1f} Mflop")

    # ----------------------------------------------------------------- #
    # Numerical agreement of the two variants
    # ----------------------------------------------------------------- #
    sv_bidiag, sv_rbidiag = (
        execute(SvdPlan(matrix=data, tile_size=12, variant=variant, tree="greedy"),
                backend="numeric").singular_values
        for variant in ("bidiag", "rbidiag")
    )
    print(f"\nBIDIAG vs R-BIDIAG singular values agree to "
          f"{max_relative_error(sv_rbidiag, sv_bidiag):.2e}")

    # ----------------------------------------------------------------- #
    # Critical paths (parallel time with unbounded resources)
    # ----------------------------------------------------------------- #
    p, q = 50, 4  # tile shape of a 600x48 matrix with nb=12
    cp_b = measured_bidiag_cp(p, q)
    cp_r = measured_rbidiag_cp(p, q)
    print(f"\ncritical paths for the {p}x{q} tile shape (units of nb^3/3 flops):")
    print(f"  BIDIAG-GREEDY   : {cp_b:.0f}")
    print(f"  R-BIDIAG-GREEDY : {cp_r:.0f}   ({cp_b / cp_r:.2f}x shorter)" if cp_r < cp_b
          else f"  R-BIDIAG-GREEDY : {cp_r:.0f}")

    # ----------------------------------------------------------------- #
    # PCA: energy captured by the leading components
    # ----------------------------------------------------------------- #
    plan = SvdPlan(matrix=data, tile_size=12, variant="rbidiag", stage="gesvd")
    pca = execute(plan, backend="numeric")
    u, s = pca.u, pca.singular_values
    energy = np.cumsum(s**2) / np.sum(s**2)
    print("\nPCA spectrum (cumulative explained variance):")
    for k in range(min(8, s.size)):
        marker = " <-- planted components" if k == n_components - 1 else ""
        print(f"  {k + 1:2d} components: {energy[k] * 100:6.2f} %{marker}")
    scores = u[:, :n_components] * s[:n_components]
    print(f"\nprojected data (scores) shape: {scores.shape}")


if __name__ == "__main__":
    main()
