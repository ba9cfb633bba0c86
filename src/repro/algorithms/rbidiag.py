"""R-BIDIAG: R-bidiagonalization (Section III-C).

For tall-and-skinny matrices (``p`` much larger than ``q``) it is cheaper to
first compute a QR factorization of the whole matrix and then bidiagonalize
the ``q x q`` R factor:

``QR(p, q); LQ(1); QR(2); LQ(2); ...; LQ(q-1); QR(q)``

(the first QR step of the bidiagonalization is skipped because column 0 of
R is already reduced).  The flop counts are ``4 n^2 (m - n/3)`` for BIDIAG
versus ``2 n^2 (m + n)`` for R-BIDIAG, so R-BIDIAG performs fewer operations
as soon as ``m >= 5n/3``; the paper's contribution is to compare the two in
terms of *critical path* instead.
"""

from __future__ import annotations

from typing import Optional

from repro.algorithms.bidiag import bidiag_ge2bnd
from repro.algorithms.executor import KernelExecutor
from repro.algorithms.tiled_qr import tiled_qr
from repro.trees import GreedyTree
from repro.trees.base import ReductionTree


def rbidiag_ge2bnd(
    executor: KernelExecutor,
    qr_tree: Optional[ReductionTree] = None,
    lq_tree: Optional[ReductionTree] = None,
    *,
    prequr_tree: Optional[ReductionTree] = None,
    n_cores: int = 1,
    grid_rows: int = 1,
) -> None:
    """Drive the reduction to band bidiagonal form via R-bidiagonalization.

    The whole computation happens inside the original matrix: after the
    preliminary QR, the band bidiagonal factor lives in the top-left
    ``q x q`` tile block (all other tiles are numerically zero), so the
    result can be consumed exactly like the output of
    :func:`~repro.algorithms.bidiag.bidiag_ge2bnd`.

    Parameters
    ----------
    prequr_tree:
        Tree for the preliminary ``QR(p, q)`` factorization; defaults to the
        same tree as ``qr_tree``.  Distributed configurations typically pick
        a hierarchical tree here.
    """
    if qr_tree is None:
        qr_tree = GreedyTree()
    if lq_tree is None:
        lq_tree = qr_tree
    if prequr_tree is None:
        prequr_tree = qr_tree

    p, q = executor.p, executor.q
    if p < q:
        raise ValueError(f"R-BIDIAG expects p >= q tiles, got {p}x{q}")

    # Phase 1: QR factorization of the whole p x q tile matrix.
    tiled_qr(executor, prequr_tree, n_cores=n_cores, grid_rows=grid_rows)

    # Phase 2: bidiagonalization of the q x q R factor (first QR step skipped:
    # tile column 0 is already reduced by phase 1).
    bidiag_ge2bnd(
        executor,
        qr_tree,
        lq_tree,
        n_cores=n_cores,
        grid_rows=grid_rows,
        row_limit=q,
        col_limit=q,
        skip_first_qr=True,
    )
