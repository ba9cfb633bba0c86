"""BIDIAG: tiled bidiagonalization (GE2BND, Section III-B).

The algorithm interleaves one QR step and one LQ step:

``QR(1); LQ(1); QR(2); LQ(2); ...; QR(q-1); LQ(q-1); QR(q)``

After completion the matrix is in *band bidiagonal* form: the only nonzero
tiles are the diagonal tiles ``(k, k)`` (upper triangular) and the
superdiagonal tiles ``(k, k+1)`` (lower triangular), i.e. an upper banded
matrix of element bandwidth ``nb``.
"""

from __future__ import annotations

from typing import Optional

from repro.algorithms.executor import KernelExecutor
from repro.algorithms.tiled_qr import qr_step
from repro.trees import GreedyTree
from repro.trees.base import PanelContext, ReductionTree


def lq_step(
    executor: KernelExecutor,
    k: int,
    tree: ReductionTree,
    *,
    row_limit: Optional[int] = None,
    col_limit: Optional[int] = None,
    n_cores: int = 1,
    grid_rows: int = 1,
) -> None:
    """One LQ panel step ``LQ(k)`` (Algorithm 2 of the paper).

    The column-oriented eliminations ``col-elim(j, piv(j, k), k)`` zero the
    tiles of tile row ``k`` from column ``k + 2`` on, update the tile rows
    below, and leave the superdiagonal tile ``(k, k + 1)`` lower
    triangular.
    """
    p = executor.p if row_limit is None else row_limit
    q = executor.q if col_limit is None else col_limit
    start = k + 1
    if not (0 <= k < p):
        raise ValueError(f"LQ step {k} out of range for a {p}x{q} tile matrix")
    cols = q - start
    if cols <= 0:
        return
    ctx = PanelContext(
        rows=cols,
        cols_remaining=p - k - 1,
        row_offset=start,
        n_cores=n_cores,
        grid_rows=grid_rows,
    )
    plan = tree.plan(ctx)

    # Triangularize (lower) the required columns and update the rows below.
    for local in plan.geqrt_rows:
        j = start + local
        executor.gelqt(k, j)
        for i in range(k + 1, p):
            executor.unmlq(k, j, i)

    # Column eliminations and the corresponding pair updates.
    for e in plan.eliminations:
        piv = start + e.killer
        j = start + e.killed
        if e.use_tt:
            executor.ttlqt(piv, j, k)
            for i in range(k + 1, p):
                executor.ttmlq(piv, j, k, i)
        else:
            executor.tslqt(piv, j, k)
            for i in range(k + 1, p):
                executor.tsmlq(piv, j, k, i)


def bidiag_ge2bnd(
    executor: KernelExecutor,
    qr_tree: Optional[ReductionTree] = None,
    lq_tree: Optional[ReductionTree] = None,
    *,
    n_cores: int = 1,
    grid_rows: int = 1,
    row_limit: Optional[int] = None,
    col_limit: Optional[int] = None,
    skip_first_qr: bool = False,
) -> None:
    """Drive the reduction to band bidiagonal form (BIDIAG) through ``executor``.

    A matrix is reduced by ``execute(SvdPlan(matrix=..., stage="ge2bnd"))``,
    which replays the compiled Program this driver records.

    Parameters
    ----------
    executor:
        The executor the tile operations are issued to.
    qr_tree, lq_tree:
        Reduction trees for the QR and LQ steps; both default to GREEDY.
        Passing a single tree for both is the common case; the LQ tree may
        differ (the paper's distributed configuration uses symmetric trees).
    n_cores, grid_rows:
        Forwarded to the trees (AUTO / hierarchical need them).
    row_limit, col_limit:
        Restrict the reduction to the top-left tile block; used by R-BIDIAG
        to bidiagonalize the ``q x q`` R factor inside the original matrix.
    skip_first_qr:
        Skip the first QR step — correct only when tile column 0 is already
        reduced below the diagonal (the R-BIDIAG case).
    """
    if qr_tree is None:
        qr_tree = GreedyTree()
    if lq_tree is None:
        lq_tree = qr_tree

    p = executor.p if row_limit is None else row_limit
    q = executor.q if col_limit is None else col_limit
    if p < q:
        raise ValueError(
            f"BIDIAG expects p >= q tiles (tall or square), got {p}x{q}; "
            "transpose the matrix or use the LQ-first variant"
        )

    for k in range(q):
        if not (k == 0 and skip_first_qr):
            qr_step(
                executor,
                k,
                qr_tree,
                row_limit=p,
                col_limit=q,
                n_cores=n_cores,
                grid_rows=grid_rows,
            )
        if k < q - 1:
            lq_step(
                executor,
                k,
                lq_tree,
                row_limit=p,
                col_limit=q,
                n_cores=n_cores,
                grid_rows=grid_rows,
            )
