"""Tiled QR factorization (Algorithm 1 of the paper).

``qr_step`` performs one panel step ``QR(k)``; ``tiled_qr`` performs the
full factorization (compiled on its own and as the ``preQR`` phase of
R-BIDIAG).  Both drive an executor, so the same code path records the
compiled Program and, through its replay, computes the numbers.
"""

from __future__ import annotations

from typing import Optional

from repro.algorithms.executor import KernelExecutor
from repro.trees import FlatTSTree
from repro.trees.base import PanelContext, ReductionTree


def qr_step(
    executor: KernelExecutor,
    k: int,
    tree: ReductionTree,
    *,
    row_limit: Optional[int] = None,
    col_limit: Optional[int] = None,
    n_cores: int = 1,
    grid_rows: int = 1,
    plan=None,
) -> None:
    """One QR panel step ``QR(k)``: zero the tiles below the diagonal of
    tile column ``k`` and update the trailing tile columns.

    Parameters
    ----------
    executor:
        The executor the tile operations are issued to.
    k:
        Panel (tile column) index, 0-based.
    tree:
        Reduction tree deciding the elimination order and kernels.
    row_limit, col_limit:
        Restrict the step to the top-left ``row_limit x col_limit`` tile
        block (defaults: the whole matrix).  R-BIDIAG uses ``row_limit=q``
        for the bidiagonalization of the R factor.
    n_cores, grid_rows:
        Forwarded to the tree's :class:`PanelContext` (AUTO and hierarchical
        trees use them).
    plan:
        A precomputed :class:`~repro.trees.base.PanelPlan` (panel-local
        indices).  Used by :func:`tiled_qr` when the tree provides
        cross-panel factorization plans; overrides ``tree.plan``.
    """
    p = executor.p if row_limit is None else row_limit
    q = executor.q if col_limit is None else col_limit
    if not (0 <= k < min(p, q)):
        raise ValueError(f"QR step {k} out of range for a {p}x{q} tile matrix")
    if plan is None:
        ctx = PanelContext(
            rows=p - k,
            cols_remaining=q - k - 1,
            row_offset=k,
            n_cores=n_cores,
            grid_rows=grid_rows,
        )
        plan = tree.plan(ctx)

    # Triangularize the required rows and update their trailing tiles.
    for local in plan.geqrt_rows:
        i = k + local
        executor.geqrt(i, k)
        for j in range(k + 1, q):
            executor.unmqr(i, k, j)

    # Eliminations (TS or TT) and the corresponding pair updates.
    for e in plan.eliminations:
        killer = k + e.killer
        killed = k + e.killed
        if e.use_tt:
            executor.ttqrt(killer, killed, k)
            for j in range(k + 1, q):
                executor.ttmqr(killer, killed, k, j)
        else:
            executor.tsqrt(killer, killed, k)
            for j in range(k + 1, q):
                executor.tsmqr(killer, killed, k, j)


def tiled_qr(
    executor: KernelExecutor,
    tree: Optional[ReductionTree] = None,
    *,
    n_cores: int = 1,
    grid_rows: int = 1,
) -> None:
    """Drive the full tiled QR factorization through ``executor``.

    On a :class:`~repro.algorithms.executor.NumericExecutor` the matrix
    ends upper trapezoidal: its strictly-lower tiles are zero.

    If the tree exposes ``plan_factorization(p, q)`` (the GREEDY tree does,
    on single-node runs), the cross-panel plans it returns are used instead
    of per-panel planning — this is what lets successive panels pipeline and
    reach the asymptotically optimal critical path.
    """
    if tree is None:
        tree = FlatTSTree()
    plans = None
    planner = getattr(tree, "plan_factorization", None)
    if planner is not None and grid_rows <= 1:
        plans = planner(executor.p, executor.q)
    for k in range(min(executor.p, executor.q)):
        qr_step(
            executor,
            k,
            tree,
            n_cores=n_cores,
            grid_rows=grid_rows,
            plan=plans[k] if plans is not None else None,
        )
