"""Common interfaces for reduction trees.

The tiled algorithms never manipulate trees directly; they ask a tree for a
:class:`PanelPlan` describing one panel reduction in terms of *local* row
indices ``0 .. u-1`` (``0`` is the panel head that ends up holding the
triangular factor).  The plan is a pure description, recorded once into
the compiled Program that the numeric replay, the DAG analyses and the
runtime simulator all read, which is what guarantees that the critical
paths we analyse belong to the DAGs we actually execute.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List


@dataclass(frozen=True)
class Elimination:
    """One elimination ``elim(killed, killer, k)`` of Algorithm 1.

    Attributes
    ----------
    killed:
        Local index of the row whose panel tile is zeroed.
    killer:
        Local index of the surviving (pivot) row.
    use_tt:
        ``True`` for a TT elimination (both tiles triangular, TTQRT/TTMQR),
        ``False`` for a TS elimination (square tile zeroed by the triangle
        on top, TSQRT/TSMQR).
    round:
        Reduction round the elimination belongs to; eliminations of the same
        round are mutually independent.  Purely informational — the real
        dependencies are recovered from data accesses by the program recorder.
    """

    killed: int
    killer: int
    use_tt: bool
    round: int = 0


@dataclass(frozen=True)
class PanelContext:
    """Everything a tree may need to know to plan one panel reduction.

    Attributes
    ----------
    rows:
        Number of tile rows in the panel, ``u >= 1`` (local indices
        ``0 .. u-1``).
    cols_remaining:
        Number of tile columns that will be updated by this panel
        (the trailing-matrix width ``v``); the AUTO tree uses it to estimate
        the available parallelism.
    row_offset:
        Global tile index of local row ``0``; hierarchical trees use it to
        compute which process-grid row owns each tile row.
    n_cores:
        Number of cores of the target (shared-memory) node.
    grid_rows:
        Number of process-grid rows ``R`` for distributed runs (``1`` for a
        single node).
    """

    rows: int
    cols_remaining: int = 0
    row_offset: int = 0
    n_cores: int = 1
    grid_rows: int = 1

    def __post_init__(self) -> None:
        if self.rows < 1:
            raise ValueError(f"a panel needs at least one row, got {self.rows}")
        if self.cols_remaining < 0:
            raise ValueError("cols_remaining cannot be negative")
        if self.n_cores < 1:
            raise ValueError("n_cores must be >= 1")
        if self.grid_rows < 1:
            raise ValueError("grid_rows must be >= 1")


@dataclass(frozen=True)
class PanelPlan:
    """The reduction plan for one panel.

    Attributes
    ----------
    geqrt_rows:
        Local rows whose panel tile is triangularized with GEQRT (and whose
        trailing row is updated with UNMQR) *before* the eliminations.
        Row ``0`` (the panel head) is always included.
    eliminations:
        Ordered eliminations; the list order is a valid topological order of
        the reduction tree.
    """

    geqrt_rows: List[int]
    eliminations: List[Elimination]

    @property
    def n_rows(self) -> int:
        """Number of rows the plan covers (killed rows + the survivor)."""
        return len(self.eliminations) + 1


class ReductionTree(ABC):
    """Abstract reduction tree."""

    #: Human-readable tree name used in reports and benchmark tables.
    name: str = "abstract"

    @abstractmethod
    def plan(self, ctx: PanelContext) -> PanelPlan:
        """Return the reduction plan for the panel described by ``ctx``."""

    def plan_rows(self, rows: int, **kwargs) -> PanelPlan:
        """Convenience wrapper building the :class:`PanelContext` inline."""
        return self.plan(PanelContext(rows=rows, **kwargs))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


def validate_plan(plan: PanelPlan, rows: int) -> None:
    """Check that ``plan`` is a valid reduction of ``rows`` tile rows.

    Raises ``ValueError`` if any invariant is violated:

    * every row except the survivor (row 0) is killed exactly once;
    * a row never kills after having been killed, and never kills itself;
    * eliminations appear in an order consistent with liveness;
    * TT eliminations only involve triangularized rows, TS eliminations only
      kill non-triangularized rows;
    * row 0 is triangularized (it must hold a triangle at the end).
    """
    if rows < 1:
        raise ValueError("rows must be >= 1")
    if plan.n_rows != rows:
        raise ValueError(f"plan covers {plan.n_rows} rows, expected {rows}")
    geqrt = set(plan.geqrt_rows)
    if 0 not in geqrt:
        raise ValueError("the panel head (row 0) must be triangularized")
    for r in geqrt:
        if not (0 <= r < rows):
            raise ValueError(f"GEQRT row {r} out of range [0, {rows})")
    killed = set()
    for e in plan.eliminations:
        if e.killed == e.killer:
            raise ValueError(f"row {e.killed} cannot kill itself")
        if not (0 <= e.killed < rows and 0 <= e.killer < rows):
            raise ValueError(f"elimination {e} out of range [0, {rows})")
        if e.killed == 0:
            raise ValueError("row 0 is the survivor and cannot be killed")
        if e.killed in killed:
            raise ValueError(f"row {e.killed} killed twice")
        if e.killer in killed:
            raise ValueError(f"row {e.killer} kills after having been killed")
        if e.use_tt:
            if e.killed not in geqrt or e.killer not in geqrt:
                raise ValueError(
                    f"TT elimination {e} involves a row that was never triangularized"
                )
        else:
            if e.killed in geqrt:
                raise ValueError(
                    f"TS elimination {e} kills row {e.killed} which was triangularized"
                )
            if e.killer not in geqrt:
                raise ValueError(
                    f"TS elimination {e} uses killer row {e.killer} which holds no triangle"
                )
        killed.add(e.killed)
    expected_killed = set(range(1, rows))
    if killed != expected_killed:
        missing = sorted(expected_killed - killed)
        raise ValueError(f"rows never killed: {missing}")
