"""Declarative SVD plans.

An :class:`SvdPlan` captures *what* to run — problem (shape or explicit
matrix), pipeline stage, algorithmic variant, reduction tree, tile size and
machine — independently of *how* it is evaluated.  The same plan can be
handed to :func:`repro.api.execute` with any of the three backends the
paper uses to study the pipeline:

* ``"numeric"``  — the exact tiled Householder kernels (singular values /
  vectors, accuracy vs ``numpy.linalg.svd``);
* ``"dag"``      — the task-graph tracer and critical-path engine
  (Section IV of the paper);
* ``"simulate"`` — the PaRSEC-like runtime simulator (Sections V-VI).

Plans are immutable; derive variations with :meth:`SvdPlan.with_` and
parameter grids with :meth:`SvdPlan.sweep`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields, replace
from typing import Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.config import PRESETS, Config
from repro.tiles.matrix import TiledMatrix
from repro.trees import TREE_REGISTRY
from repro.trees.base import ReductionTree

#: Pipeline stages a plan can request.
STAGES = ("ge2bnd", "ge2val", "gesvd")

#: Algorithmic variants (``auto`` resolves via Chan's ``m >= 5n/3`` crossover).
VARIANTS = ("auto", "bidiag", "rbidiag")

ArrayOrTiled = Union[np.ndarray, TiledMatrix]


@dataclass(frozen=True)
class SvdPlan:
    """One fully-described SVD problem + configuration.

    Parameters
    ----------
    m, n:
        Element-wise matrix dimensions (``m >= n``).  Required unless
        ``matrix`` is given, in which case they are derived from it.
    matrix:
        Optional explicit input (dense array or :class:`TiledMatrix`).
        When omitted, the numeric backend generates a seeded standard
        normal ``m x n`` matrix.
    stage:
        ``"ge2bnd"`` (band reduction only), ``"ge2val"`` (singular values)
        or ``"gesvd"`` (values and vectors; numeric backend only).
    variant:
        ``"bidiag"``, ``"rbidiag"`` or ``"auto"`` (Chan crossover).
    tree:
        Reduction-tree name (see :data:`repro.trees.TREE_REGISTRY`), an
        explicit :class:`~repro.trees.base.ReductionTree`, or ``None`` for
        the GREEDY default.
    tile_size:
        Tile size ``nb``; ``None`` defers to the resolver's config-driven
        default (``Config.tile_size`` capped so small matrices stay
        multi-tile); the string ``"auto"`` asks the autotuner
        (:mod:`repro.tuning`) to pick the best tile size for this problem
        through the persistent plan cache.
    n_cores:
        Cores per node: the AUTO tree's parallelism hint for the numeric /
        DAG backends, and the per-node core count for the simulator.
    n_nodes:
        Node count (distributed simulation / DAG; the numeric backend is
        shared-memory).
    grid:
        Optional explicit process-grid shape ``(rows, cols)`` with
        ``rows * cols == n_nodes``; ``None`` uses the paper's default for
        the tile shape (near-square grid, or ``nodes x 1`` when tall and
        skinny).
    machine:
        Machine preset name (see :data:`repro.config.PRESETS`).
    policy:
        Scheduling policy name for the simulation engine (see
        :data:`repro.runtime.policies.POLICIES`); the default ``"list"``
        reproduces the legacy list scheduler exactly.  Ignored by the
        numeric and DAG backends.
    network:
        Communication-model fidelity for the simulation engine (see
        :data:`repro.runtime.network.NETWORK_MODELS`); the default
        ``"uniform"`` reproduces the legacy flat-cost model exactly,
        ``"alpha-beta"`` prices each message with latency + bandwidth and
        serialized NIC injection.  Ignored by the numeric and DAG backends.
    scenario:
        Machine-realism scenario for the simulation engine: a registered
        name (see :data:`repro.runtime.scenario.SCENARIOS`), an explicit
        :class:`~repro.runtime.scenario.Scenario`, or ``None`` for the
        ideal deterministic machine.  Stochastic scenarios attach a
        Monte-Carlo :class:`~repro.runtime.scenario.MakespanDistribution`
        to the result.  Ignored by the numeric and DAG backends.
    draws:
        Monte-Carlo draw count override for stochastic scenarios
        (``None`` defers to the scenario's own default).
    seed:
        Seed of the generated input matrix when ``matrix`` is omitted,
        and of the Monte-Carlo draws when a stochastic scenario runs.
    config:
        Optional :class:`~repro.config.Config` override; ``None`` means
        :data:`repro.config.default_config`.
    trace:
        Record an execution trace while this plan runs (see
        :mod:`repro.obs`): phase spans plus, for the simulate backend,
        per-task / per-transfer events; the tracer lands on
        ``RunResult.trace``.  Equivalent to ``execute(..., trace=True)``
        or the ``REPRO_TRACE=1`` environment gate.  Excluded from plan
        equality — tracing never changes what a plan computes.
    """

    m: Optional[int] = None
    n: Optional[int] = None
    matrix: Optional[ArrayOrTiled] = field(default=None, compare=False, repr=False)
    stage: str = "ge2val"
    variant: str = "auto"
    tree: Union[str, ReductionTree, None] = None
    tile_size: Union[int, str, None] = None
    n_cores: int = 1
    n_nodes: int = 1
    grid: Optional[Tuple[int, int]] = None
    machine: str = "miriel"
    policy: str = "list"
    network: str = "uniform"
    scenario: Union[str, object, None] = None
    draws: Optional[int] = None
    seed: int = 0
    config: Optional[Config] = None
    trace: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "trace", bool(self.trace))
        object.__setattr__(self, "stage", str(self.stage).lower())
        object.__setattr__(self, "variant", str(self.variant).lower())
        if self.stage not in STAGES:
            raise ValueError(f"unknown stage {self.stage!r}; choose from {STAGES}")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; choose from {VARIANTS}")
        if self.matrix is not None:
            shape = self.matrix.shape
            if len(shape) != 2:
                raise ValueError("matrix must be 2-D")
            if np.iscomplexobj(self.matrix):
                raise ValueError(f"matrix must be real, got dtype {self.matrix.dtype}")
            m, n = int(shape[0]), int(shape[1])
            if self.m is not None and self.m != m:
                raise ValueError(f"m={self.m} disagrees with matrix shape {shape}")
            if self.n is not None and self.n != n:
                raise ValueError(f"n={self.n} disagrees with matrix shape {shape}")
            object.__setattr__(self, "m", m)
            object.__setattr__(self, "n", n)
        if self.m is None or self.n is None:
            raise ValueError("either (m, n) or an explicit matrix is required")
        if self.m < 1 or self.n < 1:
            raise ValueError(f"matrix dimensions must be >= 1, got {self.m}x{self.n}")
        if self.m < self.n:
            raise ValueError(
                f"expected m >= n, got {self.m}x{self.n}; pass the transpose"
            )
        if isinstance(self.tree, str) and self.tree.strip().lower() not in TREE_REGISTRY:
            raise ValueError(
                f"unknown reduction tree {self.tree!r}; available: {sorted(TREE_REGISTRY)}"
            )
        if isinstance(self.tile_size, str):
            if self.tile_size.strip().lower() != "auto":
                raise ValueError(
                    f"tile_size must be an integer, 'auto' or None, got {self.tile_size!r}"
                )
            object.__setattr__(self, "tile_size", "auto")
        elif self.tile_size is not None and self.tile_size < 1:
            raise ValueError(f"tile_size must be >= 1, got {self.tile_size}")
        if self.n_cores < 1:
            raise ValueError(f"n_cores must be >= 1, got {self.n_cores}")
        if self.n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {self.n_nodes}")
        if self.grid is not None:
            grid = tuple(int(x) for x in self.grid)
            if len(grid) != 2 or grid[0] < 1 or grid[1] < 1:
                raise ValueError(
                    f"grid must be a (rows, cols) pair of positive ints, got {self.grid!r}"
                )
            if grid[0] * grid[1] != self.n_nodes:
                raise ValueError(
                    f"grid {grid[0]}x{grid[1]} does not cover n_nodes={self.n_nodes}"
                )
            object.__setattr__(self, "grid", grid)
        if self.machine not in PRESETS:
            raise ValueError(
                f"unknown machine preset {self.machine!r}; known presets: {sorted(PRESETS)}"
            )
        # Imported lazily: repro.runtime builds on lower layers only.
        from repro.runtime.network import NETWORK_MODELS
        from repro.runtime.policies import POLICIES

        object.__setattr__(self, "policy", str(self.policy).strip().lower())
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown scheduling policy {self.policy!r}; available: {sorted(POLICIES)}"
            )
        object.__setattr__(self, "network", str(self.network).strip().lower())
        if self.network not in NETWORK_MODELS:
            raise ValueError(
                f"unknown network model {self.network!r}; "
                f"available: {sorted(NETWORK_MODELS)}"
            )
        if self.scenario is not None:
            from repro.runtime.scenario import get_scenario

            object.__setattr__(self, "scenario", get_scenario(self.scenario))
        if self.draws is not None:
            draws = int(self.draws)
            if draws < 1:
                raise ValueError(f"draws must be >= 1, got {self.draws}")
            object.__setattr__(self, "draws", draws)

    # ------------------------------------------------------------------ #
    # Derivation helpers
    # ------------------------------------------------------------------ #
    def with_(self, **changes) -> "SvdPlan":
        """Copy of this plan with some fields replaced."""
        return replace(self, **changes)

    def sweep(self, **grids: Iterable[object]) -> List["SvdPlan"]:
        """Cartesian product of field overrides, as a list of plans.

        >>> base = SvdPlan(m=4000, n=4000, stage="ge2bnd", n_cores=24)
        >>> plans = base.sweep(tree=["flatts", "greedy"], n_nodes=[1, 4])
        >>> len(plans)
        4

        Every keyword must name a plan field and map to an iterable of
        values; fields not named keep this plan's value.  The grid is
        enumerated with the last keyword varying fastest, which gives
        stable, predictable row ordering for experiment tables.
        """
        valid = {f.name for f in fields(self)}
        unknown = set(grids) - valid
        if unknown:
            raise ValueError(f"unknown plan field(s) in sweep: {sorted(unknown)}")
        names = list(grids)
        value_lists = [list(grids[name]) for name in names]
        for name, values in zip(names, value_lists):
            if not values:
                raise ValueError(f"sweep grid for {name!r} is empty")
        return [
            self.with_(**dict(zip(names, combo)))
            for combo in itertools.product(*value_lists)
        ]

    def describe(self) -> Dict[str, object]:
        """Scalar summary of the plan (for tables / JSON rows)."""
        tree = self.tree
        if isinstance(tree, ReductionTree):
            tree = getattr(tree, "name", type(tree).__name__)
        return {
            "m": self.m,
            "n": self.n,
            "stage": self.stage,
            "variant": self.variant,
            "tree": tree if tree is not None else "greedy",
            "tile_size": self.tile_size,
            "n_cores": self.n_cores,
            "n_nodes": self.n_nodes,
            "grid": f"{self.grid[0]}x{self.grid[1]}" if self.grid else None,
            "machine": self.machine,
            "policy": self.policy,
            "network": self.network,
            "scenario": getattr(self.scenario, "name", None),
            "draws": self.draws,
            "seed": self.seed,
        }
