"""Plan canonicalization.

This module is the single home of the resolution logic every backend,
the CLI and the simulator share:

* Chan's BIDIAG / R-BIDIAG flop crossover (``m >= 5n/3``, in elements);
* reduction-tree canonicalization (names → instances, AUTO parallelism
  hint, hierarchical wrapping for multi-node machines);
* tile geometry (config-driven default tile size, ``p x q`` tile shape,
  process grid).

:func:`resolve` applies all of it once, turning a declarative
:class:`~repro.api.plan.SvdPlan` into a :class:`ResolvedPlan` that every
backend consumes without re-deriving anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Union

import numpy as np

from repro.api.plan import VARIANTS, ArrayOrTiled, SvdPlan
from repro.config import Config, MachinePreset, default_config, get_preset
from repro.runtime.machine import Machine
from repro.tiles.distribution import BlockCyclicDistribution, ProcessGrid
from repro.tiles.layout import ceil_div
from repro.tiles.matrix import TiledMatrix
from repro.trees import AutoTree, GreedyTree, HierarchicalTree, make_tree
from repro.trees.base import ReductionTree

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ir.program import Program


# --------------------------------------------------------------------------- #
# Chan crossover
# --------------------------------------------------------------------------- #
def chan_prefers_rbidiag(rows: int, cols: int) -> bool:
    """Chan's flop crossover: R-BIDIAG wins as soon as ``m >= 5n/3``.

    The predicate is scale-free; :func:`resolve_variant` evaluates it on
    element dimensions ``(m, n)`` for every backend.
    """
    return 3 * rows >= 5 * cols


def resolve_variant(variant: str, rows: int, cols: int) -> str:
    """Resolve ``"auto"`` to a concrete variant via the Chan crossover."""
    variant = variant.lower()
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; choose from {VARIANTS}")
    if variant != "auto":
        return variant
    return "rbidiag" if chan_prefers_rbidiag(rows, cols) else "bidiag"


# --------------------------------------------------------------------------- #
# Tile geometry
# --------------------------------------------------------------------------- #
def default_tile_size(m: int, n: int, config: Optional[Config] = None) -> int:
    """Config-driven default tile size.

    Uses ``config.tile_size`` (the paper's ``nb = 160`` by default), capped
    so that the smallest matrix dimension still spans a handful of tiles —
    the reduction trees are meaningless on a 1x1 tile grid.
    """
    config = config if config is not None else default_config
    return max(1, min(config.tile_size, min(m, n) // 4))


def as_tiled(
    a: ArrayOrTiled,
    tile_size: Optional[int] = None,
    config: Optional[Config] = None,
) -> TiledMatrix:
    """Coerce a dense array into a :class:`TiledMatrix`.

    Already-tiled inputs pass through unchanged; dense inputs are tiled at
    ``tile_size``, defaulting to :func:`default_tile_size`.  Either way the
    input must be real, or :class:`ValueError` names its dtype, and
    finite: a NaN or Inf raises :class:`ValueError` naming the first such
    element ``(row, col)`` in row-major order.
    """
    if isinstance(a, TiledMatrix):
        if a.dtype.kind == "c":
            raise ValueError(f"expected a real array, got dtype {a.dtype}")
        if not a.all_finite():
            _require_finite(a.to_dense())
        return a
    if np.iscomplexobj(a):
        raise ValueError(f"expected a real array, got dtype {np.asarray(a).dtype}")
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError("expected a 2-D array")
    _require_finite(a)
    if tile_size is None:
        tile_size = default_tile_size(a.shape[0], a.shape[1], config)
    return TiledMatrix.from_dense(a, tile_size)


def _require_finite(a: np.ndarray) -> None:
    """Raise :class:`ValueError` at the first non-finite element of ``a``."""
    finite = np.isfinite(a)
    if not finite.all():
        row, col = (int(i) for i in np.argwhere(~finite)[0])
        raise ValueError(
            f"input matrix must be finite: element ({row}, {col}) is {float(a[row, col])}"
        )


#: Largest entry magnitude the numeric pipeline reduces as given.  Measured
#: on standard normal 96x64 to 2048x256 inputs (tile sizes 16 to 160), a
#: single huge entry, graded columns and rank-1 input, GE2BND first fails
#: (``LinAlgError`` from the T factor, or non-finite output) above
#: max|a| ~ 2**1017; 2**1000 keeps a 2**17 margin for larger shapes.  It
#: is far wider than dgesvd's bignum (~1.5e138), so inputs up to 1e300
#: keep their exact unscaled arithmetic.
NUMERIC_MAX_ABS_LOG2 = 1000

#: Smallest largest-entry magnitude the numeric pipeline reduces as given.
#: Measured on standard normal 40x24 to 256x64 and 160x160 inputs (tile
#: sizes 8 to 32, flat and greedy trees): σ and gesvd's backward error
#: stay at their unit-scale level down to max|a| = 2**-1022 and degrade
#: from about 2**-1025 on, where the reduction's products round to the
#: subnormal grid (σ error against numpy's 2e-13 at 2**-1030, 1e-7 at
#: 2**-1050).  2**-1000 keeps a 2**22 margin and mirrors the upper bound.
NUMERIC_MIN_ABS_LOG2 = -1000


def scaling_exponent(a: ArrayOrTiled) -> int:
    """The ``e`` with ``2**NUMERIC_MIN_ABS_LOG2 <= max|a_ij| * 2**-e <=
    2**NUMERIC_MAX_ABS_LOG2``, the zero matrix aside.

    ``0`` for input inside that range, which the numeric backend reduces
    untouched; otherwise the exponent of least magnitude, positive near
    overflow and negative near underflow (cf. LAPACK dgesvd, which scales
    with ``dlascl`` into ``[smlnum, bignum]``).  Scaling by a power of two
    is exact, so the backend can scale σ and the band back exactly (up to
    the rounding of a subnormal result), and U and Vᵀ do not change.  A
    dense ``a`` is scanned in two reductions; a tiled one tile by tile.
    """
    blocks = [tile for _, tile in a.tiles()] if isinstance(a, TiledMatrix) else [a]
    amax = max(
        max(float(block.max(initial=0.0)), -float(block.min(initial=0.0)))
        for block in blocks
    )
    mantissa, exponent = math.frexp(amax)  # amax = mantissa * 2**exponent
    low = exponent - 1  # amax >= 2**low
    if amax and low < NUMERIC_MIN_ABS_LOG2:
        return low - NUMERIC_MIN_ABS_LOG2
    if mantissa == 0.5:  # an exact power of two: amax = 2**(exponent - 1)
        exponent -= 1
    return max(0, exponent - NUMERIC_MAX_ABS_LOG2)


def default_grid(n_nodes: int, p: int, q: int) -> ProcessGrid:
    """The process grid the paper uses: ``nodes x 1`` for tall-and-skinny
    tile shapes (``p >= 2q``), near-square otherwise."""
    if p >= 2 * q:
        return ProcessGrid.for_tall_skinny_matrix(n_nodes)
    return ProcessGrid.for_square_matrix(n_nodes)


# --------------------------------------------------------------------------- #
# Reduction trees
# --------------------------------------------------------------------------- #
def resolve_tree(
    tree: Union[str, ReductionTree, None],
    *,
    n_cores: int = 1,
    config: Optional[Config] = None,
) -> ReductionTree:
    """Canonicalize a shared-memory tree spec (name / instance / None).

    ``None`` means GREEDY;
    ``"auto"`` builds the adaptive tree with the given parallelism hint and
    the config's ``gamma``.
    """
    if tree is None:
        return GreedyTree()
    if isinstance(tree, ReductionTree):
        return tree
    name = tree.strip().lower()
    if name == "auto":
        config = config if config is not None else default_config
        return AutoTree(n_cores=n_cores, gamma=config.auto_gamma)
    return make_tree(name)


def resolve_distributed_tree(
    tree: Union[str, ReductionTree, None],
    *,
    n_nodes: int,
    n_cores: int,
    grid: ProcessGrid,
    config: Optional[Config] = None,
) -> ReductionTree:
    """Canonicalize a tree spec for an ``n_nodes``-node machine.

    Explicit instances pass through unchanged.  Named trees map to the
    shared-memory trees on one node; on several nodes they are wrapped in
    the paper's hierarchical configuration (flat top tree for
    FlatTS/FlatTT, greedy top tree for Greedy/Auto) over ``grid``.
    """
    if isinstance(tree, ReductionTree):
        return tree
    base = resolve_tree(tree, n_cores=n_cores, config=config)
    if n_nodes == 1:
        return base
    name = (tree or "greedy").strip().lower()
    top = "flat" if name in ("flatts", "flattt") else "greedy"
    return HierarchicalTree(local_tree=base, top=top, grid_rows=grid.rows)


def tree_display_name(tree: Union[str, ReductionTree, None]) -> str:
    """Stable human-readable name of a tree spec (for result rows)."""
    if tree is None:
        return "greedy"
    if isinstance(tree, str):
        return tree.strip().lower()
    return getattr(tree, "name", type(tree).__name__)


# --------------------------------------------------------------------------- #
# The resolved plan
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ResolvedPlan:
    """A plan with every free choice pinned down.

    Carries the canonical tree instance, concrete variant, tile geometry,
    process grid and machine model; backends consume these fields directly
    and never re-derive them.
    """

    plan: SvdPlan
    config: Config
    m: int
    n: int
    tile_size: int
    p: int
    q: int
    stage: str
    variant: str
    tree: ReductionTree
    tree_name: str
    machine: Machine
    grid: ProcessGrid
    #: Machine-realism scenario (already coerced to an instance by the
    #: plan), or ``None`` for the ideal deterministic machine.  The
    #: machine above stays nominal — scenario slowdowns are applied inside
    #: :func:`repro.runtime.scenario.run_scenario`.
    scenario: Optional[object] = None
    #: Monte-Carlo draw-count override (``None`` = scenario default).
    draws: Optional[int] = None

    @property
    def distribution(self) -> BlockCyclicDistribution:
        """Block-cyclic tile-to-node mapping over the resolved grid."""
        return BlockCyclicDistribution(self.grid)

    @property
    def preset(self) -> MachinePreset:
        return self.machine.preset

    def program(self) -> "Program":
        """The plan's compiled GE2BND Program, through the shared cache.

        The one op stream every backend reads for this plan: the numeric
        backend replays it, the DAG backend interprets it and the
        simulator schedules it.  The compiler is imported lazily, like the
        backends, so that importing :mod:`repro.api` stays cheap.
        """
        from repro.ir.compiler import get_program

        return get_program(
            self.variant,
            self.p,
            self.q,
            self.tree,
            n_cores=self.plan.n_cores,
            grid_rows=self.grid.rows,
        )

    def build_matrix(self) -> ArrayOrTiled:
        """The plan's input matrix (explicit, or seeded standard normal)."""
        if self.plan.matrix is not None:
            return self.plan.matrix
        rng = np.random.default_rng(self.plan.seed)
        return rng.standard_normal((self.m, self.n))

    def build_tiled(self) -> TiledMatrix:
        """A fresh tiled copy of the input matrix, at the resolved tile size.

        The numeric backend reduces it in place, so a tiled input is copied
        too: the caller's matrix is never modified.
        """
        a = self.build_matrix()
        if isinstance(a, TiledMatrix):
            # In double precision, as a dense input is: the kernels return
            # float64 tiles, and a float32 copy would round the band.
            a = TiledMatrix(a.layout, tiles={ij: tile.astype(float) for ij, tile in a.tiles()})
        return as_tiled(a, self.tile_size, self.config)


def resolve(plan: SvdPlan) -> ResolvedPlan:
    """Canonicalize ``plan`` once, for any backend.

    The plan's own config, if any, overrides
    :data:`repro.config.default_config`.
    """
    config = plan.config if plan.config is not None else default_config
    m, n = plan.m, plan.n
    if isinstance(plan.matrix, TiledMatrix):
        tile_size = plan.matrix.nb
        if plan.tile_size not in (None, tile_size):
            raise ValueError(
                f"tile_size={plan.tile_size} disagrees with the tiled input's nb={tile_size}"
            )
    elif plan.tile_size == "auto":
        # The autotuner picks nb (through the persistent plan cache, so
        # repeated resolutions of the same problem are O(1)).  Imported
        # lazily: repro.tuning builds on this module.
        from repro.tuning import resolve_auto_tile_size

        tile_size = resolve_auto_tile_size(plan)
    elif plan.tile_size is not None:
        tile_size = plan.tile_size
    else:
        tile_size = default_tile_size(m, n, config)
    p, q = ceil_div(m, tile_size), ceil_div(n, tile_size)
    grid = ProcessGrid(*plan.grid) if plan.grid else default_grid(plan.n_nodes, p, q)
    tree = resolve_distributed_tree(
        plan.tree,
        n_nodes=plan.n_nodes,
        n_cores=plan.n_cores,
        grid=grid,
        config=config,
    )
    machine = Machine(
        n_nodes=plan.n_nodes,
        cores_per_node=plan.n_cores,
        tile_size=tile_size,
        preset=get_preset(plan.machine),
        inner_block=config.inner_block,
    )
    return ResolvedPlan(
        plan=plan,
        config=config,
        m=m,
        n=n,
        tile_size=tile_size,
        p=p,
        q=q,
        stage=plan.stage,
        variant=resolve_variant(plan.variant, m, n),
        tree=tree,
        tree_name=tree_display_name(plan.tree),
        machine=machine,
        grid=grid,
        scenario=plan.scenario,
        draws=plan.draws,
    )
