"""Autotuning: search the plan space, remember what wins.

The paper's headline practical result is that GE2VAL performance hinges on
tuned parameters — tile size ``nb = 160``, inner block ``ib = 32``, the
reduction tree, the Chan crossover and the process-grid shape.  This
subsystem finds those parameters instead of asking for them:

>>> from repro.api import SvdPlan
>>> from repro.tuning import tune
>>> result = tune(SvdPlan(m=2000, n=2000, n_cores=24))
>>> result.best_plan.tile_size          # doctest: +SKIP
160

* :class:`SearchSpace` declares the dimensions (tile sizes, inner blocks,
  trees, variants, process grids);
* :mod:`~repro.tuning.objectives` scores candidates through the simulator,
  the critical-path engine or the communication-volume analysis;
* :class:`GridSearch` / :class:`SuccessiveHalving` drive the sweep
  through one bound-ordered walk that compiles and simulates only the
  candidates that can still win (a process pool serves the races where
  nothing can be pruned);
* :class:`PlanCache` persists the winners so repeated calls — including
  every ``SvdPlan(tile_size="auto")`` resolution — are O(1).
"""

from repro.tuning.cache import CACHE_ENV_VAR, PlanCache, default_cache_path
from repro.tuning.objectives import OBJECTIVES, Objective, get_objective
from repro.tuning.search import (
    STRATEGIES,
    Evaluation,
    GridSearch,
    SuccessiveHalving,
    TuningResult,
    get_strategy,
    resolve_auto_tile_size,
    tune,
)
from repro.tuning.space import SearchSpace, default_tile_sizes, divisor_grids

__all__ = [
    "CACHE_ENV_VAR",
    "OBJECTIVES",
    "STRATEGIES",
    "Evaluation",
    "GridSearch",
    "Objective",
    "PlanCache",
    "SearchSpace",
    "SuccessiveHalving",
    "TuningResult",
    "default_cache_path",
    "default_tile_sizes",
    "divisor_grids",
    "get_objective",
    "get_strategy",
    "resolve_auto_tile_size",
    "tune",
]
