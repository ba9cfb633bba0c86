"""Search strategies and the :func:`tune` entry point.

Both strategies score candidates through one loop, :func:`_race`, a walk
in bound order that compiles only the candidates that can still win:

* candidates are ordered by the objective's analytic bound
  (:meth:`~repro.tuning.objectives.Objective.bound`, a closed form that
  needs no compile); a *run* of candidates that bound cannot tell apart —
  the same tile size, inner block and variant, with a different tree or
  grid — is pruned without compiling when its bound is strictly worse
  than the best cost measured so far;
* a surviving run is compiled together and walked in *schedule-bound*
  order (:meth:`~repro.tuning.objectives.Objective.schedule_bound`); a
  member whose schedule bound is strictly worse than the incumbent is
  pruned without running the event loop, and the rest are scored.

Pruning is conservative — only strictly worse candidates are dropped — so
a pruned search returns the same winner and best score as the exhaustive
one.  When nothing in a race can be pruned (``prune=False``, or an
objective without a bound: ``critical-path``, ``comm-volume``,
``comm-time``), ``workers > 1`` scores the candidates on the worker
processes of a :class:`~repro.utils.workers.WorkerPool`, the campaign
runner's worker module, in the pool's guided chunks; a prunable race
walks serially, because its walk is what skips the work.

* :class:`GridSearch` — every candidate, in one race.
* :class:`SuccessiveHalving` — every candidate on a scaled-down problem
  first, the top ``1/eta`` fraction promoted to a larger one, and so on;
  only the survivors ever run at full size.  Cheap for large spaces
  where the ranking stabilises early.

:func:`tune` wraps a strategy with the persistent
:class:`~repro.tuning.cache.PlanCache`, keyed by (problem, machine,
objective, strategy settings, expanded space), so a repeated call answers
in O(1) without touching the simulator.
"""

from __future__ import annotations

import dataclasses
import heapq
import time
from dataclasses import dataclass, field
from functools import partial
from itertools import groupby
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.api.plan import SvdPlan
from repro.api.resolver import ResolvedPlan, resolve, tree_display_name
from repro.config import default_config
from repro.tiles.matrix import TiledMatrix
from repro.tuning.cache import PlanCache, cache_key
from repro.tuning.objectives import Objective, get_objective
from repro.tuning.space import SearchSpace
from repro.utils.workers import LOST, WorkerPool


# --------------------------------------------------------------------------- #
# Candidate evaluation (shared by both strategies)
# --------------------------------------------------------------------------- #
def _score(
    objective: Objective, candidate: Union[SvdPlan, ResolvedPlan]
) -> Tuple[Optional[float], Optional[str]]:
    """Score one candidate, reporting a failure instead of raising.

    The serial walk passes the plan it already resolved for the bounds; a
    worker gets the plan and resolves it here.
    """
    try:
        if isinstance(candidate, SvdPlan):
            candidate = resolve(candidate)
        return objective.score(candidate), None
    except Exception as exc:  # a failing candidate is reported, not fatal
        return None, f"{type(exc).__name__}: {exc}"


@dataclass
class Evaluation:
    """One scored (or pruned / failed) candidate."""

    plan: SvdPlan
    score: Optional[float] = None
    cost: float = float("inf")
    #: The analytic bound's cost, or ``None`` when the candidate cannot
    #: be pruned.
    bound: Optional[float] = None
    pruned: bool = False
    error: Optional[str] = None
    #: The (m, n) shape the score was measured at (successive halving
    #: scores early rungs on scaled-down problems).
    fidelity: Optional[Tuple[int, int]] = None

    def record(
        self, objective: Objective, score: Optional[float], error: Optional[str]
    ) -> None:
        """Store one :func:`_score` outcome (and its cost)."""
        self.score, self.error = score, error
        if score is not None:
            self.cost = objective.cost(score)

    def to_row(self) -> Dict[str, object]:
        plan = self.plan
        config = plan.config if plan.config is not None else default_config
        row: Dict[str, object] = {
            "tile_size": plan.tile_size,
            "inner_block": config.inner_block,
            "tree": tree_display_name(plan.tree),
            "variant": plan.variant,
            "grid": f"{plan.grid[0]}x{plan.grid[1]}" if plan.grid else "default",
            "score": self.score,
            "pruned": self.pruned,
        }
        if self.fidelity is not None:
            row["fidelity_m"], row["fidelity_n"] = self.fidelity
        if self.error is not None:
            row["error"] = self.error
        return row


def _score_item(
    objective: Objective, item: Tuple[int, SvdPlan]
) -> Tuple[Optional[float], Optional[str]]:
    """Score one ``(index, plan)`` item in a worker process.

    Module-level so a spawned worker can unpickle it.
    """
    return _score(objective, item[1])


def _pool_scores(
    pool: WorkerPool, candidates: Sequence[SvdPlan]
) -> List[Tuple[Optional[float], Optional[str]]]:
    """:func:`_score` every candidate on ``pool``'s workers.

    A candidate whose worker dies running it is recorded with the crash
    as its error: a crash costs the candidate that causes it, not the
    search.
    """
    outcomes: List[Tuple[Optional[float], Optional[str]]] = [(None, None)] * len(candidates)
    pool.queue.extend(enumerate(candidates))
    while pool.queue or pool.busy():
        pool.hand_out()
        for worker, (i, _), answer in pool.wait(None):
            outcomes[i] = (None, worker.crash_error()) if answer is LOST else answer
    return outcomes


def _race(
    candidates: Sequence[SvdPlan],
    objective: Objective,
    *,
    prune: bool,
    pool: WorkerPool,
    fidelity: Optional[Tuple[int, int]] = None,
) -> List[Evaluation]:
    """Evaluate ``candidates`` in bound order, pruning the hopeless ones.

    Returns one :class:`Evaluation` per candidate, in the original order.
    A candidate is pruned only when one of its bounds is *strictly* worse
    than a cost already measured, so the best (cost, index) pair is
    identical to an exhaustive evaluation whenever the bounds are valid.
    When nothing can be pruned and ``pool`` has more than one worker, the
    candidates are scored on its workers instead (:func:`_pool_scores`).
    """
    evals = [Evaluation(plan=plan, fidelity=fidelity) for plan in candidates]
    # Each candidate as resolved for its bounds, so scoring reuses the
    # resolution (without pruning, the plan itself: _score resolves it).
    resolved: List[Union[SvdPlan, ResolvedPlan]] = list(candidates)
    if prune:
        for i, ev in enumerate(evals):
            try:
                resolved[i] = resolve(ev.plan)
                bound = objective.bound(resolved[i])
            except Exception:  # scored (and its error recorded) below
                bound = None
            ev.bound = None if bound is None else objective.cost(bound)
    if pool.size > 1 and len(evals) > 1 and all(ev.bound is None for ev in evals):
        for ev, (score, error) in zip(evals, _pool_scores(pool, candidates)):
            ev.record(objective, score, error)
        return evals

    best = float("inf")

    def score(i: int) -> None:
        nonlocal best
        evals[i].record(objective, *_score(objective, resolved[i]))
        if evals[i].cost < best:
            best = evals[i].cost

    # Unbounded candidates go first: they can never be pruned, and scoring
    # them early tightens the incumbent.
    bounded = []
    for i, ev in enumerate(evals):
        if ev.bound is None:
            score(i)
        else:
            bounded.append(i)
    bounded.sort(key=lambda i: (evals[i].bound, i))
    runs = [list(run) for _, run in groupby(bounded, key=lambda i: evals[i].bound)]
    # One heap of (cost bound, kind, item).  Kind 0 is a run not compiled
    # yet, keyed by its analytic bound; kind 1 a compiled candidate, keyed
    # by its schedule bound.  A run's analytic bound never exceeds its
    # members' schedule bounds, so candidates pop in exactly (schedule
    # bound, index) order while a run compiles only when its analytic
    # bound reaches the front.
    heap: List[Tuple[float, int, int]] = [
        (evals[run[0]].bound, 0, k) for k, run in enumerate(runs)
    ]
    heapq.heapify(heap)
    while heap:
        key, kind, item = heapq.heappop(heap)
        if kind == 1:
            # Strictly worse only, with a relative slack so float noise in
            # the bound arithmetic can never prune a tied winner.
            if key > best + 1e-12 * max(abs(best), 1.0):
                evals[item].pruned = True
            else:
                score(item)
            continue
        if key > best:
            for i in runs[item]:
                evals[i].pruned = True
            continue
        for i in runs[item]:
            try:
                tight = objective.schedule_bound(resolved[i])
            except Exception:  # scored (and its error recorded) right away
                tight = None
            if tight is None:
                score(i)
            else:
                heapq.heappush(heap, (objective.cost(tight), 1, i))
    return evals


def _best_index(evals: Sequence[Evaluation], attempted: Sequence[Evaluation]) -> int:
    """Index of the winning evaluation (lowest cost, earliest on ties).

    ``attempted`` is every evaluation of the search (successive halving's
    early rungs included), where the first error is looked up when no
    candidate scored.
    """
    scored = [i for i, ev in enumerate(evals) if ev.score is not None]
    if not scored:
        raise RuntimeError(
            "no candidate could be evaluated; first error: "
            + next((ev.error for ev in attempted if ev.error), "none recorded")
        )
    return min(scored, key=lambda i: (evals[i].cost, i))


# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class GridSearch:
    """Exhaustive sweep with optional pruning."""

    name: str = field(default="grid", init=False)
    prune: bool = True

    def run(
        self,
        candidates: Sequence[SvdPlan],
        objective: Objective,
        *,
        workers: int = 1,
    ) -> List[Evaluation]:
        with WorkerPool(partial(_score_item, objective), workers) as pool:
            return _race(candidates, objective, prune=self.prune, pool=pool)


@dataclass(frozen=True)
class SuccessiveHalving:
    """Multi-fidelity racing: score everyone small, promote the top 1/eta.

    Fidelity is the problem size: rung ``r`` scores the surviving
    candidates on the base problem scaled down by ``2^(rungs - 1 - r)``
    (never below ``min_tile_multiple`` times the largest candidate tile, so
    every candidate keeps a meaningful tile grid); the last rung always
    runs at full size.
    """

    name: str = field(default="halving", init=False)
    eta: int = 2
    min_tile_multiple: int = 2
    prune: bool = True

    def __post_init__(self) -> None:
        if self.eta < 2:
            raise ValueError(f"eta must be >= 2, got {self.eta}")

    def _fidelities(
        self, m: int, n: int, max_tile: int, n_candidates: int
    ) -> List[Tuple[int, int]]:
        floor = max(self.min_tile_multiple * max_tile, 2)
        rungs: List[Tuple[int, int]] = [(m, n)]
        # One rung per halving of the candidate set, while the scaled
        # problem still exercises every tile size.
        survivors = n_candidates
        scale = 2
        while survivors > self.eta and min(m, n) // scale >= floor:
            rungs.append((m // scale, max(n // scale, 1)))
            survivors = -(-survivors // self.eta)
            scale *= 2
        rungs.reverse()
        return rungs

    def run(
        self,
        candidates: Sequence[SvdPlan],
        objective: Objective,
        *,
        workers: int = 1,
    ) -> List[Evaluation]:
        max_tile = max(
            plan.tile_size for plan in candidates if isinstance(plan.tile_size, int)
        )
        base = candidates[0]
        fidelities = self._fidelities(base.m, base.n, max_tile, len(candidates))
        alive = list(range(len(candidates)))
        all_evals: List[Evaluation] = []
        # One pool for all rungs: starting worker processes per rung costs
        # more than most rungs' actual scoring.
        with WorkerPool(partial(_score_item, objective), workers) as pool:
            for rung, (fm, fn) in enumerate(fidelities):
                at_full = (fm, fn) == (base.m, base.n)
                scaled = [
                    candidates[i] if at_full else candidates[i].with_(m=fm, n=fn)
                    for i in alive
                ]
                evals = _race(
                    scaled,
                    objective,
                    # Bounds are only proven against costs of the same fidelity,
                    # so pruning stays rung-local (and therefore safe).
                    prune=self.prune,
                    pool=pool,
                    fidelity=None if at_full else (fm, fn),
                )
                # Record against the original (full-size) candidate plans.
                for local, i in enumerate(alive):
                    evals[local].plan = candidates[i]
                    all_evals.append(evals[local])
                if rung == len(fidelities) - 1:
                    break
                ranked = sorted(
                    (local for local, ev in enumerate(evals) if ev.score is not None),
                    key=lambda local: (evals[local].cost, local),
                )
                keep = max(1, -(-len(alive) // self.eta))
                alive = [alive[local] for local in ranked[:keep]]
        return all_evals


STRATEGIES = {"grid": GridSearch, "halving": SuccessiveHalving}


def get_strategy(strategy) -> Union[GridSearch, SuccessiveHalving]:
    """Coerce a name or instance to a strategy."""
    if isinstance(strategy, (GridSearch, SuccessiveHalving)):
        return strategy
    try:
        return STRATEGIES[str(strategy).strip().lower()]()
    except KeyError:
        raise ValueError(
            f"unknown strategy {strategy!r}; available: {sorted(STRATEGIES)}"
        ) from None


# --------------------------------------------------------------------------- #
# The tuner
# --------------------------------------------------------------------------- #
@dataclass
class TuningResult:
    """Outcome of one :func:`tune` call."""

    best_plan: SvdPlan
    best_score: float
    objective: str
    direction: str
    strategy: str
    evaluations: List[Evaluation]
    n_candidates: int
    n_evaluated: int
    n_pruned: int
    elapsed_seconds: float
    from_cache: bool = False
    cache_path: Optional[str] = None

    def rows(self) -> List[Dict[str, object]]:
        """Per-candidate rows (for tables / ``--json``), winner first flag."""
        best_key = _plan_overrides(self.best_plan)
        rows = []
        for ev in self.evaluations:
            row = ev.to_row()
            row["best"] = (
                not self.from_cache
                and ev.fidelity is None
                and _plan_overrides(ev.plan) == best_key
            )
            rows.append(row)
        return rows

    def summary(self) -> str:
        best = _plan_overrides(self.best_plan)
        lines = [
            f"objective      : {self.objective} ({self.direction})",
            f"strategy       : {self.strategy}"
            + (" [cache hit]" if self.from_cache else ""),
            f"candidates     : {self.n_candidates} "
            f"({self.n_evaluated} evaluated, {self.n_pruned} pruned)",
            f"best score     : {self.best_score:.6g}",
            f"best tile size : {best['tile_size']}",
            f"best tree      : {best['tree']}",
            f"best variant   : {best['variant']}",
        ]
        if best["grid"] is not None:
            lines.append(f"best grid      : {best['grid'][0]}x{best['grid'][1]}")
        if best["inner_block"] is not None:
            lines.append(f"inner block    : {best['inner_block']}")
        lines.append(f"elapsed        : {self.elapsed_seconds:.2f}s")
        if self.cache_path:
            lines.append(f"plan cache     : {self.cache_path}")
        return "\n".join(lines)


def _plan_overrides(plan: SvdPlan) -> Dict[str, object]:
    """The tuned parameters of ``plan``, as a JSON-friendly dict."""
    config = plan.config if plan.config is not None else default_config
    return {
        "tile_size": plan.tile_size,
        "inner_block": config.inner_block,
        "tree": tree_display_name(plan.tree),
        "variant": plan.variant,
        "grid": list(plan.grid) if plan.grid else None,
    }


def _apply_overrides(base: SvdPlan, overrides: Dict[str, object]) -> SvdPlan:
    """Rebuild a tuned plan from cached parameter overrides."""
    config = base.config if base.config is not None else default_config
    grid = overrides.get("grid")
    tree = overrides["tree"]
    if not isinstance(base.tree, (str, type(None))):
        # An explicit tree instance can only appear as a pinned dimension;
        # its cached display name is not a registry key, so keep the object.
        tree = base.tree
    return base.with_(
        tile_size=int(overrides["tile_size"]),
        tree=tree,
        variant=overrides["variant"],
        grid=tuple(grid) if grid else None,
        config=config.with_(inner_block=int(overrides["inner_block"])),
    )


def _tune_cache_key(
    base: SvdPlan,
    space: SearchSpace,
    objective: Objective,
    strategy: Union[GridSearch, SuccessiveHalving],
) -> str:
    config = base.config if base.config is not None else default_config
    key = {
        "m": base.m,
        "n": base.n,
        "stage": base.stage,
        "machine": base.machine,
        "n_nodes": base.n_nodes,
        "n_cores": base.n_cores,
        "policy": base.policy,
        "network": base.network,
        "auto_gamma": config.auto_gamma,
        "objective": objective.name,
        # Every setting, not just the name: halving's eta, tile floor and
        # pruning all change which candidates survive.
        "strategy": dataclasses.asdict(strategy),
        "space": space.fingerprint(base),
    }
    if base.scenario is not None:
        # Scenario-aware scores depend on the perturbation models, the
        # draw count and the Monte-Carlo seed; fold them in so cached
        # robust-makespan answers never leak across scenarios.
        key["scenario"] = repr(base.scenario.fingerprint())
        key["draws"] = base.draws
        key["mc_seed"] = base.seed
    return cache_key(key)


def tune(
    plan: SvdPlan,
    *,
    space: Optional[SearchSpace] = None,
    objective: Union[str, Objective] = "makespan",
    strategy: Union[str, GridSearch, SuccessiveHalving] = "grid",
    workers: int = 1,
    cache: Union[PlanCache, bool, None] = True,
    force: bool = False,
) -> TuningResult:
    """Search the plan space around ``plan`` and return the best candidate.

    Parameters
    ----------
    plan:
        The problem to tune (shape, stage, machine).  Fields the space
        searches (tile size, tree, variant, grid, inner block) are treated
        as free; ``tile_size="auto"`` is accepted and means the same as
        leaving it unset.
    space:
        The :class:`SearchSpace` to explore (default: the paper-shaped
        default space for this problem).
    objective:
        Objective name or instance (see
        :data:`repro.tuning.objectives.OBJECTIVES`).
    strategy:
        ``"grid"`` (exhaustive + pruning) or ``"halving"`` (successive
        halving), or a configured strategy instance.
    workers:
        Worker processes for races where nothing can be pruned (the
        strategy's ``prune=False``, or an objective without a bound such
        as ``comm-time``); ``1`` evaluates serially.  The workers start on
        the first such race and serve every race of the call; each scores
        one chunk at a time, sized by the pool's guided rule
        (:mod:`repro.utils.workers`).  A candidate that kills its worker is
        recorded with a ``WorkerCrash`` error and no score, and the
        unstarted rest of its chunk goes to the other workers.  A
        prunable race walks serially whatever ``workers`` says: its
        bound-ordered walk skips most candidates, which a pool would score
        anyway.
    cache:
        ``True`` (default) uses the persistent default cache, ``False`` /
        ``None`` disables caching, or pass an explicit
        :class:`~repro.tuning.cache.PlanCache`.
    force:
        Re-run the search even on a cache hit (and refresh the entry).
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    objective = get_objective(objective)
    objective.check_stage(plan.stage)
    strategy = get_strategy(strategy)
    base = plan.with_(tile_size=None) if plan.tile_size == "auto" else plan
    # Candidates are scored matrix-free (the analytic backends only need the
    # shape), but the *returned* plan must still carry the caller's data —
    # densified, so the tuned tile size can re-tile it at execution.
    matrix = base.matrix
    if isinstance(matrix, TiledMatrix):
        matrix = matrix.to_dense()
    if matrix is not None:
        base = base.with_(matrix=matrix)
    space = space if space is not None else SearchSpace()

    store: Optional[PlanCache]
    if cache is True:
        store = PlanCache()
    elif cache in (False, None):
        store = None
    else:
        store = cache

    key = None
    if store is not None:
        key = _tune_cache_key(base, space, objective, strategy)
        record = None if force else store.get(key)
        if record is not None:
            return TuningResult(
                best_plan=_apply_overrides(base, record["overrides"]),
                best_score=float(record["score"]),
                objective=objective.name,
                direction=objective.direction,
                strategy=strategy.name,
                evaluations=[],
                n_candidates=int(record.get("n_candidates", 0)),
                n_evaluated=0,
                n_pruned=0,
                elapsed_seconds=0.0,
                from_cache=True,
                cache_path=str(store.path),
            )

    start = time.perf_counter()
    candidates = space.candidates(base)
    evaluations = strategy.run(candidates, objective, workers=workers)
    # Successive halving re-scores survivors at several fidelities; the
    # winner is picked among full-fidelity evaluations only.
    final = [ev for ev in evaluations if ev.fidelity is None]
    best = final[_best_index(final, evaluations)]
    elapsed = time.perf_counter() - start
    best_plan = best.plan if matrix is None else best.plan.with_(matrix=matrix)
    result = TuningResult(
        best_plan=best_plan,
        best_score=float(best.score),
        objective=objective.name,
        direction=objective.direction,
        strategy=strategy.name,
        evaluations=evaluations,
        n_candidates=len(candidates),
        n_evaluated=sum(1 for ev in evaluations if ev.score is not None),
        n_pruned=sum(1 for ev in evaluations if ev.pruned),
        elapsed_seconds=elapsed,
        cache_path=str(store.path) if store is not None else None,
    )
    if store is not None:
        store.put(
            key,
            {
                "overrides": _plan_overrides(best.plan),
                "score": result.best_score,
                "objective": objective.name,
                "direction": objective.direction,
                "strategy": strategy.name,
                "n_candidates": result.n_candidates,
                "n_evaluated": result.n_evaluated,
                "n_pruned": result.n_pruned,
                "elapsed_seconds": round(elapsed, 4),
                "problem": {
                    "m": base.m,
                    "n": base.n,
                    "stage": base.stage,
                    "machine": base.machine,
                    "n_nodes": base.n_nodes,
                    "n_cores": base.n_cores,
                },
            },
        )
    return result


def resolve_auto_tile_size(plan: SvdPlan) -> int:
    """Pick the tile size for a ``tile_size="auto"`` plan (cached).

    Tunes the tile-size dimension alone — tree, variant, grid and inner
    block stay as the plan says — against the ``makespan`` objective, so
    ``SvdPlan(tile_size="auto")`` resolves to the simulator's best ``nb``
    for this problem and machine.  The persistent plan cache makes every
    resolution after the first an O(1) lookup.
    """
    base = plan.with_(tile_size=None)
    if base.stage == "gesvd":
        # The analytic backends do not model vector accumulation; the
        # GE2VAL pipeline is the closest scored proxy.
        base = base.with_(stage="ge2val")
    space = SearchSpace(
        trees=None,  # pin the plan's own tree / variant / grid
        variants=None,
        grids=(base.grid,),
    )
    result = tune(base, space=space, objective="makespan", strategy="grid")
    return int(result.best_plan.tile_size)
