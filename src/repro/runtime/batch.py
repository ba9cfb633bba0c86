"""Batched candidate simulation: one engine pass over many plan variants.

Tuning sweeps evaluate many (machine, grid, policy, network) candidates of
the *same* compiled :class:`~repro.ir.program.Program`.  Each candidate is
one :class:`~repro.runtime.replay.PreparedReplay` of the replay kernel —
the event loop every simulation path runs — and this module factors the
candidate product around it:

* **shared axes are computed once per unique key** — the successor lists
  once per program; the duration vector (and the Python list the event
  loop indexes) once per unique machine; the owner vector once per
  unique grid; the message-byte vector once per unique (network,
  machine); through the memo tables of :mod:`repro.runtime.replay`, so
  the work is shared with plain engine runs too, and through one dict of
  Python lists shared by the members of a batch;
* **dispatch orders are memoized** — one stable argsort and one
  structural pass (:func:`~repro.runtime.replay.dispatch_order`) per
  unique (policy, machine, grid), shared by every candidate with the same
  order (machine-invariant policies such as ``critical-path`` / ``fifo``
  / ``random`` fold the machine out of the key entirely), so each
  candidate's event loop is a timing-only walk;
* **identical-order candidates are deduplicated** — two candidates whose
  (machine, grid, network, dispatch order) agree produce the same
  schedule by construction, so the second reuses the first's
  :class:`~repro.runtime.scheduler.Schedule` (e.g. ``list`` and
  ``locality`` coincide on one node, where every producer is local);
* **analytic bounds prune before any event loop** — each candidate's
  :meth:`~repro.runtime.engine.SimulationEngine.lower_bound` (critical
  path and per-node area, memoized per (program, machine, grid); the
  tuner prunes with the same bound), and :func:`simulate_resolved_batch`
  evaluates candidates in ascending-bound order against the running
  incumbent, so provably worse candidates never touch the engine.

Every produced schedule is the one the corresponding individual
``SimulationEngine(machine, ...).run(program)`` returns — both run the
same kernel — and ``tests/test_batch_engine.py`` checks both against the
object-path oracle :func:`repro.verify.reference.reference_schedule`.

Pruning is conservative: a candidate is skipped only when its makespan
lower bound is *strictly* worse than a makespan already measured, so the
winning candidate (lowest cost, earliest index) matches an exhaustive
evaluation.

Batch-level observability goes through the registry
(``engine.memo.batch.*`` counters, surfaced by
:func:`repro.runtime.engine.engine_memo_stats`) and the ambient tracer
(``batch.prepare`` / ``batch.simulate`` phase spans).  Batched replays
carry no per-task traces; use a plain engine run for Gantt or trace
exports.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.ir.program import Program
from repro.obs.metrics import REGISTRY
from repro.obs.tracer import current_tracer
from repro.runtime.engine import SimulationEngine
from repro.runtime.machine import Machine
from repro.runtime.network import NetworkModel
from repro.runtime.policies import SchedulingPolicy
from repro.runtime.replay import PreparedReplay, network_token
from repro.runtime.scenario import run_scenario
from repro.runtime.scheduler import Schedule
from repro.runtime.simulator import (
    SimulationResult,
    price_schedule,
    require_simulated_stage,
    stage_cost,
)
from repro.tiles.distribution import BlockCyclicDistribution

__all__ = [
    "BatchCandidate",
    "BatchEngine",
    "PlanOutcome",
    "simulate_batch",
    "simulate_resolved_batch",
]


@dataclass(frozen=True)
class BatchCandidate:
    """One (machine, grid, policy, network) variant of a batched replay."""

    machine: Machine
    distribution: Optional[BlockCyclicDistribution] = None
    policy: Union[str, SchedulingPolicy] = "list"
    network: Union[str, NetworkModel] = "uniform"


@dataclass
class _Member:
    """One candidate's prepared replay."""

    replay: PreparedReplay
    #: (machine, grid, network, dispatch order) — equal keys provably
    #: produce equal schedules; ``None`` disables deduplication.
    dedup_key: Optional[Tuple] = None


class _PreparedBatch:
    """Shared state of one (program, candidates) batch.

    Per-candidate state resolves through the module memo tables and the
    batch's shared list dict as members are added, so each unique axis is
    computed once no matter how many candidates share it.
    """

    def __init__(self, program: Program, *, dedup: bool = True) -> None:
        self.program = program
        self.dedup = dedup
        self.members: List[_Member] = []
        self._lists: Dict = {}
        self._schedules: Dict[Tuple, Schedule] = {}
        self._bounds: Optional[np.ndarray] = None

    def add(self, candidate: BatchCandidate) -> int:
        """Resolve one candidate against the shared tables; return its index."""
        if candidate.machine.heterogeneous:
            raise ValueError(
                "batched replay prices nominal durations only; "
                "heterogeneous machines go through "
                "repro.runtime.scenario.run_scenario (plan-level batching "
                "routes scenarios there automatically)"
            )
        engine = SimulationEngine(
            candidate.machine,
            candidate.distribution,
            policy=candidate.policy,
            network=candidate.network,
        )
        replay = PreparedReplay(engine, self.program, shared=self._lists)
        member = _Member(replay=replay)
        if self.dedup:
            dist = engine.distribution
            net_tok = network_token(engine.network)
            dist_tok: object = (
                (dist.grid.rows, dist.grid.cols)
                if (type(dist) is BlockCyclicDistribution or replay.node_np is None)
                else object()
            )
            if isinstance(net_tok, tuple) and isinstance(dist_tok, tuple):
                # The schedule is a pure function of (durations, dispatch
                # order, placement, network pricing, core count) — all
                # captured here, so equal keys imply equal schedules.
                member.dedup_key = (
                    engine.machine, dist_tok, net_tok, tuple(replay.order)
                )
        self.members.append(member)
        self._bounds = None
        return len(self.members) - 1

    # ------------------------------------------------------------------ #
    # Analytic lower bounds (no event loop)
    # ------------------------------------------------------------------ #
    def lower_bounds(self) -> np.ndarray:
        """Per-candidate makespan lower bounds in seconds (no event loop).

        Each member's :meth:`~repro.runtime.engine.SimulationEngine.lower_bound`,
        memoized per (program, machine, grid), so candidates sharing those
        axes (and repeated sweeps) share one computation.
        """
        if self._bounds is None:
            self._bounds = np.array(
                [m.replay.engine.lower_bound(self.program) for m in self.members],
                dtype=np.float64,
            )
        return self._bounds

    # ------------------------------------------------------------------ #
    # Simulation
    # ------------------------------------------------------------------ #
    def schedule(self, index: int) -> Schedule:
        """Simulate (or reuse) candidate ``index``'s schedule."""
        member = self.members[index]
        key = member.dedup_key
        if key is not None:
            cached = self._schedules.get(key)
            if cached is not None:
                REGISTRY.inc("engine.memo.batch.deduped")
                return cached
        replay = member.replay
        sched = replay.run()
        REGISTRY.inc("engine.memo.batch.simulated")
        # Opt-in static verification (REPRO_VERIFY=1): sanitize every
        # freshly simulated schedule exactly like SimulationEngine.run
        # does.  Deduplicated candidates reuse an already-checked object.
        from repro.verify.hooks import verify_enabled

        if verify_enabled():
            from repro.verify.hooks import check_schedule

            engine = replay.engine
            check_schedule(
                sched,
                self.program,
                engine.machine,
                distribution=engine.distribution,
                network=engine.network,
            )
        if key is not None:
            self._schedules[key] = sched
        return sched


class BatchEngine:
    """Evaluate many engine candidates of one program in a single pass.

    ``dedup=True`` (default) lets candidates with provably identical
    schedules share one :class:`~repro.runtime.scheduler.Schedule` object;
    ``dedup=False`` forces one fresh simulation per candidate.
    """

    def __init__(self, *, dedup: bool = True) -> None:
        self.dedup = dedup

    def prepare(
        self,
        program: Program,
        candidates: Sequence[BatchCandidate],
    ) -> _PreparedBatch:
        """Hoist all shared state for ``candidates`` (no event loop yet)."""
        REGISTRY.inc("engine.memo.batch.candidates", len(candidates))
        prepared = _PreparedBatch(program, dedup=self.dedup)
        for candidate in candidates:
            prepared.add(candidate)
        return prepared

    def run_batch(
        self,
        program: Program,
        candidates: Sequence[BatchCandidate],
    ) -> List[Schedule]:
        """Simulate every candidate.

        Returned schedules are bit-identical to per-candidate
        :meth:`~repro.runtime.engine.SimulationEngine.run` calls with the
        same parameters, in candidate order.
        """
        tracer = current_tracer()
        with tracer.phase("batch.prepare") if tracer else nullcontext():
            prepared = self.prepare(program, candidates)
        with tracer.phase("batch.simulate") if tracer else nullcontext():
            return [prepared.schedule(i) for i in range(len(candidates))]

    def lower_bounds(
        self,
        program: Program,
        candidates: Sequence[BatchCandidate],
    ) -> List[float]:
        """Per-candidate makespan lower bounds (seconds), no event loop."""
        return self.prepare(program, candidates).lower_bounds().tolist()


def simulate_batch(
    program: Program,
    candidates: Sequence[BatchCandidate],
    *,
    dedup: bool = True,
) -> List[Schedule]:
    """One-shot wrapper: batch-simulate ``candidates`` over ``program``."""
    return BatchEngine(dedup=dedup).run_batch(program, candidates)


# --------------------------------------------------------------------------- #
# Plan-level batching (the tuning / sweep entry point)
# --------------------------------------------------------------------------- #
@dataclass
class PlanOutcome:
    """One resolved plan's batched evaluation."""

    result: Optional[SimulationResult] = None
    score: Optional[float] = None
    error: Optional[str] = None
    pruned: bool = False
    #: The raised exception behind ``error`` (for callers that re-raise).
    exception: Optional[BaseException] = field(
        default=None, repr=False, compare=False
    )


def _outcome_score(
    objective: Optional[str], result: SimulationResult
) -> Optional[float]:
    if objective is None:
        return None
    if objective == "makespan":
        return float(result.time_seconds)
    if objective == "gflops":
        return float(result.gflops)
    if objective == "comm-time":
        return float(result.schedule.comm_seconds)
    if objective == "robust-makespan":
        # p95 across Monte-Carlo draws; deterministic runs (no scenario,
        # or a fault-free one) degrade to the nominal makespan.
        if result.distribution is not None:
            return float(result.distribution.p95)
        return float(result.time_seconds)
    raise ValueError(f"unknown batch objective {objective!r}")


def simulate_resolved_batch(
    resolved_plans: Sequence,
    *,
    objective: Optional[str] = None,
    prune: bool = True,
    dedup: bool = True,
) -> List[PlanOutcome]:
    """Batch-simulate many resolved plans; results match ``execute`` exactly.

    ``resolved_plans`` are :class:`~repro.api.resolver.ResolvedPlan`
    instances (possibly spanning several DAG shapes — candidates are
    grouped per :meth:`~repro.api.resolver.ResolvedPlan.program`), and
    each schedule is priced by
    :func:`~repro.runtime.simulator.price_schedule`, as in
    :func:`~repro.runtime.simulator.simulate`.  ``objective`` selects
    the extracted score (``"makespan"`` / ``"gflops"`` / ``"comm-time"``
    / ``"robust-makespan"``; ``None`` returns raw
    :class:`~repro.runtime.simulator.SimulationResult` objects only).
    With ``prune=True`` and a bounded objective, candidates are evaluated
    most-promising-first against the engine's analytic lower bounds and
    strictly hopeless ones are skipped (``pruned=True``, ``result=None``)
    without touching the event loop; the surviving winner is the same one
    an exhaustive pass would pick.  ``comm-time`` has no valid lower
    bound, so it never prunes.  ``robust-makespan`` prunes against the
    *nominal* bound, which stays valid because every scenario
    perturbation factor is ``>= 1`` (draws only ever get slower).

    Plans carrying a non-trivial scenario bypass the batched event loop
    for that candidate and run the Monte-Carlo scenario driver
    (:func:`repro.runtime.scenario.run_scenario`) instead — matching what
    ``execute`` does for the same plan, draw for draw.

    A per-plan failure (an unsupported stage, compilation or simulation)
    is captured on that plan's :class:`PlanOutcome` (``error`` /
    ``exception``) instead of aborting the batch.
    """
    outcomes = [PlanOutcome() for _ in resolved_plans]
    REGISTRY.inc("engine.memo.batch.candidates", len(resolved_plans))
    tracer = current_tracer()

    # ---------------- prepare: group every candidate by its program
    groups: Dict[int, _PreparedBatch] = {}
    #: Per candidate: (group, member, resolved plan, non-trivial scenario).
    prep: List[Optional[Tuple]] = [None] * len(resolved_plans)
    with tracer.phase("batch.prepare") if tracer else nullcontext():
        for i, rp in enumerate(resolved_plans):
            try:
                require_simulated_stage(rp)
                program = rp.program()
                group = groups.get(id(program))
                if group is None:
                    group = _PreparedBatch(program, dedup=dedup)
                    groups[id(program)] = group
                member = group.add(
                    BatchCandidate(
                        machine=rp.machine,
                        distribution=rp.distribution,
                        policy=rp.plan.policy,
                        network=rp.plan.network,
                    )
                )
                # Trivial scenarios (no heterogeneity, no faults, no noise)
                # replay through the batched loop bit-identically.
                scen = rp.scenario
                if scen is not None and scen.is_trivial:
                    scen = None
                prep[i] = (group, member, rp, scen)
            except Exception as exc:
                outcomes[i].error = f"{type(exc).__name__}: {exc}"
                outcomes[i].exception = exc

    # ---------------- bound: optimistic candidate costs, no event loop
    can_prune = prune and objective in ("makespan", "gflops", "robust-makespan")
    bound_cost: List[Optional[float]] = [None] * len(resolved_plans)
    if can_prune:
        for i, entry in enumerate(prep):
            if entry is None:
                continue
            group, member, rp, _scen = entry
            post, flops = stage_cost(rp)
            bound_time = float(group.lower_bounds()[member]) + post
            if objective in ("makespan", "robust-makespan"):
                bound_cost[i] = bound_time
            else:  # gflops is maximized: cost is the negated score
                bound_cost[i] = (
                    -(flops / bound_time / 1e9) if bound_time > 0 else None
                )

    # ---------------- evaluate: ascending bound, incumbent pruning
    order = sorted(
        (i for i in range(len(resolved_plans)) if prep[i] is not None),
        key=lambda i: (bound_cost[i] is not None, bound_cost[i] or 0.0, i),
    )
    best_cost = float("inf")
    with tracer.phase("batch.simulate") if tracer else nullcontext():
        for i in order:
            group, member, rp, scen = prep[i]
            bc = bound_cost[i]
            # Strictly-worse only, with a relative-epsilon slack so float
            # noise in the bound arithmetic can never prune a tied winner.
            if (
                can_prune
                and bc is not None
                and bc > best_cost + 1e-12 * max(abs(best_cost), 1.0)
            ):
                outcomes[i].pruned = True
                REGISTRY.inc("engine.memo.batch.pruned")
                continue
            try:
                if scen is not None:
                    run = run_scenario(
                        group.program,
                        rp.machine,
                        scen,
                        rp.distribution,
                        policy=rp.plan.policy,
                        network=rp.plan.network,
                        draws=rp.draws,
                        seed=rp.plan.seed,
                    )
                    result = price_schedule(rp, run.schedule, run.distribution)
                else:
                    result = price_schedule(rp, group.schedule(member))
                outcomes[i].result = result
                score = _outcome_score(objective, result)
                outcomes[i].score = score
                if score is not None:
                    cost = -score if objective == "gflops" else score
                    if cost < best_cost:
                        best_cost = cost
            except Exception as exc:
                outcomes[i].error = f"{type(exc).__name__}: {exc}"
                outcomes[i].exception = exc
    return outcomes
