"""Objectives that score candidate plans.

An :class:`Objective` turns one resolved plan into a scalar score through
one of the lenses the repo already has — the runtime simulator, the
critical-path engine or the communication-volume analysis — so one tuner
serves shared-memory, distributed and tall-skinny scenarios alike:

* ``makespan``      — simulated wall-clock seconds (minimize);
* ``gflops``        — simulated GFlop/s in the paper's reporting
  convention (maximize);
* ``robust-makespan`` — p95 simulated seconds across the plan's
  Monte-Carlo scenario draws (minimize; reliability-aware);
* ``critical-path`` — DAG critical path in Table-I weight units, i.e. the
  unbounded-resource limit (minimize);
* ``comm-volume``   — inter-node bytes moved under the block-cyclic
  distribution (minimize; zero on one node).

Objectives may also expose two *optimistic bounds* on their score, which
the search strategies use to skip candidates that provably cannot improve
on the best score already measured:

* :meth:`Objective.bound` — a flop-count limit no schedule can beat
  within the performance model; a closed form, so it needs no compile;
* :meth:`Objective.schedule_bound` — the compiled program's schedule
  bound (:meth:`~repro.runtime.engine.SimulationEngine.lower_bound`: the
  heavier of the critical path and the busiest node's work per core,
  plus the post stages), tighter but paid for with a compile.

All the DAG-consuming objectives resolve their op stream through the
shared in-process program cache (:mod:`repro.ir`): candidates that share a
DAG shape — same variant, tile grid, tree and core count, e.g. an
inner-block or policy sweep at fixed ``nb`` — trace it once and replay it
from then on, instead of re-tracing per candidate.  Replays additionally
share the engine's per-program memo tables
(:mod:`repro.runtime.engine`): the (machine, program) duration vector,
the (program, grid) owner vector and the (program, machine, grid,
policy) dispatch orders are computed once per cached program and reused
by every candidate that shares it, so a policy or inner-block sweep pays
the array setup once and then only the event loop per candidate.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.analysis.formulas import bidiag_weight, rbidiag_weight
from repro.api.resolver import ResolvedPlan
from repro.kernels.costs import KernelName, kernel_efficiency
from repro.models.flops import ge2bnd_reported_flops, ge2val_reported_flops


def _analytic_time_bound(resolved: ResolvedPlan) -> float:
    """Optimistic simulated time for ``resolved`` (seconds).

    The GE2BND makespan can never beat perfect parallelism at the best
    per-kernel rate of the resolved tile geometry, and the GE2VAL
    post-processing stages run at fixed single-node rates — both are cheap
    closed forms, so the bound costs nothing compared to a simulation.
    The work is the tiled program's exact Table-I weight, which the tile
    grid fixes whatever the tree: the asymptotic ``4n^2(m - n/3)`` exceeds
    it by up to a fifth on small grids, where a bound priced from it would
    exceed the schedule bound, and the makespan.
    """
    from repro.runtime.simulator import post_processing_seconds

    machine = resolved.machine
    weight = rbidiag_weight if resolved.variant == "rbidiag" else bidiag_weight
    work = weight(resolved.p, resolved.q) * machine.tile_size**3 / 3.0
    best_eff = max(
        kernel_efficiency(kernel, machine.tile_size, machine.inner_block)
        for kernel in KernelName
    )
    bound = work / (machine.peak_gflops * 1e9 * best_eff)
    if resolved.stage == "ge2val":
        bound += post_processing_seconds(resolved.n, machine)
    return bound


def _schedule_seconds(resolved: ResolvedPlan) -> float:
    """Lower bound on ``resolved``'s simulated seconds (compiles the plan).

    The engine's schedule bound on the GE2BND makespan plus the
    deterministic post stages of the plan's stage.
    """
    from repro.runtime.engine import SimulationEngine
    from repro.runtime.simulator import stage_cost

    engine = SimulationEngine(resolved.machine, resolved.distribution)
    return engine.lower_bound(resolved.program()) + stage_cost(resolved)[0]


class Objective:
    """Base class: a named, directed score over resolved plans.

    Subclasses set :attr:`name`, :attr:`direction` (``"min"`` or ``"max"``)
    and :attr:`units`, and implement :meth:`score`.  :meth:`cost` maps a
    score onto the minimized axis so strategies never branch on direction.
    """

    name: str = ""
    direction: str = "min"
    units: str = ""
    description: str = ""

    def score(self, resolved: ResolvedPlan) -> float:
        raise NotImplementedError

    def bound(self, resolved: ResolvedPlan) -> Optional[float]:
        """Optimistic score bound, or ``None`` when no cheap bound exists."""
        return None

    def schedule_bound(self, resolved: ResolvedPlan) -> Optional[float]:
        """Optimistic score from the compiled schedule bound, or ``None``.

        At least as tight as :meth:`bound` but compiles the plan's
        program; ``None`` (the default) means the simulated time does not
        bound this objective's score.
        """
        return None

    def cost(self, score: float) -> float:
        """Score mapped so that lower is always better."""
        return score if self.direction == "min" else -score

    def check_stage(self, stage: str) -> None:
        """Reject stages this objective's backend cannot model."""
        if stage == "gesvd":
            raise ValueError(
                f"objective {self.name!r} scores plans with the analytic backends, "
                "which do not model the 'gesvd' stage; tune a 'ge2val' plan instead"
            )


class MakespanObjective(Objective):
    """Simulated wall-clock seconds (the paper's primary metric)."""

    name = "makespan"
    direction = "min"
    units = "s"
    description = "simulated runtime (list scheduler, Section V machine model)"

    def score(self, resolved: ResolvedPlan) -> float:
        from repro.runtime.simulator import simulate

        return float(simulate(resolved).time_seconds)

    def bound(self, resolved: ResolvedPlan) -> Optional[float]:
        return _analytic_time_bound(resolved)

    def schedule_bound(self, resolved: ResolvedPlan) -> Optional[float]:
        return _schedule_seconds(resolved)


class GflopsObjective(Objective):
    """Simulated GFlop/s in the paper's reporting convention."""

    name = "gflops"
    direction = "max"
    units = "GFlop/s"
    description = "simulated rate, normalised by the direct-bidiagonalization flops"

    def score(self, resolved: ResolvedPlan) -> float:
        from repro.runtime.simulator import simulate

        return float(simulate(resolved).gflops)

    def bound(self, resolved: ResolvedPlan) -> Optional[float]:
        if resolved.stage == "ge2val":
            reported = ge2val_reported_flops(resolved.m, resolved.n)
        else:
            reported = ge2bnd_reported_flops(resolved.m, resolved.n)
        return reported / _analytic_time_bound(resolved) / 1e9

    def schedule_bound(self, resolved: ResolvedPlan) -> Optional[float]:
        from repro.runtime.simulator import stage_cost

        seconds = _schedule_seconds(resolved)
        return stage_cost(resolved)[1] / seconds / 1e9 if seconds > 0 else None


class RobustMakespanObjective(Objective):
    """p95 makespan across Monte-Carlo scenario draws (minimize).

    Scores a plan by the 95th-percentile makespan of its scenario's
    Monte-Carlo draws — "how slow does this plan get on a bad day?" —
    so tuning races candidates on *reliability* rather than best-case
    speed.  Plans without a stochastic scenario degrade to the nominal
    makespan (the distributions collapse to a point), making the
    objective a drop-in superset of ``makespan``.

    Both bounds stay the deterministic ones: every scenario perturbation
    factor is ``>= 1`` (:mod:`repro.runtime.scenario` rejects smaller
    ones), so no draw — hence no p95 — can beat the nominal machine's
    flop or schedule bound, and pruning remains conservative.
    """

    name = "robust-makespan"
    direction = "min"
    units = "s"
    description = (
        "p95 simulated runtime across Monte-Carlo scenario draws "
        "(reliability-aware tuning; needs SvdPlan(scenario=...))"
    )

    def score(self, resolved: ResolvedPlan) -> float:
        from repro.runtime.simulator import simulate

        result = simulate(resolved)
        if result.distribution is not None:
            return float(result.distribution.p95)
        return float(result.time_seconds)

    def bound(self, resolved: ResolvedPlan) -> Optional[float]:
        return _analytic_time_bound(resolved)

    def schedule_bound(self, resolved: ResolvedPlan) -> Optional[float]:
        return _schedule_seconds(resolved)


class CriticalPathObjective(Objective):
    """DAG critical path: parallel time with unbounded resources."""

    name = "critical-path"
    direction = "min"
    units = "nb^3/3 flops"
    description = "critical path of the traced task graph (Section IV)"

    def score(self, resolved: ResolvedPlan) -> float:
        from repro.api.execute import execute

        return float(execute(resolved, backend="dag").critical_path)


class CommVolumeObjective(Objective):
    """Inter-node communication volume under the resolved distribution."""

    name = "comm-volume"
    direction = "min"
    units = "bytes"
    description = "bytes moved across the network (owner-computes, Section VI-D)"

    def score(self, resolved: ResolvedPlan) -> float:
        from repro.analysis.communication import communication_volume

        stats = communication_volume(
            resolved.program(), resolved.distribution, tile_size=resolved.tile_size
        )
        return float(stats.bytes_moved)


class CommTimeObjective(Objective):
    """Simulated communication seconds under the plan's network model.

    Comm-aware tuning: the score is the total per-node sending time of the
    simulated schedule (NIC injection seconds under ``network="alpha-beta"``,
    ``sent * transfer_time`` under ``uniform``), which is what separates the
    flat and greedy top trees on the paper's distributed square cases
    (Section VI-D) even when their makespans are close.  Zero on one node,
    like ``comm-volume``.
    """

    name = "comm-time"
    direction = "min"
    units = "s"
    description = (
        "simulated sending seconds under the plan's network model "
        "(alpha-beta for message-level fidelity, Section VI-D)"
    )

    def score(self, resolved: ResolvedPlan) -> float:
        from repro.runtime.simulator import simulate

        return float(simulate(resolved).schedule.comm_seconds)


#: Name -> objective instance (objectives are stateless).
OBJECTIVES: Dict[str, Objective] = {
    obj.name: obj
    for obj in (
        MakespanObjective(),
        GflopsObjective(),
        RobustMakespanObjective(),
        CriticalPathObjective(),
        CommVolumeObjective(),
        CommTimeObjective(),
    )
}


def get_objective(objective) -> Objective:
    """Coerce a name or instance to an :class:`Objective`."""
    if isinstance(objective, Objective):
        return objective
    try:
        return OBJECTIVES[str(objective).strip().lower()]
    except KeyError:
        raise ValueError(
            f"unknown objective {objective!r}; available: {sorted(OBJECTIVES)}"
        ) from None
