"""The simulate backend's driver.

:func:`simulate` replays one resolved plan's compiled
:class:`~repro.ir.program.Program` on the event-driven
:class:`~repro.runtime.engine.SimulationEngine`, under the plan's
scheduling policy, network model and scenario, and prices the schedule
into the GFlop/s numbers the paper's figures report (normalising by the
direct-bidiagonalization operation count, as the paper does).  Every
choice — tile shape, grid, tree, variant, machine — comes from the
:class:`~repro.api.resolver.ResolvedPlan`; nothing is re-derived here.
GE2VAL adds the single-node BND2BD and BD2VAL stages on top of the
simulated GE2BND time, reproducing the paper's setup where those two
stages are not distributed.

``execute(plan, "simulate")`` is the front door (``execute_sweep`` calls
it once per plan); call ``simulate(resolve(plan))`` directly only to get
at the :class:`~repro.runtime.scheduler.Schedule`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Tuple

from repro.models.flops import (
    bd2val_flops,
    bnd2bd_flops,
    ge2bnd_reported_flops,
    ge2val_reported_flops,
)
from repro.runtime.engine import SimulationEngine
from repro.runtime.machine import Machine
from repro.runtime.scenario import MakespanDistribution, run_scenario
from repro.runtime.scheduler import Schedule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.resolver import ResolvedPlan


@dataclass(frozen=True)
class SimulationResult:
    """What one simulated run adds to its resolved plan.

    ``gflops`` uses the paper's reporting convention (direct
    bidiagonalization flop count divided by the simulated time).
    """

    time_seconds: float
    gflops: float
    n_tasks: int
    ge2bnd_seconds: float
    #: The per-task schedule behind ``ge2bnd_seconds``: message and
    #: communication totals, and what the observability layer derives
    #: utilization from.  Excluded from equality/repr — two results are
    #: the same outcome if their scalars agree.
    schedule: Schedule = field(compare=False, repr=False)
    post_seconds: float = 0.0
    #: Monte-Carlo makespan distribution for stochastic scenarios (the
    #: headline ``time_seconds`` stays the nominal replay).  Excluded from
    #: equality — compare ``.distribution`` directly in determinism tests.
    distribution: Optional[MakespanDistribution] = field(
        default=None, compare=False, repr=False
    )


def stage_cost(resolved: "ResolvedPlan") -> Tuple[float, float]:
    """``(post seconds, reported flops)`` of the plan's stage.

    GE2BND has no post stages; GE2VAL adds the single-node BND2BD and
    BD2VAL time of :func:`post_processing_seconds`.
    """
    if resolved.stage == "ge2val":
        return (
            post_processing_seconds(resolved.n, resolved.machine),
            ge2val_reported_flops(resolved.m, resolved.n),
        )
    return 0.0, ge2bnd_reported_flops(resolved.m, resolved.n)


def price_schedule(
    resolved: "ResolvedPlan",
    schedule: Schedule,
    distribution: Optional[MakespanDistribution] = None,
) -> SimulationResult:
    """Price one GE2BND schedule (and its draws) for the plan's stage."""
    post, flops = stage_cost(resolved)
    total = schedule.makespan + post
    if distribution is not None and resolved.stage == "ge2val":
        # The post stages are deterministic and single-node, so the whole
        # GE2BND distribution translates by the post time.
        distribution = distribution.shifted(post)
    return SimulationResult(
        time_seconds=total,
        gflops=flops / total / 1e9 if total > 0 else 0.0,
        n_tasks=schedule.n_tasks,
        ge2bnd_seconds=schedule.makespan,
        schedule=schedule,
        post_seconds=post,
        distribution=distribution,
    )


def simulate(resolved: "ResolvedPlan") -> SimulationResult:
    """Simulate one resolved plan's GE2BND or GE2VAL stage.

    The ideal machine (no scenario, or a trivial one) is one engine run;
    a non-trivial scenario goes through
    :func:`~repro.runtime.scenario.run_scenario`, whose nominal replay
    gives ``time_seconds`` and whose Monte-Carlo draws (``resolved.draws``,
    seeded by the plan's seed) give ``distribution``.
    """
    if resolved.stage == "gesvd":
        raise ValueError(
            "stage 'gesvd' is only supported by the 'numeric' backend "
            "(the simulator models GE2BND and GE2VAL)"
        )
    plan = resolved.plan
    program = resolved.program()
    scenario = resolved.scenario
    if scenario is None or scenario.is_trivial:
        schedule = SimulationEngine(
            resolved.machine,
            resolved.distribution,
            policy=plan.policy,
            network=plan.network,
        ).run(program)
        return price_schedule(resolved, schedule)
    run = run_scenario(
        program,
        resolved.machine,
        scenario,
        resolved.distribution,
        policy=plan.policy,
        network=plan.network,
        draws=resolved.draws,
        seed=plan.seed,
    )
    return price_schedule(resolved, run.schedule, run.distribution)


def post_processing_seconds(n: int, machine: Machine) -> float:
    """Time of the single-node BND2BD + BD2VAL stages.

    BND2BD is memory bound: the paper keeps it multi-threaded but on one
    node; we charge its flops at the node's memory-bound rate (2 flops per
    8 bytes of streamed band data).  BD2VAL is a negligible ``O(n^2)``
    scalar stage charged at a single core's scalar rate.
    """
    nb = machine.tile_size
    membw = machine.preset.memory_bandwidth_gbs * 1e9
    membound_rate = membw / 4.0  # flops/s sustainable by streaming 8B per 2 flops
    bnd2bd_time = bnd2bd_flops(n, nb) / membound_rate
    scalar_rate = 0.05 * machine.preset.core_gemm_gflops * 1e9
    bd2val_time = bd2val_flops(n) / scalar_rate
    return bnd2bd_time + bd2val_time
