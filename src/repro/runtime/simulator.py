"""High-level simulation drivers.

``simulate_ge2bnd`` / ``simulate_ge2val`` resolve the requested algorithm
at the requested tile shape into a compiled
:class:`~repro.ir.program.Program` (through the shared in-process program
cache, so repeated simulations of the same DAG shape trace it only once),
replay it on the event-driven :class:`~repro.runtime.engine.SimulationEngine`
under the requested scheduling policy and network model (legacy
``uniform`` flat transfer cost, or message-level ``alpha-beta`` — see
:mod:`repro.runtime.network`), and convert the makespan into the GFlop/s
numbers the paper's figures report (normalising by the
direct-bidiagonalization operation count, as the paper does).  GE2VAL adds
the single-node BND2BD and BD2VAL stages on top of the simulated GE2BND
time, reproducing the paper's setup where those two stages are not
distributed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Union

from repro.ir.compiler import get_program
from repro.ir.program import Program
from repro.models.flops import (
    bd2val_flops,
    bnd2bd_flops,
    ge2bnd_reported_flops,
    ge2val_reported_flops,
)
from repro.runtime.machine import Machine
from repro.runtime.engine import SimulationEngine
from repro.runtime.network import NetworkModel
from repro.runtime.policies import SchedulingPolicy
from repro.runtime.scenario import (
    MakespanDistribution,
    Scenario,
    get_scenario,
    run_scenario,
)
from repro.runtime.scheduler import Schedule
from repro.tiles.distribution import BlockCyclicDistribution, ProcessGrid
from repro.tiles.layout import ceil_div
from repro.trees.base import ReductionTree


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one simulated run.

    ``gflops`` uses the paper's reporting convention (direct
    bidiagonalization flop count divided by the simulated time).
    """

    m: int
    n: int
    p: int
    q: int
    algorithm: str
    tree: str
    machine_nodes: int
    time_seconds: float
    gflops: float
    n_tasks: int
    messages: int
    comm_bytes: int
    ge2bnd_seconds: float
    post_seconds: float = 0.0
    policy: str = "list"
    #: Network model the engine priced transfers with (see
    #: :data:`repro.runtime.network.NETWORK_MODELS`).
    network: str = "uniform"
    #: Total sending time across all nodes (NIC injection seconds under the
    #: alpha-beta model; ``sent * transfer_time`` under uniform).
    comm_seconds: float = 0.0
    #: The full per-task schedule behind ``time_seconds``; carried so the
    #: observability layer (``RunResult.metrics``, Gantt export) can derive
    #: utilization without re-simulating.  Excluded from equality/repr —
    #: two results are the same outcome if their scalars agree.
    schedule: Optional[Schedule] = field(default=None, compare=False, repr=False)
    #: Scenario name the run was simulated under, or ``None`` for the
    #: default (ideal-machine) path.
    scenario: Optional[str] = None
    #: Monte-Carlo makespan distribution for stochastic scenarios (the
    #: headline ``time_seconds`` stays the nominal replay).  Excluded from
    #: equality — compare ``.distribution`` directly in determinism tests.
    distribution: Optional[MakespanDistribution] = field(
        default=None, compare=False, repr=False
    )

    def __str__(self) -> str:  # pragma: no cover - human-readable report
        return (
            f"{self.algorithm:9s} {self.tree:8s} m={self.m:>8d} n={self.n:>6d} "
            f"nodes={self.machine_nodes:>3d} time={self.time_seconds:8.3f}s "
            f"gflops={self.gflops:8.1f}"
        )


def _resolve_sim_tree(
    tree: Union[str, ReductionTree],
    machine: Machine,
    p: int,
    q: int,
    grid: Optional[ProcessGrid] = None,
) -> ReductionTree:
    """Resolve a tree spec for simulation purposes.

    Delegates to the shared resolver (:mod:`repro.api.resolver`): string
    names map to the shared-memory trees; for multi-node machines the tree
    is wrapped into the paper's hierarchical configuration (flat top tree
    for FlatTS/FlatTT, greedy top tree for Greedy/Auto) over ``grid`` (or
    the default grid for the tile shape).  Imported lazily to keep
    :mod:`repro.runtime` importable on its own.
    """
    from repro.api.resolver import resolve_distributed_tree

    return resolve_distributed_tree(
        tree,
        n_nodes=machine.n_nodes,
        n_cores=machine.cores_per_node,
        p=p,
        q=q,
        grid=grid,
    )


def _policy_name(policy: Union[str, SchedulingPolicy]) -> str:
    return policy if isinstance(policy, str) else policy.name


def _network_name(network: Union[str, NetworkModel]) -> str:
    return network if isinstance(network, str) else network.name


def _default_grid(machine: Machine, p: int, q: int) -> ProcessGrid:
    """The process grid the paper uses: near-square for square matrices,
    ``nodes x 1`` for tall-and-skinny matrices."""
    from repro.api.resolver import default_grid

    return default_grid(machine.n_nodes, p, q)


@dataclass(frozen=True)
class _Ge2bndSetup:
    """Everything :func:`simulate_ge2bnd` derives before the engine runs.

    Shared with the batch layer (:mod:`repro.runtime.batch`), which needs
    the identical program/grid/tree resolution per candidate but replays
    many candidates through one engine pass.
    """

    m: int
    n: int
    p: int
    q: int
    algorithm: str
    tree_name: str
    grid: ProcessGrid
    distribution: BlockCyclicDistribution
    program: Program


def _ge2bnd_setup(
    m: int,
    n: int,
    machine: Machine,
    *,
    tree: Union[str, ReductionTree] = "auto",
    algorithm: str = "bidiag",
    grid: Optional[ProcessGrid] = None,
) -> _Ge2bndSetup:
    """Validate and resolve one GE2BND simulation request (no engine run)."""
    if m < n:
        raise ValueError(f"expected m >= n, got {m}x{n}")
    nb = machine.tile_size
    p, q = ceil_div(m, nb), ceil_div(n, nb)
    if grid is None:
        grid = _default_grid(machine, p, q)
    elif grid.size != machine.n_nodes:
        raise ValueError(
            f"process grid {grid.rows}x{grid.cols} does not cover "
            f"{machine.n_nodes} node(s)"
        )
    distribution = BlockCyclicDistribution(grid)
    tree_obj = _resolve_sim_tree(tree, machine, p, q, grid)
    tree_name = tree if isinstance(tree, str) else type(tree).__name__

    algorithm = algorithm.lower()
    if algorithm not in ("bidiag", "rbidiag"):
        raise ValueError(f"unknown algorithm {algorithm!r} (use 'bidiag' or 'rbidiag')")
    program = get_program(
        algorithm, p, q, tree_obj, n_cores=machine.cores_per_node, grid_rows=grid.rows
    )
    return _Ge2bndSetup(
        m=m,
        n=n,
        p=p,
        q=q,
        algorithm=algorithm,
        tree_name=str(tree_name),
        grid=grid,
        distribution=distribution,
        program=program,
    )


def _ge2bnd_result(
    setup: _Ge2bndSetup,
    machine: Machine,
    schedule: Schedule,
    *,
    policy: Union[str, SchedulingPolicy],
    network: Union[str, NetworkModel],
) -> SimulationResult:
    """Convert one finished GE2BND schedule into a :class:`SimulationResult`."""
    flops = ge2bnd_reported_flops(setup.m, setup.n)
    time = schedule.makespan
    return SimulationResult(
        m=setup.m,
        n=setup.n,
        p=setup.p,
        q=setup.q,
        algorithm=setup.algorithm,
        tree=setup.tree_name,
        machine_nodes=machine.n_nodes,
        time_seconds=time,
        gflops=flops / time / 1e9 if time > 0 else 0.0,
        n_tasks=len(setup.program),
        messages=schedule.messages,
        comm_bytes=schedule.comm_bytes,
        ge2bnd_seconds=time,
        policy=_policy_name(policy),
        network=_network_name(network),
        comm_seconds=schedule.comm_seconds,
        schedule=schedule,
    )


def _ge2val_result(
    base: SimulationResult, machine: Machine, algorithm: str
) -> SimulationResult:
    """Stack the single-node BND2BD + BD2VAL stages onto a GE2BND result."""
    post = post_processing_seconds(base.n, machine)
    total = base.time_seconds + post
    flops = ge2val_reported_flops(base.m, base.n)
    return SimulationResult(
        m=base.m,
        n=base.n,
        p=base.p,
        q=base.q,
        algorithm=f"ge2val-{algorithm}",
        tree=base.tree,
        machine_nodes=machine.n_nodes,
        time_seconds=total,
        gflops=flops / total / 1e9 if total > 0 else 0.0,
        n_tasks=base.n_tasks,
        messages=base.messages,
        comm_bytes=base.comm_bytes,
        ge2bnd_seconds=base.ge2bnd_seconds,
        post_seconds=post,
        policy=base.policy,
        network=base.network,
        comm_seconds=base.comm_seconds,
        schedule=base.schedule,
        scenario=base.scenario,
        # The post stages are deterministic and single-node, so the whole
        # GE2BND distribution translates by the post time.
        distribution=(
            base.distribution.shifted(post)
            if base.distribution is not None
            else None
        ),
    )


def simulate_ge2bnd(
    m: int,
    n: int,
    machine: Machine,
    *,
    tree: Union[str, ReductionTree] = "auto",
    algorithm: str = "bidiag",
    grid: Optional[ProcessGrid] = None,
    policy: Union[str, SchedulingPolicy] = "list",
    network: Union[str, NetworkModel] = "uniform",
    scenario: Union[str, Scenario, None] = None,
    draws: Optional[int] = None,
    seed: int = 0,
) -> SimulationResult:
    """Simulate the GE2BND stage for an ``m x n`` matrix.

    Parameters
    ----------
    m, n:
        Element-wise matrix dimensions (``m >= n``).
    machine:
        Machine model (node count, cores, tile size, network).
    tree:
        Tree name (``flatts``, ``flattt``, ``greedy``, ``auto``) or an
        explicit :class:`~repro.trees.base.ReductionTree`.
    algorithm:
        ``"bidiag"`` or ``"rbidiag"``.
    grid:
        Process grid for the block-cyclic distribution; ``None`` uses the
        paper's default for the tile shape (near-square / ``nodes x 1``).
    policy:
        Scheduling policy replaying the compiled program (name or
        :class:`~repro.runtime.policies.SchedulingPolicy`; default the
        legacy ``"list"`` scheduler).
    network:
        Communication model pricing inter-node transfers (name or
        :class:`~repro.runtime.network.NetworkModel`; default the legacy
        ``"uniform"`` flat-cost model, ``"alpha-beta"`` for the
        message-level model of :mod:`repro.runtime.network`).
    scenario:
        Machine-realism scenario (name or
        :class:`~repro.runtime.scenario.Scenario`; ``None`` for the ideal
        deterministic machine).  Stochastic scenarios attach a
        :class:`~repro.runtime.scenario.MakespanDistribution` over
        ``draws`` Monte-Carlo draws seeded by ``seed``; ``time_seconds``
        stays the nominal (heterogeneity-only) replay.
    draws, seed:
        Monte-Carlo draw count (``None`` = the scenario's default) and
        rng seed; ignored without a stochastic scenario.
    """
    setup = _ge2bnd_setup(
        m, n, machine, tree=tree, algorithm=algorithm, grid=grid
    )
    scen = get_scenario(scenario)
    if scen is None or scen.is_trivial:
        # The no-scenario path (and the explicit "none" scenario) is the
        # plain engine run — bit-identical to what it always produced.
        schedule = SimulationEngine(
            machine, setup.distribution, policy=policy, network=network
        ).run(setup.program)
        result = _ge2bnd_result(
            setup, machine, schedule, policy=policy, network=network
        )
        return replace(result, scenario=scen.name) if scen is not None else result
    run = run_scenario(
        setup.program,
        machine,
        scen,
        setup.distribution,
        policy=policy,
        network=network,
        draws=draws,
        seed=seed,
    )
    result = _ge2bnd_result(
        setup, machine, run.schedule, policy=policy, network=network
    )
    return replace(result, scenario=scen.name, distribution=run.distribution)


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


def simulate_ge2val(
    m: int,
    n: int,
    machine: Machine,
    *,
    tree: Union[str, ReductionTree] = "auto",
    algorithm: str = "auto",
    grid: Optional[ProcessGrid] = None,
    policy: Union[str, SchedulingPolicy] = "list",
    network: Union[str, NetworkModel] = "uniform",
    scenario: Union[str, Scenario, None] = None,
    draws: Optional[int] = None,
    seed: int = 0,
) -> SimulationResult:
    """Simulate the full GE2VAL pipeline (GE2BND + BND2BD + BD2VAL).

    ``algorithm="auto"`` follows the paper's best configuration: BIDIAG for
    square-ish matrices, R-BIDIAG when ``m >= 5n/3``.  The BND2BD and BD2VAL
    stages are charged on a single node (they are not distributed in the
    paper either), which is what caps the distributed GE2VAL scaling.
    Scenario handling matches :func:`simulate_ge2bnd`; the deterministic
    post stages shift the Monte-Carlo distribution without widening it.
    """
    if algorithm == "auto":
        from repro.api.resolver import resolve_variant

        algorithm = resolve_variant(algorithm, m, n)
    base = simulate_ge2bnd(
        m, n, machine, tree=tree, algorithm=algorithm, grid=grid,
        policy=policy, network=network, scenario=scenario, draws=draws,
        seed=seed,
    )
    return _ge2val_result(base, machine, algorithm)
