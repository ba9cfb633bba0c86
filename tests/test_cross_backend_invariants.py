"""Cross-backend scheduling invariants.

Satellite of the network PR: for every scheduling policy, process-grid
shape and network model, one compiled :class:`~repro.ir.program.Program`
must satisfy the fundamental sandwich

    DAG critical path  <=  simulated makespan  <=  serial flop time

where the critical path is the unbounded-resource lower bound (free
communication) and the serial time is the one-core replay.  The upper
bound is a real statement about the engine: it is work-conserving and the
communication charged on these shapes stays subdominant to compute, so no
policy/network combination may push the makespan past a single core.

The same sweep cross-checks the three lenses of the paper: the DAG
backend's critical path (Table-I weights), the engine's makespan and the
analytic serial time all come from the *same* cached program.
"""

from __future__ import annotations

import pytest

from repro.api.resolver import resolve_distributed_tree
from repro.ir import clear_program_cache, get_program
from repro.runtime.engine import (
    SimulationEngine,
    critical_path_seconds,
    serial_seconds,
)
from repro.runtime.machine import Machine
from repro.runtime.network import NETWORK_MODELS
from repro.runtime.policies import POLICIES
from repro.tiles.distribution import BlockCyclicDistribution, ProcessGrid

GRID_SHAPES = [(1, 1), (2, 2), (4, 1), (1, 4)]
ALGORITHMS = [("bidiag", 8, 6), ("rbidiag", 12, 4)]


@pytest.fixture(autouse=True, scope="module")
def _fresh_program_cache():
    clear_program_cache()
    yield
    clear_program_cache()


def _program_and_machine(algorithm, p, q, rows, cols):
    nodes = rows * cols
    grid = ProcessGrid(rows, cols)
    machine = Machine(n_nodes=nodes, cores_per_node=4, tile_size=100)
    tree = resolve_distributed_tree(
        "greedy", n_nodes=nodes, n_cores=4, grid=grid
    )
    program = get_program(algorithm, p, q, tree, n_cores=4, grid_rows=rows)
    return program, machine, BlockCyclicDistribution(grid)


@pytest.mark.parametrize("network", sorted(NETWORK_MODELS))
@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("rows,cols", GRID_SHAPES)
@pytest.mark.parametrize("algorithm,p,q", ALGORITHMS)
def test_critical_path_le_makespan_le_serial(
    algorithm, p, q, rows, cols, policy, network
):
    program, machine, distribution = _program_and_machine(
        algorithm, p, q, rows, cols
    )
    schedule = SimulationEngine(
        machine, distribution, policy=policy, network=network
    ).run(program)
    lower = critical_path_seconds(program, machine)
    upper = serial_seconds(program, machine)
    assert lower <= schedule.makespan + 1e-12
    assert schedule.makespan <= upper + 1e-12
    # Dependencies are never violated, whatever the policy or network.
    for dst in range(len(program)):
        for src in program.predecessors(dst):
            assert schedule.start[dst] >= schedule.finish[src] - 1e-12


@pytest.mark.parametrize("rows,cols", GRID_SHAPES)
def test_dag_backend_critical_path_matches_engine_bound(rows, cols):
    """The DAG backend's Table-I critical path and the engine's
    duration-weighted one come from the same program and must order the
    same way the simulate backend's makespan does."""
    program, machine, distribution = _program_and_machine("bidiag", 8, 6, rows, cols)
    weight_cp = program.critical_path()
    assert weight_cp > 0
    for network in sorted(NETWORK_MODELS):
        schedule = SimulationEngine(
            machine, distribution, network=network
        ).run(program)
        assert critical_path_seconds(program, machine) <= schedule.makespan + 1e-12


def test_single_node_collapses_network_axis():
    """On one node the sandwich is network-independent: both models must
    produce the exact same makespan for every policy."""
    program, machine, distribution = _program_and_machine("bidiag", 8, 6, 1, 1)
    for policy in sorted(POLICIES):
        makespans = {
            SimulationEngine(
                machine, distribution, policy=policy, network=network
            ).run(program).makespan
            for network in sorted(NETWORK_MODELS)
        }
        assert len(makespans) == 1, policy
