"""Mutation-testing harness for the static verification subsystem.

Injects controlled defects into compiled Programs (CSR edge deletions,
rewires, duplications) and engine Schedules (start-time perturbations,
owner swaps, core collisions, counter corruption) and asserts the
verifier flags **every** injected defect — and accepts every unmutated
Program/Schedule pair across policies x networks x grids x engine paths.

Every mutation here is *guaranteed infeasible* by construction:

* deleting a CSR edge always removes a RAW/WAR dependency the oracle
  rederives, so ``P-MISSING-EDGE`` must fire;
* perturbing a start time without its finish breaks the exact
  ``finish == start + duration`` identity (``S-DURATION``);
* moving a predecessor-bearing op's start to 0 violates precedence
  (its predecessors have strictly positive durations);
* swapping one task's node breaks the owner-computes mapping
  (``S-OWNER``).

Shifting a slack task *with* its finish time can produce a genuinely
feasible schedule, which the sanitizer must accept — so that mutation
class is deliberately not used.
"""

import random
from dataclasses import replace

import pytest

from repro.ir.compiler import compile_program
from repro.ir.program import Program
from repro.runtime.engine import SimulationEngine
from repro.runtime.machine import Machine
from repro.runtime.network import NETWORK_MODELS
from repro.runtime.policies import POLICIES
from repro.trees.flat import FlatTSTree, FlatTTTree
from repro.trees.greedy import GreedyTree
from repro.verify import reference_schedule, verify_program, verify_schedule

POLICY_NAMES = sorted(POLICIES)
NETWORK_NAMES = sorted(NETWORK_MODELS)

PROGRAM_SHAPES = [
    ("bidiag", 4, 3, GreedyTree()),
    ("rbidiag", 4, 3, FlatTSTree()),
    ("qr", 4, 4, FlatTTTree()),
]


def _compile(shape):
    algorithm, p, q, tree = shape
    return compile_program(algorithm, p, q, tree)


def _pred_lists(program):
    return [list(program.predecessors(i)) for i in range(len(program))]


def _edges(program):
    return [
        (src, dst)
        for dst in range(len(program))
        for src in program.predecessors(dst)
    ]


# --------------------------------------------------------------------------- #
# Program mutations
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("shape", PROGRAM_SHAPES, ids=lambda s: f"{s[0]}-{type(s[3]).__name__}")
def test_every_single_edge_deletion_is_detected(shape):
    program = _compile(shape)
    edges = _edges(program)
    assert edges, "shape too small to exercise deletions"
    detected = 0
    for src, dst in edges:
        pred_lists = _pred_lists(program)
        pred_lists[dst].remove(src)
        report = verify_program(Program(list(program.ops), pred_lists))
        assert any(
            f.code == "P-MISSING-EDGE" and f.op == dst and f.other == src
            for f in report.findings
        ), f"deletion of {src}->{dst} not flagged: {report.summary(None)}"
        detected += 1
    assert detected == len(edges)  # 100% of injected deletions


@pytest.mark.parametrize("shape", PROGRAM_SHAPES, ids=lambda s: f"{s[0]}-{type(s[3]).__name__}")
def test_random_edge_rewires_are_detected(shape):
    program = _compile(shape)
    rng = random.Random(0xC0FFEE)
    rewired = 0
    attempts = 0
    while rewired < 20 and attempts < 200:
        attempts += 1
        pred_lists = _pred_lists(program)
        dst = rng.randrange(len(program))
        have = set(pred_lists[dst])
        candidates = [c for c in range(dst) if c not in have]
        if not have or not candidates:
            continue
        dropped = rng.choice(sorted(have))
        added = rng.choice(candidates)
        pred_lists[dst] = sorted((have - {dropped}) | {added})
        report = verify_program(Program(list(program.ops), pred_lists))
        assert any(
            f.code == "P-MISSING-EDGE" and f.op == dst and f.other == dropped
            for f in report.findings
        ), report.summary(None)
        assert any(
            f.code == "P-SPURIOUS-EDGE" and f.op == dst and f.other == added
            for f in report.findings
        ), report.summary(None)
        rewired += 1
    assert rewired == 20


def test_random_edge_duplications_are_detected():
    program = _compile(PROGRAM_SHAPES[0])
    rng = random.Random(42)
    for _ in range(10):
        pred_lists = _pred_lists(program)
        dst = rng.choice([i for i in range(len(program)) if pred_lists[i]])
        pred_lists[dst].append(rng.choice(pred_lists[dst]))
        report = verify_program(Program(list(program.ops), pred_lists))
        assert report.count("P-TOPOLOGY") >= 1, report.summary(None)


# --------------------------------------------------------------------------- #
# Schedule mutations (policies x networks)
# --------------------------------------------------------------------------- #
MACHINES = [
    Machine(n_nodes=1, cores_per_node=4),
    Machine(n_nodes=4, cores_per_node=2),
]


def _schedules():
    """One (program, machine, engine, schedule, policy, network) per combo."""
    program = _compile(PROGRAM_SHAPES[0])
    for machine in MACHINES:
        for policy in POLICY_NAMES:
            for network in NETWORK_NAMES:
                engine = SimulationEngine(
                    machine, policy=policy, network=network
                )
                yield program, machine, engine, engine.run(program), policy, network


def _verify(schedule, program, machine, engine, network):
    return verify_schedule(
        schedule,
        program,
        machine,
        distribution=engine.distribution,
        network=network,
    )


@pytest.mark.parametrize("fast", [True, False], ids=["fast", "legacy"])
def test_clean_schedules_accepted_across_policies_networks(fast):
    # "fast" checks the replay kernel, "legacy" the object-path reference.
    program = _compile(PROGRAM_SHAPES[0])
    combos = 0
    for machine in MACHINES:
        for policy in POLICY_NAMES:
            for network in NETWORK_NAMES:
                engine = SimulationEngine(machine, policy=policy, network=network)
                if fast:
                    schedule = engine.run(program)
                else:
                    schedule = reference_schedule(
                        program, machine, policy=policy, network=network
                    )
                report = _verify(schedule, program, machine, engine, network)
                assert report.ok, (
                    f"{policy}/{network}/nodes={machine.n_nodes}: "
                    + report.summary(None)
                )
                combos += 1
    assert combos == len(MACHINES) * len(POLICY_NAMES) * len(NETWORK_NAMES)


def test_start_time_perturbations_detected_everywhere():
    rng = random.Random(7)
    cases = 0
    for program, machine, engine, schedule, policy, network in _schedules():
        victim = rng.randrange(len(program))
        start = list(schedule.start)
        start[victim] += 0.25 * (schedule.makespan or 1.0)
        mutated = replace(schedule, start=start)
        report = _verify(mutated, program, machine, engine, network)
        assert report.count("S-DURATION") >= 1, (
            f"{policy}/{network}: " + report.summary(None)
        )
        cases += 1
    assert cases == len(MACHINES) * len(POLICY_NAMES) * len(NETWORK_NAMES)


def test_precedence_violations_detected_everywhere():
    for program, machine, engine, schedule, policy, network in _schedules():
        durations = machine.kernel_duration_table()[
            program.kernel_codes_np
        ].tolist()
        # The latest-starting op with predecessors: pulling it to t=0 must
        # start it before at least one predecessor's arrival bound.
        withpreds = [
            i for i in range(len(program)) if len(program.predecessors(i))
        ]
        victim = max(withpreds, key=lambda i: schedule.start[i])
        assert schedule.start[victim] > 0.0
        start = list(schedule.start)
        finish = list(schedule.finish)
        start[victim] = 0.0
        finish[victim] = 0.0 + durations[victim]
        mutated = replace(schedule, start=start, finish=finish)
        report = _verify(mutated, program, machine, engine, network)
        assert report.count("S-PRECEDENCE") >= 1, (
            f"{policy}/{network}: " + report.summary(None)
        )


def test_owner_swaps_detected_on_multinode():
    rng = random.Random(11)
    cases = 0
    program = _compile(PROGRAM_SHAPES[0])
    machine = MACHINES[1]
    for policy in POLICY_NAMES:
        for network in NETWORK_NAMES:
            engine = SimulationEngine(machine, policy=policy, network=network)
            schedule = engine.run(program)
            victim = rng.randrange(len(program))
            nodes = list(schedule.node_of_task)
            nodes[victim] = (nodes[victim] + 1) % machine.n_nodes
            mutated = replace(schedule, node_of_task=nodes)
            report = _verify(mutated, program, machine, engine, network)
            assert report.count("S-OWNER") >= 1, (
                f"{policy}/{network}: " + report.summary(None)
            )
            cases += 1
    assert cases == len(POLICY_NAMES) * len(NETWORK_NAMES)


def test_core_collisions_detected():
    # On a single node with several cores the schedule always has two
    # concurrently running ops somewhere; put them on the same core.
    program = _compile(PROGRAM_SHAPES[0])
    machine = MACHINES[0]
    engine = SimulationEngine(machine)
    schedule = engine.run(program)
    collision = None
    n = len(program)
    for i in range(n):
        for j in range(i + 1, n):
            same_node = schedule.node_of_task[i] == schedule.node_of_task[j]
            overlap = (
                schedule.start[i] < schedule.finish[j]
                and schedule.start[j] < schedule.finish[i]
            )
            if same_node and overlap and (
                schedule.core_of_task[i] != schedule.core_of_task[j]
            ):
                collision = (i, j)
                break
        if collision:
            break
    assert collision is not None, "no concurrent pair found"
    i, j = collision
    cores = list(schedule.core_of_task)
    cores[j] = cores[i]
    mutated = replace(schedule, core_of_task=cores)
    report = _verify(mutated, program, machine, engine, "uniform")
    assert report.count("S-CORE-OVERLAP") >= 1, report.summary(None)


def test_makespan_and_counter_corruption_detected():
    program = _compile(PROGRAM_SHAPES[0])
    machine = MACHINES[1]
    for network in NETWORK_NAMES:
        engine = SimulationEngine(machine, network=network)
        schedule = engine.run(program)
        cases = {
            "S-MAKESPAN": replace(schedule, makespan=schedule.makespan * 1.5),
            "S-COMM-COUNT": replace(schedule, messages=schedule.messages + 1),
            "S-COMM-BYTES": replace(
                schedule, comm_bytes=schedule.comm_bytes + 1
            ),
            "S-BUSY-TIME": replace(
                schedule,
                busy_time_per_node=[
                    schedule.busy_time_per_node[0] + 0.5,
                    *schedule.busy_time_per_node[1:],
                ],
            ),
            "S-COMM-TIME": replace(
                schedule,
                comm_time_per_node=[
                    schedule.comm_time_per_node[0] + 0.5,
                    *schedule.comm_time_per_node[1:],
                ],
            ),
        }
        for code, mutated in cases.items():
            report = _verify(mutated, program, machine, engine, network)
            assert report.count(code) >= 1, (
                f"{network}/{code}: " + report.summary(None)
            )


def test_core_out_of_range_detected():
    program = _compile(PROGRAM_SHAPES[0])
    machine = MACHINES[0]
    engine = SimulationEngine(machine)
    schedule = engine.run(program)
    cores = list(schedule.core_of_task)
    cores[0] = machine.cores_per_node
    mutated = replace(schedule, core_of_task=cores)
    report = _verify(mutated, program, machine, engine, "uniform")
    assert report.count("S-CORE-RANGE") == 1, report.summary(None)
