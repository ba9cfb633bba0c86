"""The multi-node replay's dispatch stream (:mod:`repro.runtime.replay`).

On several nodes :class:`~repro.runtime.replay.PreparedReplay` walks one
flat, memoized :class:`~repro.runtime.replay.DispatchStream` instead of
the dispatch order and the successor lists.  These tests hold it to:

* its definition, rebuilt here in plain Python from the order, the
  successor tuples and the owner list;
* the object-path oracle :func:`~repro.verify.reference.reference_schedule`,
  field by field and bit for bit, over five trees, six policies, both
  network models, four grids and a distribution subclass;
* scenario draws and traced transfer records pinned before the stream
  existed, when the walk deduplicated transfers per edge;
* one memoized stream per (program, placement, order);
* NIC injection in order of first appearance among an op's successors.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.ir.compiler import get_program
from repro.ir.program import Op, Program
from repro.kernels.costs import KernelName
from repro.obs.tracer import Tracer
from repro.runtime.engine import SimulationEngine, engine_memo_stats
from repro.runtime.machine import Machine
from repro.runtime.replay import PreparedReplay, dispatch_stream
from repro.runtime.scenario import SCENARIOS, run_scenario
from repro.runtime.scheduler import Schedule
from repro.tiles.distribution import BlockCyclicDistribution, ProcessGrid
from repro.trees import BinaryTree, FibonacciTree, FlatTSTree, FlatTTTree, GreedyTree
from repro.verify.reference import reference_schedule

TREES = {
    "flatts": FlatTSTree(),
    "flattt": FlatTTTree(),
    "greedy": GreedyTree(),
    "binary": BinaryTree(),
    "fibonacci": FibonacciTree(),
}
POLICIES = ("list", "critical-path", "locality", "fifo", "random", "weight")
NETWORKS = ("uniform", "alpha-beta")


class _Skewed(BlockCyclicDistribution):
    """Tile (i, j) on node (2i + j) mod size: a placement no grid gives."""

    def owner(self, i, j):
        return (2 * i + j) % self.grid.size


def _layout(name):
    if name == "skewed-2x2":
        return _Skewed(ProcessGrid(2, 2))
    rows, cols = map(int, name.split("x"))
    return BlockCyclicDistribution(ProcessGrid(rows, cols))


LAYOUTS = ("2x1", "1x2", "2x2", "2x3", "skewed-2x2")


def _machine(distribution, cores=2):
    return Machine(n_nodes=distribution.grid.size, cores_per_node=cores, tile_size=100)


def _bits(value):
    """A schedule field with every float as its exact hex form."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, list):
        return [_bits(v) for v in value]
    return value


def _assert_bitwise_equal(got: Schedule, want: Schedule):
    for field in dataclasses.fields(Schedule):
        assert _bits(getattr(got, field.name)) == _bits(getattr(want, field.name)), field.name


def _digest(parts):
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:32]


# --------------------------------------------------------------------------- #
# The stream is its definition
# --------------------------------------------------------------------------- #
def _stream_by_definition(order, succ_lists, node_of, n_nodes):
    """The module docstring's layout, entry by entry."""
    entries = []
    previous = None
    for op in order:
        node = node_of[op]
        if node != previous:
            entries.append(-1 - n_nodes - node)
            previous = node
        entries += [None, op]
        succs = succ_lists[op]
        entries += [s for s in succs if node_of[s] == node]
        remote = []
        for s in succs:
            if node_of[s] != node and node_of[s] not in remote:
                remote.append(node_of[s])
        for dst in remote:
            entries.append(-1 - dst)
            entries += [s for s in succs if node_of[s] == dst]
    return entries


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("policy", ["list", "random"])
@pytest.mark.parametrize("tree", ["flatts", "greedy"])
def test_stream_matches_its_definition(tree, policy, layout):
    program = get_program("bidiag", 6, 5, TREES[tree])
    distribution = _layout(layout)
    machine = _machine(distribution)
    engine = SimulationEngine(machine, distribution, policy=policy)
    replay = PreparedReplay(engine, program)
    node_of = engine.owner_vector(program).tolist()
    want = _stream_by_definition(
        replay.order, program.successor_lists(), node_of, machine.n_nodes
    )
    stream = replay.stream
    assert stream.entries == want
    # The message entries, in stream order, with their producers.
    pairs = []
    producer = None
    for k, entry in enumerate(want):
        if entry is None:
            producer = want[k + 1]
        elif -machine.n_nodes <= entry < 0:
            pairs.append((producer, -1 - entry))
    assert list(zip(stream.msg_src.tolist(), stream.msg_dst.tolist())) == pairs
    sent = [0] * machine.n_nodes
    for op, _ in pairs:
        sent[node_of[op]] += 1
    assert stream.messages_per_node == sent


def test_stream_entries_draw_from_the_op_id_table():
    program = get_program("bidiag", 6, 5, GreedyTree())
    distribution = _layout("2x2")
    replay = PreparedReplay(SimulationEngine(_machine(distribution), distribution), program)
    table = program.op_ids()
    for entries in (replay.stream.entries, replay.order, *program.successor_lists()):
        for entry in entries:
            if entry is not None and entry >= 0:
                assert entry is table[entry]


# --------------------------------------------------------------------------- #
# Bit for bit against the object-path oracle
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("network", NETWORKS)
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("tree", sorted(TREES))
def test_walk_equals_reference_schedule(tree, policy, network, layout):
    program = get_program("bidiag", 5, 4, TREES[tree])
    distribution = _layout(layout)
    machine = _machine(distribution)
    engine = SimulationEngine(machine, distribution, policy=policy, network=network)
    replay = PreparedReplay(engine, program)
    assert replay.stream is not None
    _assert_bitwise_equal(
        replay.run(),
        reference_schedule(program, machine, distribution, policy=policy, network=network),
    )


def test_tall_rbidiag_equals_reference_schedule():
    # R-BIDIAG's QR phase sends along columns: many ops with successors on
    # two or more remote nodes.
    program = get_program("rbidiag", 9, 3, GreedyTree())
    distribution = _layout("2x3")
    machine = _machine(distribution, cores=3)
    for network in NETWORKS:
        engine = SimulationEngine(machine, distribution, policy="locality", network=network)
        _assert_bitwise_equal(
            PreparedReplay(engine, program).run(),
            reference_schedule(program, machine, distribution, policy="locality",
                               network=network),
        )


# --------------------------------------------------------------------------- #
# Pinned before the stream: scenario draws and transfer records
# --------------------------------------------------------------------------- #
#: Digests of six scenario draws' makespans (float hex; critical-path,
#: seed 7) on the 6x5 GREEDY bidiag program with 2-core nodes, taken from
#: the per-edge walk the stream replaced.
GOLDEN_DRAWS = {
    ('2x2', 'straggler', 'uniform'): '692ab653c3edc7ce6d2e5384e31e566b',
    ('2x2', 'straggler', 'alpha-beta'): '0b52086824faeb407ca72d5b345e0166',
    ('2x2', 'noisy-net', 'uniform'): 'd3bf39aa4a7d694a69a33171108a8ccb',
    ('2x2', 'noisy-net', 'alpha-beta'): 'c0fff68f85fe907828a9b47a343109a7',
    ('2x3', 'straggler', 'uniform'): '94a1d721a70f5e4698bab9e5dc5ff337',
    ('2x3', 'straggler', 'alpha-beta'): 'c6ef018b745f0bbf3ec19a6a6260f630',
    ('2x3', 'noisy-net', 'uniform'): 'fa47140cb3572ae4ec2df6d46a209290',
    ('2x3', 'noisy-net', 'alpha-beta'): '2853c7b46acc53de60cc546866dc6c8c',
    ('skewed-2x2', 'straggler', 'uniform'): '27b8a5a7da5687e75dab1d2e66be1297',
    ('skewed-2x2', 'straggler', 'alpha-beta'): 'a4eb4fd5296f400348105a8d7d1dce16',
    ('skewed-2x2', 'noisy-net', 'uniform'): '59a0a74b279b470f7855655699002cce',
    ('skewed-2x2', 'noisy-net', 'alpha-beta'): '7fbe968a7bc61f13f914441a1f4841d0',
}

#: Digests of one traced list-policy run's transfer records (every field,
#: floats as hex), same program and nodes, from the per-edge walk.
GOLDEN_RECORDS = {
    ('2x2', 'uniform'): '16473c9131728683ae230ccd93176427',
    ('2x2', 'alpha-beta'): '1dcf1e2f14ba469fae658668db831499',
    ('2x3', 'uniform'): '4fc002fe408c5f7e95371ab9eefbcc88',
    ('2x3', 'alpha-beta'): 'bae775f7726d49a872eeca09c6a2eadc',
    ('skewed-2x2', 'uniform'): '74fd9f9360016152ae95f09019d102d0',
    ('skewed-2x2', 'alpha-beta'): '5edd32ae930e6141c0492ecd93e91a74',
}


@pytest.mark.parametrize("layout, scenario, network", list(GOLDEN_DRAWS))
def test_scenario_draws_match_the_pins(layout, scenario, network):
    program = get_program("bidiag", 6, 5, GreedyTree())
    distribution = _layout(layout)
    run = run_scenario(program, _machine(distribution), SCENARIOS[scenario], distribution,
                       policy="critical-path", network=network, draws=6, seed=7)
    got = _digest([x.hex() for x in run.distribution.makespans])
    assert got == GOLDEN_DRAWS[(layout, scenario, network)]


@pytest.mark.parametrize("layout, network", list(GOLDEN_RECORDS))
def test_transfer_records_match_the_pins(layout, network):
    program = get_program("bidiag", 6, 5, GreedyTree())
    distribution = _layout(layout)
    tracer = Tracer()
    with tracer.activate():
        schedule = SimulationEngine(
            _machine(distribution), distribution, policy="list", network=network
        ).run(program)
    (run,) = tracer.runs
    records = run.transfers
    assert len(records) == schedule.messages
    got = _digest([
        " ".join(str(v) if isinstance(v, int) else v.hex() for v in (
            r.op_id, r.src, r.dst, r.n_bytes, r.release, r.handshake,
            r.inject_start, r.injection, r.wire, r.arrival))
        for r in records
    ] + [str(len(records))])
    assert got == GOLDEN_RECORDS[(layout, network)]


# --------------------------------------------------------------------------- #
# Memoization
# --------------------------------------------------------------------------- #
def test_engines_over_one_program_and_order_share_one_stream():
    program = get_program("bidiag", 6, 5, GreedyTree())
    distribution = _layout("2x2")
    machine = _machine(distribution)
    first = PreparedReplay(SimulationEngine(machine, distribution, network="alpha-beta"), program)
    # Another engine, another network model: same program, placement and order.
    second = PreparedReplay(
        SimulationEngine(machine, BlockCyclicDistribution(ProcessGrid(2, 2))), program
    )
    assert second.order is first.order
    assert second.stream is first.stream
    assert engine_memo_stats()["stream_programs"] >= 1
    # Another order, another stream.
    other = PreparedReplay(SimulationEngine(machine, distribution, policy="fifo"), program)
    assert other.stream is not first.stream


def test_custom_placement_streams_are_not_memoized():
    program = get_program("bidiag", 6, 5, GreedyTree())
    distribution = _layout("skewed-2x2")
    machine = _machine(distribution)
    first = PreparedReplay(SimulationEngine(machine, distribution), program)
    second = PreparedReplay(SimulationEngine(machine, distribution), program)
    assert second.stream is not first.stream
    assert second.stream.entries == first.stream.entries


def test_one_node_walks_the_order():
    program = get_program("bidiag", 6, 5, GreedyTree())
    replay = PreparedReplay(SimulationEngine(Machine(1, 4, tile_size=100)), program)
    assert replay.stream is None


# --------------------------------------------------------------------------- #
# NIC injection order on a hand-built program
# --------------------------------------------------------------------------- #
class _RowIsNode(BlockCyclicDistribution):
    def owner(self, i, j):
        return i


def _op(index, row):
    return Op(
        index=index,
        kernel=KernelName.GEQRT,
        params=(row, 0),
        reads=frozenset(),
        writes=frozenset({("U", row, 0)}),
        weight=4,
        owner_tile=(row, 0),
    )


def test_messages_inject_in_first_appearance_order():
    # Op 0 on node 0 feeds op 1 and op 3 on node 2, and op 2 on node 1: its
    # ascending successors meet node 2 first, so node 2's message injects
    # first and node 1's waits behind it on node 0's NIC.
    program = Program(
        [_op(0, 0), _op(1, 2), _op(2, 1), _op(3, 2)], [[], [0], [0], [0]]
    )
    distribution = _RowIsNode(ProcessGrid(3, 1))
    machine = Machine(n_nodes=3, cores_per_node=1, tile_size=100)
    engine = SimulationEngine(machine, distribution, network="alpha-beta")
    replay = PreparedReplay(engine, program)
    entries = replay.stream.entries
    assert entries[:8] == [-4, None, 0, -3, 1, 3, -2, 2]
    assert replay.stream.msg_dst.tolist() == [2, 1]
    tracer = Tracer()
    with tracer.activate():
        schedule = engine.run(program)
    first, second = tracer.runs[0].transfers
    assert (first.dst, second.dst) == (2, 1)
    assert second.inject_start == first.inject_start + first.injection
    assert schedule.start[1] < schedule.start[2]
    _assert_bitwise_equal(
        schedule, reference_schedule(program, machine, distribution, network="alpha-beta")
    )


def test_dispatch_stream_of_an_empty_program():
    program = Program([], [])
    stream = dispatch_stream(program, [], None, 2)
    assert stream.entries == [] and stream.messages_per_node == [0, 0]
