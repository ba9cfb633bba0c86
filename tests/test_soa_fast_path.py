"""Differential and property tests for the structure-of-arrays pipeline.

The contract: the SoA pipeline (column recording, integer-coded
dependency analysis, vectorized CSR/level construction, the array-native
replay kernel) is **bit-identical** to the object path on every
observable — schedules (makespan, per-op start/finish, node/core mapping,
message and byte counts; the object path is
:func:`repro.verify.reference.reference_schedule`), rank arrays, critical
paths, bottom levels and static communication counts — across all
policies x networks x grids, and independent of ``PYTHONHASHSEED``.  It
also pins the engine's memo counts and its schedule lower bound.
"""

import gc
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.analysis.communication import (
    communication_matrix,
    communication_volume,
)
from repro.algorithms.tiled_qr import tiled_qr
from repro.api.plan import SvdPlan
from repro.api.resolver import resolve
from repro.ir import (
    Program,
    ProgramRecorder,
    clear_program_cache,
    compile_program,
    get_program,
)
from repro.runtime.engine import (
    SimulationEngine,
    critical_path_seconds,
    engine_memo_stats,
    serial_seconds,
)
from repro.runtime.machine import Machine
from repro.runtime.network import get_network_model
from repro.runtime.policies import POLICIES, RandomPolicy, get_policy
from repro.runtime.replay import PreparedReplay, dense_order
from repro.runtime.simulator import simulate, stage_cost
from repro.tiles.distribution import BlockCyclicDistribution, ProcessGrid
from repro.trees import FlatTSTree, FlatTTTree, GreedyTree, make_tree
from repro.tuning.objectives import get_objective
from repro.verify.reference import reference_schedule


@pytest.fixture(autouse=True)
def _fresh_program_cache():
    clear_program_cache()
    yield
    clear_program_cache()


#: (algorithm, p, q, tree, machine, grid) configurations spanning single-
#: and multi-node shapes, square and tall-skinny grids.  ``grid`` None is
#: the engine's default near-square grid; ProcessGrid(2, 1) is the n x 1
#: grid the resolver picks for tall-skinny shapes.
CONFIGS = [
    ("bidiag", 10, 8, GreedyTree(), Machine(n_nodes=1, cores_per_node=8, tile_size=160), None),
    ("bidiag", 8, 8, FlatTTTree(), Machine(n_nodes=4, cores_per_node=4, tile_size=100), None),
    ("bidiag", 9, 6, FlatTSTree(), Machine(n_nodes=6, cores_per_node=2, tile_size=120), None),
    ("rbidiag", 12, 4, GreedyTree(), Machine(n_nodes=2, cores_per_node=4, tile_size=100), None),
    ("rbidiag", 12, 4, GreedyTree(), Machine(n_nodes=2, cores_per_node=4, tile_size=100),
     ProcessGrid(2, 1)),
    # 1600² on 100-wide tiles, one 24-core node, auto tree, ib 40.
    ("bidiag", 16, 16, make_tree("auto", n_cores=24),
     Machine(n_nodes=1, cores_per_node=24, tile_size=100, inner_block=40), None),
]


def _distribution(grid):
    return BlockCyclicDistribution(grid) if grid is not None else None


def _assert_schedules_identical(a, b):
    assert a.makespan == b.makespan  # bitwise, not approx
    assert a.start == b.start
    assert a.finish == b.finish
    assert a.node_of_task == b.node_of_task
    assert a.core_of_task == b.core_of_task
    assert a.busy_time_per_node == b.busy_time_per_node
    assert a.messages == b.messages
    assert a.comm_bytes == b.comm_bytes
    assert a.comm_time_per_node == b.comm_time_per_node
    assert a.messages_per_node == b.messages_per_node


class TestFastLegacySchedules:
    """Replay kernel == object-path reference, every schedule field."""

    @pytest.mark.parametrize("network", ["uniform", "alpha-beta"])
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @pytest.mark.parametrize("alg,p,q,tree,machine,grid", CONFIGS)
    def test_bitwise_equal(self, alg, p, q, tree, machine, grid, policy, network):
        program = get_program(alg, p, q, tree)
        dist = _distribution(grid)
        fast = SimulationEngine(
            machine, dist, policy=policy, network=network
        ).run(program)
        legacy = reference_schedule(
            program, machine, dist, policy=policy, network=network
        )
        _assert_schedules_identical(fast, legacy)

    def test_empty_and_single_op_programs(self):
        machine = Machine(n_nodes=1, cores_per_node=4, tile_size=100)
        program = get_program("bidiag", 1, 1, GreedyTree())
        fast = SimulationEngine(machine).run(program)
        legacy = reference_schedule(program, machine)
        _assert_schedules_identical(fast, legacy)
        assert fast.makespan > 0
        empty = Program.from_ops([])
        _assert_schedules_identical(
            SimulationEngine(machine).run(empty),
            reference_schedule(empty, machine),
        )

    def test_big_integer_keys_keep_exact_order(self):
        # Python ints at or above 2**53 round to equal float64 values; the
        # dense order must still follow the exact integer comparison.
        assert dense_order([2**53 + 1, 2**53], 2) == ([1, 0], [1, 0])
        assert dense_order([2**53 + 1, 0.5, 2**53], 3) == ([2, 0, 1], [1, 2, 0])

        class BigInts(get_policy("fifo").__class__):
            name = "big-ints"

            @property
            def cache_token(self):
                return None

            def rank(self, program, durations, node_of_op, machine):
                # Reverse program order, spaced one apart above 2**53.
                return [2**53 + len(program) - i for i in range(len(program))]

            def rank_array(self, program, durations, node_of_op, machine):
                return None

        program = get_program("bidiag", 6, 6, GreedyTree())
        machine = Machine(n_nodes=2, cores_per_node=2, tile_size=100)
        kernel = SimulationEngine(machine, policy=BigInts()).run(program)
        _assert_schedules_identical(
            kernel, reference_schedule(program, machine, policy=BigInts())
        )


class TestRankArrays:
    """Vectorized policy ranking == legacy per-node recursion, bitwise."""

    @pytest.mark.parametrize("policy_name", sorted(POLICIES))
    @pytest.mark.parametrize("alg,p,q,tree,machine,grid", CONFIGS[:2])
    def test_rank_array_matches_rank(self, alg, p, q, tree, machine, grid, policy_name):
        program = get_program(alg, p, q, tree)
        engine = SimulationEngine(machine, _distribution(grid), policy=policy_name)
        durations = engine.duration_vector(program)
        node_np = engine.owner_vector(program)
        node_list = (
            node_np.tolist() if node_np is not None else [0] * len(program)
        )
        policy = get_policy(policy_name)
        legacy = policy.rank(program, durations.tolist(), node_list, machine)
        vectorized = policy.rank_array(program, durations, node_np, machine)
        assert vectorized is not None
        assert list(vectorized) == list(legacy)

    def test_bottom_levels_vectorized_bitwise(self):
        program = get_program("bidiag", 12, 10, GreedyTree())
        machine = Machine(n_nodes=1, cores_per_node=8, tile_size=160)
        durations = machine.kernel_duration_table()[program.kernel_codes_np]
        assert program.bottom_levels_np(durations).tolist() == (
            program.bottom_levels(durations.tolist())
        )

    def test_critical_path_vectorized_bitwise(self):
        for alg, p, q, tree, machine, _grid in CONFIGS:
            program = get_program(alg, p, q, tree)
            # Default Table-I weights: vectorized sweep vs the per-op loop.
            assert program.critical_path() == program.critical_path(
                weight_fn=lambda op: float(op.weight)
            )
            # Duration weights: vectorized sweep vs explicit weight_fn loop.
            want = program.critical_path(
                weight_fn=lambda op: machine.kernel_duration(op.kernel)
            )
            assert critical_path_seconds(program, machine) == want

    def test_serial_seconds_matches_per_op_sum(self):
        program = get_program("bidiag", 8, 6, GreedyTree())
        machine = Machine(n_nodes=1, cores_per_node=8, tile_size=160)
        want = sum(machine.kernel_duration(op.kernel) for op in program.ops)
        assert serial_seconds(program, machine) == want


class TestScheduleBound:
    """SimulationEngine.lower_bound: the one schedule bound the tuner prunes
    with lies below every makespan, post stage and scenario draw."""

    #: (algorithm, p, q, tree, machine, grid): single- and multi-node
    #: shapes, square and tall-skinny grids.
    PLANS = [
        ("bidiag", 10, 8, "greedy",
         Machine(n_nodes=1, cores_per_node=8, tile_size=160), None),
        ("bidiag", 8, 8, "flattt",
         Machine(n_nodes=4, cores_per_node=4, tile_size=100), ProcessGrid(2, 2)),
        ("rbidiag", 12, 4, "greedy",
         Machine(n_nodes=2, cores_per_node=4, tile_size=100), ProcessGrid(2, 1)),
    ]

    @staticmethod
    def _resolved(alg, p, q, tree, machine, grid):
        return resolve(SvdPlan(
            m=p * machine.tile_size,
            n=q * machine.tile_size,
            stage="ge2bnd",
            variant=alg,
            tree=tree,
            tile_size=machine.tile_size,
            n_cores=machine.cores_per_node,
            n_nodes=machine.n_nodes,
            grid=(grid.rows, grid.cols) if grid is not None else None,
        ))

    def test_lower_bounds_never_exceed_makespans(self):
        for alg, p, q, tree, machine, grid in self.PLANS:
            rp = self._resolved(alg, p, q, tree, machine, grid)
            program = rp.program()
            bound = SimulationEngine(machine, rp.distribution).lower_bound(program)
            for policy in sorted(POLICIES):
                engine = SimulationEngine(machine, rp.distribution, policy=policy)
                assert engine.lower_bound(program) == bound  # policy-free
                assert 0.0 < bound <= engine.run(program).makespan

            ge2val = resolve(rp.plan.with_(stage="ge2val"))
            post, _ = stage_cost(ge2val)
            assert post > 0.0
            seconds = get_objective("makespan").schedule_bound(ge2val)
            assert seconds == bound + post
            for policy in sorted(POLICIES):
                sim = simulate(resolve(ge2val.plan.with_(policy=policy)))
                assert seconds <= sim.time_seconds

            straggler = resolve(
                rp.plan.with_(scenario="straggler", draws=8, seed=3)
            )
            dist = simulate(straggler).distribution
            assert dist is not None
            assert bound <= dist.min <= dist.p95
            assert get_objective("robust-makespan").schedule_bound(
                straggler
            ) <= dist.p95


class TestSoAColumns:
    """The packed columns agree with the materialized object form."""

    def test_columns_match_ops(self):
        program = compile_program("bidiag", 7, 5, GreedyTree())
        ops = program.ops
        assert program.kernel_codes_np.tolist() == [
            list(type(op.kernel)).index(op.kernel) for op in ops
        ]
        assert program.weights_np.tolist() == [op.weight for op in ops]
        assert program.owner_rows_np.tolist() == [op.owner_tile[0] for op in ops]
        assert program.owner_cols_np.tolist() == [op.owner_tile[1] for op in ops]
        assert program.writes_count_np.tolist() == [len(op.writes) for op in ops]
        assert program.total_weight() == sum(op.weight for op in ops)

    def test_ops_materialize_lazily(self):
        program = compile_program("bidiag", 6, 6, FlatTSTree())
        assert program._ops is None  # compiled in compact form
        assert len(program) > 0  # length needs no materialization
        assert program._codes is not None
        ops = program.ops  # first touch materializes
        assert program._ops is ops
        assert all(op.index == i for i, op in enumerate(ops))

    def test_levels_are_topological(self):
        for alg in ("qr", "bidiag", "rbidiag"):
            program = compile_program(alg, 6, 4, GreedyTree())
            levels = program.levels_np
            for src, dst in program.edges():
                assert levels[src] < levels[dst]

    def test_levels_match_object_path(self):
        program = compile_program("bidiag", 6, 5, FlatTTTree())
        rebuilt = Program.from_ops(program.ops)
        assert program.levels_np.tolist() == rebuilt.levels_np.tolist()

    def test_coded_analysis_matches_object_analyzer(self):
        # The integer-coded analyzer and the frozenset DependencyAnalyzer
        # must infer identical edge sets on the same op stream.
        for alg, tree in (("bidiag", GreedyTree()), ("rbidiag", FlatTSTree())):
            program = compile_program(alg, 6, 4, tree)
            rebuilt = Program.from_ops(program.ops)
            assert set(program.edges()) == set(rebuilt.edges())
            assert program.n_edges == rebuilt.n_edges
            for i in range(len(program)):
                assert list(program.predecessors(i)) == list(
                    rebuilt.predecessors(i)
                )

    def test_finalize_rejects_backward_edges(self):
        # The recorder's finalize step (Program.from_recording) keeps the
        # insertion-order topology check: a predecessor id at or past its
        # op, or negative, is refused.
        # The valid buffers come from a compiled program of the same stream:
        # the recorder only builds them when it finalizes.
        from array import array

        recorder = ProgramRecorder(2, 1)
        tiled_qr(recorder, GreedyTree())
        n = len(recorder)
        compiled = compile_program("qr", 2, 1, GreedyTree())
        assert len(compiled) == n
        for bad_src in (1, 5, -1):
            with pytest.raises(ValueError, match="insertion-order topology"):
                Program.from_recording(
                    (2, 1),
                    compiled._codes,
                    compiled._params,
                    compiled._steps,
                    array("q", [0] + [1] * n),
                    array("q", [bad_src]),
                    compiled._levels,
                    compiled.successor_lists(),
                    succ_csr=(compiled.succ_indptr_np, compiled.succ_ids_np),
                    level_order=compiled._level_order(),
                )
        # The recorder's own buffers pass.
        assert len(recorder.program()) == n

    def test_replay_dispatch_matches_object_dispatch(self):
        from repro.ir import replay

        program = compile_program("bidiag", 5, 4, GreedyTree())
        assert program._codes is not None
        via_buffers = ProgramRecorder(5, 4)
        replay(program, via_buffers)
        rebuilt = Program.from_ops(program.ops)  # object-built: Op records
        assert rebuilt._codes is None
        via_ops = ProgramRecorder(5, 4)
        replay(rebuilt, via_ops)
        a, b = via_buffers.program(), via_ops.program()
        assert a.kernel_calls() == b.kernel_calls() == program.kernel_calls()


class TestOwnerVector:
    def test_owner_array_matches_owner(self):
        dist = BlockCyclicDistribution(ProcessGrid(3, 2))
        rows = np.arange(40) % 7
        cols = np.arange(40) % 5
        want = [dist.owner(int(i), int(j)) for i, j in zip(rows, cols)]
        assert dist.owner_array(rows, cols).tolist() == want

    def test_owner_array_rejects_negative(self):
        dist = BlockCyclicDistribution(ProcessGrid(2, 2))
        with pytest.raises(IndexError):
            dist.owner_array(np.array([0, -1]), np.array([0, 0]))

    @staticmethod
    def _custom_owner(node):
        """A 1x2 block-cyclic distribution that puts tile (1, 1) on ``node``."""

        class _OneTileElsewhere(BlockCyclicDistribution):
            def owner(self, i, j):
                return node if (i, j) == (1, 1) else super().owner(i, j)

        return _OneTileElsewhere(ProcessGrid(1, 2))

    def test_custom_owner_negative_node_rejected(self):
        # A distribution subclass is the one custom placement route; its
        # owner() is range-checked per op like the block-cyclic mapping.
        program = get_program("bidiag", 4, 4, GreedyTree())
        machine = Machine(n_nodes=2, cores_per_node=4, tile_size=100)
        first = [op.owner_tile for op in program.ops].index((1, 1))
        engine = SimulationEngine(machine, self._custom_owner(-1))
        with pytest.raises(ValueError, match=rf"owner\(1, 1\) = -1 \(op {first}\)"):
            engine.run(program)
        with pytest.raises(ValueError, match=r"expected 0 <= node < 2"):
            engine.lower_bound(program)

    def test_custom_owner_past_last_node_rejected(self):
        program = get_program("bidiag", 4, 4, GreedyTree())
        machine = Machine(n_nodes=2, cores_per_node=4, tile_size=100)
        first = [op.owner_tile for op in program.ops].index((1, 1))
        engine = SimulationEngine(machine, self._custom_owner(2))
        with pytest.raises(ValueError, match=rf"owner\(1, 1\) = 2 \(op {first}\)"):
            engine.run(program)
        # In range, the same subclass runs and puts those ops on its node.
        schedule = SimulationEngine(machine, self._custom_owner(0)).run(program)
        assert schedule.node_of_task[first] == 0


class TestMemoization:
    """Duration/owner/order tables are shared across engines and runs."""

    def test_duration_vector_memoized_across_engines(self):
        program = get_program("bidiag", 6, 6, GreedyTree())
        machine = Machine(n_nodes=1, cores_per_node=8, tile_size=160)
        a = SimulationEngine(machine).duration_vector(program)
        b = SimulationEngine(machine).duration_vector(program)
        assert a is b  # same read-only vector, no re-pricing
        want = [machine.kernel_duration(op.kernel) for op in program.ops]
        assert a.tolist() == want
        # A different machine gets its own vector.
        other = Machine(n_nodes=1, cores_per_node=8, tile_size=100)
        c = SimulationEngine(other).duration_vector(program)
        assert c is not a

    def test_rank_keys_memoized_per_policy(self):
        # The memoized form of a policy's keys is its dispatch order.
        program = get_program("bidiag", 6, 6, GreedyTree())
        machine = Machine(n_nodes=1, cores_per_node=8, tile_size=160)
        before = engine_memo_stats()
        o1 = PreparedReplay(SimulationEngine(machine, policy="list"), program)
        o2 = PreparedReplay(SimulationEngine(machine, policy="list"), program)
        assert o1.order is o2.order
        after = engine_memo_stats()
        assert after["order_misses"] - before["order_misses"] == 1
        assert after["order_hits"] - before["order_hits"] == 1
        # Different random seeds must not collide in the memo.
        r0 = PreparedReplay(
            SimulationEngine(machine, policy=RandomPolicy(seed=0)), program
        )
        r1 = PreparedReplay(
            SimulationEngine(machine, policy=RandomPolicy(seed=1)), program
        )
        assert r0.order != r1.order

    def test_machine_invariant_order_shared_across_machines(self):
        program = get_program("bidiag", 8, 6, GreedyTree())
        machines = [
            Machine(n_nodes=1, cores_per_node=8, tile_size=160, inner_block=ib)
            for ib in (32, 40)
        ]
        before = engine_memo_stats()
        # critical-path ranks by Table-I weights: one order serves both
        # machines.  list ranks by durations: one order per machine.
        for policy in ("critical-path", "list"):
            for machine in machines:
                SimulationEngine(machine, policy=policy).run(program)
        after = engine_memo_stats()
        assert after["order_misses"] - before["order_misses"] == 3
        assert after["order_hits"] - before["order_hits"] == 1

    def test_locality_resolves_through_list_on_one_node(self):
        # On one node locality's keys sort exactly like list's, so its
        # order resolves through list's memo entry: 2 misses (list, fifo)
        # and 1 hit.
        program = get_program("bidiag", 10, 8, GreedyTree())
        machine = Machine(n_nodes=1, cores_per_node=8, tile_size=160)
        before = engine_memo_stats()
        runs = {
            policy: SimulationEngine(machine, policy=policy).run(program)
            for policy in ("list", "locality", "fifo")
        }
        after = engine_memo_stats()
        assert after["order_misses"] - before["order_misses"] == 2
        assert after["order_hits"] - before["order_hits"] == 1
        _assert_schedules_identical(runs["list"], runs["locality"])

    def test_stats_expose_batch_keys(self):
        # benchmarks/harness/probes.py reads these keys; the batch_* ones
        # have no producer left and read 0.
        stats = engine_memo_stats()
        for key in (
            "order_programs",
            "order_hits",
            "order_misses",
            "bound_hits",
            "bound_misses",
        ):
            assert key in stats
        for name in ("candidates", "simulated", "deduped", "pruned"):
            assert stats[f"batch_{name}"] == 0

    @pytest.mark.parametrize("n_nodes", [1, 4])
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_dispatch_order_is_a_topological_permutation(self, policy, n_nodes):
        program = get_program("bidiag", 6, 6, GreedyTree())
        machine = Machine(n_nodes=n_nodes, cores_per_node=2, tile_size=100)
        order = PreparedReplay(SimulationEngine(machine, policy=policy), program).order
        assert sorted(order) == list(range(len(program)))
        position = {op_id: i for i, op_id in enumerate(order)}
        for op_id in range(len(program)):
            for pred in program.predecessors(op_id):
                assert position[pred] < position[op_id]

    def test_owner_vector_memoized_per_grid(self):
        program = get_program("bidiag", 8, 8, FlatTTTree())
        machine = Machine(n_nodes=4, cores_per_node=4, tile_size=100)
        e = SimulationEngine(machine)
        assert e.owner_vector(program) is e.owner_vector(program)
        tall = SimulationEngine(
            machine,
            BlockCyclicDistribution(ProcessGrid.for_tall_skinny_matrix(4)),
        )
        assert tall.owner_vector(program) is not e.owner_vector(program)

    def test_memo_tables_release_dropped_programs(self):
        machine = Machine(n_nodes=1, cores_per_node=4, tile_size=100)
        # Free programs an earlier test left in reference cycles (a caught
        # exception's traceback, say), so the baseline counts live ones only.
        gc.collect()
        before = engine_memo_stats()["duration_programs"]
        program = compile_program("bidiag", 5, 5, GreedyTree())
        SimulationEngine(machine).run(program)
        assert engine_memo_stats()["duration_programs"] == before + 1
        del program
        gc.collect()
        assert engine_memo_stats()["duration_programs"] == before

    def test_custom_distribution_falls_back_to_per_op_owner(self):
        # A distribution subclass with its own owner() must not be fed
        # through the vectorized block-cyclic mapping (or the memo).
        class ShiftedDistribution(BlockCyclicDistribution):
            def owner(self, i, j):
                return (super().owner(i, j) + 1) % self.grid.size

        program = get_program("bidiag", 6, 6, GreedyTree())
        machine = Machine(n_nodes=4, cores_per_node=2, tile_size=100)
        plain = BlockCyclicDistribution(ProcessGrid(2, 2))
        shifted = ShiftedDistribution(ProcessGrid(2, 2))
        fast = SimulationEngine(machine, shifted).run(program)
        legacy = reference_schedule(program, machine, shifted)
        _assert_schedules_identical(fast, legacy)
        want = [(plain.owner(*op.owner_tile) + 1) % 4 for op in program.ops]
        assert fast.node_of_task == want

    def test_custom_distribution_never_hits_rank_memo(self):
        # Regression: rank keys memoized under (machine, grid shape) for
        # the canonical block-cyclic mapping must not be served to a
        # distribution subclass with the same grid shape but a different
        # owner() — and vice versa.
        class TransposedDistribution(BlockCyclicDistribution):
            def owner(self, i, j):
                return self.grid.rank_of(j % self.grid.rows, i % self.grid.cols)

        program = get_program("bidiag", 8, 8, GreedyTree())
        machine = Machine(n_nodes=6, cores_per_node=2, tile_size=100)
        grid = ProcessGrid(2, 3)
        # Populate the memo with the canonical mapping first.
        plain = SimulationEngine(
            machine, BlockCyclicDistribution(grid), policy="locality"
        ).run(program)
        custom_fast = SimulationEngine(
            machine, TransposedDistribution(grid), policy="locality"
        ).run(program)
        custom_legacy = reference_schedule(
            program, machine, TransposedDistribution(grid), policy="locality"
        )
        _assert_schedules_identical(custom_fast, custom_legacy)
        assert custom_fast.node_of_task != plain.node_of_task
        # ... and the custom runs must not have poisoned the memo either.
        plain_again = SimulationEngine(
            machine, BlockCyclicDistribution(grid), policy="locality"
        ).run(program)
        _assert_schedules_identical(plain, plain_again)

    def test_network_subclass_overriding_message_bytes_only(self):
        # Regression: a network that customizes only the per-op
        # message_bytes hook must be priced per op by the fast path, not
        # through the stale inherited vector form.
        from repro.runtime.network import AlphaBetaNetwork

        class QuarterTile(AlphaBetaNetwork):
            name = "quarter-tile"

            def message_bytes(self, op, machine):
                return machine.tile_bytes // 4

        program = get_program("bidiag", 8, 8, FlatTTTree())
        machine = Machine(n_nodes=4, cores_per_node=4, tile_size=100)
        fast = SimulationEngine(machine, network=QuarterTile()).run(program)
        legacy = reference_schedule(program, machine, network=QuarterTile())
        _assert_schedules_identical(fast, legacy)
        assert fast.comm_bytes == fast.messages * (machine.tile_bytes // 4)

    def test_object_built_programs_honor_custom_weights(self):
        # Regression: object-built programs (from_ops) carry whatever
        # weight the caller stamped on each Op; the packed weight column
        # must read it rather than re-deriving Table-I values.
        import dataclasses

        base = get_program("bidiag", 4, 4, GreedyTree())
        ops = [dataclasses.replace(op, weight=op.weight * 7) for op in base.ops]
        program = Program.from_ops(ops)
        assert program.total_weight() == 7 * base.total_weight()
        assert program.critical_path() == 7 * base.critical_path()
        machine = Machine(n_nodes=1, cores_per_node=4, tile_size=100)
        fast = SimulationEngine(machine, policy="critical-path").run(program)
        legacy = reference_schedule(program, machine, policy="critical-path")
        _assert_schedules_identical(fast, legacy)

    def test_csr_views_are_read_only(self):
        program = get_program("bidiag", 5, 4, GreedyTree())
        for vec in (program.pred_indptr_np, program.pred_ids_np,
                    program.succ_indptr_np, program.succ_ids_np,
                    program.weights_np, program.kernel_codes_np):
            assert not vec.flags.writeable

    def test_rank_array_may_return_ndarray(self):
        from repro.runtime.policies import SchedulingPolicy

        class NdFifo(SchedulingPolicy):
            name = "nd-fifo"

            def rank(self, program, durations, node_of_op, machine):
                return [float(i) for i in range(len(program))]

            def rank_array(self, program, durations, node_of_op, machine):
                return np.arange(len(program), dtype=np.float64)

        program = get_program("bidiag", 5, 5, GreedyTree())
        machine = Machine(n_nodes=1, cores_per_node=4, tile_size=100)
        nd = SimulationEngine(machine, policy=NdFifo()).run(program)
        fifo = SimulationEngine(machine, policy="fifo").run(program)
        _assert_schedules_identical(nd, fifo)

    def test_custom_policy_not_cached(self):
        from repro.runtime.policies import SchedulingPolicy

        class Custom(SchedulingPolicy):
            name = "custom"

            def rank(self, program, durations, node_of_op, machine):
                return [float(i) for i in range(len(program))]

        program = get_program("bidiag", 5, 5, GreedyTree())
        machine = Machine(n_nodes=1, cores_per_node=4, tile_size=100)
        engine = SimulationEngine(machine, policy=Custom())
        assert engine.policy.cache_token is None
        schedule = engine.run(program)  # the kernel falls back to rank()
        fifo = SimulationEngine(machine, policy="fifo").run(program)
        _assert_schedules_identical(schedule, fifo)


class TestStaticCommunication:
    """Vectorized static message counts == the per-edge walk."""

    class _PerEdgeWalk(BlockCyclicDistribution):
        """The same mapping; any subclass routes counts through the walk."""

    @pytest.mark.parametrize("grid", [ProcessGrid(2, 2), ProcessGrid(3, 2),
                                      ProcessGrid(4, 1)])
    def test_volume_and_matrix_match_per_edge_walk(self, grid):
        program = get_program("bidiag", 8, 6, GreedyTree())
        dist = BlockCyclicDistribution(grid)
        walk = self._PerEdgeWalk(grid)
        fast = communication_volume(program, dist)
        slow = communication_volume(program, walk)
        assert fast.messages == slow.messages
        assert fast.bytes_moved == slow.bytes_moved
        assert fast.per_node_sent == slow.per_node_sent
        assert fast.per_node_received == slow.per_node_received
        assert communication_matrix(program, dist) == communication_matrix(
            program, walk
        )

    def test_message_bytes_vector_matches_per_op(self):
        program = get_program("bidiag", 6, 5, GreedyTree())
        machine = Machine(n_nodes=4, cores_per_node=2, tile_size=120)
        for name in ("uniform", "alpha-beta"):
            model = get_network_model(name)
            vec = model.message_bytes_vector(program, machine)
            want = [model.message_bytes(op, machine) for op in program.ops]
            assert vec.tolist() == want


class TestHashSeedDeterminism:
    """Rank arrays, levels and schedules are PYTHONHASHSEED-independent."""

    SNIPPET = (
        "import sys; sys.path.insert(0, 'src')\n"
        "from repro.ir import compile_program\n"
        "from repro.runtime.engine import SimulationEngine\n"
        "from repro.runtime.machine import Machine\n"
        "from repro.runtime.replay import PreparedReplay\n"
        "from repro.trees import GreedyTree\n"
        "program = compile_program('bidiag', 7, 5, GreedyTree())\n"
        "machine = Machine(n_nodes=4, cores_per_node=2, tile_size=100)\n"
        "for policy in ('list', 'critical-path', 'locality'):\n"
        "    engine = SimulationEngine(machine, policy=policy)\n"
        "    print(policy, PreparedReplay(engine, program).order)\n"
        "print(program.levels_np.tolist())\n"
        "print(SimulationEngine(machine).run(program).makespan)\n"
    )

    def _run(self, hash_seed):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-c", self.SNIPPET],
            capture_output=True,
            text=True,
            env=env,
            cwd=__file__.rsplit("/tests/", 1)[0],
            check=True,
        )
        return proc.stdout

    @pytest.mark.slow
    def test_rank_arrays_identical_across_hash_seeds(self):
        assert self._run("0") == self._run("4242")
