"""Tests for the machine model, the list scheduler and the simulator."""

import pytest

from repro.api import SvdPlan, execute, resolve
from repro.config import MIRIEL, Config, get_preset
from repro.ir import Op, Program, get_program
from repro.kernels.costs import KernelName
from repro.runtime.machine import Machine
from repro.runtime.engine import SimulationEngine
from repro.runtime.simulator import simulate
from repro.tiles.distribution import BlockCyclicDistribution, ProcessGrid
from repro.trees import FlatTSTree, GreedyTree


def _mk_op(index, kernel=KernelName.TSMQR, tile=(0, 0)):
    return Op(
        index=index,
        kernel=kernel,
        params=(index,),
        reads=frozenset(),
        writes=frozenset(),
        weight=12,
        owner_tile=tile,
    )


def _program(ops, edges=()):
    preds = [[] for _ in ops]
    for src, dst in edges:
        preds[dst].append(src)
    return Program(ops, preds)


class TestConfig:
    def test_defaults_match_paper(self):
        cfg = Config()
        assert cfg.tile_size == 160
        assert cfg.inner_block == 32
        assert cfg.auto_gamma == 2.0

    def test_with_(self):
        cfg = Config().with_(tile_size=200)
        assert cfg.tile_size == 200
        assert cfg.inner_block == 32

    def test_validation(self):
        with pytest.raises(ValueError):
            Config(tile_size=0)
        with pytest.raises(ValueError):
            Config(auto_gamma=-1)

    def test_presets(self):
        assert get_preset("miriel") is MIRIEL
        with pytest.raises(KeyError):
            get_preset("not-a-machine")

    def test_miriel_numbers(self):
        assert MIRIEL.cores_per_node == 24
        assert MIRIEL.core_gemm_gflops == 37.0
        assert MIRIEL.node_gemm_gflops == 642.0
        assert 0 < MIRIEL.node_efficiency < 1


class TestMachine:
    def test_basic_properties(self):
        m = Machine(n_nodes=4, cores_per_node=24, tile_size=160)
        assert m.total_cores == 96
        assert m.tile_bytes == 160 * 160 * 8
        assert m.peak_gflops == pytest.approx(4 * m.node_peak_gflops)

    def test_core_rate_capped_by_node_aggregate(self):
        m = Machine()
        assert m.core_rate_gflops <= MIRIEL.core_gemm_gflops
        assert m.core_rate_gflops == pytest.approx(642.0 / 24.0)

    def test_kernel_duration_ordering(self):
        m = Machine()
        assert m.kernel_duration(KernelName.TTQRT) < m.kernel_duration(KernelName.TSQRT)
        assert m.kernel_duration(KernelName.TSMQR) > 0

    def test_transfer_time(self):
        single = Machine(n_nodes=1)
        multi = Machine(n_nodes=4)
        assert single.transfer_time() == 0.0
        assert multi.transfer_time() > 0.0
        assert multi.transfer_time(10**9) > multi.transfer_time()

    def test_with_nodes(self):
        m = Machine(n_nodes=1, cores_per_node=12, tile_size=100)
        m4 = m.with_nodes(4)
        assert m4.n_nodes == 4
        assert m4.cores_per_node == 12
        assert m4.tile_size == 100

    def test_validation(self):
        with pytest.raises(ValueError):
            Machine(n_nodes=0)
        with pytest.raises(ValueError):
            Machine(cores_per_node=0)


class TestListScheduler:
    def test_independent_tasks_run_in_parallel(self):
        g = _program([_mk_op(i) for i in range(4)])
        machine = Machine(n_nodes=1, cores_per_node=4, tile_size=100)
        schedule = SimulationEngine(machine).run(g)
        # All four tasks fit on four cores simultaneously.
        assert schedule.makespan == pytest.approx(machine.kernel_duration(KernelName.TSMQR))

    def test_chain_serializes(self):
        g = _program([_mk_op(i) for i in range(4)], [(i, i + 1) for i in range(3)])
        machine = Machine(n_nodes=1, cores_per_node=4, tile_size=100)
        schedule = SimulationEngine(machine).run(g)
        assert schedule.makespan == pytest.approx(4 * machine.kernel_duration(KernelName.TSMQR))

    def test_single_core_serializes_everything(self):
        g = _program([_mk_op(i) for i in range(5)])
        machine = Machine(n_nodes=1, cores_per_node=1, tile_size=100)
        schedule = SimulationEngine(machine).run(g)
        assert schedule.makespan == pytest.approx(5 * machine.kernel_duration(KernelName.TSMQR))

    def test_empty_graph(self):
        machine = Machine()
        schedule = SimulationEngine(machine).run(Program([], []))
        assert schedule.makespan == 0.0

    def test_cross_node_edges_counted(self):
        # Op 1's tile has a different block-cyclic owner than op 0's.
        g = _program([_mk_op(0, tile=(0, 0)), _mk_op(1, tile=(1, 0))], [(0, 1)])
        machine = Machine(n_nodes=2, cores_per_node=2, tile_size=100)
        dist = BlockCyclicDistribution(ProcessGrid(2, 1))
        schedule = SimulationEngine(machine, dist).run(g)
        assert schedule.messages == 1
        assert schedule.comm_bytes == machine.tile_bytes
        assert schedule.makespan > 2 * machine.kernel_duration(KernelName.TSMQR)

    def test_distribution_process_count_must_match(self):
        machine = Machine(n_nodes=4)
        with pytest.raises(ValueError):
            SimulationEngine(machine, BlockCyclicDistribution(ProcessGrid(1, 2)))

    def test_schedule_bounds(self):
        """Makespan is bounded below by the critical path and above by the
        serial time (fundamental scheduling bounds)."""
        g = get_program("bidiag", 6, 4, GreedyTree())
        machine = Machine(n_nodes=1, cores_per_node=8, tile_size=160)
        schedule = SimulationEngine(machine).run(g)
        cp_time = g.critical_path(weight_fn=lambda op: machine.kernel_duration(op.kernel))
        serial_time = sum(machine.kernel_duration(op.kernel) for op in g.ops)
        assert cp_time <= schedule.makespan + 1e-12
        assert schedule.makespan <= serial_time + 1e-12

    def test_node_utilization(self):
        g = get_program("bidiag", 4, 4, FlatTSTree())
        machine = Machine(n_nodes=1, cores_per_node=4, tile_size=160)
        schedule = SimulationEngine(machine).run(g)
        util = schedule.node_utilization(machine)
        assert len(util) == 1
        assert 0.0 < util[0] <= 1.0


def _simulate(m, n, *, stage="ge2bnd", variant="bidiag", tree="auto",
              n_nodes=1, n_cores=24):
    plan = SvdPlan(m=m, n=n, stage=stage, variant=variant, tree=tree,
                   tile_size=160, n_nodes=n_nodes, n_cores=n_cores)
    return execute(plan, "simulate")


class TestSimulator:
    def test_gflops_below_machine_peak(self):
        machine = Machine(n_nodes=1, cores_per_node=24, tile_size=160)
        result = _simulate(4000, 4000, tree="auto")
        assert 0 < result.gflops < machine.peak_gflops

    def test_more_cores_never_slower(self):
        r_small = _simulate(3000, 3000, tree="greedy", n_cores=4)
        r_big = _simulate(3000, 3000, tree="greedy", n_cores=24)
        assert r_big.time_seconds <= r_small.time_seconds * 1.01

    def test_single_node_has_no_messages(self):
        result = _simulate(3000, 3000, tree="flatts")
        assert result.messages == 0

    def test_multi_node_communicates(self):
        result = _simulate(4000, 4000, tree="greedy", n_nodes=4, n_cores=8)
        assert result.messages > 0
        assert result.comm_bytes > 0

    def test_rejects_wide(self):
        with pytest.raises(ValueError, match="transpose"):
            _simulate(1000, 2000)

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError, match="variant"):
            _simulate(2000, 1000, variant="qr-only")

    def test_rejects_gesvd_stage(self):
        resolved = resolve(SvdPlan(m=2000, n=1000, stage="gesvd", tile_size=160))
        with pytest.raises(ValueError, match="numeric"):
            simulate(resolved)

    def test_driver_matches_execute(self):
        plan = SvdPlan(m=4000, n=1000, tile_size=200, n_nodes=2, n_cores=8,
                       tree="greedy", stage="ge2val")
        sim = simulate(resolve(plan))
        result = execute(plan, "simulate")
        assert result.time_seconds == sim.time_seconds
        assert result.gflops == sim.gflops
        assert result.n_tasks == sim.n_tasks
        assert result.messages == sim.schedule.messages > 0
        assert result.stage_seconds["ge2bnd"] == sim.ge2bnd_seconds
        assert result.stage_seconds["post"] == sim.post_seconds > 0

    def test_ge2val_slower_than_ge2bnd(self):
        bnd = _simulate(3000, 3000, tree="auto")
        val = _simulate(3000, 3000, stage="ge2val", variant="auto", tree="auto")
        assert val.time_seconds > bnd.time_seconds
        assert val.stage_seconds["post"] > 0

    def test_ge2val_auto_picks_rbidiag_for_tall_skinny(self):
        result = _simulate(20000, 2000, stage="ge2val", variant="auto", tree="greedy")
        assert result.variant == "rbidiag"
