"""Tests for communication, asymptotics and speedup analysis helpers."""


import pytest

from repro.analysis.asymptotics import (
    asymptotic_sweep,
    convergence_trend,
    shape_for,
    theorem1_limit_ratio,
)
from repro.analysis.communication import (
    communication_matrix,
    communication_ratio,
    communication_volume,
    panel_messages_estimate,
)
from repro.analysis.speedup import (
    amdahl_ge2val_bound,
    speedup_bounds,
    strong_scaling_efficiency,
    weak_scaling_efficiency,
)
from repro.ir import get_program
from repro.runtime.machine import Machine
from repro.runtime.engine import SimulationEngine
from repro.tiles.distribution import BlockCyclicDistribution, ProcessGrid
from repro.trees import FlatTTTree, GreedyTree, HierarchicalTree


class TestCommunication:
    dist = BlockCyclicDistribution(ProcessGrid(2, 2))

    def test_single_node_has_no_messages(self):
        graph = get_program("qr", 4, 3, GreedyTree())
        stats = communication_volume(graph, BlockCyclicDistribution(ProcessGrid(1, 1)))
        assert stats.messages == 0
        assert stats.bytes_moved == 0

    def test_messages_match_simulator_accounting(self):
        graph = get_program("bidiag", 6, 4, GreedyTree(), grid_rows=2)
        machine = Machine(n_nodes=4, cores_per_node=2, tile_size=100)
        schedule = SimulationEngine(machine, self.dist).run(graph)
        stats = communication_volume(graph, self.dist, tile_size=100)
        assert stats.messages == schedule.messages
        assert stats.bytes_moved == schedule.comm_bytes

    def test_sent_received_totals_agree(self):
        graph = get_program("bidiag", 6, 4, GreedyTree(), grid_rows=2)
        stats = communication_volume(graph, self.dist)
        assert sum(stats.per_node_sent) == stats.messages
        assert sum(stats.per_node_received) == stats.messages

    def test_matrix_diagonal_is_zero(self):
        graph = get_program("bidiag", 6, 4, GreedyTree(), grid_rows=2)
        matrix = communication_matrix(graph, self.dist)
        assert all(matrix[i][i] == 0 for i in range(4))
        assert sum(sum(row) for row in matrix) == communication_volume(graph, self.dist).messages

    def test_flat_top_tree_sends_fewer_messages_than_greedy(self):
        dist = BlockCyclicDistribution(ProcessGrid(4, 1))
        flat = HierarchicalTree(local_tree=GreedyTree(), top="flat", grid_rows=4)
        greedy = HierarchicalTree(local_tree=GreedyTree(), top="greedy", grid_rows=4)
        g_flat = get_program("bidiag", 8, 6, flat, grid_rows=4)
        g_greedy = get_program("bidiag", 8, 6, greedy, grid_rows=4)
        ratio = communication_ratio(g_greedy, g_flat, dist)
        assert ratio >= 1.0

    def test_panel_estimates(self):
        assert panel_messages_estimate(4, "flat") == 3
        assert panel_messages_estimate(4, "greedy") == 6
        assert panel_messages_estimate(1, "flat") == 0
        with pytest.raises(ValueError):
            panel_messages_estimate(4, "bogus")
        with pytest.raises(ValueError):
            panel_messages_estimate(0, "flat")


class TestAsymptotics:
    def test_shape_for(self):
        assert shape_for(8, 0.0) == 8
        assert shape_for(8, 0.5, 2.0) == max(8, int(round(2 * 8**1.5)))
        with pytest.raises(ValueError):
            shape_for(1, 0.0)

    def test_limit_ratio(self):
        assert theorem1_limit_ratio(0.0) == 1.0
        assert theorem1_limit_ratio(0.5) == 1.25
        with pytest.raises(ValueError):
            theorem1_limit_ratio(1.5)

    def test_square_sweep_normalization_approaches_one(self):
        points = asymptotic_sweep([16, 64, 256, 1024], alpha=0.0)
        # Converges to 1 from above; the trend is decreasing toward the limit.
        assert points[-1].normalized_bidiag < points[0].normalized_bidiag
        assert points[-1].normalized_bidiag == pytest.approx(1.0, rel=0.25)

    def test_square_sweep_ratio_tends_to_one(self):
        points = asymptotic_sweep([32, 128, 512, 2048], alpha=0.0)
        # For square matrices the two algorithms have the same asymptotic cost.
        assert points[-1].ratio == pytest.approx(1.0, rel=0.15)

    def test_tall_sweep_ratio_grows_toward_limit(self):
        points = asymptotic_sweep([64, 256, 1024, 4096], alpha=0.5, beta=1.0)
        assert points[-1].ratio > points[0].ratio
        assert points[-1].ratio > 1.1
        assert points[-1].ratio < theorem1_limit_ratio(0.5) + 0.05

    def test_convergence_trend(self):
        points = asymptotic_sweep([16, 64, 256], alpha=0.0)
        assert convergence_trend(points, "normalized_bidiag") < 0
        with pytest.raises(ValueError):
            convergence_trend(points[:1], "ratio")


class TestSpeedup:
    machine = Machine(n_nodes=1, cores_per_node=8, tile_size=100)

    def test_bounds_ordering(self):
        graph = get_program("bidiag", 8, 6, GreedyTree())
        schedule = SimulationEngine(self.machine).run(graph)
        bounds = speedup_bounds(graph, self.machine, schedule)
        assert bounds.tinf_seconds <= bounds.t1_seconds
        assert bounds.brent_bound_seconds <= bounds.t1_seconds + bounds.tinf_seconds
        assert bounds.measured_makespan >= bounds.tinf_seconds - 1e-12
        assert bounds.measured_speedup >= 1.0
        # A greedy list schedule respects Brent's bound.
        assert bounds.brent_gap <= 1.0 + 1e-9

    def test_bounds_match_per_op_loops(self):
        program = get_program("bidiag", 8, 6, GreedyTree())
        bounds = speedup_bounds(program, self.machine)
        duration = self.machine.kernel_duration
        assert bounds.t1_seconds == sum(duration(op.kernel) for op in program.ops)
        assert bounds.tinf_seconds == program.critical_path(
            weight_fn=lambda op: duration(op.kernel)
        )

    def test_flattt_span_longer_than_greedy(self):
        greedy = speedup_bounds(get_program("bidiag", 10, 6, GreedyTree()), self.machine)
        flattt = speedup_bounds(get_program("bidiag", 10, 6, FlatTTTree()), self.machine)
        assert greedy.tinf_seconds < flattt.tinf_seconds

    def test_amdahl_bound(self):
        assert amdahl_ge2val_bound(10.0, 5.0, 1) == pytest.approx(15.0)
        assert amdahl_ge2val_bound(10.0, 5.0, 10) == pytest.approx(6.0)
        with pytest.raises(ValueError):
            amdahl_ge2val_bound(10.0, 5.0, 0)
        with pytest.raises(ValueError):
            amdahl_ge2val_bound(-1.0, 5.0, 2)

    def test_strong_scaling_efficiency(self):
        eff = strong_scaling_efficiency({1: 10.0, 2: 6.0, 4: 4.0})
        assert eff[1] == pytest.approx(1.0)
        assert eff[2] == pytest.approx(10.0 / 12.0)
        assert eff[4] == pytest.approx(10.0 / 16.0)
        assert strong_scaling_efficiency({}) == {}

    def test_weak_scaling_efficiency(self):
        eff = weak_scaling_efficiency({1: 100.0, 2: 180.0, 4: 300.0})
        assert eff[1] == pytest.approx(1.0)
        assert eff[2] == pytest.approx(0.9)
        assert eff[4] == pytest.approx(0.75)
        assert weak_scaling_efficiency({}) == {}
