"""Tests for schedule traces (Gantt / utilization) and scheduler policies."""

import pytest

from repro.dag.tracer import trace_bidiag, trace_qr
from repro.runtime.machine import Machine
from repro.runtime.engine import SimulationEngine
from repro.runtime.trace import gantt_chart, idle_time_by_node, utilization_report
from repro.trees import FlatTSTree, GreedyTree


@pytest.fixture(scope="module")
def small_run():
    graph = trace_bidiag(6, 4, GreedyTree())
    machine = Machine(n_nodes=1, cores_per_node=4, tile_size=100)
    schedule = SimulationEngine(machine).run(graph)
    return graph, machine, schedule


class TestUtilization:
    def test_busy_fraction_in_unit_interval(self, small_run):
        graph, machine, schedule = small_run
        report = utilization_report(schedule, graph, machine)
        assert 0.0 < report.overall_busy_fraction <= 1.0
        assert all(0.0 <= f <= 1.0 for f in report.busy_fraction_per_node)

    def test_idle_plus_busy_equals_capacity(self, small_run):
        graph, machine, schedule = small_run
        report = utilization_report(schedule, graph, machine)
        capacity = machine.total_cores * schedule.makespan
        busy = sum(schedule.busy_time_per_node)
        assert report.idle_seconds == pytest.approx(capacity - busy)

    def test_critical_kernel_is_an_update(self, small_run):
        graph, machine, schedule = small_run
        report = utilization_report(schedule, graph, machine)
        # Update kernels carry most of the work for any tree.
        assert report.critical_kernel in {"TSMQR", "TTMQR", "TSMLQ", "TTMLQ", "UNMQR", "UNMLQ"}

    def test_idle_time_by_node(self, small_run):
        graph, machine, schedule = small_run
        idle = idle_time_by_node(schedule, machine)
        assert len(idle) == machine.n_nodes
        assert all(v >= -1e-12 for v in idle)


class TestGantt:
    def test_chart_has_one_lane_per_busy_core(self, small_run):
        graph, machine, schedule = small_run
        chart = gantt_chart(schedule, graph, machine, width=40)
        lanes = [line for line in chart.splitlines() if line.startswith("n")]
        assert 1 <= len(lanes) <= machine.total_cores
        # Each lane has exactly `width` cells between the pipes.
        body = lanes[0].split("|")[1]
        assert len(body) == 40

    def test_chart_shows_kernels_and_idle(self, small_run):
        graph, machine, schedule = small_run
        chart = gantt_chart(schedule, graph, machine, width=60)
        assert "legend:" in chart
        body = "".join(line.split("|")[1] for line in chart.splitlines() if line.startswith("n"))
        assert any(ch != "." for ch in body)

    def test_lane_cap(self, small_run):
        graph, machine, schedule = small_run
        chart = gantt_chart(schedule, graph, machine, width=20, max_lanes=1)
        lanes = [line for line in chart.splitlines() if line.startswith("n")]
        assert len(lanes) == 1

    def test_requires_core_assignment(self, small_run):
        graph, machine, schedule = small_run
        from dataclasses import replace

        bare = replace(schedule, core_of_task=None)
        with pytest.raises(ValueError):
            gantt_chart(bare, graph, machine)

    def test_invalid_width(self, small_run):
        graph, machine, schedule = small_run
        with pytest.raises(ValueError):
            gantt_chart(schedule, graph, machine, width=0)


class TestSchedulerPolicies:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            SimulationEngine(Machine(), policy="magic")

    @pytest.mark.parametrize("policy", ["list", "fifo", "weight"])
    def test_all_policies_produce_valid_schedules(self, policy):
        graph = trace_qr(6, 4, GreedyTree())
        machine = Machine(n_nodes=1, cores_per_node=4, tile_size=100)
        schedule = SimulationEngine(machine, policy=policy).run(graph)
        assert schedule.makespan > 0
        assert len(schedule.start) == len(graph)
        # Dependencies respected.
        for src, dsts in graph.successors.items():
            for dst in dsts:
                assert schedule.start[dst] >= schedule.finish[src] - 1e-12

    def test_bottom_level_not_worse_than_fifo(self):
        graph = trace_bidiag(8, 6, FlatTSTree())
        machine = Machine(n_nodes=1, cores_per_node=8, tile_size=100)
        blevel = SimulationEngine(machine, policy="list").run(graph).makespan
        fifo = SimulationEngine(machine, policy="fifo").run(graph).makespan
        assert blevel <= fifo * 1.05

    def test_core_assignment_is_consistent(self):
        graph = trace_qr(5, 3, GreedyTree())
        machine = Machine(n_nodes=1, cores_per_node=3, tile_size=100)
        schedule = SimulationEngine(machine).run(graph)
        assert schedule.core_of_task is not None
        assert all(0 <= c < machine.cores_per_node for c in schedule.core_of_task)
        # Tasks on the same core never overlap in time.
        by_core = {}
        for tid, core in enumerate(schedule.core_of_task):
            by_core.setdefault((schedule.node_of_task[tid], core), []).append(tid)
        for tasks in by_core.values():
            tasks.sort(key=lambda t: schedule.start[t])
            for a, b in zip(tasks, tasks[1:]):
                assert schedule.start[b] >= schedule.finish[a] - 1e-12
