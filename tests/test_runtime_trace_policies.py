"""Tests for schedule utilization / Gantt rendering and scheduler policies."""

import numpy as np
import pytest

from repro.ir import get_program
from repro.kernels.costs import KERNEL_LIST
from repro.obs import Tracer, idle_seconds_per_node, utilization_summary
from repro.runtime.machine import Machine
from repro.runtime.engine import SimulationEngine
from repro.trees import FlatTSTree, GreedyTree


@pytest.fixture(scope="module")
def small_run():
    program = get_program("bidiag", 6, 4, GreedyTree())
    machine = Machine(n_nodes=1, cores_per_node=4, tile_size=100)
    tracer = Tracer()
    with tracer.activate():
        schedule = SimulationEngine(machine).run(program)
    return program, machine, schedule, tracer


def _lanes(chart):
    return [line for line in chart.splitlines() if line.startswith("n")]


class TestUtilization:
    def test_busy_fraction_in_unit_interval(self, small_run):
        _, machine, schedule, _ = small_run
        summary = utilization_summary(schedule, machine)
        assert 0.0 < summary["overall_busy_fraction"] <= 1.0
        assert all(0.0 <= f <= 1.0 for f in summary["busy_fraction_per_node"])

    def test_idle_plus_busy_equals_capacity(self, small_run):
        _, machine, schedule, _ = small_run
        summary = utilization_summary(schedule, machine)
        capacity = machine.total_cores * schedule.makespan
        busy = sum(schedule.busy_time_per_node)
        assert summary["total_idle_seconds"] == pytest.approx(capacity - busy)

    def test_critical_kernel_is_an_update(self, small_run):
        program, _, schedule, _ = small_run
        busy = np.bincount(
            program.kernel_codes_np,
            weights=np.subtract(schedule.finish, schedule.start),
            minlength=len(KERNEL_LIST),
        )
        dominant = KERNEL_LIST[int(np.argmax(busy))].value
        # Update kernels carry most of the work for any tree.
        assert dominant in {"TSMQR", "TTMQR", "TSMLQ", "TTMLQ", "UNMQR", "UNMLQ"}

    def test_idle_time_by_node(self, small_run):
        _, machine, schedule, _ = small_run
        idle = idle_seconds_per_node(
            schedule.busy_time_per_node, schedule.makespan, machine.cores_per_node
        )
        assert len(idle) == machine.n_nodes
        assert all(v >= -1e-12 for v in idle)


class TestGantt:
    def test_chart_has_one_lane_per_busy_core(self, small_run):
        _, machine, _, tracer = small_run
        lanes = _lanes(tracer.gantt(width=40))
        assert 1 <= len(lanes) <= machine.total_cores
        # Each lane has exactly `width` cells between the pipes.
        body = lanes[0].split("|")[1]
        assert len(body) == 40

    def test_chart_shows_kernels_and_idle(self, small_run):
        chart = small_run[3].gantt(width=60)
        assert "legend:" in chart
        body = "".join(line.split("|")[1] for line in _lanes(chart))
        assert any(ch != "." for ch in body)

    def test_lane_cap(self, small_run):
        assert len(_lanes(small_run[3].gantt(width=20, max_lanes=1))) == 1

    def test_invalid_width(self, small_run):
        with pytest.raises(ValueError):
            small_run[3].gantt(width=0)


class TestSchedulerPolicies:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            SimulationEngine(Machine(), policy="magic")

    @pytest.mark.parametrize("policy", ["list", "fifo", "weight"])
    def test_all_policies_produce_valid_schedules(self, policy):
        program = get_program("qr", 6, 4, GreedyTree())
        machine = Machine(n_nodes=1, cores_per_node=4, tile_size=100)
        schedule = SimulationEngine(machine, policy=policy).run(program)
        assert schedule.makespan > 0
        assert len(schedule.start) == len(program)
        # Dependencies respected.
        for src, dst in program.edges():
            assert schedule.start[dst] >= schedule.finish[src] - 1e-12

    def test_bottom_level_not_worse_than_fifo(self):
        program = get_program("bidiag", 8, 6, FlatTSTree())
        machine = Machine(n_nodes=1, cores_per_node=8, tile_size=100)
        blevel = SimulationEngine(machine, policy="list").run(program).makespan
        fifo = SimulationEngine(machine, policy="fifo").run(program).makespan
        assert blevel <= fifo * 1.05

    def test_core_assignment_is_consistent(self):
        program = get_program("qr", 5, 3, GreedyTree())
        machine = Machine(n_nodes=1, cores_per_node=3, tile_size=100)
        schedule = SimulationEngine(machine).run(program)
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
