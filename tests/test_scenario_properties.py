"""Property-based tests (hypothesis) for the scenario subsystem invariants.

Three laws the Monte-Carlo machinery rests on:

* zero-probability perturbations are the identity: a replay under all-ones
  fault/noise factor rows is bit-identical to the engine's own schedule,
  for every scheduling policy and network model (multiplying a finite
  positive float by 1.0 is exact);
* a uniform slowdown factor ``s >= 1`` applied to every node never
  decreases the makespan (uniform scaling preserves the pop order, so
  Graham's list-scheduling anomalies — which need *relative* duration
  changes — cannot kick in);
* on a single core the makespan is monotone in the per-op fail-stop fault
  counts (the schedule is a work-conserving serial chain, so the makespan
  is a sum of realized durations).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ir.compiler import get_program
from repro.runtime.engine import SimulationEngine
from repro.runtime.faults import fail_stop_factors
from repro.runtime.machine import Machine
from repro.runtime.policies import POLICIES
from repro.runtime.replay import PreparedReplay
from repro.runtime.scenario import Scenario, run_scenario
from repro.trees import GreedyTree

SETTINGS = dict(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

ALL_POLICIES = sorted(POLICIES)
ALL_NETWORKS = ["uniform", "alpha-beta"]


class TestZeroPerturbationIdentity:
    @given(q=st.integers(min_value=1, max_value=3),
           extra=st.integers(min_value=0, max_value=2))
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_all_ones_rows_are_bit_identical(self, q, extra):
        p = q + extra  # BIDIAG needs p >= q tiles
        program = get_program("bidiag", p, q, GreedyTree(), n_cores=2)
        machine = Machine(n_nodes=2, cores_per_node=2, tile_size=100)
        ones = np.ones(len(program), dtype=np.float64)
        for policy in ALL_POLICIES:
            for network in ALL_NETWORKS:
                engine = SimulationEngine(machine, policy=policy,
                                          network=network)
                baseline = engine.run(program)
                replayed = PreparedReplay(engine, program).run(
                    duration_row=ones, noise_row=ones
                )
                assert replayed.start == baseline.start, (policy, network)
                assert replayed.finish == baseline.finish, (policy, network)
                assert replayed.node_of_task == baseline.node_of_task
                assert replayed.makespan.hex() == baseline.makespan.hex()

    def test_zero_probability_scenario_routes_to_nominal(self):
        # A scenario whose models all have prob 0 is trivial: run_scenario
        # returns the nominal schedule and no distribution.
        program = get_program("bidiag", 3, 2, GreedyTree(), n_cores=2)
        machine = Machine(n_nodes=1, cores_per_node=2, tile_size=100)
        from repro.runtime.faults import FailStopFaults

        zero = Scenario(name="zero", faults=FailStopFaults(prob=0.0))
        assert zero.is_trivial
        run = run_scenario(program, machine, zero, draws=4)
        assert run.distribution is None
        baseline = SimulationEngine(machine).run(program)
        assert run.schedule.makespan.hex() == baseline.makespan.hex()


class TestSlowdownMonotonicity:
    @given(s=st.floats(min_value=1.0, max_value=3.0,
                       allow_nan=False, allow_infinity=False))
    @settings(**SETTINGS)
    def test_uniform_slowdown_never_decreases_makespan(self, s):
        # One node: no communication, so a uniform factor s on every
        # duration scales each event time monotonically.
        program = get_program("bidiag", 3, 3, GreedyTree(), n_cores=4)
        machine = Machine(n_nodes=1, cores_per_node=4, tile_size=100)
        nominal = SimulationEngine(machine).run(program).makespan
        slowed = run_scenario(
            program, machine, Scenario(name="u", node_slowdowns=(s,))
        ).schedule.makespan
        assert slowed >= nominal
        # Stronger: with the pop order preserved, the slowed makespan is
        # the nominal one scaled by s (up to float round-off).
        assert slowed == pytest.approx(s * nominal, rel=1e-9)

    @given(s=st.floats(min_value=1.0, max_value=2.5,
                       allow_nan=False, allow_infinity=False),
           t=st.floats(min_value=0.0, max_value=1.5,
                       allow_nan=False, allow_infinity=False))
    @settings(**SETTINGS)
    def test_uniform_slowdown_is_monotone_in_s(self, s, t):
        program = get_program("bidiag", 2, 2, GreedyTree(), n_cores=2)
        machine = Machine(n_nodes=1, cores_per_node=2, tile_size=100)

        def makespan(factor):
            return run_scenario(
                program, machine, Scenario(name="u", node_slowdowns=(factor,))
            ).schedule.makespan

        assert makespan(s + t) >= makespan(s) * (1.0 - 1e-12)


class TestFaultCountMonotonicity:
    @given(seed=st.integers(min_value=0, max_value=10**6),
           rework=st.floats(min_value=0.1, max_value=2.0,
                            allow_nan=False, allow_infinity=False))
    @settings(**SETTINGS)
    def test_single_core_makespan_monotone_in_fault_counts(self, seed, rework):
        # Single core, single node: the schedule is serial, so the makespan
        # is a sum of realized durations — adding failures to any op can
        # only push it out (1e-12 relative slack absorbs re-ordered float
        # summation when the pop order shifts).
        program = get_program("bidiag", 2, 2, GreedyTree(), n_cores=1)
        machine = Machine(n_nodes=1, cores_per_node=1, tile_size=100)
        engine = SimulationEngine(machine)
        replay = PreparedReplay(engine, program)
        rng = np.random.default_rng(seed)
        n = len(program)
        base_counts = rng.integers(0, 3, size=n)
        extra = rng.integers(0, 3, size=n)
        low = replay.run(duration_row=fail_stop_factors(base_counts, rework))
        high = replay.run(
            duration_row=fail_stop_factors(base_counts + extra, rework)
        )
        assert high.makespan >= low.makespan * (1.0 - 1e-12)
        assert low.makespan >= engine.run(program).makespan * (1.0 - 1e-12)
