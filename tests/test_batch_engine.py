"""Differential and property tests for the batched candidate simulator.

The tentpole contract of :mod:`repro.runtime.batch`: one batched pass over
many (machine, grid, policy, network) candidates produces schedules
**bit-identical** to per-candidate
:meth:`~repro.runtime.engine.SimulationEngine.run` calls and to the
object-path reference (:func:`repro.verify.reference.reference_schedule`)
— across all policies x networks x grids, under ``REPRO_VERIFY=1``, and
independent of
``PYTHONHASHSEED`` — while the analytic pre-pruning of
:func:`~repro.runtime.batch.simulate_resolved_batch` never changes the
winning candidate.
"""

import itertools
import os
import subprocess
import sys

import pytest

from repro.api.execute import _simulate_run_result, execute, execute_sweep
from repro.api.plan import SvdPlan
from repro.api.resolver import resolve
from repro.ir import clear_program_cache, get_program
from repro.runtime.batch import (
    BatchCandidate,
    BatchEngine,
    simulate_batch,
    simulate_resolved_batch,
)
from repro.runtime.engine import SimulationEngine, engine_memo_stats
from repro.runtime.machine import Machine
from repro.runtime.simulator import simulate, stage_cost
from repro.tiles.distribution import ProcessGrid
from repro.trees import make_tree
from repro.tuning.objectives import get_objective
from repro.verify.reference import reference_schedule


@pytest.fixture(autouse=True)
def _fresh_program_cache():
    clear_program_cache()
    yield
    clear_program_cache()


#: (algorithm, p, q, tree, machine, grid) — single- and multi-node shapes,
#: square and tall-skinny grids (mirrors the bench_scale audit configs).
CONFIGS = [
    ("bidiag", 10, 8, "greedy",
     Machine(n_nodes=1, cores_per_node=8, tile_size=160), None),
    ("bidiag", 8, 8, "flattt",
     Machine(n_nodes=4, cores_per_node=4, tile_size=100), ProcessGrid(2, 2)),
    ("rbidiag", 12, 4, "greedy",
     Machine(n_nodes=2, cores_per_node=4, tile_size=100), ProcessGrid(2, 1)),
]

ALL_POLICIES = ("list", "critical-path", "locality", "fifo", "weight", "random")
NETWORKS = ("uniform", "alpha-beta")


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


def _setup(config):
    """The config's machine and its resolved GE2BND plan."""
    alg, p, q, tree, machine, grid = config
    plan = SvdPlan(
        m=p * machine.tile_size,
        n=q * machine.tile_size,
        stage="ge2bnd",
        variant=alg,
        tree=tree,
        tile_size=machine.tile_size,
        n_cores=machine.cores_per_node,
        n_nodes=machine.n_nodes,
        grid=(grid.rows, grid.cols) if grid is not None else None,
    )
    return machine, resolve(plan)


class TestBatchEquivalence:
    """Batched schedules == per-candidate engine runs, every field."""

    # engine_fast=True compares against the engine, False against the
    # object-path reference scheduler.
    @pytest.mark.parametrize("engine_fast", [True, False])
    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c[0]}-{c[1]}x{c[2]}")
    def test_policy_network_matrix(self, config, engine_fast):
        machine, rp = _setup(config)
        candidates = [
            BatchCandidate(machine, rp.distribution, policy=pol, network=net)
            for pol, net in itertools.product(ALL_POLICIES, NETWORKS)
        ]
        schedules = simulate_batch(rp.program(), candidates)
        for cand, got in zip(candidates, schedules):
            if engine_fast:
                ref = SimulationEngine(
                    cand.machine,
                    cand.distribution,
                    policy=cand.policy,
                    network=cand.network,
                ).run(rp.program())
            else:
                ref = reference_schedule(
                    rp.program(),
                    cand.machine,
                    cand.distribution,
                    policy=cand.policy,
                    network=cand.network,
                )
            _assert_schedules_identical(got, ref)

    def test_heterogeneous_machines_one_batch(self):
        # Candidates may differ in their duration model (inner block) while
        # sharing the compiled program: per-machine axes must not leak.
        machines = [
            Machine(n_nodes=1, cores_per_node=8, tile_size=160, inner_block=ib)
            for ib in (32, 40, 64)
        ]
        program = get_program("bidiag", 9, 7, make_tree("greedy"))
        candidates = [
            BatchCandidate(m, policy=pol)
            for m in machines
            for pol in ("list", "critical-path")
        ]
        schedules = simulate_batch(program, candidates)
        makespans = set()
        for cand, got in zip(candidates, schedules):
            ref = SimulationEngine(cand.machine, policy=cand.policy).run(program)
            _assert_schedules_identical(got, ref)
            makespans.add(got.makespan)
        assert len(makespans) > 1  # the machines genuinely differ

    def test_dedup_false_still_identical(self):
        machine, rp = _setup(CONFIGS[0])
        candidates = [
            BatchCandidate(machine, rp.distribution, policy=pol)
            for pol in ("list", "locality")  # identical order on one node
        ]
        dedup = simulate_batch(rp.program(), candidates, dedup=True)
        fresh = simulate_batch(rp.program(), candidates, dedup=False)
        assert dedup[0] is dedup[1]  # shared object
        assert fresh[0] is not fresh[1]
        _assert_schedules_identical(dedup[1], fresh[1])

    def test_verify_hooks_accept_batched_schedules(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY", "1")
        machine, rp = _setup(CONFIGS[1])
        candidates = [
            BatchCandidate(machine, rp.distribution, policy=pol, network=net)
            for pol in ("list", "locality")
            for net in NETWORKS
        ]
        schedules = simulate_batch(rp.program(), candidates)
        for cand, got in zip(candidates, schedules):
            ref = SimulationEngine(
                cand.machine, cand.distribution,
                policy=cand.policy, network=cand.network,
            ).run(rp.program())
            _assert_schedules_identical(got, ref)

    def test_lower_bounds_never_exceed_makespans(self):
        # One schedule bound (SimulationEngine.lower_bound) serves the batch
        # layer and the tuner; it never exceeds any policy's makespan, any
        # GE2VAL time once the post stages are added, nor any draw of a
        # straggler scenario.
        for config in CONFIGS:
            machine, rp = _setup(config)
            program = rp.program()
            candidates = [
                BatchCandidate(machine, rp.distribution, policy=pol)
                for pol in ALL_POLICIES
            ]
            engine = BatchEngine()
            bounds = engine.lower_bounds(program, candidates)
            schedules = engine.run_batch(program, candidates)
            for cand, bound, sched in zip(candidates, bounds, schedules):
                shared = SimulationEngine(
                    cand.machine, cand.distribution, policy=cand.policy
                ).lower_bound(program)
                assert bound == shared
                assert 0.0 < bound <= sched.makespan

            ge2val = resolve(rp.plan.with_(stage="ge2val"))
            post, _ = stage_cost(ge2val)
            assert post > 0.0
            seconds = get_objective("makespan").schedule_bound(ge2val)
            assert seconds == bounds[0] + post
            for pol in ALL_POLICIES:
                sim = simulate(resolve(ge2val.plan.with_(policy=pol)))
                assert seconds <= sim.time_seconds

            straggler = resolve(
                rp.plan.with_(scenario="straggler", draws=8, seed=3)
            )
            dist = simulate(straggler).distribution
            assert dist is not None
            assert bounds[0] <= dist.min <= dist.p95
            assert get_objective("robust-makespan").schedule_bound(
                straggler
            ) <= dist.p95


class TestBatchMemoStats:
    """engine.memo.order.* / batch.* counters pin the sharing the batch claims."""

    def _delta(self, before):
        stats = engine_memo_stats()
        return {k: stats[k] - before.get(k, 0) for k in stats}

    def test_dedup_and_simulation_counts(self):
        machine, rp = _setup(CONFIGS[0])
        before = engine_memo_stats()
        candidates = [
            BatchCandidate(machine, rp.distribution, policy=pol)
            for pol in ("list", "locality", "fifo")
        ]
        simulate_batch(rp.program(), candidates)
        delta = self._delta(before)
        assert delta["batch_candidates"] == 3
        # list and locality coincide on one node -> one dedup hit.
        assert delta["batch_simulated"] == 2
        assert delta["batch_deduped"] == 1
        assert delta["batch_pruned"] == 0
        # Locality degenerates to list on one node, so its order resolves
        # through list's memo entry: 2 misses (list, fifo) + 1 hit.
        assert delta["order_misses"] == 2
        assert delta["order_hits"] == 1

    def test_machine_invariant_order_shared_across_machines(self):
        program = get_program("bidiag", 8, 6, make_tree("greedy"))
        machines = [
            Machine(n_nodes=1, cores_per_node=8, tile_size=160, inner_block=ib)
            for ib in (32, 40)
        ]
        before = engine_memo_stats()
        # critical-path ranks by Table-I weights: one order serves both
        # machines.  list ranks by durations: one order per machine.
        simulate_batch(program, [
            BatchCandidate(m, policy=pol)
            for pol in ("critical-path", "list")
            for m in machines
        ])
        delta = self._delta(before)
        assert delta["order_misses"] == 3  # 1 critical-path + 2 list
        assert delta["order_hits"] == 1    # critical-path, 2nd machine
        assert delta["batch_simulated"] == 4
        assert delta["batch_deduped"] == 0

    def test_second_batch_hits_order_memo(self):
        machine, rp = _setup(CONFIGS[0])
        candidates = [BatchCandidate(machine, rp.distribution, policy="list")]
        simulate_batch(rp.program(), candidates)
        before = engine_memo_stats()
        simulate_batch(rp.program(), candidates)
        delta = self._delta(before)
        assert delta["order_hits"] == 1
        assert delta["order_misses"] == 0

    def test_stats_expose_batch_keys(self):
        stats = engine_memo_stats()
        for key in (
            "order_programs",
            "order_hits",
            "order_misses",
            "batch_candidates",
            "batch_simulated",
            "batch_deduped",
            "batch_pruned",
        ):
            assert key in stats


class TestResolvedPlanBatch:
    """simulate_resolved_batch == execute(plan, 'simulate'), row for row."""

    def _plans(self, stage="ge2bnd", network="alpha-beta"):
        return [
            SvdPlan(m=1280, n=1024, tile_size=128, stage=stage,
                    tree=tree, policy=pol, network=network)
            for tree in ("greedy", "flattt")
            for pol in ("list", "critical-path", "random")
        ]

    @pytest.mark.parametrize("stage", ["ge2bnd", "ge2val"])
    def test_matches_execute(self, stage):
        resolved = [resolve(p) for p in self._plans(stage=stage)]
        outcomes = simulate_resolved_batch(resolved, objective="makespan",
                                           prune=False)
        for rp, outcome in zip(resolved, outcomes):
            assert outcome.error is None
            ref = execute(rp, "simulate")
            row = _simulate_run_result(rp, outcome.result).to_row()
            assert row == ref.to_row()  # every column, bitwise
            assert outcome.score == ref.time_seconds

    @pytest.mark.parametrize("objective", ["makespan", "gflops"])
    def test_pruned_winner_matches_exhaustive(self, objective):
        sign = -1.0 if objective == "gflops" else 1.0
        resolved = [resolve(p) for p in self._plans()]
        full = simulate_resolved_batch(resolved, objective=objective,
                                       prune=False)
        pruned = simulate_resolved_batch(resolved, objective=objective,
                                         prune=True)
        assert all(o.score is not None for o in full)

        def best(outs):
            costs = [
                sign * o.score if o.score is not None else float("inf")
                for o in outs
            ]
            return min(range(len(outs)), key=lambda i: (costs[i], i))

        i_full, i_pruned = best(full), best(pruned)
        assert i_full == i_pruned
        assert full[i_full].score == pruned[i_pruned].score
        for o_full, o_pruned in zip(full, pruned):
            if not o_pruned.pruned:  # every survivor scored identically
                assert o_pruned.score == o_full.score

    def test_gesvd_stage_error_captured_per_plan(self):
        good = resolve(self._plans()[0])
        bad = resolve(SvdPlan(m=1280, n=1024, tile_size=128, stage="gesvd"))
        outcomes = simulate_resolved_batch([good, bad], objective="makespan")
        assert outcomes[0].error is None and outcomes[0].score is not None
        assert outcomes[1].error is not None and "gesvd" in outcomes[1].error
        assert isinstance(outcomes[1].exception, ValueError)

    def test_comm_time_objective_never_prunes(self):
        resolved = [resolve(p) for p in self._plans()]
        outcomes = simulate_resolved_batch(resolved, objective="comm-time",
                                           prune=True)
        assert all(not o.pruned and o.score is not None for o in outcomes)


class TestSweepBatchMode:
    """execute_sweep's batched path returns per-plan-identical rows."""

    def _plans(self):
        return SvdPlan(
            m=1280, n=1024, tile_size=128, stage="ge2bnd", network="alpha-beta"
        ).sweep(tree=["greedy", "flattt"], policy=["list", "random"])

    def test_rows_identical_to_per_plan(self):
        plans = self._plans()
        assert execute_sweep(plans) == execute_sweep(plans, batch=False)

    def test_tracing_sweep_falls_back_per_plan(self):
        plans = [p.with_(trace=True) for p in self._plans()]
        # Tracing requests the per-plan path; rows still agree.
        assert execute_sweep(plans) == execute_sweep(plans, batch=False)

    def test_non_simulate_backend_unaffected(self):
        rows = execute_sweep(self._plans()[:2], backend="dag")
        assert len(rows) == 2 and all(r["backend"] == "dag" for r in rows)


class TestHashSeedDeterminism:
    """Batched schedules and dense-rank orders are hash-seed independent."""

    SNIPPET = (
        "import sys; sys.path.insert(0, 'src')\n"
        "from repro.ir import compile_program\n"
        "from repro.runtime.batch import BatchCandidate, simulate_batch\n"
        "from repro.runtime.machine import Machine\n"
        "from repro.trees import GreedyTree\n"
        "program = compile_program('bidiag', 7, 5, GreedyTree())\n"
        "machine = Machine(n_nodes=4, cores_per_node=2, tile_size=100)\n"
        "candidates = [BatchCandidate(machine, policy=p, network=n)\n"
        "              for p in ('list', 'critical-path', 'locality')\n"
        "              for n in ('uniform', 'alpha-beta')]\n"
        "for sched in simulate_batch(program, candidates):\n"
        "    print(sched.makespan, sched.messages, sched.comm_bytes)\n"
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
    def test_batched_schedules_identical_across_hash_seeds(self):
        out = self._run("0")
        assert out == self._run("4242")
        assert len(out.strip().splitlines()) == 6
