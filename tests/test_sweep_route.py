"""One sweep route: ``execute_sweep`` runs every plan through ``execute``.

A sweep row is exactly that plan's ``execute(plan, backend).to_row()``.
An ambient tracer records one engine run per simulated plan, as it does
for a loop of single runs, and the first failing plan raises where that
loop would.
"""

import os
import subprocess
import sys
from dataclasses import replace

import pytest

from repro.api.execute import execute, execute_sweep
from repro.api.plan import SvdPlan
from repro.api.resolver import resolve
from repro.config import Config
from repro.ir import clear_program_cache
from repro.obs.clock import FakeClock
from repro.obs.tracer import Tracer
from repro.runtime.replay import PreparedReplay
from repro.verify import VerificationError, hooks


@pytest.fixture(autouse=True)
def _fresh_program_cache():
    clear_program_cache()
    yield
    clear_program_cache()


#: 800² on 100-wide tiles, 2 nodes × 2 cores.
BASE = SvdPlan(m=800, n=800, tile_size=100, stage="ge2bnd", n_nodes=2, n_cores=2)
POLICIES = ("list", "fifo", "locality")


def _policy_plans():
    return [BASE.with_(policy=policy) for policy in POLICIES]


def _per_plan_rows(plans, backend="simulate"):
    return [execute(plan, backend).to_row() for plan in plans]


class TestSweepRoute:
    @pytest.mark.parametrize("stage", ["ge2bnd", "ge2val"])
    def test_rows_equal_per_plan_execute(self, stage):
        plans = SvdPlan(
            m=1280, n=1024, tile_size=128, stage=stage, network="alpha-beta"
        ).sweep(tree=["greedy", "flattt"], policy=["list", "random"])
        plans.append(BASE.with_(stage=stage, scenario="straggler", draws=4, seed=7))
        rows = execute_sweep(plans)
        assert rows == _per_plan_rows(plans)  # every column, bitwise
        assert rows[-1]["scenario"] == "straggler" and "mc_p95" in rows[-1]

    def test_resolved_plans_sweep_like_plans(self):
        plans = _policy_plans()
        assert execute_sweep([resolve(p) for p in plans]) == execute_sweep(plans)

    def test_machines_sharing_a_program_keep_their_own_tables(self):
        # Three inner blocks price the same program three ways; warm
        # memo tables shared across the sweep must give each plan the
        # rows a cold run gives it.
        plans = SvdPlan(
            m=9 * 160, n=7 * 160, tile_size=160, stage="ge2bnd", n_cores=8
        ).sweep(
            config=[Config(tile_size=160, inner_block=ib) for ib in (32, 40, 64)],
            policy=["list", "critical-path"],
        )
        rows = execute_sweep(plans)
        cold = []
        for plan in plans:
            clear_program_cache()
            cold.append(execute(plan, "simulate").to_row())
        assert rows == cold
        assert len({row["time_seconds"] for row in rows}) > 1

    def test_verify_hook_checks_every_plan(self, monkeypatch):
        monkeypatch.setenv(hooks.ENV_VAR, "1")
        plans = [
            BASE.with_(policy=policy, network=network)
            for policy in ("list", "locality")
            for network in ("uniform", "alpha-beta")
        ]
        assert execute_sweep(plans) == _per_plan_rows(plans)
        real = PreparedReplay.run

        def corrupt(self, *rows):
            schedule = real(self, *rows)
            return replace(schedule, makespan=schedule.makespan * 2.0)

        monkeypatch.setattr(PreparedReplay, "run", corrupt)
        with pytest.raises(VerificationError, match="S-MAKESPAN"):
            execute_sweep(plans)

    def test_non_simulate_backend(self):
        plans = _policy_plans()[:2]
        rows = execute_sweep(plans, backend="dag")
        assert [row["backend"] for row in rows] == ["dag", "dag"]
        assert rows == _per_plan_rows(plans, "dag")


class TestTracedSweep:
    """The sweep is traced exactly like a loop of single runs."""

    def test_records_one_run_per_plan(self):
        plans = _policy_plans()
        swept, looped = Tracer(clock=FakeClock()), Tracer(clock=FakeClock())
        with swept.activate():
            execute_sweep(plans)
        with looped.activate():
            _per_plan_rows(plans)
        assert [run.policy for run in swept.runs] == list(POLICIES)
        assert len(swept.runs) == len(looped.runs)
        for a, b in zip(swept.runs, looped.runs):
            assert (a.policy, a.network, a.makespan) == (b.policy, b.network, b.makespan)
            assert a.start == b.start and a.finish == b.finish

    def test_traced_rows_equal_untraced_and_per_plan(self):
        plans = _policy_plans() + [
            BASE.with_(scenario="straggler", draws=4, seed=7, policy="fifo")
        ]
        untraced = execute_sweep(plans)
        tracer = Tracer(clock=FakeClock())
        with tracer.activate():
            traced = execute_sweep(plans)
        assert traced == untraced == _per_plan_rows(plans)
        # A scenario records its nominal replay, not its draws.
        assert [run.policy for run in tracer.runs] == [p.policy for p in plans]

    def test_gesvd_plan_raises_at_its_position(self):
        plans = _policy_plans()
        bad = BASE.with_(stage="gesvd")
        plans.insert(1, bad)
        with pytest.raises(ValueError) as untraced:
            execute_sweep(plans)
        tracer = Tracer(clock=FakeClock())
        with tracer.activate(), pytest.raises(ValueError) as traced:
            execute_sweep(plans)
        with pytest.raises(ValueError) as single:
            execute(bad, "simulate")
        assert "gesvd" in str(single.value)
        assert str(traced.value) == str(untraced.value) == str(single.value)
        # The plan before it ran; the plans after it did not.
        assert [run.policy for run in tracer.runs] == ["list"]


class TestHashSeedDeterminism:
    """Sweep rows, column order included, do not depend on PYTHONHASHSEED."""

    SNIPPET = (
        "import json, sys; sys.path.insert(0, 'src')\n"
        "from repro.api import SvdPlan, execute_sweep\n"
        "base = SvdPlan(m=700, n=500, tile_size=100, stage='ge2val',\n"
        "               n_nodes=4, n_cores=2, seed=5)\n"
        "plans = base.sweep(policy=['list', 'critical-path', 'locality'],\n"
        "                   network=['uniform', 'alpha-beta'])\n"
        "plans.append(base.with_(scenario='straggler', draws=4))\n"
        "for row in execute_sweep(plans):\n"
        "    print(json.dumps(row))\n"
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
    def test_rows_identical_across_hash_seeds(self):
        out = self._run("0")
        assert out == self._run("4242")
        assert len(out.strip().splitlines()) == 7
