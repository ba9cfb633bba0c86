"""Statistical validation of the Monte-Carlo scenario machinery (@mc).

The centerpiece is a hand-computable scenario: two independent equal-cost
tasks pinned to two single-core nodes, under straggler faults with
``prob=1`` and scale ``theta``.  Every draw's makespan is then exactly

    M = d * (1 + max(E0, E1)),   E_i ~ iid Exponential(theta),

whose CDF, quantiles and mean have closed forms:

    P(max <= x) = (1 - exp(-x/theta))^2
    x_q         = -theta * ln(1 - sqrt(q))
    E[max]      = theta * (1 + 1/2)

so the empirical ``MakespanDistribution`` can be checked against theory
with asymptotic standard errors (quantile SE = sqrt(q(1-q)/n) / f(x_q)).
A KS test checks the straggler excess against its configured exponential,
and a fail-stop moment check validates the geometric retry model.

These tests run hundreds of (tiny) engine replays; they are marked both
``mc`` and ``slow`` so the fast CI matrix skips them and the coverage job
still exercises them.
"""

import math

import numpy as np
import pytest

from repro.ir.program import Op, Program
from repro.kernels.costs import KERNEL_WEIGHTS, KernelName
from repro.runtime.faults import FailStopFaults, StragglerFaults
from repro.runtime.machine import Machine
from repro.runtime.scenario import Scenario, run_scenario
from repro.tiles.distribution import BlockCyclicDistribution, ProcessGrid

stats = pytest.importorskip("scipy.stats")

pytestmark = [pytest.mark.mc, pytest.mark.slow]

THETA = 0.5
N_DRAWS = 512
SEED = 2026


def _two_task_program() -> Program:
    """Two independent GEQRT ops writing disjoint tiles (no edges)."""
    ops = [
        Op(index=i, kernel=KernelName.GEQRT, params=(i,),
           reads=frozenset(), writes=frozenset({("upper", i, 0)}),
           weight=KERNEL_WEIGHTS[KernelName.GEQRT], owner_tile=(i, 0),
           step="qr")
        for i in range(2)
    ]
    program = Program.from_ops(ops)
    assert program.n_edges == 0
    return program


@pytest.fixture(scope="module")
def mc_run():
    """One 512-draw scenario run of the two-task program, shared by the
    quantile / mean / KS assertions below."""
    program = _two_task_program()
    machine = Machine(n_nodes=2, cores_per_node=1, tile_size=100)
    scenario = Scenario(
        name="always-straggle",
        faults=StragglerFaults(prob=1.0, scale=THETA),
    )
    # A 2x1 grid puts owner tiles (0, 0) and (1, 0) on nodes 0 and 1 (the
    # default 2-node grid is 1x2 and would put both on node 0).
    run = run_scenario(
        program, machine, scenario, BlockCyclicDistribution(ProcessGrid(2, 1)),
        draws=N_DRAWS, seed=SEED,
    )
    d = run.schedule.makespan  # nominal: both tasks cost d, in parallel
    return d, run.distribution


def _max_exp_quantile(q: float) -> float:
    """Quantile of max of two iid Exponential(THETA)."""
    return -THETA * math.log(1.0 - math.sqrt(q))


def _max_exp_pdf(x: float) -> float:
    """Density of max of two iid Exponential(THETA)."""
    return (2.0 / THETA) * (1.0 - math.exp(-x / THETA)) * math.exp(-x / THETA)


def _quantile_tolerance(q: float) -> float:
    """4 asymptotic standard errors of the empirical q-quantile."""
    return 4.0 * math.sqrt(q * (1.0 - q) / N_DRAWS) / _max_exp_pdf(
        _max_exp_quantile(q)
    )


class TestClosedFormMakespan:
    def test_every_draw_is_nominal_times_a_factor_above_one(self, mc_run):
        d, dist = mc_run
        assert dist.n_draws == N_DRAWS
        assert dist.min >= d  # factors >= 1: no draw beats the nominal
        assert d > 0

    def test_p95_matches_closed_form(self, mc_run):
        d, dist = mc_run
        theory = d * (1.0 + _max_exp_quantile(0.95))
        assert abs(dist.p95 - theory) <= d * _quantile_tolerance(0.95)

    def test_p50_matches_closed_form(self, mc_run):
        d, dist = mc_run
        theory = d * (1.0 + _max_exp_quantile(0.5))
        assert abs(dist.p50 - theory) <= d * _quantile_tolerance(0.5)

    def test_mean_matches_closed_form_within_ci(self, mc_run):
        d, dist = mc_run
        # E[max of two iid Exp(theta)] = theta * (1 + 1/2); the 95% CI the
        # distribution reports is on the mean, so theory must land in a
        # (slightly widened, 4-SE) version of it.
        theory = d * (1.0 + 1.5 * THETA)
        half = (dist.ci95_high - dist.ci95_low) / 2.0  # 1.96 SE
        assert abs(dist.mean - theory) <= half * (4.0 / 1.96)

    def test_draws_match_max_exponential_cdf(self, mc_run):
        # KS of the realized makespans against the closed-form CDF of
        # d * (1 + max(E0, E1)) — the full engine path, not just the model.
        d, dist = mc_run
        excess = (np.asarray(dist.makespans) / d) - 1.0
        cdf = lambda x: (1.0 - np.exp(-np.maximum(x, 0.0) / THETA)) ** 2
        result = stats.kstest(excess, cdf)
        assert result.pvalue > 0.01, result


class TestModelDistributions:
    def test_straggler_excess_is_exponential(self):
        # KS-style check straight at the model: with prob=1 every op
        # straggles and factor - 1 ~ Exponential(scale).
        rng = np.random.default_rng(5)
        factors, events = StragglerFaults(prob=1.0, scale=THETA).sample(
            rng, 64, 64
        )
        assert (events == 64).all()
        excess = (factors - 1.0).ravel()
        result = stats.kstest(excess, "expon", args=(0.0, THETA))
        assert result.pvalue > 0.01, result

    def test_straggler_event_rate(self):
        rng = np.random.default_rng(6)
        prob = 0.2
        factors, events = StragglerFaults(prob=prob, scale=1.0).sample(
            rng, 128, 128
        )
        n = factors.size
        rate = events.sum() / n
        se = math.sqrt(prob * (1.0 - prob) / n)
        assert abs(rate - prob) <= 4.0 * se

    def test_fail_stop_mean_factor_matches_geometric(self):
        # failures/op ~ Geometric: mean p/(1-p), so E[factor] with
        # rework r is 1 + r * p/(1-p); variance is r^2 * p/(1-p)^2.
        rng = np.random.default_rng(7)
        prob, rework = 0.2, 0.5
        factors, _ = FailStopFaults(prob=prob, rework=rework).sample(
            rng, 128, 128
        )
        n = factors.size
        mean_theory = 1.0 + rework * prob / (1.0 - prob)
        sd_theory = rework * math.sqrt(prob) / (1.0 - prob)
        se = sd_theory / math.sqrt(n)
        assert abs(factors.mean() - mean_theory) <= 4.0 * se
