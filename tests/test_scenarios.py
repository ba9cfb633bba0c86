"""Tests for the machine-realism scenario subsystem (repro.runtime.scenario).

Covers the fault/noise models, the scenario registry and its validation,
heterogeneous Machine slowdowns, the MakespanDistribution summary, the
golden-pinned default simulate path (the zero-scenario route must stay
bit-identical across policies, networks and engine paths), scenario
execution through the plan API and through sweeps, robust-makespan
tuning reproducibility, the CLI surface, and — under ``@slow`` — seeded
determinism across PYTHONHASHSEED / engine-path subprocesses.
"""

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.api import SvdPlan, execute, execute_sweep, resolve
from repro.obs.metrics import REGISTRY
from repro.runtime.engine import SimulationEngine
from repro.runtime.faults import (
    FailStopFaults,
    LinkJitterNoise,
    NoFaults,
    StragglerFaults,
    fail_stop_factors,
    get_fault_model,
    get_noise_model,
)
from repro.runtime.machine import Machine
from repro.runtime.scenario import (
    SCENARIOS,
    MakespanDistribution,
    Scenario,
    available_scenarios,
    get_scenario,
    run_scenario,
)
from repro.runtime.replay import PreparedReplay
from repro.runtime.simulator import simulate


# --------------------------------------------------------------------------- #
# Fault and noise models
# --------------------------------------------------------------------------- #
class TestFaultModels:
    def test_fail_stop_factors_closed_form(self):
        counts = np.array([0, 1, 2, 5])
        np.testing.assert_array_equal(
            fail_stop_factors(counts, 1.0), [1.0, 2.0, 3.0, 6.0]
        )
        np.testing.assert_array_equal(
            fail_stop_factors(counts, 0.5), [1.0, 1.5, 2.0, 3.5]
        )

    def test_fail_stop_validation(self):
        with pytest.raises(ValueError, match="must be < 1"):
            FailStopFaults(prob=1.0)
        with pytest.raises(ValueError, match="in \\[0, 1\\]"):
            FailStopFaults(prob=-0.1)
        with pytest.raises(ValueError, match="positive finite"):
            FailStopFaults(prob=0.1, rework=0.0)

    def test_straggler_validation(self):
        with pytest.raises(ValueError, match="in \\[0, 1\\]"):
            StragglerFaults(prob=1.5)
        with pytest.raises(ValueError, match="positive finite"):
            StragglerFaults(prob=0.5, scale=-1.0)
        # prob=1 is legal for stragglers (every op straggles).
        assert not StragglerFaults(prob=1.0).deterministic

    def test_sample_shapes_and_floor(self):
        rng = np.random.default_rng(0)
        for model in (FailStopFaults(prob=0.2), StragglerFaults(prob=0.3)):
            factors, events = model.sample(rng, 7, 13)
            assert factors.shape == (7, 13)
            assert events.shape == (7,)
            assert (factors >= 1.0).all()
            assert (events >= 0).all()

    def test_zero_probability_is_deterministic_identity(self):
        rng = np.random.default_rng(0)
        for model in (FailStopFaults(prob=0.0), StragglerFaults(prob=0.0)):
            assert model.deterministic
            factors, events = model.sample(rng, 3, 5)
            assert (factors == 1.0).all()
            assert (events == 0).all()

    def test_noise_floor_and_validation(self):
        rng = np.random.default_rng(1)
        factors = LinkJitterNoise(sigma=0.5).sample(rng, 4, 9)
        assert factors.shape == (4, 9)
        assert (factors >= 1.0).all()
        with pytest.raises(ValueError):
            LinkJitterNoise(sigma=-0.5)

    def test_registry_coercion(self):
        assert isinstance(get_fault_model("none"), NoFaults)
        model = get_fault_model("fail-stop", prob=0.1)
        assert model.prob == 0.1
        assert get_fault_model(model) is model
        with pytest.raises(ValueError, match="unknown"):
            get_fault_model("meteor-strike")
        with pytest.raises(ValueError):
            get_fault_model(model, prob=0.2)  # kwargs with an instance
        assert get_noise_model("link-jitter", sigma=0.1).sigma == 0.1


# --------------------------------------------------------------------------- #
# Scenario registry and validation
# --------------------------------------------------------------------------- #
class TestScenarioRegistry:
    def test_registry_names_are_consistent(self):
        for name, scenario in SCENARIOS.items():
            assert scenario.name == name
        assert SCENARIOS["none"].is_trivial
        assert SCENARIOS["hetero"].heterogeneous
        assert not SCENARIOS["hetero"].stochastic
        assert SCENARIOS["straggler"].stochastic
        assert SCENARIOS["hostile"].heterogeneous
        assert SCENARIOS["hostile"].stochastic

    def test_available_scenarios_sorted_pairs(self):
        listing = available_scenarios()
        assert [name for name, _ in listing] == sorted(SCENARIOS)
        assert all(desc for _, desc in listing)

    def test_get_scenario_coercion(self):
        assert get_scenario(None) is None
        assert get_scenario("HETERO ") is SCENARIOS["hetero"]
        scen = Scenario(name="custom", node_slowdowns=(1.0, 2.0))
        assert get_scenario(scen) is scen
        with pytest.raises(ValueError, match="unknown scenario"):
            get_scenario("perfect-machine")

    def test_validation_rejects_speedups_and_bad_draws(self):
        with pytest.raises(ValueError, match=">= 1.0"):
            Scenario(name="bad", node_slowdowns=(0.5,))
        with pytest.raises(ValueError, match=">= 1.0"):
            Scenario(name="bad", core_slowdowns=(1.0, float("inf")))
        with pytest.raises(ValueError, match="draws"):
            Scenario(name="bad", draws=0)

    def test_fingerprint_distinguishes_configurations(self):
        a = Scenario(name="x", faults=FailStopFaults(prob=0.1))
        b = Scenario(name="x", faults=FailStopFaults(prob=0.2))
        c = Scenario(name="x", node_slowdowns=(1.0, 1.5))
        assert len({a.fingerprint(), b.fingerprint(), c.fingerprint()}) == 3

    def test_apply_to_machine(self):
        machine = Machine(n_nodes=4, cores_per_node=2, tile_size=100)
        # Homogeneous scenarios hand back the very same object (memo keys).
        assert SCENARIOS["none"].apply_to_machine(machine) is machine
        assert SCENARIOS["straggler"].apply_to_machine(machine) is machine
        het = SCENARIOS["hetero"].apply_to_machine(machine)
        assert het.node_slowdowns == (1.0, 1.25, 1.0, 1.25)  # block-cyclic
        assert het.core_slowdowns is None
        assert het.heterogeneous


class TestMachineSlowdowns:
    def test_validation(self):
        with pytest.raises(ValueError, match="node_slowdowns"):
            Machine(n_nodes=2, cores_per_node=2, tile_size=100,
                    node_slowdowns=(1.0,))
        with pytest.raises(ValueError):
            Machine(n_nodes=2, cores_per_node=2, tile_size=100,
                    node_slowdowns=(1.0, 0.5))
        with pytest.raises(ValueError, match="core_slowdowns"):
            Machine(n_nodes=1, cores_per_node=4, tile_size=100,
                    core_slowdowns=(1.0, 1.0))

    def test_heterogeneous_property_and_factors(self):
        nominal = Machine(n_nodes=2, cores_per_node=2, tile_size=100)
        assert not nominal.heterogeneous
        assert nominal.node_factors() is None
        all_ones = Machine(n_nodes=2, cores_per_node=2, tile_size=100,
                           node_slowdowns=(1.0, 1.0))
        assert not all_ones.heterogeneous  # all-ones counts as homogeneous
        assert all_ones.node_factors() is None
        het = Machine(n_nodes=2, cores_per_node=2, tile_size=100,
                      node_slowdowns=(1.0, 1.5), core_slowdowns=(1.25, 1.0))
        assert het.heterogeneous
        assert het.node_factors() == (1.0, 1.5)
        assert het.core_factors() == (1.25, 1.0)


# --------------------------------------------------------------------------- #
# MakespanDistribution
# --------------------------------------------------------------------------- #
class TestMakespanDistribution:
    def test_summary_statistics_match_numpy(self):
        rng = np.random.default_rng(7)
        draws = rng.exponential(2.0, size=200) + 1.0
        dist = MakespanDistribution.from_makespans(draws, seed=7)
        assert dist.n_draws == 200 and dist.seed == 7
        assert dist.mean == pytest.approx(float(draws.mean()))
        assert dist.std == pytest.approx(float(draws.std(ddof=1)))
        assert dist.p50 == pytest.approx(float(np.quantile(draws, 0.5)))
        assert dist.p95 == pytest.approx(float(np.quantile(draws, 0.95)))
        assert dist.min == float(draws.min()) and dist.max == float(draws.max())
        half = 1.96 * dist.std / np.sqrt(200)
        assert dist.ci95_low == pytest.approx(dist.mean - half)
        assert dist.ci95_high == pytest.approx(dist.mean + half)
        assert dist.quantile(0.25) == pytest.approx(float(np.quantile(draws, 0.25)))

    def test_shifted_moves_locations_not_spread(self):
        dist = MakespanDistribution.from_makespans([1.0, 2.0, 3.0], seed=0)
        moved = dist.shifted(10.0)
        assert moved.mean == pytest.approx(dist.mean + 10.0)
        assert moved.p95 == pytest.approx(dist.p95 + 10.0)
        assert moved.std == dist.std
        assert moved.makespans == tuple(m + 10.0 for m in dist.makespans)

    def test_to_row_schema(self):
        dist = MakespanDistribution.from_makespans([1.0, 2.0], seed=3)
        assert sorted(dist.to_row()) == [
            "mc_draws", "mc_mean", "mc_p50", "mc_p95", "mc_std",
        ]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            MakespanDistribution.from_makespans([], seed=0)


# --------------------------------------------------------------------------- #
# Golden pin: the default (no scenario) path must not move
# --------------------------------------------------------------------------- #
#: float.hex() makespans of the 300x200 GE2BND pin plan (2 nodes x 2
#: cores, nb=100) pinned at the introduction of the scenario subsystem.  Any drift
#: here means the zero-scenario fast path changed bitwise — that is a
#: regression, not a tolerance issue.
GOLDEN_MAKESPANS = {
    ("critical-path", "uniform"): "0x1.18791d1c58fe6p-10",
    ("critical-path", "alpha-beta"): "0x1.20ed2349df833p-10",
    ("fifo", "uniform"): "0x1.18791d1c58fe6p-10",
    ("fifo", "alpha-beta"): "0x1.20ed2349df833p-10",
    ("list", "uniform"): "0x1.18791d1c58fe6p-10",
    ("list", "alpha-beta"): "0x1.1cedf6e309517p-10",
    ("locality", "uniform"): "0x1.18791d1c58fe6p-10",
    ("locality", "alpha-beta"): "0x1.1cedf6e309517p-10",
    ("random", "uniform"): "0x1.3a72168675a53p-10",
    ("random", "alpha-beta"): "0x1.3a93a475b7111p-10",
    ("weight", "uniform"): "0x1.3672ea1f9f737p-10",
    ("weight", "alpha-beta"): "0x1.3ee6f04d25f85p-10",
}


def _pin_machine() -> Machine:
    return Machine(n_nodes=2, cores_per_node=2, tile_size=100)


def _pin_plan(m=300, n=200, **fields) -> SvdPlan:
    """A GE2BND plan on the pin machine (AUTO tree, BIDIAG)."""
    fields = {"stage": "ge2bnd", "variant": "bidiag", "tree": "auto",
              "tile_size": 100, "n_cores": 2, "n_nodes": 2, **fields}
    return SvdPlan(m=m, n=n, **fields)


def _pin_run(m=300, n=200, **fields):
    """``execute`` of a pin plan on the simulate backend."""
    return execute(_pin_plan(m, n, **fields), backend="simulate")


#: sha256 digests of whole schedules (see :func:`_schedule_digest`), pinned
#: before the engine, batch and scenario loops were folded into one replay
#: kernel.  Keys are (case, policy, network).  ``2x2`` is the 300x200 pin
#: plan; the other cases replay
#: 600x400: ``1x4`` on one 4-core node, ``hetero`` / ``slow-core`` the
#: nominal scenario replays, ``straggler[0]`` / ``noisy-net[0]`` the first
#: Monte-Carlo draw at seed 0.
GOLDEN_SCHEDULES = {
    ('2x2', 'critical-path', 'uniform'): '0135b465a71a7a9c661924045feee8d7692ff2ffab7da51dd03ef5aa7f3ad3cb',
    ('2x2', 'critical-path', 'alpha-beta'): '07d0e4357c3a7c8404f489cd0362de66dadccd8277eb0af572ef9b0e9ca06962',
    ('2x2', 'fifo', 'uniform'): '0135b465a71a7a9c661924045feee8d7692ff2ffab7da51dd03ef5aa7f3ad3cb',
    ('2x2', 'fifo', 'alpha-beta'): '07d0e4357c3a7c8404f489cd0362de66dadccd8277eb0af572ef9b0e9ca06962',
    ('2x2', 'list', 'uniform'): '359f2416c03d75c9de4404e124e4fd831614feeef1d12701e8c25183d1c73f94',
    ('2x2', 'list', 'alpha-beta'): 'f78df7239ad491ef591396d686dc6aead3884e8f900b944ad2260c55d9f58a48',
    ('2x2', 'locality', 'uniform'): '359f2416c03d75c9de4404e124e4fd831614feeef1d12701e8c25183d1c73f94',
    ('2x2', 'locality', 'alpha-beta'): 'f78df7239ad491ef591396d686dc6aead3884e8f900b944ad2260c55d9f58a48',
    ('2x2', 'random', 'uniform'): '2170cc8756844b52371337410dfaae556d1e34f07ba4428da77ba3da0d357d5d',
    ('2x2', 'random', 'alpha-beta'): '394880229f8dd98eae25fe8fd20566aafd278fda50d6de7dc956b9a1f14401b5',
    ('2x2', 'weight', 'uniform'): 'b7e2a9cee008b66616bf4e224e7f512e588b33953d027fac2c5a6f0d01d9a8dd',
    ('2x2', 'weight', 'alpha-beta'): 'f6f6842b31b70d498d2543081b14e220025926e69432efb0b2c34f3acd0de77a',
    ('1x4', 'critical-path', 'uniform'): '0b51656747fc78fb4c48fe85aa6d3fbe50ca180bae731f2f377def2b5b6e803d',
    ('1x4', 'fifo', 'uniform'): '390bd53c0c8e8b4db4d7c525d7b3dd62172e2faf228dc7b5a623c2e2e39ad28b',
    ('1x4', 'list', 'uniform'): '9eff4442a0e1f7942972e01990e560c7fd1077eae99d39cc892c33a324885727',
    ('1x4', 'locality', 'uniform'): '9eff4442a0e1f7942972e01990e560c7fd1077eae99d39cc892c33a324885727',
    ('1x4', 'random', 'uniform'): '830ef161ab5d4501196d3cd7ae332360e132d20146e5fdc83f6823384354072f',
    ('1x4', 'weight', 'uniform'): '5f6bb1fb03b46eb16a072a0da3a008147cffe8a2984772c44820897b5dc4c833',
    ('hetero', 'list', 'uniform'): '4b190d232273dc258436dca47c1e1952168dd8e7f20e397215628ecf1521991e',
    ('hetero', 'list', 'alpha-beta'): 'b7d71b8bb39a3095f38535ab2b1303499b0d6a8b48b82ae926930b50259eac4e',
    ('slow-core', 'list', 'uniform'): '09c508625a78617967d10229d0dba1507e3372321f3a0d99e0d6e923a1781690',
    ('slow-core', 'list', 'alpha-beta'): 'bc2c31efdd9461e92fcfc48a432fd5026bc153fa70e02eb3fa56d210e5bc6b75',
    ('straggler[0]', 'list', 'uniform'): 'f0be7f91e38498801c2bc4c122c0f653093acb09d00e7b0d39c5c01e5b1df225',
    ('straggler[0]', 'list', 'alpha-beta'): 'a0e361486895a1e6bdb88477117f52dbbb74da34ec39a369b7840d49bec6950d',
    ('noisy-net[0]', 'list', 'uniform'): '724d43eed3eb7a9659d47ca40aafa3a47108134ed503290eded7442a8a97eb2b',
    ('noisy-net[0]', 'list', 'alpha-beta'): 'a5400d47ed13c2680330149071b8e470e2e65df7cdfd55e5a6401959b722eaa7',
}


def _schedule_digest(schedule) -> str:
    """sha256 over float.hex of the times plus every per-node/per-op list."""
    parts = [
        schedule.makespan.hex(),
        " ".join(x.hex() for x in schedule.start),
        " ".join(x.hex() for x in schedule.finish),
        " ".join(map(str, schedule.node_of_task)),
        " ".join(map(str, schedule.core_of_task)),
        " ".join(x.hex() for x in schedule.busy_time_per_node),
        " ".join(x.hex() for x in schedule.comm_time_per_node),
        " ".join(map(str, schedule.messages_per_node)),
        str(schedule.messages),
        str(schedule.comm_bytes),
    ]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def _first_draw(scenario_name, network):
    """The first seed-0 Monte-Carlo draw's schedule, replayed directly."""
    machine = _pin_machine()
    scenario = SCENARIOS[scenario_name]
    resolved = resolve(_pin_plan(600, 400))
    program = resolved.program()
    engine = SimulationEngine(scenario.apply_to_machine(machine),
                              resolved.distribution, network=network)
    rng = np.random.default_rng(0)
    faults, _ = scenario.faults.sample(rng, 4, len(program))
    noise = scenario.noise.sample(rng, 4, len(program))
    schedule = PreparedReplay(engine, program).run(
        None if scenario.faults.deterministic else faults[0],
        None if scenario.noise.deterministic else noise[0],
    )
    # The same draw as run_scenario's first Monte-Carlo makespan.
    run = run_scenario(program, machine, scenario, resolved.distribution,
                       network=network, draws=4, seed=0)
    assert run.distribution.makespans[0] == schedule.makespan
    return schedule


def _golden_schedule(case, policy, network):
    if case == "2x2":
        plan = _pin_plan(policy=policy, network=network)
    elif case == "1x4":
        plan = _pin_plan(600, 400, n_nodes=1, n_cores=4, policy=policy)
    elif case.endswith("[0]"):
        return _first_draw(case[:-3], network)
    else:
        plan = _pin_plan(600, 400, network=network, scenario=case)
    return simulate(resolve(plan)).schedule


class TestGoldenPinnedDefaultPath:
    @pytest.mark.parametrize("policy,network", sorted(GOLDEN_MAKESPANS))
    def test_default_path_is_bit_identical(self, policy, network):
        result = simulate(resolve(_pin_plan(policy=policy, network=network)))
        assert result.time_seconds.hex() == GOLDEN_MAKESPANS[(policy, network)]

    @pytest.mark.parametrize("policy,network", sorted(GOLDEN_MAKESPANS))
    def test_legacy_engine_path_matches_pin(self, policy, network):
        # The object-path reference scheduler shares no code with the
        # replay kernel, so it pins the same bits independently.
        from repro.verify.reference import reference_schedule

        resolved = resolve(_pin_plan())
        schedule = reference_schedule(resolved.program(), _pin_machine(),
                                      resolved.distribution, policy=policy,
                                      network=network)
        assert schedule.makespan.hex() == GOLDEN_MAKESPANS[(policy, network)]

    @pytest.mark.parametrize("case,policy,network", list(GOLDEN_SCHEDULES))
    def test_full_schedule_is_bit_identical(self, case, policy, network):
        schedule = _golden_schedule(case, policy, network)
        assert _schedule_digest(schedule) == GOLDEN_SCHEDULES[
            (case, policy, network)
        ]

    def test_trivial_scenario_is_bit_identical_to_default(self):
        plain = _pin_run()
        via_none = _pin_run(scenario="none")
        assert via_none.time_seconds.hex() == plain.time_seconds.hex()
        assert via_none.scenario == "none"
        assert via_none.distribution is None
        assert plain.scenario is None

    @pytest.mark.parametrize("policy", sorted(p for p, _ in GOLDEN_MAKESPANS))
    def test_replayer_nominal_replay_matches_engine(self, policy):
        # All-ones factor rows must reproduce the nominal replay — and the
        # object-path reference — bit for bit on every policy: this is
        # what makes the Monte-Carlo mode trustworthy.
        from repro.ir.compiler import get_program
        from repro.trees import GreedyTree
        from repro.verify.reference import reference_schedule

        machine = _pin_machine()
        engine = SimulationEngine(machine, policy=policy, network="alpha-beta")
        program = get_program("bidiag", 3, 2, GreedyTree(),
                              n_cores=machine.cores_per_node, grid_rows=2)
        ones = np.ones(len(program))
        replayed = PreparedReplay(engine, program).run(ones, ones)
        assert replayed == engine.run(program)
        assert replayed == reference_schedule(
            program, machine, policy=policy, network="alpha-beta"
        )


#: sha256 digests (see :func:`_schedule_digest`) of one perturbed replay per
#: (layout, policy): a p=q=6 GREEDY bidiag program replayed with lognormal
#: (sigma 0.3) duration and noise rows drawn from ``default_rng(case
#: index)``.  ``1x4`` is one 4-core node; ``2x2-*`` a 2x2 grid of 2-core
#: nodes under either network; ``custom-placement`` overrides the owner
#: vector (the uncached order path).  Pinned before the replay walked a
#: precomputed dispatch order, so a wrong structural order under any policy
#: shows here, not only at nominal durations.
GOLDEN_PERTURBED = {
    ('1x4', 'critical-path'): '4ddf9b249414f6686f6a56a734ee9423ef2734c067b2c5df3a7a3c0debf63fac',
    ('1x4', 'fifo'): '6c87f655521ce41ed1cb1977c8f03d52c3a8300be8fb6b129aedfd64b6cbe660',
    ('1x4', 'list'): '5742ba1977d7e7b09cfcc3811ff8d3ff379f3cb04ed2fe753d73326a5da24437',
    ('1x4', 'locality'): '48be61af9dc469caa13d28dfd7fe4569d907fddf2956672ef2b4c1a3648235bd',
    ('1x4', 'random'): '58ec17621a7a71c7be639510d570000af19041a67d9689f555632bf47abaec78',
    ('1x4', 'weight'): '397df72f827fd8f4a90ac69366e148323e52a14e49ddb7546b9525cfe5b93f7b',
    ('2x2-uniform', 'critical-path'): 'e247b8ca5a912bbcf96657f747e17ce762760a0df344a697f3f9f823d89fb43b',
    ('2x2-uniform', 'fifo'): 'bf24c6d3b1229ededc84863108eed670782ba35101848dcd9ad5f7c64fcff741',
    ('2x2-uniform', 'list'): '6e83d64105c9845f9e38e15f228345253cbf4dfc2e2a6b324fd2da55f4c34326',
    ('2x2-uniform', 'locality'): 'b862b366063e8fe01740ed3008eed16d117c8ec877c661b0cb4384cdca78a235',
    ('2x2-uniform', 'random'): '89273e03a2a425ef4bbb502dbc748895eceaa8f50c31b88bc02bc32b2a148668',
    ('2x2-uniform', 'weight'): 'c8da15fac7508f2bbc9137841b163d6c967678c17926cda353811e81f303097e',
    ('2x2-alpha-beta', 'critical-path'): '48f6ff49d3462ff54825ece2495b4ea9bab8d80d23b1e2e1d2e7e4196265a11d',
    ('2x2-alpha-beta', 'fifo'): 'c57bdf2f95d772feadf45c336345bf7ed73bad829ea508924b4e00ab83d0bf0d',
    ('2x2-alpha-beta', 'list'): '98120d61c69683c84ecd23866f5e6c6b8296b6bd9636d580e8a2c31639e26cec',
    ('2x2-alpha-beta', 'locality'): '3485a7e497dca60d1f0e4de684c2933cd67405046b27160826e17ab4ead2f533',
    ('2x2-alpha-beta', 'random'): 'c9f47e39e8775354a654381acef9a5e9e0394ee62bf3011351db6eb44b07526c',
    ('2x2-alpha-beta', 'weight'): '82b6f4a0a20602e9d4b382c3dd1d128cf4470dd21e013caccae33002cf7901fe',
    ('custom-placement', 'locality'): '86ce4c8d05745bb73024a5958a4c2fc7c0907d14b21d1e0d18a2e6428709a345',
}


def _perturbed_schedule(layout, policy):
    from repro.ir.compiler import get_program
    from repro.trees import GreedyTree

    program = get_program("bidiag", 6, 6, GreedyTree())
    n = len(program)
    node_of_op = None
    if layout == "1x4":
        machine = Machine(n_nodes=1, cores_per_node=4, tile_size=100)
        network = "uniform"
    else:
        machine = Machine(n_nodes=4, cores_per_node=2, tile_size=100)
        network = "uniform" if layout == "2x2-uniform" else "alpha-beta"
        if layout == "custom-placement":
            node_of_op = [(7 * op_id) % 4 for op_id in range(n)]
    engine = SimulationEngine(machine, policy=policy, network=network)
    rng = np.random.default_rng(list(GOLDEN_PERTURBED).index((layout, policy)))
    duration_row = rng.lognormal(0.0, 0.3, n)
    noise_row = rng.lognormal(0.0, 0.3, n)
    return PreparedReplay(engine, program, node_of_op=node_of_op).run(
        duration_row, noise_row
    )


class TestPerturbedDrawPins:
    @pytest.mark.parametrize("layout,policy", list(GOLDEN_PERTURBED))
    def test_perturbed_replay_is_bit_identical(self, layout, policy):
        schedule = _perturbed_schedule(layout, policy)
        assert _schedule_digest(schedule) == GOLDEN_PERTURBED[(layout, policy)]


# --------------------------------------------------------------------------- #
# Scenario execution through the simulator / plan API
# --------------------------------------------------------------------------- #
class TestScenarioExecution:
    def test_heterogeneity_slows_the_nominal_makespan(self):
        plain = _pin_run()
        het = _pin_run(scenario="hetero")
        assert het.scenario == "hetero"
        assert het.distribution is None  # deterministic scenario
        assert het.time_seconds > plain.time_seconds

    def test_stochastic_scenario_draws(self):
        result = _pin_run(scenario="straggler", draws=12, seed=4)
        dist = result.distribution
        assert dist is not None and dist.n_draws == 12 and dist.seed == 4
        assert len(dist.makespans) == 12
        # Every perturbation factor is >= 1, so no draw beats the nominal.
        assert dist.min >= result.time_seconds
        assert dist.p95 >= dist.p50 >= dist.p5

    def test_same_seed_identical_different_seed_distinct(self):
        a = _pin_run(scenario="straggler", draws=8, seed=11)
        b = _pin_run(scenario="straggler", draws=8, seed=11)
        c = _pin_run(scenario="straggler", draws=8, seed=12)
        assert a.distribution == b.distribution  # bitwise draw equality
        assert a.distribution != c.distribution

    def test_ge2val_shifts_distribution_by_post_processing(self):
        bnd = _pin_run(scenario="fail-stop", draws=6, seed=2)
        val = _pin_run(stage="ge2val", scenario="fail-stop", draws=6, seed=2)
        post = val.time_seconds - bnd.time_seconds
        assert post > 0
        assert val.distribution.mean == pytest.approx(bnd.distribution.mean + post)
        assert val.distribution.std == bnd.distribution.std

    def test_mc_metrics_counters(self):
        snap = REGISTRY.snapshot()
        _pin_run(scenario="straggler", draws=5, seed=0)
        delta = REGISTRY.delta_since(snap)
        assert delta.get("engine.mc.runs") == 1
        assert delta.get("engine.mc.draws") == 5

    def test_verified_scenario_run(self, monkeypatch):
        # REPRO_VERIFY=1 re-checks the nominal replay and one faulty draw
        # with realized durations; a finding would raise here.
        monkeypatch.setenv("REPRO_VERIFY", "1")
        result = _pin_run(scenario="hostile", draws=3, seed=1)
        assert result.distribution.n_draws == 3

    def test_simulate_calls_module_run_scenario(self, monkeypatch):
        # The scenario driver is looked up as a module global at call time,
        # so wrapping repro.runtime.simulator.run_scenario sees every call.
        import repro.runtime.simulator as simulator

        calls = []

        def spying_run_scenario(*args, **kwargs):
            calls.append(kwargs["draws"])
            return run_scenario(*args, **kwargs)

        monkeypatch.setattr(simulator, "run_scenario", spying_run_scenario)
        simulate(resolve(_pin_plan()))
        assert calls == []
        result = simulate(resolve(_pin_plan(scenario="straggler", draws=3, seed=4)))
        assert calls == [3]
        assert result.distribution.n_draws == 3

    def test_plan_coerces_scenario_and_validates_draws(self):
        plan = SvdPlan(m=300, n=200, stage="ge2bnd", tile_size=100,
                       n_cores=2, n_nodes=2, scenario="straggler", draws=4)
        assert isinstance(plan.scenario, Scenario)
        assert plan.describe()["scenario"] == "straggler"
        with pytest.raises(ValueError):
            SvdPlan(m=300, n=200, scenario="straggler", draws=0)
        with pytest.raises(ValueError, match="unknown scenario"):
            SvdPlan(m=300, n=200, scenario="perfect")

    def test_execute_row_schema_gated_on_scenario(self):
        base = SvdPlan(m=300, n=200, stage="ge2bnd", tile_size=100,
                       n_cores=2, n_nodes=2)
        plain_row = execute(base, backend="simulate").to_row()
        assert "scenario" not in plain_row
        assert "mc_p95" not in plain_row
        mc_row = execute(base.with_(scenario="straggler", draws=4),
                         backend="simulate").to_row()
        assert mc_row["scenario"] == "straggler"
        assert mc_row["mc_draws"] == 4
        assert mc_row["mc_p95"] >= mc_row["mc_p50"]


# --------------------------------------------------------------------------- #
# Sweeps and tuning
# --------------------------------------------------------------------------- #
class TestScenarioSweeps:
    def test_sweep_matches_per_plan_execute(self):
        base = SvdPlan(m=300, n=200, stage="ge2bnd", tile_size=100,
                       n_cores=2, n_nodes=2, draws=6, seed=9)
        plans = list(base.sweep(scenario=["none", "hetero", "straggler"]))
        rows = execute_sweep(plans, backend="simulate")
        singles = [execute(p, backend="simulate") for p in plans]
        for row, single in zip(rows, singles):
            assert row["time_seconds"] == single.time_seconds  # bitwise
            assert row.get("scenario") == single.scenario
            if single.distribution is not None:
                assert row["mc_p95"] == single.distribution.p95
                assert row["mc_mean"] == single.distribution.mean

    def test_robust_makespan_tuning_is_reproducible(self):
        from repro.tuning import SearchSpace, tune

        plan = SvdPlan(m=300, n=200, stage="ge2bnd", n_cores=2, n_nodes=2,
                       scenario="straggler", draws=6, seed=5)
        space = SearchSpace(tile_sizes=[50, 100], trees=["greedy"],
                            variants=["bidiag"])
        kwargs = dict(space=space, objective="robust-makespan", cache=False)
        first = tune(plan, **kwargs)
        second = tune(plan, **kwargs)
        assert first.best_score == second.best_score  # bitwise
        assert first.best_plan.tile_size == second.best_plan.tile_size
        # The winner's score is the p95 of its Monte-Carlo distribution.
        winner = execute(first.best_plan, backend="simulate")
        assert first.best_score == winner.distribution.p95

    def test_tune_cache_key_sees_scenario(self):
        from repro.tuning import GridSearch, SearchSpace, get_objective
        from repro.tuning.search import _tune_cache_key

        space = SearchSpace()
        obj = get_objective("makespan")
        grid = GridSearch()
        base = SvdPlan(m=300, n=200, stage="ge2bnd", n_cores=2, n_nodes=2)
        keys = {
            _tune_cache_key(base, space, obj, grid),
            _tune_cache_key(base.with_(scenario="straggler", draws=8),
                            space, obj, grid),
            _tune_cache_key(base.with_(scenario="straggler", draws=16),
                            space, obj, grid),
            _tune_cache_key(base.with_(scenario="straggler", draws=8, seed=1),
                            space, obj, grid),
            _tune_cache_key(base.with_(scenario="hetero"), space, obj, grid),
        }
        assert len(keys) == 5


# --------------------------------------------------------------------------- #
# CLI surface
# --------------------------------------------------------------------------- #
class TestScenarioCLI:
    def test_scenarios_listing(self, capsys):
        from repro.cli import main

        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIOS:
            assert name in out
        assert "fault models:" in out and "noise models:" in out

    def test_simulate_with_scenario(self, capsys):
        from repro.cli import main

        code = main(["simulate", "300", "200", "--nb", "100", "--nodes", "2",
                     "--cores", "2", "--scenario", "straggler",
                     "--draws", "4", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "scenario       : straggler" in out
        assert "mc makespan" in out and "4 draws, seed 1" in out

    def test_scenario_sweep_experiment(self):
        from repro.experiments.registry import run_experiment

        rows = run_experiment(
            "scenario-sweep", m=300, n=200, tile_size=100, n_cores=2,
            n_nodes=2, draws=4, scenarios=("none", "straggler"),
        )
        assert [r["scenario"] for r in rows] == ["none", "straggler"]
        assert "mc_p95" in rows[1] and "mc_p95" not in rows[0]


# --------------------------------------------------------------------------- #
# Seeded determinism across interpreter and engine paths (@slow)
# --------------------------------------------------------------------------- #
class TestSeededDeterminism:
    """The Monte-Carlo draws of a seed must be identical across
    PYTHONHASHSEED values."""

    SNIPPET = (
        "import sys; sys.path.insert(0, 'src')\n"
        "from repro.api import SvdPlan, resolve\n"
        "from repro.runtime.simulator import simulate\n"
        "plan = SvdPlan(m=300, n=200, stage='ge2bnd', variant='bidiag',\n"
        "               tree='auto', tile_size=100, n_cores=2, n_nodes=2,\n"
        "               scenario='hostile', draws=6, seed=13)\n"
        "r = simulate(resolve(plan))\n"
        "print(r.time_seconds.hex())\n"
        "print([m.hex() for m in r.distribution.makespans])\n"
    )

    def _run(self, *, hash_seed="0"):
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
    def test_draws_identical_across_hash_seeds(self):
        assert self._run(hash_seed="0") == self._run(hash_seed="4242")
