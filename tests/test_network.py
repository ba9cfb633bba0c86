"""Tests for the message-level network subsystem (:mod:`repro.runtime.network`).

Pins the contract of the network tentpole:

* ``network="uniform"`` is the legacy engine, bit for bit (golden pins on
  absolute makespans, equality with an engine built without a network
  argument, hash-seed subprocess determinism);
* the ``alpha-beta`` model counts exactly the same deduplicated messages
  as ``uniform`` and as the static analysis
  (:func:`repro.analysis.communication.engine_communication_check`) — only
  the simulated time per message differs;
* per-message mechanics: serialized NIC injection, payloads from the op's
  written tile halves (scaling with ``nb``), rendezvous handshake;
* the ``seen_transfers`` dedup audit: a tile re-produced by a *later op*
  is a new producer and re-triggers transfers (regression test);
* the knob reaches every layer: SvdPlan, execute rows, CLI, tuning
  objective, experiment registry.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.analysis.communication import (
    communication_volume,
    engine_communication_check,
)
from repro.cli import main
from repro.ir import clear_program_cache, get_program
from repro.ir.program import Op, Program
from repro.runtime.engine import SimulationEngine
from repro.runtime.machine import Machine
from repro.runtime.network import (
    NETWORK_MODELS,
    AlphaBetaNetwork,
    UniformNetwork,
    available_networks,
    get_network_model,
)
from repro.tiles.distribution import BlockCyclicDistribution, ProcessGrid
from repro.trees import FlatTSTree, FlatTTTree, GreedyTree
from repro.verify.reference import reference_schedule
from repro.kernels.costs import KernelName


@pytest.fixture(autouse=True)
def _fresh_program_cache():
    clear_program_cache()
    yield
    clear_program_cache()


#: (algorithm, p, q, tree, machine) configurations shared with the engine
#: tests (same shapes as tests/test_engine_policies.py).
CONFIGS = [
    ("bidiag", 8, 6, GreedyTree(), Machine(n_nodes=1, cores_per_node=8, tile_size=160)),
    ("bidiag", 10, 10, FlatTSTree(), Machine(n_nodes=1, cores_per_node=24, tile_size=160)),
    ("rbidiag", 12, 4, GreedyTree(), Machine(n_nodes=1, cores_per_node=8, tile_size=100)),
    ("bidiag", 8, 8, FlatTTTree(), Machine(n_nodes=4, cores_per_node=4, tile_size=100)),
]


def _op(index, reads, writes, tile):
    """A weight-4 GEQRT op reading/writing the given upper tile halves."""
    return Op(index, KernelName.GEQRT, (index,),
              frozenset(("U", i, j) for i, j in reads),
              frozenset(("U", i, j) for i, j in writes), 4, tile)


def _chain_graph():
    """A 3-node line of tiles: one producer on node 0, consumers on 1 and 2.

    Tile ``(i, 0)`` is owned by node ``i`` on the 3x1 grid; every task
    writes its own tile, so owner-computes pins the mapping.
    """
    ops = [
        _op(0, [], [(0, 0)], (0, 0)),
        _op(1, [(0, 0)], [(1, 0)], (1, 0)),
        _op(2, [(0, 0)], [(2, 0)], (2, 0)),
    ]
    return Program(ops, [[], [0], [0]])


def _three_node_engine(network, cores=1, tile_size=100):
    machine = Machine(n_nodes=3, cores_per_node=cores, tile_size=tile_size)
    distribution = BlockCyclicDistribution(ProcessGrid(3, 1))
    return machine, SimulationEngine(machine, distribution, network=network)


class TestUniformIsLegacy:
    def test_golden_pins_unchanged(self):
        """The pre-PR engine's absolute makespans, replayed with the
        explicit ``uniform`` network (same pins as the engine tests)."""
        pins = {
            ("bidiag", 8, 6): (0.030137913139087435, 0),
            ("bidiag", 10, 10): (0.07270787239075735, 0),
            ("rbidiag", 12, 4): (0.005789154880303859, 0),
            ("bidiag", 8, 8): (0.014644620654039035, 441),
        }
        for alg, p, q, tree, machine in CONFIGS:
            schedule = SimulationEngine(machine, network="uniform").run(
                get_program(alg, p, q, tree)
            )
            makespan, messages = pins[(alg, p, q)]
            assert schedule.makespan == pytest.approx(makespan, rel=1e-13)
            assert schedule.messages == messages

    @pytest.mark.parametrize("alg,p,q,tree,machine", CONFIGS)
    def test_bitwise_equal_to_default_engine_and_legacy(self, alg, p, q, tree, machine):
        program = get_program(alg, p, q, tree)
        explicit = SimulationEngine(machine, network="uniform").run(program)
        default = SimulationEngine(machine).run(program)
        legacy = reference_schedule(program, machine)
        assert explicit.makespan == default.makespan == legacy.makespan
        assert explicit.start == default.start == legacy.start
        assert explicit.messages == default.messages == legacy.messages
        assert explicit.comm_bytes == default.comm_bytes == legacy.comm_bytes

    SNIPPET = (
        "import sys; sys.path.insert(0, 'src')\n"
        "from repro.ir import get_program\n"
        "from repro.runtime.engine import SimulationEngine\n"
        "from repro.runtime.machine import Machine\n"
        "from repro.trees import FlatTTTree\n"
        "m = Machine(n_nodes=4, cores_per_node=4, tile_size=100)\n"
        "for network in ('uniform', 'alpha-beta'):\n"
        "    s = SimulationEngine(m, network=network).run(\n"
        "        get_program('bidiag', 8, 8, FlatTTTree()))\n"
        "    print(network, repr(s.makespan), s.messages, s.comm_bytes,\n"
        "          repr(s.comm_seconds))\n"
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
    def test_both_models_identical_across_hash_seeds(self):
        assert self._run("0") == self._run("12345")


class TestAlphaBeta:
    def test_golden_pin_multinode(self):
        """Absolute alpha-beta makespan on the 4-node shape (pinned at the
        time of the network PR; if this moves, message pricing changed)."""
        alg, p, q, tree, machine = CONFIGS[3]
        schedule = SimulationEngine(machine, network="alpha-beta").run(
            get_program(alg, p, q, tree)
        )
        assert schedule.makespan == pytest.approx(0.015389742174354865, rel=1e-13)
        assert schedule.messages == 441
        assert schedule.comm_bytes == 53_280_000

    @pytest.mark.parametrize("alg,p,q,tree,machine", CONFIGS)
    def test_message_counts_model_invariant(self, alg, p, q, tree, machine):
        program = get_program(alg, p, q, tree)
        uniform = SimulationEngine(machine, network="uniform").run(program)
        alphabeta = SimulationEngine(machine, network="alpha-beta").run(program)
        assert uniform.messages == alphabeta.messages
        assert uniform.messages_per_node == alphabeta.messages_per_node

    def test_single_node_models_agree_exactly(self):
        """Without cross-node edges there are no messages: the models are
        indistinguishable, bit for bit."""
        alg, p, q, tree, machine = CONFIGS[0]
        program = get_program(alg, p, q, tree)
        uniform = SimulationEngine(machine, network="uniform").run(program)
        alphabeta = SimulationEngine(machine, network="alpha-beta").run(program)
        assert uniform.makespan == alphabeta.makespan
        assert alphabeta.messages == 0
        assert alphabeta.comm_seconds == 0.0

    def test_nic_injection_serializes_concurrent_sends(self):
        """Two messages leaving node 0 at the same instant queue behind each
        other on the NIC: the second consumer starts one injection later."""
        machine, engine = _three_node_engine(AlphaBetaNetwork())
        schedule = engine.run(_chain_graph())
        assert schedule.messages == 2
        n_bytes = machine.tile_bytes // 2  # one written half
        first = schedule.start[1]
        second = schedule.start[2]
        gap = abs(second - first)
        assert gap == pytest.approx(machine.injection_seconds(n_bytes), rel=1e-12)
        assert schedule.comm_time_per_node == pytest.approx(
            [2 * machine.injection_seconds(n_bytes), 0.0, 0.0]
        )
        assert schedule.messages_per_node == [2, 0, 0]

    def test_rendezvous_handshake_slows_transfers(self):
        machine, eager_engine = _three_node_engine(AlphaBetaNetwork(eager=True))
        _, rendezvous_engine = _three_node_engine(AlphaBetaNetwork(eager=False))
        eager = eager_engine.run(_chain_graph())
        rendezvous = rendezvous_engine.run(_chain_graph())
        assert rendezvous.makespan > eager.makespan
        # The handshake is one round trip before injection.
        assert rendezvous.start[1] - eager.start[1] == pytest.approx(
            2 * machine.alpha_seconds, rel=1e-12
        )

    def test_payload_scales_with_tile_size(self):
        """Bandwidth cost scales with nb: 2x the tile size, 4x the bytes."""
        graph = _chain_graph()
        small, small_engine = _three_node_engine(AlphaBetaNetwork(), tile_size=100)
        large, large_engine = _three_node_engine(AlphaBetaNetwork(), tile_size=200)
        s_small = small_engine.run(graph)
        s_large = large_engine.run(graph)
        assert s_large.comm_bytes == 4 * s_small.comm_bytes
        model = AlphaBetaNetwork()
        op = graph.ops[0]
        assert model.message_bytes(op, large) == 4 * model.message_bytes(op, small)

    def test_transfer_cached_per_destination_node(self):
        """Two consumers of the same producer on the *same* remote node pay
        for one message (the runtime caches remote tiles)."""
        ops = [
            _op(0, [], [(0, 0)], (0, 0)),
            _op(1, [(0, 0)], [(1, 0)], (1, 0)),
            _op(2, [(0, 0)], [(3, 0)], (3, 0)),
        ]
        graph = Program(ops, [[], [0], [0]])
        machine = Machine(n_nodes=2, cores_per_node=2, tile_size=100)
        distribution = BlockCyclicDistribution(ProcessGrid(2, 1))
        for network in NETWORK_MODELS:
            schedule = SimulationEngine(
                machine, distribution, network=network
            ).run(graph)
            assert schedule.messages == 1, network


class TestSeenTransfersDedupAudit:
    """Satellite audit of the engine's transfer dedup.

    The dedup key is (producer *op id*, destination node) — not the tile —
    so a tile re-produced by a later op is a new producer and correctly
    re-triggers a transfer.  These regression tests pin that behaviour
    against both the engine (both network models) and the static analysis.
    """

    @staticmethod
    def _reproduced_tile_graph():
        """Tile (0,0) is written twice (tasks 0 and 2); after each write a
        task on the other node consumes it."""
        ops = [
            _op(0, [], [(0, 0)], (0, 0)),
            _op(1, [(0, 0)], [(1, 0)], (1, 0)),
            _op(2, [(1, 0)], [(0, 0)], (0, 0)),
            _op(3, [(0, 0)], [(3, 0)], (1, 0)),
        ]
        return Program(ops, [[], [0], [1], [2]])

    @pytest.mark.parametrize("network", sorted(NETWORK_MODELS))
    def test_reproduced_tile_retriggers_transfer(self, network):
        graph = self._reproduced_tile_graph()
        machine = Machine(n_nodes=2, cores_per_node=2, tile_size=100)
        distribution = BlockCyclicDistribution(ProcessGrid(2, 1))
        schedule = SimulationEngine(machine, distribution, network=network).run(graph)
        # 0 -> 1 crosses (node 0 to 1), 1 -> 2 crosses back, 2 -> 3 crosses
        # again: three distinct producers, three messages — the second write
        # of tile (0,0) is NOT swallowed by the dedup of the first.
        assert schedule.messages == 3
        static = communication_volume(graph, distribution)
        assert static.messages == 3

    def test_static_and_engine_agree_on_program_form(self):
        program = self._reproduced_tile_graph()
        machine = Machine(n_nodes=2, cores_per_node=2, tile_size=100)
        distribution = BlockCyclicDistribution(ProcessGrid(2, 1))
        schedule = SimulationEngine(
            machine, distribution, network="alpha-beta"
        ).run(program)
        stats = engine_communication_check(schedule, program, distribution)
        assert stats.messages == schedule.messages == 3


class TestEngineMatchesStaticAnalysis:
    @pytest.mark.parametrize("network", sorted(NETWORK_MODELS))
    @pytest.mark.parametrize("policy", ["list", "critical-path", "locality", "fifo"])
    def test_exact_message_agreement(self, network, policy):
        machine = Machine(n_nodes=4, cores_per_node=4, tile_size=100)
        distribution = BlockCyclicDistribution(ProcessGrid(2, 2))
        program = get_program("bidiag", 8, 8, FlatTTTree())
        schedule = SimulationEngine(
            machine, distribution, policy=policy, network=network
        ).run(program)
        stats = engine_communication_check(schedule, program, distribution)
        assert sum(stats.per_node_sent) == schedule.messages

    def test_mismatch_is_detected(self):
        machine = Machine(n_nodes=4, cores_per_node=4, tile_size=100)
        distribution = BlockCyclicDistribution(ProcessGrid(2, 2))
        program = get_program("bidiag", 6, 6, GreedyTree())
        schedule = SimulationEngine(machine, distribution).run(program)
        broken = type(schedule)(
            makespan=schedule.makespan,
            start=schedule.start,
            finish=schedule.finish,
            node_of_task=schedule.node_of_task,
            busy_time_per_node=schedule.busy_time_per_node,
            messages=schedule.messages + 1,
            comm_bytes=schedule.comm_bytes,
        )
        with pytest.raises(ValueError, match="static"):
            engine_communication_check(broken, program, distribution)


class TestRegistryAndLayers:
    def test_get_network_model(self):
        model = get_network_model("alpha-beta")
        assert isinstance(model, AlphaBetaNetwork)
        assert get_network_model(model) is model
        assert isinstance(get_network_model("uniform"), UniformNetwork)
        assert not get_network_model("alpha-beta", eager=False).eager
        with pytest.raises(ValueError):
            get_network_model("carrier-pigeon")
        # kwargs with an instance would be silently dropped: reject them.
        with pytest.raises(ValueError, match="keyword"):
            get_network_model(AlphaBetaNetwork(), eager=False)

    def test_available_networks_listing(self):
        listing = available_networks()
        assert [name for name, _ in listing] == sorted(NETWORK_MODELS)
        assert all(desc for _, desc in listing)

    def test_plan_validates_network(self):
        from repro.api import SvdPlan

        plan = SvdPlan(m=40, n=40, network="ALPHA-BETA")
        assert plan.network == "alpha-beta"
        assert plan.describe()["network"] == "alpha-beta"
        with pytest.raises(ValueError, match="network"):
            SvdPlan(m=40, n=40, network="smoke-signals")

    def test_execute_rows_carry_network(self):
        from repro.api import SvdPlan, execute

        plan = SvdPlan(m=400, n=400, stage="ge2bnd", tile_size=50,
                       n_cores=2, n_nodes=4, network="alpha-beta")
        row = execute(plan, backend="simulate").to_row()
        assert row["network"] == "alpha-beta"
        assert row["messages"] > 0
        assert row["comm_seconds"] > 0

    def test_comm_time_objective_registered(self):
        from repro.api import SvdPlan
        from repro.api.resolver import resolve
        from repro.tuning import OBJECTIVES, get_objective

        assert "comm-time" in OBJECTIVES
        objective = get_objective("comm-time")
        multi = resolve(SvdPlan(m=400, n=400, stage="ge2bnd", tile_size=50,
                                n_cores=2, n_nodes=4, network="alpha-beta"))
        single = resolve(SvdPlan(m=400, n=400, stage="ge2bnd", tile_size=50,
                                 n_cores=2, network="alpha-beta"))
        assert objective.score(multi) > 0.0
        assert objective.score(single) == 0.0

    def test_network_sweep_experiment(self):
        from repro.experiments.registry import run_experiment

        rows = run_experiment(
            "network-sweep", m=800, n=800, tile_size=100, n_cores=2, n_nodes=4
        )
        assert {row["network"] for row in rows} == {"uniform", "alpha-beta"}
        assert {row["tree"] for row in rows} == {"flatts", "greedy"}
        by_tree = {}
        for row in rows:
            by_tree.setdefault(row["tree"], set()).add(row["messages"])
        # Message counts are a property of the DAG + distribution, not of
        # the network model.
        for tree, counts in by_tree.items():
            assert len(counts) == 1, tree


class TestCli:
    def test_networks_listing(self, capsys):
        assert main(["networks"]) == 0
        out = capsys.readouterr().out
        for name in NETWORK_MODELS:
            assert name in out

    @pytest.mark.parametrize("network", sorted(NETWORK_MODELS))
    def test_simulate_with_network(self, capsys, network):
        assert main(["simulate", "1000", "1000", "--nb", "100", "--cores", "2",
                     "--nodes", "4", "--network", network]) == 0
        out = capsys.readouterr().out
        assert f"network        : {network}" in out

    def test_plan_simulate_with_network(self, capsys):
        assert main(["plan", "--m", "400", "--n", "400", "--tile-size", "50",
                     "--backend", "simulate", "--nodes", "4",
                     "--network", "alpha-beta"]) == 0
        assert "network        : alpha-beta" in capsys.readouterr().out
