"""The compact-Program gate.

* **Pins.**  Every Program the engine CONFIGS, the replay oracle's
  ``REPLAY_SHAPES`` and the five harness workloads build has a sha256
  digest per observable (kernel codes, params, step labels, owner tiles,
  each ``Op``'s reads and writes, both CSRs, the hop levels and
  :meth:`Program.level_groups`).  The digests were taken from the
  per-op-tuple Program the compact one replaced, so any drift in what a
  compiled Program says fails here.
* **Memory guard.**  The 3000², nb 100, 4×6-core greedy program retains
  at most :data:`MAX_BYTES_PER_OP` bytes per op after compile plus one
  simulate (tracemalloc).
* **Numeric DAG oracle.**  Two ops with no path between them touch no
  common tile half that either writes, so replaying a Program op by op
  in *any* topological order computes the same band, bit for bit.  The
  orders tried are seeded random topological orders, the latest-first
  order and every policy's dispatch order on one node and on a 2×2 grid;
  this checks the edges the recorder found against the numbers,
  independently of :mod:`repro.verify.semantics`.
"""

import gc
import hashlib
import json
import random
import tracemalloc

import numpy as np
import pytest

from repro.algorithms.executor import NumericExecutor
from repro.api import SvdPlan
from repro.api.resolver import resolve, resolve_tree
from repro.ir import clear_program_cache, get_program
from repro.kernels.costs import KERNEL_LIST
from repro.tiles.matrix import TiledMatrix
from repro.trees import FlatTSTree, FlatTTTree, GreedyTree

#: (m, n, nb) and trees of the replay oracle (as in tests/test_program_ir.py).
REPLAY_SHAPES = [(24, 16, 4), (40, 12, 4), (100, 70, 16), (200, 45, 8), (33, 17, 8)]
REPLAY_TREES = ["flatts", "flattt", "greedy", "auto"]

#: The (algorithm, p, q, tree) shapes of the engine test CONFIGS
#: (test_soa_fast_path, test_network, test_engine_policies).
CONFIG_SHAPES = [
    ("bidiag", 10, 8, "greedy"),
    ("bidiag", 8, 8, "flattt"),
    ("bidiag", 9, 6, "flatts"),
    ("rbidiag", 12, 4, "greedy"),
    ("bidiag", 8, 6, "greedy"),
    ("bidiag", 10, 10, "flatts"),
]
_TREE_CLASSES = {"greedy": GreedyTree, "flattt": FlatTTTree, "flatts": FlatTSTree}

_TREES = ("flatts", "flattt", "greedy", "auto")
_POLICIES = ("list", "critical-path", "locality", "fifo", "random", "weight")

#: The plans of the five harness workloads (benchmarks/harness/workloads.py),
#: one per distinct Program they compile.
HARNESS_PLANS = {
    "numeric-tall": SvdPlan(m=1536, n=96, tile_size=16, stage="ge2val", tree="greedy"),
    "numeric-square": SvdPlan(m=256, n=256, tile_size=32, stage="ge2val", tree="greedy"),
    **{
        f"simulate-cold:{tree}": SvdPlan(
            m=3000, n=3000, tile_size=100, stage="ge2val", tree=tree,
            n_nodes=4, n_cores=6, network="alpha-beta",
        )
        for tree in _TREES
    },
    **{
        f"sweep-warm:distributed:{tree}": SvdPlan(
            m=2400, n=2400, tile_size=100, stage="ge2val", tree=tree,
            n_nodes=4, n_cores=6,
        )
        for tree in ("greedy", "flatts")
    },
    **{
        f"sweep-warm:shared:{tree}": SvdPlan(
            m=1600, n=1600, tile_size=100, stage="ge2val", tree=tree,
            n_nodes=1, n_cores=24,
        )
        for tree in ("greedy", "flatts")
    },
    **{
        f"campaign:{tree}": SvdPlan(m=800, n=600, tile_size=100, n_cores=4, tree=tree)
        for tree in _TREES
    },
}


def _replay_program(variant, m, n, nb, tree_name):
    tree = resolve_tree(tree_name, n_cores=4)
    return get_program(variant, -(-m // nb), -(-n // nb), tree, n_cores=4)


def pinned_programs():
    """``label -> zero-argument builder`` of every pinned Program."""
    out = {}
    for alg, p, q, tree in CONFIG_SHAPES:
        out[f"config:{alg}:{p}x{q}:{tree}"] = (
            lambda alg=alg, p=p, q=q, tree=tree:
            get_program(alg, p, q, _TREE_CLASSES[tree]())
        )
    for m, n, nb in REPLAY_SHAPES:
        for variant in ("bidiag", "rbidiag"):
            for tree in REPLAY_TREES:
                out[f"replay:{variant}:{m}x{n}:nb{nb}:{tree}"] = (
                    lambda variant=variant, m=m, n=n, nb=nb, tree=tree:
                    _replay_program(variant, m, n, nb, tree)
                )
    for label, plan in HARNESS_PLANS.items():
        out[f"harness:{label}"] = lambda plan=plan: resolve(plan).program()
    return out


def _sha(payload) -> str:
    text = json.dumps(payload, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def program_digests(program):
    """sha256 digest (16 hex digits) of each observable of ``program``."""
    ops = program.ops
    return {
        "kernels": _sha(program.kernel_codes_np.tolist()),
        "params": _sha([list(op.params) for op in ops]),
        "steps": _sha([op.step for op in ops]),
        "owners": _sha([
            program.owner_rows_np.tolist(),
            program.owner_cols_np.tolist(),
            [list(op.owner_tile) for op in ops],
        ]),
        "access": _sha([[sorted(op.reads), sorted(op.writes)] for op in ops]),
        "pred_csr": _sha([program.pred_indptr_np.tolist(), program.pred_ids_np.tolist()]),
        "succ_csr": _sha([program.succ_indptr_np.tolist(), program.succ_ids_np.tolist()]),
        "levels": _sha(program.levels_np.tolist()),
        "level_groups": _sha([
            [code, [list(params) for params in group]]
            for code, group in program.level_groups()
        ]),
    }


with open(__file__.rsplit("/", 1)[0] + "/program_pins.json") as _fh:
    #: ``label -> {"n_ops": ..., observable: digest}``.
    PROGRAM_PINS = json.load(_fh)


@pytest.fixture(autouse=True)
def _fresh_program_cache():
    clear_program_cache()
    yield
    clear_program_cache()


def test_pins_cover_every_pinned_program():
    assert sorted(PROGRAM_PINS) == sorted(pinned_programs())


@pytest.mark.parametrize("label", sorted(pinned_programs()))
def test_program_matches_its_pin(label):
    program = pinned_programs()[label]()
    got = dict(n_ops=len(program), **program_digests(program))
    assert got == PROGRAM_PINS[label]


# --------------------------------------------------------------------------- #
# Memory guard
# --------------------------------------------------------------------------- #
#: Bytes per op the 3000², nb 100, 4×6-core greedy program may retain after
#: compile plus one simulate.  The per-op-tuple Program retained about 720.
MAX_BYTES_PER_OP = 450


def test_compiled_program_retains_at_most_the_guard():
    from repro.runtime.simulator import simulate

    resolved = resolve(HARNESS_PLANS["simulate-cold:greedy"])
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        program = resolved.program()
        simulate(resolved)  # the result is dropped; the memo tables stay
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(program) == PROGRAM_PINS["harness:simulate-cold:greedy"]["n_ops"]
    assert retained / len(program) <= MAX_BYTES_PER_OP


# --------------------------------------------------------------------------- #
# Numeric DAG oracle
# --------------------------------------------------------------------------- #
def _kahn_order(program, pick):
    """A topological order in which ``pick(ready)`` removes the next op."""
    indegree = program.indegrees()
    ready = program.sources()
    order = []
    while ready:
        op = pick(ready)
        order.append(op)
        for succ in program.successors(op):
            indegree[succ] -= 1
            if indegree[succ] == 0:
                ready.append(succ)
    assert len(order) == len(program)
    return order


def _random_order(program, seed):
    """Any ready op may go next (seeded)."""
    rng = random.Random(seed)
    return _kahn_order(program, lambda ready: ready.pop(rng.randrange(len(ready))))


def _latest_first_order(program):
    """The highest ready op id goes next: a later writer whose WAR edge to an
    earlier reader were missing would overtake that reader."""
    return _kahn_order(program, lambda ready: ready.pop(ready.index(max(ready))))


def _dispatch_orders(program, nb):
    """Each policy's dispatch order on one node and on a 2×2 grid."""
    from repro.runtime.engine import SimulationEngine
    from repro.runtime.machine import Machine
    from repro.runtime.replay import PreparedReplay
    from repro.tiles.distribution import BlockCyclicDistribution, ProcessGrid

    one = Machine(n_nodes=1, cores_per_node=4, tile_size=nb)
    grid = Machine(n_nodes=4, cores_per_node=2, tile_size=nb)
    for policy in _POLICIES:
        yield PreparedReplay(SimulationEngine(one, policy=policy), program).order
        engine = SimulationEngine(
            grid, BlockCyclicDistribution(ProcessGrid(2, 2)), policy=policy
        )
        yield PreparedReplay(engine, program).order


def _replayed(a, nb, calls, order):
    tiled = TiledMatrix.from_dense(a, nb)
    executor = NumericExecutor(tiled)
    methods = [getattr(executor, kernel.name.lower()) for kernel in KERNEL_LIST]
    for op in order:
        code, params = calls[op]
        methods[code](*params)
    return tiled.to_dense()


def _is_topological(program, order):
    position = {op: k for k, op in enumerate(order)}
    return len(position) == len(program) and all(
        position[src] < position[dst] for src, dst in program.edges()
    )


@pytest.mark.parametrize("tree_name", REPLAY_TREES)
@pytest.mark.parametrize("variant", ["bidiag", "rbidiag"])
@pytest.mark.parametrize("m, n, nb", REPLAY_SHAPES)
def test_any_topological_order_computes_the_same_band(m, n, nb, variant, tree_name):
    program = _replay_program(variant, m, n, nb, tree_name)
    a = np.random.default_rng([m, n, nb]).standard_normal((m, n))
    calls = program.kernel_calls()
    want = _replayed(a, nb, calls, range(len(program)))  # stream order
    orders = {tuple(_random_order(program, seed)) for seed in range(3)}
    orders.add(tuple(_latest_first_order(program)))
    orders.update(tuple(order) for order in _dispatch_orders(program, nb))
    for order in sorted(orders):
        assert _is_topological(program, order)
        # The whole matrix, not only the band, bit for bit.
        np.testing.assert_array_equal(_replayed(a, nb, calls, order), want)


def test_concurrent_op_decoding_is_consistent():
    # A cached Program is shared between threads, and its access decoder
    # is one probe: threads decoding ops at once must each get their own
    # op's access sets.
    import sys
    import threading

    program = get_program("bidiag", 6, 5, GreedyTree())
    want = [program.op(i) for i in range(len(program))]
    mismatches = []

    def decode():
        for _ in range(5):
            for i in range(len(program)):
                if program.op(i) != want[i]:
                    mismatches.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=decode) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []
