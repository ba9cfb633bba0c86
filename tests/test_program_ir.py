"""Tests for the compiled op-stream Program IR (repro.ir).

Covers the dependency analyzer, the Program/CSR structure, the compiler
and its shared in-process cache, replay onto the numeric executor, and the
1x1 / empty-post-stage edge cases.
"""

import subprocess
import sys

import numpy as np
import pytest

from repro.algorithms.accumulate import accumulate_orthogonal_factors
from repro.algorithms.bidiag import bidiag_ge2bnd
from repro.algorithms.executor import NumericExecutor
from repro.algorithms.rbidiag import rbidiag_ge2bnd
from repro.api.resolver import resolve_tree
from repro.ir import (
    DependencyAnalyzer,
    Program,
    ProgramCache,
    ProgramRecorder,
    clear_program_cache,
    compile_program,
    get_program,
    program_cache_stats,
    program_key,
    replay,
    tree_fingerprint,
)
from repro.kernels.costs import KernelName
from repro.tiles.matrix import TiledMatrix
from repro.trees import AutoTree, FlatTSTree, GreedyTree


@pytest.fixture(autouse=True)
def _fresh_program_cache():
    """Each test starts from an empty process-wide program cache."""
    clear_program_cache()
    yield
    clear_program_cache()


class TestDependencyAnalyzer:
    def test_raw_dependency(self):
        a = DependencyAnalyzer()
        assert a.add(frozenset(), frozenset({("U", 0, 0)})) == []
        assert a.add(frozenset({("U", 0, 0)}), frozenset()) == [0]

    def test_war_dependency(self):
        a = DependencyAnalyzer()
        a.add(frozenset(), frozenset({("U", 0, 0)}))     # 0 writes
        a.add(frozenset({("U", 0, 0)}), frozenset())     # 1 reads
        # 2 rewrites: depends on the writer (RAW chain) and the reader (WAR).
        assert a.add(frozenset(), frozenset({("U", 0, 0)})) == [0, 1]

    def test_write_resets_reader_set(self):
        a = DependencyAnalyzer()
        a.add(frozenset(), frozenset({("U", 0, 0)}))     # 0
        a.add(frozenset(), frozenset({("U", 0, 0)}))     # 1 (overwrites)
        # 2 only sees the most recent writer.
        assert a.add(frozenset({("U", 0, 0)}), frozenset()) == [1]

    def test_no_duplicate_or_self_edges(self):
        a = DependencyAnalyzer()
        a.add(frozenset(), frozenset({("U", 0, 0), ("L", 0, 0)}))
        preds = a.add(
            frozenset({("U", 0, 0)}), frozenset({("L", 0, 0), ("U", 0, 1)})
        )
        assert preds == [0]


class TestProgramStructure:
    def test_csr_is_consistent(self):
        program = compile_program("bidiag", 5, 4, GreedyTree())
        n = len(program)
        edges_via_preds = {(s, d) for d in range(n) for s in program.predecessors(d)}
        edges_via_succs = {(s, d) for s in range(n) for d in program.successors(s)}
        assert edges_via_preds == edges_via_succs
        assert len(edges_via_preds) == program.n_edges
        for dst in range(n):
            preds = list(program.predecessors(dst))
            assert preds == sorted(preds)
            assert all(0 <= s < dst for s in preds)

    def test_matches_object_path_analysis(self):
        # The coded compiler path and the object-path DependencyAnalyzer
        # (Program.from_ops over the materialized ops) infer the same DAG.
        for alg in ("qr", "bidiag", "rbidiag"):
            program = compile_program(alg, 6, 4, GreedyTree())
            again = Program.from_ops(program.ops)
            assert len(again) == len(program)
            assert again.n_edges == program.n_edges
            assert list(again.edges()) == list(program.edges())

    def test_object_built_round_trip(self):
        program = compile_program("bidiag", 4, 4, FlatTSTree())
        preds = [list(program.predecessors(i)) for i in range(len(program))]
        back = Program(program.ops, preds)
        assert back._codes is None  # object-built: reads its Op records
        assert len(back) == len(program)
        assert set(back.edges()) == set(program.edges())
        assert back.total_weight() == program.total_weight()

    def test_aggregates_match_object_path(self):
        program = compile_program("bidiag", 5, 5, FlatTSTree())
        ops = program.ops
        assert program.total_weight() == sum(op.weight for op in ops)
        tally = {}
        for op in ops:
            tally[op.kernel] = tally.get(op.kernel, 0) + 1
        assert program.kernel_counts() == tally
        # Vectorized level sweep == per-op loop (an explicit weight_fn).
        assert program.critical_path() == program.critical_path(
            weight_fn=lambda op: float(op.weight)
        )

    def test_sources_and_indegrees(self):
        program = compile_program("bidiag", 4, 3, GreedyTree())
        indeg = program.indegrees()
        assert sum(indeg) == program.n_edges
        assert program.sources() == [i for i, d in enumerate(indeg) if d == 0]
        # Exactly the first-panel GEQRTs are sources.
        assert all(program.ops[i].kernel == KernelName.GEQRT for i in program.sources())

    def test_rejects_backward_edges(self):
        ops = compile_program("qr", 2, 1, GreedyTree()).ops
        with pytest.raises(ValueError):
            Program(ops, [[1]] + [[] for _ in range(len(ops) - 1)])


class TestRecorder:
    def test_recorder_captures_driver_run(self):
        recorder = ProgramRecorder(4, 3)
        bidiag_ge2bnd(recorder, GreedyTree())
        program = recorder.program()
        assert len(recorder) == len(program)
        assert program.n_edges == compile_program("bidiag", 4, 3, GreedyTree()).n_edges

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            ProgramRecorder(1, 0)

    def test_recorder_finalizes_once(self):
        # The Program adopts the recorder's buffers, so the recorder must
        # not append to them afterwards.
        recorder = ProgramRecorder(2, 2)
        recorder.geqrt(0, 0)
        program = recorder.program()
        with pytest.raises(RuntimeError, match="already produced its Program"):
            recorder.unmqr(0, 0, 1)
        with pytest.raises(RuntimeError, match="already produced its Program"):
            recorder.program()
        assert len(program) == len(recorder) == 1


class TestProgramCache:
    def test_hit_returns_same_object(self):
        p1 = get_program("bidiag", 4, 4, GreedyTree())
        p2 = get_program("bidiag", 4, 4, GreedyTree())
        assert p1 is p2
        stats = program_cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_key_distinguishes_configurations(self):
        k1 = program_key("bidiag", 4, 4, AutoTree(n_cores=4))
        k2 = program_key("bidiag", 4, 4, AutoTree(n_cores=24))
        k3 = program_key("bidiag", 4, 4, GreedyTree())
        assert len({k1, k2, k3}) == 3
        assert program_key("bidiag", 4, 4, GreedyTree(), n_cores=2) != k3

    def test_tree_fingerprint(self):
        assert tree_fingerprint(None) == "none"
        assert tree_fingerprint(GreedyTree()) == tree_fingerprint(GreedyTree())
        assert tree_fingerprint(AutoTree(n_cores=2)) != tree_fingerprint(
            AutoTree(n_cores=3)
        )

    def test_tree_fingerprint_sees_attributes_without_custom_repr(self):
        # A parameterized subclass relying on the base ReductionTree repr
        # ("ClassName()") must still fingerprint per configuration.
        class ShiftedGreedy(GreedyTree):
            def __init__(self, shift):
                self.shift = shift

        assert tree_fingerprint(ShiftedGreedy(1)) != tree_fingerprint(ShiftedGreedy(2))
        assert tree_fingerprint(ShiftedGreedy(1)) == tree_fingerprint(ShiftedGreedy(1))

    def test_tree_fingerprint_recurses_into_nested_trees(self):
        from repro.trees import HierarchicalTree

        h1 = HierarchicalTree(local_tree=AutoTree(n_cores=2), top="greedy", grid_rows=2)
        h2 = HierarchicalTree(local_tree=AutoTree(n_cores=8), top="greedy", grid_rows=2)
        assert tree_fingerprint(h1) != tree_fingerprint(h2)

    def test_cache_false_bypasses(self):
        p1 = get_program("bidiag", 4, 4, GreedyTree(), cache=False)
        p2 = get_program("bidiag", 4, 4, GreedyTree(), cache=False)
        assert p1 is not p2
        assert program_cache_stats()["entries"] == 0

    def test_explicit_cache_and_eviction(self):
        cache = ProgramCache(maxsize=1)
        a = cache.get_or_compile("qr", 2, 2, GreedyTree())
        cache.get_or_compile("qr", 3, 2, GreedyTree())  # evicts the 2x2 entry
        assert len(cache) == 1
        b = cache.get_or_compile("qr", 2, 2, GreedyTree())
        assert a is not b  # recompiled after eviction
        with pytest.raises(ValueError):
            ProgramCache(maxsize=0)

    def test_clear(self):
        get_program("qr", 3, 3, GreedyTree())
        assert clear_program_cache() == 1
        assert program_cache_stats() == {
            "hits": 0, "misses": 0, "entries": 0, "total_ops": 0,
        }

    def test_total_ops_budget_evicts_lru(self):
        cache = ProgramCache(maxsize=10, max_ops=1)  # any 2nd entry overflows
        a = cache.get_or_compile("bidiag", 4, 4, GreedyTree())
        assert cache.stats["total_ops"] == len(a)
        b = cache.get_or_compile("bidiag", 5, 4, GreedyTree())
        # The older program was evicted, the newest is always kept.
        assert len(cache) == 1
        assert cache.stats["total_ops"] == len(b)
        assert cache.get_or_compile("bidiag", 5, 4, GreedyTree()) is b
        with pytest.raises(ValueError):
            ProgramCache(max_ops=0)

    def test_over_budget_program_is_freed_before_the_next_compile(self, monkeypatch):
        import gc
        import weakref

        import repro.ir.compiler as compiler

        cache = ProgramCache(maxsize=10, max_ops=1)
        big = weakref.ref(cache.get_or_compile("bidiag", 4, 4, GreedyTree()))
        alive_at_compile = []
        original = compiler.compile_program

        def watching(*args, **kwargs):
            gc.collect()
            alive_at_compile.append(big() is not None)
            return original(*args, **kwargs)

        monkeypatch.setattr(compiler, "compile_program", watching)
        cache.get_or_compile("bidiag", 5, 4, GreedyTree())
        assert alive_at_compile == [False]
        # A hit still serves the newest program, over budget or not.
        assert cache.get_or_compile("bidiag", 5, 4, GreedyTree()) is cache.get_or_compile(
            "bidiag", 5, 4, GreedyTree()
        )
        assert alive_at_compile == [False]

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            compile_program("cholesky", 4, 4, GreedyTree())


#: (m, n, nb) of the replay oracle: two even tile grids and three ragged
#: ones, whose last tile row and column give the kernels non-square tiles.
REPLAY_SHAPES = [(24, 16, 4), (40, 12, 4), (100, 70, 16), (200, 45, 8), (33, 17, 8)]
REPLAY_TREES = ["flatts", "flattt", "greedy", "auto"]


class TestReplay:
    @pytest.mark.parametrize("m, n, nb", REPLAY_SHAPES)
    @pytest.mark.parametrize("variant", ["bidiag", "rbidiag"])
    @pytest.mark.parametrize("tree_name", REPLAY_TREES)
    def test_replay_matches_direct_drive_bitwise(self, rng, tree_name, variant, m, n, nb):
        tree = resolve_tree(tree_name, n_cores=4)
        a = rng.standard_normal((m, n))
        direct = TiledMatrix.from_dense(a, nb)
        direct_run = NumericExecutor(direct, log_transformations=True)
        driver = bidiag_ge2bnd if variant == "bidiag" else rbidiag_ge2bnd
        driver(direct_run, tree, n_cores=4)
        replayed = TiledMatrix.from_dense(a, nb)
        replay_run = NumericExecutor(replayed, log_transformations=True)
        replay(get_program(variant, replayed.p, replayed.q, tree, n_cores=4), replay_run)
        # The driver issues the ops one by one in stream order, and replay
        # re-issues the compiled stream in the same order, one kernel call
        # per op: the arithmetic is bitwise the same.
        np.testing.assert_array_equal(replayed.to_dense(), direct.to_dense())
        # gesvd's U1 and V1 apply the logged reflectors in log order.
        assert len(replay_run.transform_log) == len(direct_run.transform_log)
        got = accumulate_orthogonal_factors(replayed.layout, replay_run.transform_log)
        want = accumulate_orthogonal_factors(direct.layout, direct_run.transform_log)
        for got_factor, want_factor in zip(got, want):
            np.testing.assert_array_equal(got_factor, want_factor)

    def test_replay_onto_recorder_reproduces_program(self):
        program = compile_program("bidiag", 4, 3, FlatTSTree())
        recorder = ProgramRecorder(4, 3)
        replay(program, recorder)
        again = recorder.program()
        assert [op.kernel for op in again.ops] == [op.kernel for op in program.ops]
        assert set(again.edges()) == set(program.edges())

    def test_replay_shape_guard(self):
        program = compile_program("qr", 4, 4, GreedyTree())
        with pytest.raises(ValueError):
            replay(program, ProgramRecorder(3, 3))


class TestEdgeCases:
    """1x1 tile problems and empty post-stages (satellite hardening)."""

    def test_single_tile_programs(self):
        for alg in ("qr", "bidiag", "rbidiag"):
            program = compile_program(alg, 1, 1, GreedyTree())
            assert len(program) == 1
            assert program.ops[0].kernel == KernelName.GEQRT
            assert program.n_edges == 0
            assert program.critical_path() == program.total_weight()

    def test_single_column_has_no_lq_stage(self):
        # p x 1: one QR panel, never an LQ step (the post-QR stages are empty).
        program = compile_program("bidiag", 5, 1, GreedyTree())
        counts = program.kernel_counts()
        assert KernelName.GELQT not in counts
        assert KernelName.UNMLQ not in counts
        assert counts[KernelName.GEQRT] >= 1

    def test_single_tile_numeric_replay(self, rng):
        a = rng.standard_normal((6, 6))
        mat = TiledMatrix.from_dense(a.copy(), 6)  # 1x1 tile grid
        assert (mat.p, mat.q) == (1, 1)
        program = get_program("bidiag", 1, 1, GreedyTree())
        replay(program, NumericExecutor(mat))
        ref = np.linalg.svd(a, compute_uv=False)
        got = np.linalg.svd(mat.to_dense(), compute_uv=False)
        np.testing.assert_allclose(got, ref, atol=1e-9)

    def test_single_tile_simulation_matches_legacy(self):
        from repro.runtime.engine import SimulationEngine
        from repro.runtime.machine import Machine
        from repro.verify.reference import reference_schedule

        machine = Machine(n_nodes=1, cores_per_node=4, tile_size=100)
        program = get_program("bidiag", 1, 1, GreedyTree())
        legacy = reference_schedule(program, machine)
        engine = SimulationEngine(machine, policy="list").run(program)
        assert engine.makespan == legacy.makespan > 0

    def test_ge2val_single_tile_simulation(self):
        from repro.api import SvdPlan, execute

        plan = SvdPlan(m=100, n=100, tree="auto", tile_size=100, n_cores=4)
        result = execute(plan, "simulate")  # p = q = 1
        assert result.p == result.q == 1
        assert result.time_seconds > 0
        assert result.stage_seconds["post"] > 0


class TestHashSeedIndependence:
    """The analyzer iterates data items in sorted order, so the compiled
    edge structure is identical under any PYTHONHASHSEED (satellite fix)."""

    SNIPPET = (
        "import sys; sys.path.insert(0, 'src')\n"
        "from repro.ir import compile_program\n"
        "from repro.trees import GreedyTree\n"
        "p = compile_program('bidiag', 6, 4, GreedyTree())\n"
        "print(p.n_edges)\n"
        "print(list(p.edges()))\n"
    )

    def _run(self, hash_seed):
        import os

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
    def test_edge_stream_identical_across_hash_seeds(self):
        out0 = self._run("0")
        out1 = self._run("4242")
        assert out0 == out1
