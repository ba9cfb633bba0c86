"""Tests for hand-built programs, the recorder front-end and the critical path."""

import numpy as np
import pytest

from repro.dag.critical_path import critical_path_tasks
from repro.ir import Op, Program, ProgramRecorder, get_program
from repro.kernels.costs import KernelName
from repro.trees import FlatTSTree, FlatTTTree, GreedyTree


def _mk_op(index, weight=1, kernel=KernelName.GEQRT):
    return Op(
        index=index,
        kernel=kernel,
        params=(index,),
        reads=frozenset(),
        writes=frozenset(),
        weight=weight,
        owner_tile=(0, 0),
    )


def _program(weights, edges=()):
    """A hand-built program: one op per weight, ``edges`` as (src, dst)."""
    preds = [[] for _ in weights]
    for src, dst in edges:
        preds[dst].append(src)
    return Program([_mk_op(i, w) for i, w in enumerate(weights)], preds)


class TestHandBuiltProgram:
    def test_ops_and_edges(self):
        program = _program([1, 1], [(0, 1)])
        assert list(program.successors(0)) == [1]
        assert list(program.predecessors(1)) == [0]
        assert program.n_edges == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            _program([1], [(0, 0)])

    def test_sources_and_sinks(self):
        program = _program([1, 1, 1], [(0, 1), (1, 2)])
        assert program.sources() == [0]
        assert [i for i in range(len(program)) if not len(program.successors(i))] == [2]

    def test_total_weight(self):
        assert _program([4, 6]).total_weight() == 10


class TestCriticalPathEngine:
    def test_chain(self):
        program = _program([2, 2, 2, 2], [(0, 1), (1, 2), (2, 3)])
        assert program.critical_path() == 8

    def test_diamond(self):
        program = _program([1, 5, 2, 1], [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert program.critical_path() == 7
        assert critical_path_tasks(program) == [0, 1, 3]

    def test_empty_graph(self):
        empty = Program([], [])
        assert empty.critical_path() == 0.0
        assert critical_path_tasks(empty) == []

    def test_custom_weight_function(self):
        program = _program([4, 4], [(0, 1)])
        assert program.critical_path(weight_fn=lambda op: 1.0) == 2.0
        assert critical_path_tasks(program, weight_fn=lambda op: 1.0) == [0, 1]

    def test_path_length_matches_critical_path(self):
        program = get_program("bidiag", 8, 6, GreedyTree())
        path = critical_path_tasks(program)
        weights = program.weights_np
        assert sum(int(weights[i]) for i in path) == program.critical_path()
        # Consecutive path ops are dependency edges.
        for src, dst in zip(path, path[1:]):
            assert src in program.predecessors(dst)


class TestTracer:
    def test_shape_properties(self):
        recorder = ProgramRecorder(5, 3)
        assert recorder.p == 5
        assert recorder.q == 3

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            ProgramRecorder(0, 3)

    def test_qr_task_count_flatts(self):
        # FlatTS QR of a p x q tile matrix: per step k (0-based, u = p-k,
        # v = q-k-1): 1 GEQRT + v UNMQR + (u-1) TSQRT + (u-1)*v TSMQR.
        p, q = 5, 3
        program = get_program("qr", p, q, FlatTSTree())
        expected = 0
        for k in range(q):
            u, v = p - k, q - k - 1
            expected += 1 + v + (u - 1) + (u - 1) * v
        assert len(program) == expected

    def test_bidiag_kernel_mix(self):
        counts = get_program("bidiag", 4, 4, FlatTSTree()).kernel_counts()
        assert counts[KernelName.GEQRT] == 4          # one per QR step
        assert counts[KernelName.GELQT] == 3          # one per LQ step
        assert KernelName.TTQRT not in counts         # FlatTS never uses TT
        assert counts[KernelName.TSQRT] == 3 + 2 + 1  # rows below diagonal

    def test_greedy_uses_tt_kernels_only(self):
        counts = get_program("bidiag", 6, 3, GreedyTree()).kernel_counts()
        assert KernelName.TSQRT not in counts
        assert KernelName.TSMQR not in counts
        assert counts[KernelName.TTQRT] > 0

    def test_insertion_order_is_topological(self):
        program = get_program("bidiag", 6, 4, GreedyTree())
        assert all(src < dst for src, dst in program.edges())

    def test_flattt_same_work_shorter_span_than_flatts(self):
        # FlatTS and FlatTT perform exactly the same number of flops
        # (a TS elimination costs 6+12v, a TT elimination 4+6v+2+6v = 6+12v),
        # but FlatTT's critical path is shorter: a pure work/span trade-off.
        p_ts = get_program("bidiag", 6, 4, FlatTSTree())
        p_tt = get_program("bidiag", 6, 4, FlatTTTree())
        assert p_tt.total_weight() == p_ts.total_weight()
        assert p_tt.critical_path() < p_ts.critical_path()

    def test_rbidiag_has_more_tasks_than_bidiag_for_square(self):
        # For square matrices R-BIDIAG repeats work (QR then square BIDIAG).
        p_b = get_program("bidiag", 6, 6, GreedyTree())
        p_r = get_program("rbidiag", 6, 6, GreedyTree())
        assert len(p_r) > len(p_b)

    def test_tracer_and_numeric_executor_same_operation_count(self, rng):
        """The numeric executor and the recorder see exactly the same kernel calls."""
        from repro.algorithms.bidiag import bidiag_ge2bnd
        from repro.algorithms.executor import NumericExecutor
        from repro.tiles.matrix import TiledMatrix

        a = rng.standard_normal((20, 12))
        mat = TiledMatrix.from_dense(a, 4)
        recorder = ProgramRecorder(mat.p, mat.q)
        bidiag_ge2bnd(recorder, GreedyTree())
        bidiag_ge2bnd(NumericExecutor(mat), GreedyTree())
        # The recording matches a standalone compile of the same configuration.
        standalone = get_program("bidiag", mat.p, mat.q, GreedyTree())
        assert len(recorder.program()) == len(standalone)
        # And the numeric result is still correct.
        ref = np.linalg.svd(a, compute_uv=False)
        got = np.linalg.svd(mat.to_dense(), compute_uv=False)
        np.testing.assert_allclose(got, ref, atol=1e-9)

