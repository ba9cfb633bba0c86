"""Backend parity and shim-equivalence tests for the unified plan API."""

import numpy as np
import pytest

import repro.ir
from repro.api import BACKENDS, RunResult, SvdPlan, execute, execute_sweep, resolve
from repro.tiles.matrix import TiledMatrix


def _sv(a):
    return np.linalg.svd(a, compute_uv=False)


class TestNumericBackend:
    def test_matches_numpy(self):
        plan = SvdPlan(m=48, n=32, tile_size=8, seed=3)
        result = execute(plan, backend="numeric")
        assert isinstance(result, RunResult)
        assert result.max_rel_error < 1e-12
        a = resolve(plan).build_matrix()
        np.testing.assert_allclose(
            result.singular_values, _sv(a), atol=1e-9 * np.linalg.norm(a)
        )

    def test_stage_timings_present(self):
        result = execute(SvdPlan(m=30, n=20, tile_size=5), backend="numeric")
        assert set(result.stage_seconds) == {"ge2bnd", "bnd2bd", "bd2val"}
        assert result.time_seconds == pytest.approx(sum(result.stage_seconds.values()))

    def test_ge2bnd_stage_returns_band(self):
        result = execute(
            SvdPlan(m=24, n=16, tile_size=4, stage="ge2bnd"), backend="numeric"
        )
        assert result.singular_values is None
        band = result.extras["band"]
        plan_input = resolve(SvdPlan(m=24, n=16, tile_size=4, stage="ge2bnd")).build_matrix()
        np.testing.assert_allclose(_sv(band.to_dense()), _sv(plan_input), atol=1e-9)

    def test_gesvd_stage_reconstructs(self):
        plan = SvdPlan(m=24, n=16, tile_size=4, stage="gesvd", seed=5)
        result = execute(plan, backend="numeric")
        a = resolve(plan).build_matrix()
        approx = result.u @ np.diag(result.singular_values) @ result.vt
        np.testing.assert_allclose(approx, a, atol=1e-9 * np.linalg.norm(a))
        assert "ge2bnd" in result.stage_seconds and "compose" in result.stage_seconds


    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_fails_fast(self, bad, rng):
        # Checked at the entry: past it a NaN flows through the LAPACK
        # kernels silently and an Inf into thousands of QR sweeps that
        # never converge.
        a = rng.standard_normal((64, 32))
        a[37, 5] = bad
        plan = SvdPlan(matrix=a, tile_size=16, stage="ge2val")
        with pytest.raises(ValueError, match=r"element \(37, 5\) is"):
            execute(plan, "numeric")

    @pytest.mark.parametrize("stage", ["ge2bnd", "ge2val", "gesvd"])
    def test_every_stage_rejects_non_finite(self, stage, rng):
        a = rng.standard_normal((24, 16))
        a[0, 15] = -np.inf
        with pytest.raises(ValueError, match=r"element \(0, 15\) is -inf"):
            execute(SvdPlan(matrix=a, tile_size=8, stage=stage), "numeric")

    @pytest.mark.parametrize("stage", ["ge2bnd", "ge2val", "gesvd"])
    def test_tiled_input_is_left_unchanged(self, stage, rng):
        a = rng.standard_normal((24, 16))
        tiled = TiledMatrix.from_dense(a, 8)
        result = execute(SvdPlan(matrix=tiled, stage=stage), "numeric")
        np.testing.assert_array_equal(tiled.to_dense(), a)
        if stage != "ge2bnd":
            assert result.max_rel_error < 1e-12

    def test_error_is_measured_against_the_input(self, rng, monkeypatch):
        # A GE2BND that corrupts a tile after its replay: the error must
        # show, so the reference cannot be the reduced matrix.
        real_replay = repro.ir.replay

        def corrupting_replay(program, executor):
            out = real_replay(program, executor)
            executor.matrix[0, 0][0, 0] *= 2.0
            return out

        monkeypatch.setattr(repro.ir, "replay", corrupting_replay)
        a = rng.standard_normal((48, 32))
        result = execute(SvdPlan(matrix=a, tile_size=8), "numeric")
        assert result.max_rel_error > 0.1


class TestBackendParity:
    def test_one_plan_all_backends(self):
        """Acceptance: one plan runs unchanged through all three backends."""
        plan = SvdPlan(m=48, n=32, tile_size=8, stage="ge2val", tree="greedy")
        results = {b: execute(plan, backend=b) for b in BACKENDS}
        assert all(isinstance(r, RunResult) for r in results.values())
        assert results["numeric"].max_rel_error < 1e-12
        assert results["dag"].critical_path > 0
        assert results["simulate"].gflops > 0

    @pytest.mark.parametrize(
        "plan",
        [
            SvdPlan(m=48, n=48, tile_size=8, stage="ge2bnd"),
            SvdPlan(m=120, n=24, tile_size=8, stage="ge2bnd", tree="flattt"),
            SvdPlan(m=4000, n=1000, tile_size=200, stage="ge2bnd",
                    n_nodes=4, n_cores=8, tree="greedy"),
            SvdPlan(m=2000, n=2000, tile_size=250, stage="ge2bnd",
                    n_cores=24, tree="auto"),
        ],
    )
    def test_dag_and_simulator_trace_same_graph(self, plan):
        dag = execute(plan, backend="dag")
        sim = execute(plan, backend="simulate")
        assert dag.n_tasks == sim.n_tasks
        assert dag.variant == sim.variant
        assert (dag.p, dag.q) == (sim.p, sim.q)

    def test_numeric_backend_replays_the_plans_program(self, monkeypatch):
        # Two nodes, R-BIDIAG and an explicit GREEDY tree: GREEDY's
        # cross-panel plan depends on the grid rows, so a program compiled
        # without them would be a different op stream from the one the DAG
        # and simulate backends read.
        from repro.trees import GreedyTree

        plan = SvdPlan(m=600, n=300, tile_size=50, n_nodes=2, n_cores=4,
                       tree=GreedyTree(), variant="rbidiag")
        real_replay = repro.ir.replay
        replayed = []

        def spying_replay(program, executor):
            replayed.append(program)
            return real_replay(program, executor)

        monkeypatch.setattr(repro.ir, "replay", spying_replay)
        result = execute(plan, "numeric")
        assert len(replayed) == 1
        assert replayed[0] is resolve(plan).program()
        assert result.max_rel_error < 1e-12

    def test_dag_backend_leaves_ops_unmaterialized(self):
        from repro.ir import clear_program_cache, program_cache_stats

        clear_program_cache()
        plan = SvdPlan(m=96, n=64, tile_size=8, stage="ge2bnd", tree="greedy")
        result = execute(plan, backend="dag")
        resolved = resolve(plan)
        misses = program_cache_stats()["misses"]
        program = resolved.program()
        assert program_cache_stats()["misses"] == misses  # the backend's program
        # The counts came from the packed kernel-code column.
        assert program._ops is None
        tally = {}
        for op in program.ops:
            tally[op.kernel.name] = tally.get(op.kernel.name, 0) + 1
        assert result.extras["kernel_counts"] == tally
        clear_program_cache()

    def test_gesvd_rejected_by_non_numeric_backends(self):
        plan = SvdPlan(m=16, n=16, tile_size=4, stage="gesvd")
        with pytest.raises(ValueError, match="numeric"):
            execute(plan, backend="dag")
        with pytest.raises(ValueError, match="numeric"):
            execute(plan, backend="simulate")

    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            execute(SvdPlan(m=8, n=8), backend="quantum")


class TestSweepExecution:
    def test_execute_sweep_rows(self):
        base = SvdPlan(m=1000, n=1000, tile_size=250, stage="ge2bnd", n_cores=8)
        rows = execute_sweep(base.sweep(tree=["flatts", "greedy"]))
        assert len(rows) == 2
        assert {row["tree"] for row in rows} == {"flatts", "greedy"}
        assert all(row["gflops"] > 0 for row in rows)

    def test_to_row_flattens_scalars(self):
        row = execute(SvdPlan(m=30, n=20, tile_size=5), backend="numeric").to_row()
        assert row["backend"] == "numeric"
        assert "max_rel_error" in row and "seconds_ge2bnd" in row
        assert not any(isinstance(v, np.ndarray) for v in row.values())
