"""Plan validation, canonicalization and sweep tests for the unified API."""

import dataclasses

import numpy as np
import pytest

from repro.api import (
    SvdPlan,
    as_tiled,
    chan_prefers_rbidiag,
    default_tile_size,
    resolve,
    resolve_variant,
)
from repro.config import Config, default_config
from repro.tiles.matrix import TiledMatrix
from repro.trees import AutoTree, FlatTSTree, GreedyTree, HierarchicalTree


class TestPlanValidation:
    def test_minimal_plan(self):
        plan = SvdPlan(m=40, n=24)
        assert plan.stage == "ge2val"
        assert plan.variant == "auto"
        assert plan.n_cores == 1

    def test_stage_and_variant_normalized(self):
        plan = SvdPlan(m=8, n=8, stage="GE2BND", variant="BiDiag")
        assert plan.stage == "ge2bnd"
        assert plan.variant == "bidiag"

    def test_rejects_unknown_stage(self):
        with pytest.raises(ValueError, match="stage"):
            SvdPlan(m=8, n=8, stage="nope")

    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError, match="variant"):
            SvdPlan(m=8, n=8, variant="nope")

    def test_requires_shape_or_matrix(self):
        with pytest.raises(ValueError, match="matrix"):
            SvdPlan()

    def test_rejects_wide(self):
        with pytest.raises(ValueError, match="transpose"):
            SvdPlan(m=8, n=16)

    def test_rejects_unknown_tree_name(self):
        with pytest.raises(ValueError, match="tree"):
            SvdPlan(m=8, n=8, tree="bogus")

    def test_rejects_unknown_machine(self):
        with pytest.raises(ValueError, match="preset"):
            SvdPlan(m=8, n=8, machine="cray")

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            SvdPlan(m=8, n=8, n_cores=0)
        with pytest.raises(ValueError):
            SvdPlan(m=8, n=8, n_nodes=0)
        with pytest.raises(ValueError):
            SvdPlan(m=8, n=8, tile_size=0)

    def test_shape_derived_from_matrix(self, rng):
        a = rng.standard_normal((30, 20))
        plan = SvdPlan(matrix=a)
        assert (plan.m, plan.n) == (30, 20)

    def test_shape_mismatch_with_matrix(self, rng):
        a = rng.standard_normal((30, 20))
        with pytest.raises(ValueError, match="disagrees"):
            SvdPlan(matrix=a, m=31)

    def test_immutable(self):
        plan = SvdPlan(m=8, n=8)
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.m = 16

    def test_with_(self):
        plan = SvdPlan(m=8, n=8)
        other = plan.with_(tree="flatts", n_cores=4)
        assert other.tree == "flatts" and other.n_cores == 4
        assert plan.tree is None  # original untouched


class TestSweep:
    def test_cartesian_product_and_order(self):
        base = SvdPlan(m=400, n=400, stage="ge2bnd")
        plans = base.sweep(tree=["flatts", "greedy"], n_nodes=[1, 4])
        assert len(plans) == 4
        assert [(pl.tree, pl.n_nodes) for pl in plans] == [
            ("flatts", 1), ("flatts", 4), ("greedy", 1), ("greedy", 4)
        ]
        assert all(pl.m == 400 for pl in plans)

    def test_unknown_field(self):
        with pytest.raises(ValueError, match="unknown plan field"):
            SvdPlan(m=8, n=8).sweep(frobnicate=[1])

    def test_empty_grid(self):
        with pytest.raises(ValueError, match="empty"):
            SvdPlan(m=8, n=8).sweep(tree=[])


class TestChanCrossover:
    def test_predicate(self):
        assert chan_prefers_rbidiag(10, 4)
        assert chan_prefers_rbidiag(5, 3)
        assert not chan_prefers_rbidiag(6, 6)

    def test_resolve_variant(self):
        assert resolve_variant("auto", 10, 4) == "rbidiag"
        assert resolve_variant("auto", 6, 6) == "bidiag"
        assert resolve_variant("bidiag", 100, 2) == "bidiag"
        with pytest.raises(ValueError):
            resolve_variant("bogus", 4, 4)


class TestResolve:
    def test_tile_geometry(self):
        r = resolve(SvdPlan(m=100, n=60, tile_size=16, stage="ge2bnd"))
        assert (r.p, r.q) == (7, 4)
        assert r.tile_size == 16

    def test_default_tile_size_small_matrix(self):
        # min(m, n) // 4 for small matrices (keeps the tile grid meaningful).
        assert resolve(SvdPlan(m=40, n=24)).tile_size == 6

    def test_default_tile_size_uses_config(self):
        # The paper's nb = 160 from default_config for large matrices...
        assert resolve(SvdPlan(m=4000, n=4000)).tile_size == default_config.tile_size
        # ...and a custom Config actually takes effect.
        small = Config(tile_size=32)
        assert resolve(SvdPlan(m=4000, n=4000, config=small)).tile_size == 32
        assert default_tile_size(4000, 4000) == default_config.tile_size

    def test_tiled_matrix_input_pins_tile_size(self, rng):
        mat = TiledMatrix.from_dense(rng.standard_normal((24, 16)), 4)
        r = resolve(SvdPlan(matrix=mat))
        assert r.tile_size == 4 and (r.p, r.q) == (6, 4)
        with pytest.raises(ValueError, match="disagrees"):
            resolve(SvdPlan(matrix=mat, tile_size=8))

    def test_tree_canonicalization(self):
        assert isinstance(resolve(SvdPlan(m=8, n=8)).tree, GreedyTree)
        assert isinstance(resolve(SvdPlan(m=8, n=8, tree="flatts")).tree, FlatTSTree)
        auto = resolve(SvdPlan(m=8, n=8, tree="auto", n_cores=8)).tree
        assert isinstance(auto, AutoTree)
        assert auto.n_cores == 8
        assert auto.gamma == default_config.auto_gamma

    def test_auto_tree_gamma_from_config(self):
        cfg = Config(auto_gamma=3.0)
        auto = resolve(SvdPlan(m=8, n=8, tree="auto", config=cfg)).tree
        assert auto.gamma == 3.0

    def test_multinode_tree_is_hierarchical(self):
        r = resolve(SvdPlan(m=4000, n=1000, tile_size=200, n_nodes=4, stage="ge2bnd"))
        assert isinstance(r.tree, HierarchicalTree)
        # Tall-skinny tile shape (20 x 5) gets the nodes x 1 grid.
        assert (r.grid.rows, r.grid.cols) == (4, 1)

    def test_program_shared_across_resolutions(self):
        from repro.ir import get_program

        plan = SvdPlan(m=600, n=300, tile_size=50, n_nodes=2, n_cores=4,
                       tree="greedy", variant="rbidiag")
        first, second = resolve(plan), resolve(plan)
        program = first.program()
        assert second.program() is program
        assert program is get_program(
            first.variant, first.p, first.q, first.tree,
            n_cores=plan.n_cores, grid_rows=first.grid.rows,
        )

    def test_variant_resolved_element_level(self):
        assert resolve(SvdPlan(m=100, n=60)).variant == "rbidiag"
        assert resolve(SvdPlan(m=60, n=60)).variant == "bidiag"
        assert resolve(SvdPlan(m=100, n=60, variant="bidiag")).variant == "bidiag"

    def test_machine_matches_plan(self):
        r = resolve(SvdPlan(m=400, n=400, tile_size=100, n_cores=12, n_nodes=2))
        assert r.machine.cores_per_node == 12
        assert r.machine.n_nodes == 2
        assert r.machine.tile_size == 100

    def test_build_matrix_seeded(self):
        r1 = resolve(SvdPlan(m=10, n=6, seed=7))
        r2 = resolve(SvdPlan(m=10, n=6, seed=7))
        np.testing.assert_array_equal(r1.build_matrix(), r2.build_matrix())
        r3 = resolve(SvdPlan(m=10, n=6, seed=8))
        assert not np.array_equal(r1.build_matrix(), r3.build_matrix())

    def test_build_tiled_uses_explicit_matrix(self, rng):
        a = rng.standard_normal((12, 8))
        tiled = resolve(SvdPlan(matrix=a, tile_size=4)).build_tiled()
        np.testing.assert_array_equal(tiled.to_dense(), a)


class TestAsTiled:
    def test_passthrough(self, rng):
        mat = TiledMatrix.from_dense(rng.standard_normal((8, 8)), 4)
        assert as_tiled(mat) is mat

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            as_tiled(np.zeros(3))

    @pytest.mark.parametrize("tiled", [False, True], ids=["dense", "tiled"])
    def test_rejects_non_finite(self, tiled, rng):
        a = rng.standard_normal((12, 8))
        a[9, 2] = np.inf
        a[10, 1] = np.nan
        src = TiledMatrix.from_dense(a, 4) if tiled else a
        # The first non-finite element in row-major order is named.
        with pytest.raises(ValueError, match=r"element \(9, 2\) is inf"):
            as_tiled(src)

    def test_config_default(self, rng):
        a = rng.standard_normal((40, 24))
        assert as_tiled(a).nb == 6
        assert as_tiled(a, config=Config(tile_size=2)).nb == 2
        assert as_tiled(a, 8).nb == 8
