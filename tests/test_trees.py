"""Unit and property tests for the reduction trees."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.trees import (
    AutoTree,
    BinaryTree,
    FibonacciTree,
    FlatTSTree,
    FlatTTTree,
    GreedyTree,
    HierarchicalTree,
    make_tree,
)
from repro.trees.auto import auto_domain_size
from repro.trees.base import PanelContext, validate_plan
from repro.trees.greedy import binomial_eliminations

ALL_TREES = [
    FlatTSTree(),
    FlatTTTree(),
    GreedyTree(),
    BinaryTree(),
    FibonacciTree(),
    AutoTree(n_cores=4),
    AutoTree(n_cores=24, fixed_domain_size=4),
    HierarchicalTree(local_tree=FlatTSTree(), top="flat", grid_rows=3),
    HierarchicalTree(local_tree=GreedyTree(), top="greedy", grid_rows=4),
    HierarchicalTree(local_tree=AutoTree(n_cores=8), top="fibonacci", grid_rows=2),
]


class TestPlanValidity:
    @pytest.mark.parametrize("tree", ALL_TREES, ids=lambda t: repr(t))
    @pytest.mark.parametrize("rows", [1, 2, 3, 5, 8, 13, 20])
    def test_plans_are_valid_reductions(self, tree, rows):
        ctx = PanelContext(rows=rows, cols_remaining=3, row_offset=2, n_cores=4, grid_rows=3)
        plan = tree.plan(ctx)
        validate_plan(plan, rows)

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(min_value=1, max_value=60),
        cols=st.integers(min_value=0, max_value=20),
        offset=st.integers(min_value=0, max_value=10),
        cores=st.integers(min_value=1, max_value=48),
        tree_idx=st.integers(min_value=0, max_value=len(ALL_TREES) - 1),
    )
    def test_property_every_tree_every_size(self, rows, cols, offset, cores, tree_idx):
        tree = ALL_TREES[tree_idx]
        ctx = PanelContext(
            rows=rows, cols_remaining=cols, row_offset=offset, n_cores=cores, grid_rows=3
        )
        validate_plan(tree.plan(ctx), rows)


class TestFlatTrees:
    def test_flatts_single_geqrt(self):
        plan = FlatTSTree().plan_rows(6)
        assert plan.geqrt_rows == [0]
        assert all(not e.use_tt for e in plan.eliminations)
        assert all(e.killer == 0 for e in plan.eliminations)
        assert [e.killed for e in plan.eliminations] == [1, 2, 3, 4, 5]

    def test_flattt_all_geqrt(self):
        plan = FlatTTTree().plan_rows(5)
        assert plan.geqrt_rows == [0, 1, 2, 3, 4]
        assert all(e.use_tt for e in plan.eliminations)
        assert all(e.killer == 0 for e in plan.eliminations)

    def test_single_row_plans(self):
        for tree in (FlatTSTree(), FlatTTTree(), GreedyTree()):
            plan = tree.plan_rows(1)
            assert plan.eliminations == []
            assert 0 in plan.geqrt_rows


class TestGreedy:
    def test_binomial_round_count(self):
        for rows in (2, 3, 4, 7, 8, 9, 16, 17):
            elims = binomial_eliminations(rows)
            max_round = max(e.round for e in elims)
            assert max_round + 1 == math.ceil(math.log2(rows))

    def test_binomial_rounds_are_independent(self):
        elims = binomial_eliminations(16)
        by_round = {}
        for e in elims:
            by_round.setdefault(e.round, []).append(e)
        for rnd, batch in by_round.items():
            touched = set()
            for e in batch:
                assert e.killed not in touched
                assert e.killer not in touched
                touched.update((e.killed, e.killer))

    def test_greedy_all_tt(self):
        plan = GreedyTree().plan_rows(10)
        assert all(e.use_tt for e in plan.eliminations)
        assert len(plan.geqrt_rows) == 10

    @pytest.mark.parametrize(
        "p, q",
        [(6, 6), (40, 3), (7, 1), (13, 5), (5, 8)],
        ids=["square", "tall", "one-column", "ragged", "wide"],
    )
    def test_factorization_plans_are_valid_reductions(self, p, q):
        # tiled_qr uses these cross-panel plans instead of tree.plan(ctx):
        # step k reduces the p - k rows at and below the diagonal.
        plans = GreedyTree().plan_factorization(p, q)
        assert len(plans) == min(p, q)
        for k, plan in enumerate(plans):
            validate_plan(plan, p - k)


class TestFibonacci:
    def test_depth_logarithmic(self):
        plan = FibonacciTree().plan_rows(32)
        depth = max(e.round for e in plan.eliminations) + 1
        assert depth <= 2 * math.ceil(math.log2(32)) + 2

    def test_all_tt(self):
        plan = FibonacciTree().plan_rows(9)
        assert all(e.use_tt for e in plan.eliminations)


class TestAuto:
    def test_domain_size_shrinks_with_more_cores(self):
        a_few = auto_domain_size(rows=64, cols_remaining=4, n_cores=4)
        a_many = auto_domain_size(rows=64, cols_remaining=4, n_cores=48)
        assert a_many <= a_few

    def test_domain_size_grows_with_wider_trailing_matrix(self):
        narrow = auto_domain_size(rows=64, cols_remaining=2, n_cores=24)
        wide = auto_domain_size(rows=64, cols_remaining=60, n_cores=24)
        assert wide >= narrow

    def test_enough_parallelism_left(self):
        rows, cols, cores, gamma = 100, 5, 24, 2.0
        a = auto_domain_size(rows, cols, cores, gamma)
        n_tasks = math.ceil(rows / a) * cols
        assert n_tasks >= gamma * cores or a == 1

    def test_plan_mixes_ts_and_tt(self):
        tree = AutoTree(n_cores=4)
        plan = tree.plan(PanelContext(rows=32, cols_remaining=2, n_cores=4))
        kinds = {e.use_tt for e in plan.eliminations}
        assert kinds == {True, False}

    def test_fixed_domain_size(self):
        tree = AutoTree(fixed_domain_size=4)
        ctx = PanelContext(rows=16, cols_remaining=8, n_cores=24)
        assert tree.domain_size(ctx) == 4
        plan = tree.plan(ctx)
        assert plan.geqrt_rows == [0, 4, 8, 12]

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            AutoTree(n_cores=0)
        with pytest.raises(ValueError):
            AutoTree(gamma=0)
        with pytest.raises(ValueError):
            AutoTree(fixed_domain_size=0)


class TestHierarchical:
    def test_falls_back_to_local_tree_on_one_node(self):
        tree = HierarchicalTree(local_tree=FlatTSTree(), grid_rows=1)
        plan = tree.plan(PanelContext(rows=6))
        assert plan.geqrt_rows == [0]

    def test_local_eliminations_stay_within_grid_row(self):
        grid_rows = 3
        tree = HierarchicalTree(local_tree=FlatTSTree(), top="flat", grid_rows=grid_rows)
        ctx = PanelContext(rows=12, row_offset=1, grid_rows=grid_rows)
        plan = tree.plan(ctx)
        ts_elims = [e for e in plan.eliminations if not e.use_tt]
        for e in ts_elims:
            owner_killed = (ctx.row_offset + e.killed) % grid_rows
            owner_killer = (ctx.row_offset + e.killer) % grid_rows
            assert owner_killed == owner_killer

    def test_cross_node_eliminations_are_tt(self):
        grid_rows = 4
        tree = HierarchicalTree(local_tree=FlatTSTree(), top="greedy", grid_rows=grid_rows)
        ctx = PanelContext(rows=16, row_offset=0, grid_rows=grid_rows)
        plan = tree.plan(ctx)
        for e in plan.eliminations:
            owner_killed = e.killed % grid_rows
            owner_killer = e.killer % grid_rows
            if owner_killed != owner_killer:
                assert e.use_tt

    def test_default_for_shape(self):
        tall = HierarchicalTree.default_for_shape(p=40, q=4, grid_rows=4)
        square = HierarchicalTree.default_for_shape(p=8, q=8, grid_rows=4)
        assert tall.top == "flat"
        assert square.top == "fibonacci"

    def test_invalid_top(self):
        with pytest.raises(ValueError):
            HierarchicalTree(top="bogus")


class TestRegistry:
    @pytest.mark.parametrize("name", ["flatts", "flattt", "greedy", "binary", "fibonacci", "auto"])
    def test_make_tree(self, name):
        tree = make_tree(name)
        validate_plan(tree.plan_rows(7), 7)

    def test_make_tree_case_insensitive(self):
        assert isinstance(make_tree("GrEeDy"), GreedyTree)

    def test_make_tree_unknown(self):
        with pytest.raises(ValueError):
            make_tree("does-not-exist")

    def test_make_tree_forwards_kwargs(self):
        tree = make_tree("auto", n_cores=12, gamma=3.0)
        assert tree.n_cores == 12
        assert tree.gamma == 3.0
