"""Tests for the autotuning subsystem (:mod:`repro.tuning`)."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.api import SvdPlan, execute, resolve
from repro.config import Config
from repro.runtime.simulator import simulate
from repro.tuning import (
    OBJECTIVES,
    GridSearch,
    PlanCache,
    SearchSpace,
    SuccessiveHalving,
    default_tile_sizes,
    divisor_grids,
    get_objective,
    get_strategy,
    tune,
)

#: A small, fast space shared by the search tests.
SMALL_SPACE = SearchSpace(
    tile_sizes=(20, 40, 80),
    trees=("flatts", "greedy"),
    variants=("bidiag",),
)

SMALL_PLAN = SvdPlan(m=400, n=400, stage="ge2val", n_cores=4)


# --------------------------------------------------------------------------- #
# SearchSpace
# --------------------------------------------------------------------------- #
class TestSearchSpace:
    def test_default_space_dimensions(self):
        dims = SearchSpace().dimensions(SMALL_PLAN)
        assert dims["tile_size"] == default_tile_sizes(400, 400)
        assert dims["tree"] == ("flatts", "flattt", "greedy", "auto")
        assert dims["variant"] == ("bidiag", "rbidiag")
        assert dims["grid"] == (None,)
        assert dims["inner_block"] == (32,)

    def test_candidates_cover_the_product(self):
        plans = SMALL_SPACE.candidates(SMALL_PLAN)
        assert len(plans) == 6
        assert {p.tile_size for p in plans} == {20, 40, 80}
        assert all(p.variant == "bidiag" for p in plans)

    def test_size_matches_product(self):
        assert SMALL_SPACE.size(SMALL_PLAN) == 6

    def test_duplicate_variants_are_deduped(self):
        # On a 3:1 tall-skinny shape Chan resolves "auto" to rbidiag, so
        # ("auto", "rbidiag") collapses to one candidate per (nb, tree).
        space = SearchSpace(
            tile_sizes=(20,), trees=("greedy",), variants=("auto", "rbidiag")
        )
        plans = space.candidates(SvdPlan(m=300, n=100))
        assert len(plans) == 1

    def test_explicit_matrix_is_dropped(self, rng):
        plan = SvdPlan(matrix=rng.standard_normal((60, 40)))
        plans = SMALL_SPACE.candidates(plan)
        assert all(p.matrix is None for p in plans)
        assert all((p.m, p.n) == (60, 40) for p in plans)

    def test_grid_dimension_defaults_to_divisor_pairs(self):
        plan = SvdPlan(m=400, n=400, n_nodes=4)
        dims = SearchSpace().dimensions(plan)
        assert dims["grid"] == ((1, 4), (2, 2), (4, 1))

    def test_prime_node_count_degenerates_to_flat_grids(self):
        assert divisor_grids(7) == ((1, 7), (7, 1))

    def test_grid_entries_not_covering_nodes_are_filtered(self):
        plan = SvdPlan(m=400, n=400, n_nodes=4)
        space = SearchSpace(grids=((2, 2), (3, 1)))
        assert space.dimensions(plan)["grid"] == ((2, 2),)
        with pytest.raises(ValueError, match="covers n_nodes"):
            SearchSpace(grids=((3, 1),)).dimensions(plan)

    def test_validation_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown tree"):
            SearchSpace(trees=("nope",))
        with pytest.raises(ValueError, match="unknown variant"):
            SearchSpace(variants=("nope",))
        with pytest.raises(ValueError, match="tile_sizes"):
            SearchSpace(tile_sizes=())
        with pytest.raises(ValueError, match="tile_sizes"):
            SearchSpace(tile_sizes=(0,))

    def test_fingerprint_is_stable_and_discriminating(self):
        a = SMALL_SPACE.fingerprint(SMALL_PLAN)
        assert a == SMALL_SPACE.fingerprint(SMALL_PLAN)
        b = SearchSpace(
            tile_sizes=(20, 40), trees=("flatts", "greedy"), variants=("bidiag",)
        ).fingerprint(SMALL_PLAN)
        assert a != b


# --------------------------------------------------------------------------- #
# Objectives
# --------------------------------------------------------------------------- #
class TestObjectives:
    def test_registry_and_lookup(self):
        assert set(OBJECTIVES) == {
            "makespan", "gflops", "robust-makespan", "critical-path",
            "comm-volume", "comm-time",
        }
        assert get_objective("MAKESPAN").name == "makespan"
        obj = get_objective("gflops")
        assert get_objective(obj) is obj
        with pytest.raises(ValueError, match="unknown objective"):
            get_objective("speed")

    def test_makespan_scores_and_bound(self):
        obj = get_objective("makespan")
        resolved = resolve(SMALL_PLAN.with_(tile_size=40))
        score = obj.score(resolved)
        bound = obj.bound(resolved)
        assert score > 0
        assert bound is not None
        assert bound <= score  # the bound must be optimistic, or pruning lies

    def test_gflops_direction_and_cost(self):
        obj = get_objective("gflops")
        assert obj.direction == "max"
        assert obj.cost(10.0) < obj.cost(5.0)

    def test_critical_path_matches_dag_backend(self):
        obj = get_objective("critical-path")
        plan = SMALL_PLAN.with_(tile_size=40, stage="ge2bnd", tree="greedy")
        assert obj.score(resolve(plan)) == execute(plan, backend="dag").critical_path

    def test_comm_volume_zero_on_one_node(self):
        obj = get_objective("comm-volume")
        assert obj.score(resolve(SMALL_PLAN.with_(tile_size=40))) == 0.0

    def test_comm_volume_positive_on_several_nodes(self):
        obj = get_objective("comm-volume")
        plan = SvdPlan(m=800, n=200, tile_size=50, n_nodes=4, stage="ge2bnd")
        assert obj.score(resolve(plan)) > 0

    def test_gesvd_stage_is_rejected(self):
        with pytest.raises(ValueError, match="gesvd"):
            tune(SvdPlan(m=60, n=40, stage="gesvd"), space=SMALL_SPACE, cache=False)


# --------------------------------------------------------------------------- #
# PlanCache
# --------------------------------------------------------------------------- #
class TestPlanCache:
    def test_roundtrip_and_persistence(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = PlanCache(path)
        assert cache.get("k") is None
        cache.put("k", {"overrides": {"tile_size": 40}, "score": 1.5})
        assert PlanCache(path).get("k")["score"] == 1.5
        assert len(PlanCache(path)) == 1

    def test_corrupt_file_is_treated_as_empty(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text("{not json")
        cache = PlanCache(path)
        assert cache.get("k") is None
        cache.put("k", {"score": 1.0})
        assert json.loads(path.read_text())["entries"]["k"]["score"] == 1.0

    def test_foreign_version_is_ignored(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text(json.dumps({"version": 999, "entries": {"k": {}}}))
        assert PlanCache(path).get("k") is None

    def test_clear_removes_file(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = PlanCache(path)
        cache.put("k", {"score": 1.0})
        assert cache.clear() == 1
        assert not path.exists()
        assert len(PlanCache(path)) == 0

    def test_env_var_controls_default_path(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TUNE_CACHE", str(tmp_path / "via_env.json"))
        assert PlanCache().path == tmp_path / "via_env.json"


# --------------------------------------------------------------------------- #
# Search strategies
# --------------------------------------------------------------------------- #
class TestGridSearch:
    def test_pruned_search_matches_exhaustive(self):
        exhaustive = tune(
            SMALL_PLAN, space=SMALL_SPACE, strategy=GridSearch(prune=False), cache=False
        )
        pruned = tune(SMALL_PLAN, space=SMALL_SPACE, cache=False)
        assert pruned.best_plan == exhaustive.best_plan
        assert pruned.best_score == pytest.approx(exhaustive.best_score)
        assert exhaustive.n_evaluated == 6 and exhaustive.n_pruned == 0

    def test_best_really_is_the_minimum(self):
        result = tune(
            SMALL_PLAN, space=SMALL_SPACE, strategy=GridSearch(prune=False), cache=False
        )
        scores = {
            ev.plan.tile_size: ev.score for ev in result.evaluations
            if ev.plan.tree == "greedy"
        }
        assert result.best_score <= min(scores.values())

    def test_process_pool_agrees_with_serial(self, monkeypatch):
        from repro.tuning import search

        mapped = []
        real_map = search._PoolBox.map

        def spy(self, fn, items, chunksize=1):
            items = list(items)
            mapped.append(len(items))
            return real_map(self, fn, items, chunksize)

        monkeypatch.setattr(search._PoolBox, "map", spy)
        # Unprunable races fan out over the pool, bitwise equal to serial.
        four_nodes = SvdPlan(m=400, n=400, stage="ge2val", n_cores=2, n_nodes=4)
        for plan, kwargs in (
            (four_nodes, dict(objective="comm-volume")),
            (SMALL_PLAN, dict(strategy=GridSearch(prune=False))),
        ):
            serial = tune(plan, space=SMALL_SPACE, cache=False, **kwargs)
            assert mapped == []
            parallel = tune(plan, space=SMALL_SPACE, cache=False, workers=2, **kwargs)
            assert mapped == [serial.n_candidates]  # the pool really ran
            mapped.clear()
            assert [ev.score for ev in parallel.evaluations] == [
                ev.score for ev in serial.evaluations
            ]
            assert parallel.best_plan == serial.best_plan
            assert parallel.best_score == serial.best_score

        # A prunable race walks serially and never builds a pool.
        def no_pool(*args, **kwargs):
            raise AssertionError("a prunable race built a process pool")

        monkeypatch.setattr(search, "ProcessPoolExecutor", no_pool)
        for strategy in ("grid", "halving"):
            kwargs = dict(space=SMALL_SPACE, cache=False, strategy=strategy)
            serial = tune(SMALL_PLAN, **kwargs)
            parallel = tune(SMALL_PLAN, workers=2, **kwargs)
            assert parallel.n_pruned > 0
            assert parallel.best_score == serial.best_score
        assert mapped == []

    def test_rows_flag_exactly_one_best(self):
        result = tune(SMALL_PLAN, space=SMALL_SPACE, cache=False)
        rows = result.rows()
        assert len(rows) == 6
        assert sum(1 for r in rows if r["best"]) == 1
        assert {"tile_size", "tree", "variant", "grid", "score", "pruned"} <= set(rows[0])

    def test_invalid_knobs_are_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            tune(SMALL_PLAN, space=SMALL_SPACE, cache=False, workers=0)
        with pytest.raises(ValueError, match="unknown strategy"):
            get_strategy("anneal")


class TestSuccessiveHalving:
    def test_halving_returns_a_candidate_scored_at_full_size(self):
        space = SearchSpace(
            tile_sizes=(20, 40, 80),
            trees=("flatts", "flattt", "greedy", "auto"),
            variants=("bidiag",),
        )
        plan = SvdPlan(m=1600, n=1600, n_cores=4, stage="ge2bnd")
        result = tune(plan, space=space, strategy="halving", cache=False)
        assert result.strategy == "halving"
        key = (result.best_plan.tile_size, str(result.best_plan.tree))
        assert key in {(p.tile_size, str(p.tree)) for p in space.candidates(plan)}
        # Early rungs ran on scaled-down problems, the winner at full size.
        assert any(ev.fidelity is not None for ev in result.evaluations)
        full = [ev for ev in result.evaluations if ev.fidelity is None]
        assert len(full) < result.n_candidates
        assert result.best_score in [ev.score for ev in full]

    def test_eta_validation(self):
        with pytest.raises(ValueError, match="eta"):
            SuccessiveHalving(eta=1)


# --------------------------------------------------------------------------- #
# tune() + cache integration
# --------------------------------------------------------------------------- #
class TestTuneCache:
    def test_second_call_is_served_from_cache(self, tmp_path):
        cache = PlanCache(tmp_path / "cache.json")
        first = tune(SMALL_PLAN, space=SMALL_SPACE, cache=cache)
        assert not first.from_cache and first.n_evaluated > 0
        second = tune(SMALL_PLAN, space=SMALL_SPACE, cache=cache)
        assert second.from_cache
        assert second.n_evaluated == 0 and second.evaluations == []
        assert second.best_plan == first.best_plan
        assert second.best_score == pytest.approx(first.best_score)

    def test_force_retunes_despite_cache(self, tmp_path):
        cache = PlanCache(tmp_path / "cache.json")
        tune(SMALL_PLAN, space=SMALL_SPACE, cache=cache)
        again = tune(SMALL_PLAN, space=SMALL_SPACE, cache=cache, force=True)
        assert not again.from_cache and again.n_evaluated > 0

    def test_key_distinguishes_problem_and_objective(self, tmp_path):
        cache = PlanCache(tmp_path / "cache.json")
        tune(SMALL_PLAN, space=SMALL_SPACE, cache=cache)
        other_shape = tune(
            SMALL_PLAN.with_(m=500, n=500), space=SMALL_SPACE, cache=cache
        )
        assert not other_shape.from_cache
        other_objective = tune(
            SMALL_PLAN, space=SMALL_SPACE, objective="gflops", cache=cache
        )
        assert not other_objective.from_cache

    def test_key_distinguishes_strategy_settings(self, tmp_path):
        cache = PlanCache(tmp_path / "cache.json")
        tune(SMALL_PLAN, space=SMALL_SPACE, strategy=SuccessiveHalving(eta=2), cache=cache)
        for strategy in (
            SuccessiveHalving(eta=8, prune=False),
            SuccessiveHalving(eta=2, min_tile_multiple=3),
            SuccessiveHalving(eta=2, prune=False),
            GridSearch(prune=False),
        ):
            other = tune(SMALL_PLAN, space=SMALL_SPACE, strategy=strategy, cache=cache)
            assert not other.from_cache, strategy
        again = tune(
            SMALL_PLAN, space=SMALL_SPACE, strategy=SuccessiveHalving(eta=2), cache=cache
        )
        assert again.from_cache

    def test_tile_size_auto_resolves_through_tuner(self):
        plan = SvdPlan(m=300, n=300, tile_size="auto", n_cores=4)
        resolved = resolve(plan)
        assert isinstance(resolved.tile_size, int)
        assert resolved.tile_size in default_tile_sizes(300, 300)
        # Second resolution is a cache hit (same answer, no re-search).
        assert resolve(plan).tile_size == resolved.tile_size

    def test_auto_plan_executes_end_to_end(self):
        result = execute(SvdPlan(m=120, n=80, tile_size="auto"), backend="simulate")
        assert result.time_seconds > 0
        assert isinstance(result.tile_size, int)

    def test_api_level_tune_wrapper(self):
        from repro.api import tune as api_tune

        result = api_tune(SMALL_PLAN, space=SMALL_SPACE, cache=False)
        assert result.best_plan.tile_size in (20, 40, 80)

    def test_explicit_matrix_survives_tuning(self, rng, tmp_path):
        """The tuned plan must execute on the caller's data, not a random one."""
        import numpy as np

        a = rng.standard_normal((60, 40))
        cache = PlanCache(tmp_path / "cache.json")
        space = SearchSpace(tile_sizes=(8, 16), trees=("greedy",), variants=("bidiag",))
        tuned = tune(SvdPlan(matrix=a, stage="ge2val"), space=space, cache=cache)
        assert tuned.best_plan.matrix is a
        result = execute(tuned.best_plan, backend="numeric")
        ref = np.linalg.svd(a, compute_uv=False)
        assert np.allclose(result.singular_values, ref)
        # The cache-hit path returns the matrix too.
        warm = tune(SvdPlan(matrix=a, stage="ge2val"), space=space, cache=cache)
        assert warm.from_cache and warm.best_plan.matrix is a

    def test_tiled_matrix_input_is_densified_for_retiling(self, rng):
        from repro.tiles.matrix import TiledMatrix

        a = rng.standard_normal((60, 40))
        tiled = TiledMatrix.from_dense(a, 10)
        space = SearchSpace(tile_sizes=(8, 16), trees=("greedy",), variants=("bidiag",))
        tuned = tune(SvdPlan(matrix=tiled), space=space, cache=False)
        # A dense copy, so the tuned nb (!= 10) can re-tile it at execution.
        assert tuned.best_plan.matrix.shape == (60, 40)
        assert not isinstance(tuned.best_plan.matrix, TiledMatrix)
        execute(tuned.best_plan, backend="simulate")

    def test_custom_objective_instance_is_used_directly(self):
        from repro.tuning.objectives import Objective

        class NegTileSize(Objective):
            # Not registered in OBJECTIVES: instances must pass through.
            name = "neg-tile"
            direction = "max"

            def score(self, resolved):
                return float(resolved.tile_size)

        result = tune(SMALL_PLAN, space=SMALL_SPACE, objective=NegTileSize(), cache=False)
        assert result.best_plan.tile_size == 80  # maximizing tile size


# --------------------------------------------------------------------------- #
# The scoring route: one bound-ordered walk for both strategies
# --------------------------------------------------------------------------- #
def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _simulated_score(objective: str, plan: SvdPlan) -> float:
    sim = simulate(resolve(plan))
    if objective == "robust-makespan" and sim.distribution is not None:
        return sim.distribution.p95
    return {
        "makespan": sim.time_seconds,
        "robust-makespan": sim.time_seconds,
        "gflops": sim.gflops,
        "comm-time": sim.schedule.comm_seconds,
    }[objective]


class TestTuningRoute:
    #: One SMALL_PLAN-sized problem per simulator objective.
    PLANS = {
        "makespan": SMALL_PLAN,
        "gflops": SMALL_PLAN,
        "robust-makespan": SMALL_PLAN.with_(
            n_cores=2, n_nodes=2, scenario="straggler", draws=4, seed=3
        ),
        "comm-time": SMALL_PLAN.with_(n_cores=2, n_nodes=2, network="alpha-beta"),
    }

    @pytest.mark.parametrize("objective", ["makespan", "gflops", "robust-makespan"])
    def test_pruned_winner_matches_exhaustive(self, objective):
        plan = self.PLANS[objective]
        exhaustive = tune(
            plan, space=SMALL_SPACE, objective=objective,
            strategy=GridSearch(prune=False), cache=False,
        )
        pruned = tune(plan, space=SMALL_SPACE, objective=objective, cache=False)
        assert exhaustive.n_pruned == 0 and pruned.n_pruned > 0
        assert pruned.best_plan == exhaustive.best_plan
        assert pruned.best_score == exhaustive.best_score  # bitwise

    #: One-core problems on small tile grids: an analytic bound priced
    #: from the asymptotic flop count exceeds the tiled work there and
    #: would prune the winner's run (nb = 75 at 500 x 300, 44 at 350 x 350).
    TINY_GRIDS = (
        SvdPlan(m=500, n=300, stage="ge2val", n_cores=1),
        SvdPlan(m=350, n=350, stage="ge2val", n_cores=1),
    )

    @pytest.mark.parametrize("objective", ["makespan", "gflops"])
    def test_analytic_bound_never_exceeds_schedule_bound(self, objective):
        obj = get_objective(objective)
        plans = self.TINY_GRIDS + (self.PLANS["comm-time"],)
        for plan in plans:
            for candidate in SearchSpace().candidates(plan):
                resolved = resolve(candidate)
                assert obj.cost(obj.bound(resolved)) <= obj.cost(
                    obj.schedule_bound(resolved)
                )

    @pytest.mark.parametrize("plan", TINY_GRIDS, ids=["500x300", "350x350"])
    def test_tiny_grids_keep_the_exhaustive_winner(self, plan):
        exhaustive = tune(plan, strategy=GridSearch(prune=False), cache=False)
        pruned = tune(plan, cache=False)
        assert pruned.best_plan == exhaustive.best_plan
        assert pruned.best_score == exhaustive.best_score

    @pytest.mark.parametrize("strategy", ["grid", "halving"])
    @pytest.mark.parametrize("objective", sorted(PLANS))
    def test_scores_equal_simulate(self, objective, strategy):
        result = tune(
            self.PLANS[objective], space=SMALL_SPACE, objective=objective,
            strategy=strategy, cache=False,
        )
        scored = [ev for ev in result.evaluations if ev.score is not None]
        assert scored
        for ev in scored:
            plan = ev.plan
            if ev.fidelity is not None:
                plan = plan.with_(m=ev.fidelity[0], n=ev.fidelity[1])
            assert ev.score == _simulated_score(objective, plan)  # bitwise

    def test_default_space_compiles_few_programs(self):
        from repro.ir import clear_program_cache
        from repro.obs.metrics import REGISTRY

        clear_program_cache()
        before = REGISTRY.counter("program_cache.misses")
        result = tune(SvdPlan(m=1600, n=1600, stage="ge2val", n_cores=24), cache=False)
        assert result.n_candidates == 40
        # Only the runs whose analytic bound can still win are compiled.
        assert REGISTRY.counter("program_cache.misses") - before <= 8

    @pytest.mark.parametrize("strategy", ["grid", "halving"])
    def test_first_error_is_reported(self, strategy):
        from repro.tuning.objectives import Objective

        class Kaboom(Objective):
            name = "kaboom"

            def score(self, resolved):
                raise RuntimeError("kaboom")

        with pytest.raises(RuntimeError, match="first error: RuntimeError: kaboom"):
            tune(SMALL_PLAN, space=SMALL_SPACE, objective=Kaboom(),
                 strategy=strategy, cache=False)


class TestWinnerPins:
    """Winners pinned (bitwise best scores) from the batched scoring route
    that the bound-ordered walk replaced."""

    def test_tuning_sweep_rows(self):
        from repro.experiments.registry import run_experiment

        rows = run_experiment(
            "tuning-sweep", shapes=((800, 800), (1200, 400)), n_cores=8
        )
        winners = [
            (r["m"], r["n"], r["tile_size"], str(r["tree"]), r["variant"],
             r["best_score"].hex())
            for r in rows
        ]
        assert _digest(winners) == "b08aa0fd84412827"

    def test_halving_winner(self):
        space = SearchSpace(
            tile_sizes=(20, 40, 80),
            trees=("flatts", "flattt", "greedy", "auto"),
            variants=("bidiag", "rbidiag"),
        )
        result = tune(
            SvdPlan(m=800, n=800, n_cores=4, stage="ge2val"),
            space=space, strategy="halving", cache=False,
        )
        best = result.best_plan
        winner = (
            best.tile_size, str(best.tree), best.variant,
            best.config.inner_block if best.config else None,
            result.best_score.hex(),
        )
        assert _digest(winner) == "ac5be6f76750216e"


# --------------------------------------------------------------------------- #
# Distributed tuning (grid shapes) and the inner-block dimension
# --------------------------------------------------------------------------- #
class TestTuningDimensions:
    def test_grid_shape_is_searched_on_several_nodes(self):
        plan = SvdPlan(m=1200, n=300, n_nodes=4, n_cores=4, stage="ge2bnd")
        space = SearchSpace(
            tile_sizes=(75,), trees=("greedy",), variants=("rbidiag",)
        )
        result = tune(plan, space=space, objective="comm-volume", cache=False)
        assert result.n_candidates == 3  # 1x4, 2x2, 4x1
        assert result.best_plan.grid in ((1, 4), (2, 2), (4, 1))
        scores = {ev.plan.grid: ev.score for ev in result.evaluations}
        assert result.best_score == min(s for s in scores.values() if s is not None)

    def test_inner_block_dimension_changes_makespan(self):
        plan = SvdPlan(m=400, n=400, n_cores=4, stage="ge2bnd")
        space = SearchSpace(
            tile_sizes=(50,),
            trees=("greedy",),
            variants=("bidiag",),
            inner_blocks=(2, 32),
        )
        result = tune(plan, space=space, strategy=GridSearch(prune=False), cache=False)
        scores = {
            ev.plan.config.inner_block: ev.score for ev in result.evaluations
        }
        assert scores[2] != scores[32]  # ib reaches the performance model
        assert result.best_plan.config.inner_block == 32  # tiny ib is slower

    def test_tuned_config_flows_into_execution(self):
        plan = SMALL_PLAN.with_(
            tile_size=40, config=Config(inner_block=8), stage="ge2bnd"
        )
        fast_ib = SMALL_PLAN.with_(tile_size=40, stage="ge2bnd")
        slow = execute(plan, backend="simulate").time_seconds
        fast = execute(fast_ib, backend="simulate").time_seconds
        assert slow > fast
