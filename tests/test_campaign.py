"""Tests for the fault-tolerant campaign subsystem (:mod:`repro.campaign`).

Process-free where possible (spec / store / faults / aggregate are plain
data + sqlite) and small-pool where not; the heavyweight crash-recovery
scenarios (kill -9, SIGINT + resume, hang + quarantine) live in
``test_campaign_recovery.py``.
"""

import json
import multiprocessing
import sys

import pytest

from repro.api import SvdPlan
from repro.api.execute import execute
from repro.campaign import (
    CampaignFaults,
    CampaignRunner,
    CampaignSpec,
    InjectedFault,
    ResultStore,
    build_chunks,
    campaign_rows,
    campaign_table,
    candidate_id,
    fault_draw,
    parse_faults,
    quarantine_report,
    run_campaign,
    status_summary,
)
from repro.campaign.spec import PLAN_FIELDS

BASE = {"m": 256, "n": 192, "tile_size": 64, "n_cores": 2}


def small_spec(**overrides) -> CampaignSpec:
    kwargs = dict(
        name="test",
        base=dict(BASE),
        axes={"tree": ["flatts", "greedy"], "policy": ["list", "fifo"]},
        backoff_seconds=0.01,
        workers=2,
    )
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


def row_key(row) -> str:
    return json.dumps(row, sort_keys=True, default=str)


# --------------------------------------------------------------------------- #
# Spec
# --------------------------------------------------------------------------- #
class TestCampaignSpec:
    def test_expand_is_the_cartesian_product(self):
        spec = small_spec()
        cands = spec.expand()
        assert len(cands) == 4 == spec.n_combinations()
        assert [c.index for c in cands] == [0, 1, 2, 3]
        # Last axis (policy) varies fastest, matching SvdPlan.sweep order.
        assert [(c.plan.tree, c.plan.policy) for c in cands] == [
            ("flatts", "list"), ("flatts", "fifo"),
            ("greedy", "list"), ("greedy", "fifo"),
        ]

    def test_candidate_ids_are_stable_across_expansions(self):
        a = {c.candidate_id for c in small_spec().expand()}
        b = {c.candidate_id for c in small_spec().expand()}
        assert a == b
        assert len(a) == 4

    def test_candidate_id_hashes_the_resolved_plan(self):
        # tile_size=None resolves to the default; spelling the default
        # explicitly must give the same candidate id.
        from repro.api.resolver import resolve

        implicit = SvdPlan(m=256, n=192, n_cores=2)
        explicit = implicit.with_(tile_size=resolve(implicit).tile_size)
        assert candidate_id(implicit) == candidate_id(explicit)
        assert candidate_id(implicit) != candidate_id(
            implicit.with_(tile_size=32)
        )
        assert candidate_id(implicit, "simulate") != candidate_id(implicit, "dag")

    def test_expand_dedups_same_resolved_plan(self):
        from repro.api.resolver import resolve

        default_nb = resolve(SvdPlan(m=256, n=192, n_cores=2)).tile_size
        spec = CampaignSpec(
            name="dedup",
            base={"m": 256, "n": 192, "n_cores": 2},
            axes={"tile_size": [None, default_nb, 32]},
        )
        assert len(spec.expand()) == 2  # None and default_nb collapse

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown plan field"):
            CampaignSpec(name="x", base={"m": 10, "n": 10, "bogus": 1})
        with pytest.raises(ValueError, match="unknown plan field"):
            CampaignSpec(name="x", base={"m": 10, "n": 10}, axes={"nope": [1]})
        assert "matrix" not in PLAN_FIELDS and "config" not in PLAN_FIELDS

    def test_base_axes_overlap_rejected(self):
        with pytest.raises(ValueError, match="both base and axes"):
            CampaignSpec(
                name="x", base={"m": 10, "n": 10, "tree": "greedy"},
                axes={"tree": ["flatts"]},
            )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"name": "  "},
            {"backend": "warp-drive"},
            {"axes": {"tree": []}},
            {"max_attempts": 0},
            {"timeout_seconds": 0},
            {"backoff_seconds": -1},
            {"workers": 0},
            {"chunk_size": 0},
        ],
    )
    def test_validation(self, kwargs):
        base = dict(name="x", base={"m": 16, "n": 16})
        base.update(kwargs)
        with pytest.raises(ValueError):
            CampaignSpec(**base)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown campaign spec key"):
            CampaignSpec.from_dict({"name": "x", "base": {}, "retries": 3})

    def test_json_file_roundtrip(self, tmp_path):
        spec = small_spec()
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        loaded = CampaignSpec.from_file(path)
        assert loaded == spec
        assert loaded.fingerprint() == spec.fingerprint()

    def test_toml_file(self, tmp_path):
        path = tmp_path / "spec.toml"
        path.write_text(
            'name = "toml-spec"\nbackend = "simulate"\n'
            "[base]\nm = 256\nn = 192\ntile_size = 64\n"
            "[axes]\ntree = [\"flatts\", \"greedy\"]\n"
        )
        if sys.version_info >= (3, 11):
            spec = CampaignSpec.from_file(path)
            assert spec.name == "toml-spec"
            assert len(spec.expand()) == 2
        else:
            with pytest.raises(ValueError, match="TOML"):
                CampaignSpec.from_file(path)

    def test_fingerprint_ignores_robustness_knobs(self):
        a = small_spec(max_attempts=3, timeout_seconds=None)
        b = small_spec(max_attempts=7, timeout_seconds=120.0, workers=8)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != small_spec(name="other").fingerprint()

    def test_build_chunks_singletons_by_default(self):
        cands = small_spec().expand()
        chunks = build_chunks(cands, 1)
        assert [len(c) for c in chunks] == [1, 1, 1, 1]

    def test_build_chunks_slices_expansion_order(self):
        # Chunks are consecutive slices of the expansion order, whatever
        # program each candidate compiles to: the last one may be short.
        cands = small_spec().expand()
        chunks = build_chunks(cands, 3)
        assert chunks == [cands[:3], cands[3:]]
        assert [c for chunk in chunks for c in chunk] == cands
        assert len({c.plan.tree for c in chunks[0]}) == 2
        assert build_chunks(cands, 4) == [cands]


# --------------------------------------------------------------------------- #
# Store
# --------------------------------------------------------------------------- #
class TestResultStore:
    def make_store(self, tmp_path, n=4):
        spec = small_spec()
        cands = spec.expand()[:n]
        store = ResultStore(tmp_path / "store.sqlite")
        store.register(cands, spec.fingerprint())
        return store, cands

    def test_register_and_counts(self, tmp_path):
        store, cands = self.make_store(tmp_path)
        assert len(store) == 4
        assert store.counts() == {"pending": 4}
        # Re-registering is idempotent.
        report = store.register(cands, small_spec().fingerprint())
        assert report.new == 0
        assert len(store) == 4

    def test_fingerprint_mismatch_refused(self, tmp_path):
        store, _ = self.make_store(tmp_path)
        other = small_spec(name="other")
        with pytest.raises(ValueError, match="different campaign"):
            store.register(other.expand(), other.fingerprint())

    def test_mark_done_is_exactly_once(self, tmp_path):
        store, cands = self.make_store(tmp_path)
        cid = cands[0].candidate_id
        store.mark_running([cid])
        assert store.mark_done(cid, {"x": 1}, 0.5) is True
        # A stale duplicate completion must not overwrite the row.
        assert store.mark_done(cid, {"x": 999}, 0.1) is False
        rec = next(r for r in store.records() if r.candidate_id == cid)
        assert rec.status == "done"
        assert rec.row == {"x": 1}
        assert rec.wall_seconds == 0.5

    def test_charge_failure_quarantines_at_max_attempts(self, tmp_path):
        store, cands = self.make_store(tmp_path)
        cid = cands[0].candidate_id
        assert store.charge_failure(cid, "boom 1", max_attempts=3) == ("failed", 1)
        assert store.charge_failure(cid, "boom 2", max_attempts=3) == ("failed", 2)
        status, attempts = store.charge_failure(cid, "boom 3", max_attempts=3)
        assert (status, attempts) == ("quarantined", 3)
        rec = next(r for r in store.records() if r.candidate_id == cid)
        assert rec.error == "boom 3"

    def test_charge_failure_after_done_is_noop(self, tmp_path):
        store, cands = self.make_store(tmp_path)
        cid = cands[0].candidate_id
        store.mark_done(cid, {"x": 1}, 0.1)
        assert store.charge_failure(cid, "late", max_attempts=3) == ("done", 0)
        assert store.status_of(cid) == "done"

    def test_requeue_interrupted_recovers_running_rows(self, tmp_path):
        store, cands = self.make_store(tmp_path)
        ids = [c.candidate_id for c in cands]
        store.mark_running(ids[:2])
        assert store.counts() == {"running": 2, "pending": 2}
        assert store.requeue_interrupted() == 2
        assert store.counts() == {"pending": 4}

    def test_register_requeues_interrupted(self, tmp_path):
        store, cands = self.make_store(tmp_path)
        store.mark_running([cands[0].candidate_id])
        store.close()
        # A fresh open (a resume) sees the orphaned 'running' row.
        store2 = ResultStore(tmp_path / "store.sqlite")
        report = store2.register(cands, small_spec().fingerprint())
        assert report.requeued == 1
        assert store2.counts() == {"pending": 4}

    def test_release_does_not_charge(self, tmp_path):
        store, cands = self.make_store(tmp_path)
        cid = cands[0].candidate_id
        store.mark_running([cid])
        store.release([cid])
        rec = next(r for r in store.records() if r.candidate_id == cid)
        assert rec.status == "pending"
        assert rec.attempts == 0

    def test_mark_running_skips_terminal_rows(self, tmp_path):
        store, cands = self.make_store(tmp_path)
        cid = cands[0].candidate_id
        store.mark_done(cid, {"x": 1}, 0.1)
        store.mark_running([cid])
        assert store.status_of(cid) == "done"

    def test_requeue_quarantined_resets_attempts(self, tmp_path):
        store, cands = self.make_store(tmp_path)
        cid = cands[0].candidate_id
        for i in range(3):
            store.charge_failure(cid, "boom", max_attempts=3)
        assert store.status_of(cid) == "quarantined"
        assert store.requeue_quarantined() == 1
        rec = next(r for r in store.records() if r.candidate_id == cid)
        assert (rec.status, rec.attempts) == ("pending", 0)

    def test_records_ordered_by_expansion_index(self, tmp_path):
        store, cands = self.make_store(tmp_path)
        assert [r.candidate_id for r in store.records()] == [
            c.candidate_id for c in cands
        ]


# --------------------------------------------------------------------------- #
# Faults
# --------------------------------------------------------------------------- #
class TestFaults:
    def test_parse(self):
        faults = parse_faults("crash:0.1,hang:0.05:2.5,raise:0.2,seed:7,limit:2")
        assert faults == CampaignFaults(
            crash=0.1, hang=0.05, raise_=0.2, hang_seconds=2.5, seed=7, limit=2
        )

    @pytest.mark.parametrize(
        "text",
        ["crash", "warp:0.1", "crash:0.1,crash:0.2", "crash:0.1:7", "crash:1.5"],
    )
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            parse_faults(text)

    def test_probabilities_must_fit(self):
        with pytest.raises(ValueError, match="sum"):
            CampaignFaults(crash=0.6, hang=0.6)

    def test_draws_are_deterministic_and_respect_limit(self):
        faults = CampaignFaults(crash=0.5, raise_=0.5, seed=3, limit=2)
        draws = [fault_draw(faults, "cand", a) for a in (1, 2, 3, 4)]
        assert draws == [fault_draw(faults, "cand", a) for a in (1, 2, 3, 4)]
        assert draws[0] in ("crash", "raise") and draws[1] in ("crash", "raise")
        assert draws[2] is None and draws[3] is None  # past the limit

    def test_draws_decorrelate_candidates_and_seeds(self):
        faults = CampaignFaults(crash=0.5)
        draws_a = [fault_draw(faults, "a", k) for k in range(1, 40)]
        draws_b = [fault_draw(faults, "b", k) for k in range(1, 40)]
        assert draws_a != draws_b
        reseeded = CampaignFaults(crash=0.5, seed=99)
        assert [fault_draw(reseeded, "a", k) for k in range(1, 40)] != draws_a

    def test_env_parsing(self, monkeypatch):
        from repro.campaign.faults import ENV_VAR, active_faults

        monkeypatch.delenv(ENV_VAR, raising=False)
        assert active_faults() is None
        monkeypatch.setenv(ENV_VAR, "raise:0.5")
        assert active_faults() == CampaignFaults(raise_=0.5)
        monkeypatch.setenv(ENV_VAR, "")
        assert active_faults() is None

    def test_maybe_inject_raise(self):
        from repro.campaign.faults import maybe_inject

        faults = CampaignFaults(raise_=1.0)
        with pytest.raises(InjectedFault):
            maybe_inject(faults, "cand", 1)
        maybe_inject(None, "cand", 1)  # no faults: no-op


# --------------------------------------------------------------------------- #
# Runner
# --------------------------------------------------------------------------- #
class TestCampaignRunner:
    def test_clean_campaign_matches_sequential_execution(self, tmp_path):
        spec = small_spec()
        report = run_campaign(spec, tmp_path / "s.sqlite")
        assert report.complete
        assert report.counts == {"done": 4}
        assert not report.interrupted
        store = ResultStore(tmp_path / "s.sqlite")
        rows = {r.candidate_id: r.row for r in store.records("done")}
        for cand in spec.expand():
            ref = execute(cand.plan, backend="simulate").to_row()
            assert row_key(rows[cand.candidate_id]) == row_key(ref)
        store.close()

    @pytest.mark.parametrize("spec", [
        # Same tree, different seeds: every chunk holds one program.
        pytest.param(CampaignSpec(
            name="chunky",
            base={**BASE, "tree": "flatts"},
            axes={"seed": [1, 2, 3, 4, 5, 6]},
            chunk_size=3,
            workers=2,
            backoff_seconds=0.01,
        ), id="same-program"),
        # Expansion-order chunks that mix trees (programs) and policies.
        pytest.param(small_spec(chunk_size=3), id="mixed-programs"),
    ])
    def test_chunked_campaign_is_bitwise_equal(self, tmp_path, spec):
        report = run_campaign(spec, tmp_path / "s.sqlite")
        assert report.complete
        store = ResultStore(tmp_path / "s.sqlite")
        rows = {r.candidate_id: r.row for r in store.records("done")}
        store.close()
        for cand in spec.expand():
            ref = execute(cand.plan, backend="simulate").to_row()
            assert row_key(rows[cand.candidate_id]) == row_key(ref)

    def test_resume_skips_completed_candidates(self, tmp_path):
        spec = small_spec()
        cands = spec.expand()
        store = ResultStore(tmp_path / "s.sqlite")
        store.register(cands, spec.fingerprint())
        done = cands[0]
        store.mark_done(
            done.candidate_id, execute(done.plan, backend="simulate").to_row(), 0.1
        )
        store.close()
        report = run_campaign(spec, tmp_path / "s.sqlite")
        assert report.complete
        assert report.resumed_skips == 1

    def test_injected_raise_faults_retry_to_completion(self, tmp_path):
        spec = small_spec(max_attempts=3)
        faults = CampaignFaults(raise_=1.0, limit=1)  # attempt 1 always fails
        report = run_campaign(spec, tmp_path / "s.sqlite", faults=faults)
        assert report.complete
        assert report.retries == 4  # one charged retry per candidate
        assert report.quarantined == 0
        store = ResultStore(tmp_path / "s.sqlite")
        assert all(rec.attempts == 1 for rec in store.records("done"))
        store.close()

    def test_unrecoverable_faults_quarantine_not_abort(self, tmp_path):
        spec = small_spec(max_attempts=2)
        faults = CampaignFaults(raise_=1.0)  # every attempt fails
        report = run_campaign(spec, tmp_path / "s.sqlite", faults=faults)
        assert not report.complete
        assert not report.interrupted  # ran to the end, did not abort
        assert report.counts == {"quarantined": 4}
        store = ResultStore(tmp_path / "s.sqlite")
        for rec in store.records("quarantined"):
            assert rec.attempts == 2
            assert "InjectedFault" in (rec.error or "")
        store.close()

    def test_quarantined_rows_bitwise_recoverable_via_requeue(self, tmp_path):
        spec = small_spec(max_attempts=2)
        run_campaign(
            spec, tmp_path / "s.sqlite", faults=CampaignFaults(raise_=1.0)
        )
        report = run_campaign(
            spec, tmp_path / "s.sqlite", requeue_quarantined=True, faults=None
        )
        assert report.complete
        store = ResultStore(tmp_path / "s.sqlite")
        rows = {r.candidate_id: r.row for r in store.records("done")}
        store.close()
        for cand in spec.expand():
            ref = execute(cand.plan, backend="simulate").to_row()
            assert row_key(rows[cand.candidate_id]) == row_key(ref)

    def test_crash_faults_respawn_and_converge(self, tmp_path):
        spec = small_spec(max_attempts=4, timeout_seconds=30.0)
        faults = CampaignFaults(crash=1.0, limit=1)  # attempt 1 always dies
        report = run_campaign(spec, tmp_path / "s.sqlite", faults=faults)
        assert report.complete, report.summary()
        assert report.respawns >= 1
        store = ResultStore(tmp_path / "s.sqlite")
        rows = {r.candidate_id: r.row for r in store.records("done")}
        store.close()
        for cand in spec.expand():
            ref = execute(cand.plan, backend="simulate").to_row()
            assert row_key(rows[cand.candidate_id]) == row_key(ref)

    def test_metrics_counters_reported(self, tmp_path):
        from repro.obs.metrics import REGISTRY

        before = REGISTRY.snapshot()
        spec = small_spec(max_attempts=3)
        run_campaign(
            spec, tmp_path / "s.sqlite", faults=CampaignFaults(raise_=1.0, limit=1)
        )
        delta = REGISTRY.delta_since(before)
        assert delta.get("campaign.done") == 4
        assert delta.get("campaign.retries") == 4

    def test_last_run_meta_persisted(self, tmp_path):
        run_campaign(small_spec(), tmp_path / "s.sqlite")
        store = ResultStore(tmp_path / "s.sqlite")
        meta = json.loads(store.get_meta("last_run"))
        store.close()
        assert meta["counts"] == {"done": 4}
        assert meta["interrupted"] is False

    def test_store_fingerprint_guard_via_runner(self, tmp_path):
        run_campaign(small_spec(), tmp_path / "s.sqlite")
        with pytest.raises(ValueError, match="different campaign"):
            run_campaign(small_spec(name="other"), tmp_path / "s.sqlite")


# --------------------------------------------------------------------------- #
# Aggregation
# --------------------------------------------------------------------------- #
class TestAggregate:
    def test_rows_and_table(self, tmp_path):
        spec = small_spec()
        run_campaign(spec, tmp_path / "s.sqlite")
        rows = campaign_rows(tmp_path / "s.sqlite")
        assert len(rows) == 4
        table = campaign_table(tmp_path / "s.sqlite")
        assert "tree" in table and "flatts" in table
        assert len(table.splitlines()) == 2 + 4  # header + rule + rows

    def test_empty_store_tables(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        store.close()
        assert campaign_table(tmp_path / "s.sqlite") == "(no completed candidates)"
        assert quarantine_report(tmp_path / "s.sqlite") == "(no quarantined candidates)"

    def test_quarantine_report_lists_errors(self, tmp_path):
        spec = small_spec(max_attempts=1)
        run_campaign(
            spec, tmp_path / "s.sqlite", faults=CampaignFaults(raise_=1.0)
        )
        report = quarantine_report(tmp_path / "s.sqlite")
        assert report.count("\n") == 3  # 4 lines
        assert "attempts=1" in report and "InjectedFault" in report

    def test_status_summary(self, tmp_path):
        run_campaign(small_spec(), tmp_path / "s.sqlite")
        summary = status_summary(tmp_path / "s.sqlite")
        assert "4/4 done (100.0%)" in summary
        assert "spec" in summary


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #
class TestCampaignCli:
    def write_spec(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(small_spec().to_dict()))
        return path

    def test_run_status_report(self, tmp_path, capsys):
        from repro.cli import main

        spec_path = self.write_spec(tmp_path)
        store_path = tmp_path / "s.sqlite"
        assert main(
            ["campaign", "run", str(spec_path), "--store", str(store_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "[complete]" in out

        assert main(["campaign", "status", str(store_path)]) == 0
        assert "4/4 done" in capsys.readouterr().out

        json_out = tmp_path / "rows.json"
        assert main(
            ["campaign", "report", str(store_path), "--json", str(json_out)]
        ) == 0
        capsys.readouterr()
        assert len(json.loads(json_out.read_text())) == 4

    def test_run_again_resumes_with_skips(self, tmp_path, capsys):
        from repro.cli import main

        spec_path = self.write_spec(tmp_path)
        store_path = tmp_path / "s.sqlite"
        main(["campaign", "run", str(spec_path), "--store", str(store_path)])
        capsys.readouterr()
        assert main(
            ["campaign", "resume", str(spec_path), "--store", str(store_path)]
        ) == 0
        assert "skipped (already done) : 4" in capsys.readouterr().out

    def test_quarantine_exit_code_and_report(self, tmp_path, capsys, monkeypatch):
        from repro.campaign.faults import ENV_VAR
        from repro.cli import main

        monkeypatch.setenv(ENV_VAR, "raise:1.0")
        spec_path = self.write_spec(tmp_path)
        store_path = tmp_path / "s.sqlite"
        code = main(
            ["campaign", "run", str(spec_path), "--store", str(store_path),
             "--max-attempts", "1"]
        )
        assert code == 1
        capsys.readouterr()
        monkeypatch.delenv(ENV_VAR)
        assert main(
            ["campaign", "report", str(store_path), "--quarantine"]
        ) == 0
        assert "InjectedFault" in capsys.readouterr().out

    def test_bad_spec_file_is_a_user_error(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x", "warp": 9}')
        assert main(["campaign", "run", str(bad)]) == 2
        assert "error" in capsys.readouterr().err


# --------------------------------------------------------------------------- #
# Experiment registry
# --------------------------------------------------------------------------- #
class TestRegistry:
    def test_campaign_experiment_registered(self):
        from repro.experiments.registry import get_experiment, run_experiment

        exp = get_experiment("campaign")
        assert "campaign" in exp.description.lower() or "sweep" in exp.description.lower()
        rows = run_experiment(
            "campaign", m=128, n=96, tile_size=32, trees=("flatts",),
            policies=("list", "fifo"),
        )
        assert len(rows) == 2
        assert all(r["status"] == "done" for r in rows)
        assert all("candidate" in r for r in rows)


# --------------------------------------------------------------------------- #
# PlanCache crash-safety (satellite of this PR)
# --------------------------------------------------------------------------- #
def _hammer_cache(args):
    path, tag, n = args
    from repro.tuning.cache import PlanCache

    for i in range(n):
        PlanCache(path).put(f"{tag}-{i}", {"value": i})


class TestPlanCacheConcurrency:
    def test_two_processes_hammering_lose_no_entries(self, tmp_path):
        path = str(tmp_path / "cache.json")
        n = 40
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(2) as pool:
            pool.map(_hammer_cache, [(path, "a", n), (path, "b", n)])
        from repro.tuning.cache import PlanCache

        cache = PlanCache(path)
        assert len(cache) == 2 * n
        for tag in ("a", "b"):
            for i in range(n):
                assert cache.get(f"{tag}-{i}")["value"] == i

    def test_put_merges_entries_from_other_processes(self, tmp_path):
        # Two handles to the same file: a stale in-memory snapshot must
        # not clobber what the other handle wrote (the pre-lock bug).
        from repro.tuning.cache import PlanCache

        path = tmp_path / "cache.json"
        first, second = PlanCache(path), PlanCache(path)
        first.put("from-first", {"v": 1})
        second.put("from-second", {"v": 2})
        fresh = PlanCache(path)
        assert fresh.get("from-first") is not None
        assert fresh.get("from-second") is not None
