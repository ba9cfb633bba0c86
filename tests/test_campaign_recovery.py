"""Crash-recovery scenarios for the campaign runner.

The claims under test are the PR's headline guarantees:

* a worker killed with SIGKILL mid-campaign is replaced, and the campaign
  still completes with zero lost and zero duplicated result rows; a crash
  inside a chunk of several candidates charges the crashing candidate
  alone;
* a campaign process interrupted with SIGINT exits resumable (code 3)
  with the store holding exactly the finished work, each worker having
  finished at most the candidate it was running; a resume executes
  exactly the remainder and the final store is bitwise identical to an
  uninterrupted sequential run;
* a hung worker trips the per-candidate timeout, costs an attempt, and a
  candidate that always hangs ends quarantined — the campaign finishes
  instead of hanging with it; time a candidate waits for a worker does
  not count against its timeout;
* a spec file that still sets ``chunk_size`` loads and resumes its store;
* the workers of a campaign process killed with SIGKILL exit with it,
  even in the middle of a chunk.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.api.execute import execute
from repro.campaign import (
    CampaignFaults,
    CampaignRunner,
    CampaignSpec,
    ResultStore,
    fault_draw,
    run_campaign,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
BASE = {"m": 256, "n": 192, "tile_size": 64, "n_cores": 2}


def row_key(row) -> str:
    return json.dumps(row, sort_keys=True, default=str)


def reference_rows(spec: CampaignSpec) -> dict:
    """Sequential no-fault execution: the bitwise ground truth."""
    return {
        cand.candidate_id: row_key(execute(cand.plan, backend="simulate").to_row())
        for cand in spec.expand()
    }


def assert_store_matches_reference(store_path, spec: CampaignSpec) -> None:
    store = ResultStore(store_path)
    records = store.records("done")
    store.close()
    got = {rec.candidate_id: row_key(rec.row) for rec in records}
    ref = reference_rows(spec)
    assert set(got) == set(ref), "lost or extra result rows"
    for cid, ref_row in ref.items():
        assert got[cid] == ref_row, f"row for {cid} differs from sequential run"


class TestWorkerKillRecovery:
    def test_sigkill_worker_respawns_and_loses_nothing(self, tmp_path):
        # Every candidate sleeps 0.3s (injected hang, shorter than any
        # timeout) so there is a window to SIGKILL a live worker.
        spec = CampaignSpec(
            name="kill9",
            base=dict(BASE),
            axes={"tree": ["flatts", "greedy", "binary"], "policy": ["list", "fifo"]},
            workers=2,
            max_attempts=5,
            backoff_seconds=0.01,
        )
        runner = CampaignRunner(
            spec,
            tmp_path / "s.sqlite",
            faults=CampaignFaults(hang=1.0, hang_seconds=0.3),
            install_signal_handlers=False,
        )
        result = {}

        def drive():
            result["report"] = runner.run()

        thread = threading.Thread(target=drive)
        thread.start()
        try:
            deadline = time.time() + 10.0
            killed = False
            while not killed and time.time() < deadline:
                pids = runner.worker_pids()
                if pids:
                    os.kill(pids[0], signal.SIGKILL)
                    killed = True
                time.sleep(0.02)
            assert killed, "never saw a live worker to kill"
        finally:
            thread.join(timeout=60.0)
        assert not thread.is_alive(), "campaign did not finish after the kill"
        report = result["report"]
        assert report.complete, report.summary()
        assert report.respawns >= 1
        assert report.duplicates == 0
        assert_store_matches_reference(tmp_path / "s.sqlite", spec)
        runner.store.close()


    def test_a_crash_mid_chunk_charges_only_the_crashing_candidate(self, tmp_path):
        # 24 candidates on 2 workers: the first chunk is candidates 0-2.
        spec = CampaignSpec(
            name="mid-chunk-crash",
            base=dict(BASE),
            axes={
                "tree": ["flatts", "flattt", "greedy", "binary"],
                "policy": ["list", "fifo"],
                "seed": [1, 2, 3],
            },
            workers=2,
            max_attempts=3,
            backoff_seconds=0.01,
        )
        faults = CampaignFaults(crash=0.2, seed=20, limit=1)
        cands = spec.expand()
        crashes = {c.candidate_id for c in cands if fault_draw(faults, c.candidate_id, 1)}
        # Candidate 1 crashes between two that do not.
        assert [c.candidate_id in crashes for c in cands[:3]] == [False, True, False]
        report = run_campaign(spec, tmp_path / "s.sqlite", faults=faults)
        assert report.complete, report.summary()
        assert report.respawns == report.retries == len(crashes) == 6
        store = ResultStore(tmp_path / "s.sqlite")
        attempts = {rec.candidate_id: rec.attempts for rec in store.records()}
        store.close()
        assert attempts == {c.candidate_id: int(c.candidate_id in crashes) for c in cands}
        assert_store_matches_reference(tmp_path / "s.sqlite", spec)


class TestHangTimeoutQuarantine:
    def test_always_hanging_candidates_quarantine(self, tmp_path):
        spec = CampaignSpec(
            name="hangers",
            base=dict(BASE),
            axes={"tree": ["flatts", "greedy"]},
            workers=2,
            max_attempts=2,
            timeout_seconds=0.6,
            backoff_seconds=0.01,
        )
        # Hang far beyond the timeout on every attempt: unrecoverable.
        report = run_campaign(
            spec,
            tmp_path / "s.sqlite",
            faults=CampaignFaults(hang=1.0, hang_seconds=60.0),
        )
        assert not report.complete
        assert not report.interrupted  # quarantined, not aborted
        assert report.counts == {"quarantined": 2}
        assert report.timeouts >= 2 * 2  # every attempt timed out
        store = ResultStore(tmp_path / "s.sqlite")
        for rec in store.records("quarantined"):
            assert rec.attempts == 2
            assert "Timeout" in (rec.error or "")
        store.close()

    def test_transient_hang_recovers_within_budget(self, tmp_path):
        spec = CampaignSpec(
            name="slowstart",
            base=dict(BASE),
            axes={"tree": ["flatts", "greedy"]},
            workers=2,
            max_attempts=3,
            timeout_seconds=0.6,
            backoff_seconds=0.01,
        )
        # Attempt 1 hangs past the timeout; attempt 2 is clean.
        report = run_campaign(
            spec,
            tmp_path / "s.sqlite",
            faults=CampaignFaults(hang=1.0, hang_seconds=60.0, limit=1),
        )
        assert report.complete, report.summary()
        assert report.timeouts >= 1
        assert_store_matches_reference(tmp_path / "s.sqlite", spec)

    def test_queue_wait_does_not_count_against_the_timeout(self, tmp_path):
        # Four 0.7 s candidates on two workers: the last two wait 0.7 s for
        # a worker, yet none of them runs past its 1.0 s budget.
        spec = CampaignSpec(
            name="queued",
            base=dict(BASE),
            axes={"tree": ["flatts", "flattt", "greedy", "binary"]},
            workers=2,
            max_attempts=3,
            timeout_seconds=1.0,
            backoff_seconds=0.01,
        )
        report = run_campaign(
            spec,
            tmp_path / "s.sqlite",
            faults=CampaignFaults(hang=1.0, hang_seconds=0.7),
        )
        assert report.complete, report.summary()
        assert report.timeouts == 0
        assert report.retries == 0
        store = ResultStore(tmp_path / "s.sqlite")
        assert [rec.attempts for rec in store.records()] == [0, 0, 0, 0]
        store.close()


class TestSigintResume:
    """Interrupt a real campaign process, then resume it to completion."""

    def spec_payload(self) -> dict:
        return {
            "name": "sigint-resume",
            "base": dict(BASE),
            "axes": {
                "tree": ["flatts", "flattt", "greedy", "binary"],
                "policy": ["list", "fifo", "critical-path"],
            },
            "backend": "simulate",
            "workers": 2,
            "max_attempts": 3,
            "backoff_seconds": 0.01,
        }

    def launch(self, spec_path, store_path, *, faults=""):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env["PYTHONUNBUFFERED"] = "1"
        if faults:
            env["REPRO_CAMPAIGN_FAULTS"] = faults
        else:
            env.pop("REPRO_CAMPAIGN_FAULTS", None)
        return subprocess.Popen(
            [
                sys.executable, "-m", "repro", "campaign", "run",
                str(spec_path), "--store", str(store_path),
            ],
            env=env,
            cwd=REPO_ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )

    def test_sigint_then_resume_completes_exactly_the_remainder(self, tmp_path):
        spec = CampaignSpec.from_dict(self.spec_payload())
        n_total = len(spec.expand())
        assert n_total == 12
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(self.spec_payload()))
        store_path = tmp_path / "s.sqlite"

        # Phase 1: run with injected 0.3s hangs (slow, fault-free), SIGINT
        # once some — but not all — candidates have landed.
        proc = self.launch(spec_path, store_path, faults="hang:1.0:0.3")
        try:
            interrupted_at = None
            deadline = time.time() + 60.0
            while time.time() < deadline:
                if store_path.exists():
                    store = ResultStore(store_path)
                    done = store.counts().get("done", 0)
                    store.close()
                    if done >= 2:
                        interrupted_at = done
                        proc.send_signal(signal.SIGINT)
                        break
                time.sleep(0.05)
            assert interrupted_at is not None, "campaign never made progress"
            out, _ = proc.communicate(timeout=60.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 3, f"expected resumable exit 3, got "\
            f"{proc.returncode}\n{out}"
        assert "resume" in out

        store = ResultStore(store_path)
        mid_counts = store.counts()
        store.close()
        assert 0 < mid_counts.get("done", 0) < n_total
        # Crash consistency: nothing is stuck 'running' after the drain.
        assert mid_counts.get("running", 0) == 0
        done_at_interrupt = mid_counts.get("done", 0)

        # Phase 2: resume without faults; must execute exactly the rest.
        proc = self.launch(spec_path, store_path)
        out, _ = proc.communicate(timeout=120.0)
        assert proc.returncode == 0, out
        store = ResultStore(store_path)
        final_counts = store.counts()
        last_run = json.loads(store.get_meta("last_run"))
        store.close()
        assert final_counts == {"done": n_total}
        # The resume skipped exactly the work the interrupted run banked.
        assert last_run["resumed_skips"] == done_at_interrupt
        assert last_run["counts"]["done"] == n_total
        assert last_run["duplicates"] == 0

        # Zero lost, zero duplicated, bitwise equal to a sequential run.
        assert_store_matches_reference(store_path, spec)

    def test_second_sigint_stops_without_waiting(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(self.spec_payload()))
        store_path = tmp_path / "s.sqlite"
        # Every candidate hangs 30 s: a drain after one SIGINT would wait
        # for that, and a worker left alive would hold the output open.
        proc = self.launch(spec_path, store_path, faults="hang:1.0:30")
        try:
            deadline = time.time() + 30.0
            while time.time() < deadline:
                if store_path.exists():
                    store = ResultStore(store_path)
                    running = store.counts().get("running", 0)
                    store.close()
                    if running:
                        break
                time.sleep(0.05)
            t0 = time.time()
            proc.send_signal(signal.SIGINT)
            time.sleep(0.3)
            proc.send_signal(signal.SIGINT)
            out, _ = proc.communicate(timeout=20.0)
            stopped_after = time.time() - t0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 3, out
        assert stopped_after < 10.0
        store = ResultStore(store_path)
        counts = store.counts()
        attempts = {rec.attempts for rec in store.records()}
        store.close()
        # The killed chunks went back uncharged.
        assert counts == {"pending": 12}, counts
        assert attempts == {0}

    def test_first_sigint_leaves_the_rest_of_each_chunk(self, tmp_path):
        # 24 candidates on 2 workers: the first chunks hold 3 and 2
        # candidates, each candidate hangs 0.5 s.  A first SIGINT before
        # any answer lets each worker finish the candidate it is running
        # and releases the rest of its chunk uncharged.
        payload = self.spec_payload()
        payload["axes"]["seed"] = [1, 2]
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(payload))
        store_path = tmp_path / "s.sqlite"
        proc = self.launch(spec_path, store_path, faults="hang:1.0:0.5")
        try:
            deadline = time.time() + 30.0
            running = 0
            while not running and time.time() < deadline:
                if store_path.exists():
                    store = ResultStore(store_path)
                    running = store.counts().get("running", 0)
                    store.close()
                time.sleep(0.02)
            assert running == 5, running
            proc.send_signal(signal.SIGINT)
            out, _ = proc.communicate(timeout=20.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 3, out
        store = ResultStore(store_path)
        counts = store.counts()
        attempts = {rec.attempts for rec in store.records()}
        store.close()
        assert 1 <= counts.get("done", 0) <= 2, counts
        assert counts.get("done", 0) + counts.get("pending", 0) == 24, counts
        assert attempts == {0}


class TestLegacySpec:
    def test_a_spec_file_with_chunk_size_resumes_its_store(self, tmp_path):
        payload = {
            "name": "legacy",
            "base": dict(BASE),
            "axes": {"tree": ["flatts", "greedy"], "policy": ["list", "fifo"]},
            "workers": 2,
            "backoff_seconds": 0.01,
        }
        plain = CampaignSpec.from_dict(payload)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({**payload, "chunk_size": 8}))
        legacy = CampaignSpec.from_file(spec_path)
        assert legacy == plain
        assert legacy.fingerprint() == plain.fingerprint()
        # A store begun under the spec without the key resumes under it.
        store_path = tmp_path / "s.sqlite"
        cands = plain.expand()
        store = ResultStore(store_path)
        store.register(cands, plain.fingerprint())
        first = cands[0]
        store.mark_done(
            first.candidate_id, execute(first.plan, backend="simulate").to_row(), 0.1
        )
        store.close()
        report = run_campaign(legacy, store_path)
        assert report.complete, report.summary()
        assert report.resumed_skips == 1
        assert_store_matches_reference(store_path, plain)


class TestKilledRunner:
    def test_workers_exit_with_a_killed_runner(self, tmp_path):
        payload = {
            "name": "orphans",
            "base": dict(BASE),
            "axes": {"tree": ["flatts", "greedy"]},
            "backend": "simulate",
            "workers": 2,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(payload))
        store_path = tmp_path / "s.sqlite"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        # Both candidates hang 10 s: a worker that outlived the runner
        # would hold the runner's stdout and stderr open that long.
        env["REPRO_CAMPAIGN_FAULTS"] = "hang:1.0:10"
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "campaign", "run",
                str(spec_path), "--store", str(store_path),
            ],
            env=env,
            cwd=REPO_ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            deadline = time.time() + 30.0
            running = 0
            while not running and time.time() < deadline:
                if store_path.exists():
                    store = ResultStore(store_path)
                    running = store.counts().get("running", 0)
                    store.close()
                time.sleep(0.05)
            assert running, "the campaign never handed out a chunk"
            time.sleep(0.5)  # let both workers reach their hang
            proc.kill()
            t0 = time.time()
            proc.communicate(timeout=30.0)
            closed_after = time.time() - t0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert closed_after < 5.0, f"workers held the output open {closed_after:.1f}s"
