"""Fault-tolerant campaign runner: resumable sweeps that survive crashes.

The existing :func:`repro.api.execute_sweep` runs a parameter sweep in
one process and loses everything on the first crash.  This package turns
a sweep into a *campaign* — a declarative spec executed by worker
processes with bounded retries, per-task timeouts, worker-crash recovery
and a crash-consistent sqlite result store, so a killed or interrupted
campaign resumes exactly where it stopped::

    from repro.campaign import CampaignSpec, run_campaign

    spec = CampaignSpec(
        name="tree-study",
        base={"m": 1024, "n": 768, "tile_size": 128, "n_cores": 4},
        axes={"tree": ["flatts", "greedy", "binary"]},
        max_attempts=3,
        timeout_seconds=60,
    )
    report = run_campaign(spec, "tree-study.sqlite")
    assert report.complete

Modules: :mod:`~repro.campaign.spec` (declarative sweeps, stable
candidate ids), :mod:`~repro.campaign.store` (sqlite WAL ledger,
exactly-once results), :mod:`~repro.campaign.runner` (one pipe per
worker through :mod:`repro.utils.workers`, each failure charged to the
candidate that caused it, retry/timeout/respawn/quarantine, signal-drain
resume),
:mod:`~repro.campaign.faults` (campaign-level crash/hang/raise
injection) and :mod:`~repro.campaign.aggregate` (tables and summaries).
"""

from repro.campaign.aggregate import (
    campaign_rows,
    campaign_table,
    quarantine_report,
    status_summary,
)
from repro.campaign.faults import (
    CampaignFaults,
    InjectedFault,
    active_faults,
    fault_draw,
    parse_faults,
)
from repro.campaign.runner import CampaignReport, CampaignRunner, run_campaign
from repro.campaign.spec import Candidate, CampaignSpec, candidate_id
from repro.campaign.store import CandidateRecord, RegisterReport, ResultStore

__all__ = [
    "CampaignFaults",
    "CampaignReport",
    "CampaignRunner",
    "CampaignSpec",
    "Candidate",
    "CandidateRecord",
    "InjectedFault",
    "RegisterReport",
    "ResultStore",
    "active_faults",
    "campaign_rows",
    "campaign_table",
    "candidate_id",
    "fault_draw",
    "parse_faults",
    "quarantine_report",
    "run_campaign",
    "status_summary",
]
