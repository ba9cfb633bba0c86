"""Campaign-level fault injection: make workers crash, hang and raise.

Distinct from :mod:`repro.runtime.faults` (which perturbs the *simulated*
machine inside the engine), this module attacks the campaign runner's own
workers so its recovery paths — worker respawn, per-task timeouts,
bounded retries, quarantine — are themselves tested and benchmarked, not
just written.

Faults are declared in the environment so any campaign entry point can be
hardened without code changes::

    REPRO_CAMPAIGN_FAULTS="crash:0.1,hang:0.05,raise:0.2" repro campaign run ...

Syntax: comma-separated ``kind:probability`` terms, where ``kind`` is

* ``crash`` — the worker process dies hard (``os._exit``), exactly like
  a kill -9 / OOM kill: the runner charges the candidate that worker was
  running, queues the rest of its chunk again uncharged and starts a new
  worker in its place;
* ``hang``  — the worker sleeps (default effectively forever; an optional
  third field sets the duration, e.g. ``hang:0.1:0.5``), exercising the
  per-candidate timeout and kill path;
* ``raise`` — the worker raises :class:`InjectedFault`, the ordinary
  retriable-failure path;

plus two modifiers: ``seed:N`` reseeds the draws and ``limit:N``
restricts injection to the first ``N`` attempts of each candidate —
with ``limit < max_attempts`` a faulty campaign is *guaranteed* to
converge, which is what lets CI and the benchmark assert bitwise-equal
completion under injected faults.

Draws are deterministic per ``(seed, candidate_id, attempt)``: a given
attempt of a given candidate always behaves the same (reproducible
failure schedules), while its retry gets an independent draw.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass
from typing import Optional

#: Environment variable holding the fault spec.
ENV_VAR = "REPRO_CAMPAIGN_FAULTS"

#: Exit code of an injected hard crash (visible in worker post-mortems).
CRASH_EXIT_CODE = 77

#: Default sleep of an injected hang — far beyond any sane task timeout.
DEFAULT_HANG_SECONDS = 3600.0


class InjectedFault(RuntimeError):
    """The exception an injected ``raise`` fault throws in the worker."""


@dataclass(frozen=True)
class CampaignFaults:
    """Parsed injection probabilities (independent per attempt)."""

    crash: float = 0.0
    hang: float = 0.0
    raise_: float = 0.0
    hang_seconds: float = DEFAULT_HANG_SECONDS
    seed: int = 0
    #: Inject only on attempts ``<= limit`` (0 = unlimited).
    limit: int = 0

    def __post_init__(self) -> None:
        for name in ("crash", "hang", "raise_"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} probability must be in [0, 1], got {p}")
        if self.crash + self.hang + self.raise_ > 1.0:
            raise ValueError("fault probabilities must sum to <= 1")
        if self.hang_seconds <= 0:
            raise ValueError(f"hang duration must be > 0, got {self.hang_seconds}")
        if self.limit < 0:
            raise ValueError(f"limit must be >= 0, got {self.limit}")

    @property
    def any(self) -> bool:
        return (self.crash + self.hang + self.raise_) > 0.0


def parse_faults(text: str) -> CampaignFaults:
    """Parse a ``crash:0.1,hang:0.05,raise:0.2,limit:2`` spec string."""
    kwargs: dict = {}
    for raw in text.split(","):
        term = raw.strip()
        if not term:
            continue
        parts = term.split(":")
        kind = parts[0].strip().lower()
        if len(parts) < 2:
            raise ValueError(f"fault term {term!r} needs kind:value")
        if kind in ("seed", "limit"):
            kwargs[kind] = int(parts[1])
            continue
        if kind not in ("crash", "hang", "raise"):
            raise ValueError(
                f"unknown fault kind {kind!r}; "
                "known: crash, hang, raise, seed, limit"
            )
        key = "raise_" if kind == "raise" else kind
        if key in kwargs:
            raise ValueError(f"duplicate fault kind {kind!r}")
        kwargs[key] = float(parts[1])
        if kind == "hang" and len(parts) > 2:
            kwargs["hang_seconds"] = float(parts[2])
        elif len(parts) > 2:
            raise ValueError(f"fault term {term!r} has too many fields")
    return CampaignFaults(**kwargs)


def active_faults(environ: Optional[dict] = None) -> Optional[CampaignFaults]:
    """The fault spec from :data:`ENV_VAR`, or ``None`` when unset/empty."""
    env = os.environ if environ is None else environ
    text = env.get(ENV_VAR, "").strip()
    if not text:
        return None
    faults = parse_faults(text)
    return faults if faults.any else None


def fault_draw(
    faults: CampaignFaults, candidate_id: str, attempt: int
) -> Optional[str]:
    """The fault (``"crash"`` / ``"hang"`` / ``"raise"`` / ``None``) this
    attempt is destined for — pure and deterministic, so recovery tests
    can predict schedules without running anything."""
    if not faults.any:
        return None
    if faults.limit and attempt > faults.limit:
        return None
    u = random.Random(f"{faults.seed}:{candidate_id}:{attempt}").random()
    if u < faults.crash:
        return "crash"
    if u < faults.crash + faults.hang:
        return "hang"
    if u < faults.crash + faults.hang + faults.raise_:
        return "raise"
    return None


def maybe_inject(
    faults: Optional[CampaignFaults], candidate_id: str, attempt: int
) -> None:
    """Run inside the worker, before executing a candidate.

    Depending on the deterministic draw: exits the process hard, sleeps
    through the task's timeout budget, raises :class:`InjectedFault`, or
    returns quietly.
    """
    if faults is None:
        return
    kind = fault_draw(faults, candidate_id, attempt)
    if kind is None:
        return
    if kind == "crash":
        os._exit(CRASH_EXIT_CODE)
    if kind == "hang":
        time.sleep(faults.hang_seconds)
        return
    raise InjectedFault(
        f"injected fault for candidate {candidate_id} attempt {attempt}"
    )
