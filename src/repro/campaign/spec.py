"""Declarative campaign specifications.

A :class:`CampaignSpec` describes a whole experiment sweep — a base
:class:`~repro.api.plan.SvdPlan` plus parameter *axes* whose cartesian
product enumerates every candidate — together with the robustness policy
the runner executes it under (attempts, timeout, backoff, fan-out width).
Specs are plain data: build one in Python, or load it from a JSON / TOML
file so a campaign is one shell command::

    {
      "name": "tree-policy-study",
      "base": {"m": 1024, "n": 768, "tile_size": 128, "n_cores": 4},
      "axes": {"tree": ["flatts", "greedy"], "policy": ["list", "fifo"]},
      "backend": "simulate",
      "max_attempts": 3,
      "timeout_seconds": 120
    }

Candidate identity is the backbone of resumability: every expanded plan
gets a deterministic :func:`candidate_id` — a hash of its *resolved* key
(tile size, variant, grid and tree pinned down by the existing resolver)
— so re-expanding the same spec in a later process maps onto the same
result-store rows, and two spellings of the same resolved plan collapse
to one candidate instead of running twice.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field, fields as dataclass_fields
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro.api.execute import BACKENDS
from repro.api.plan import SvdPlan
from repro.api.resolver import resolve

PathLike = Union[str, Path]

#: Plan fields a spec may set in ``base`` or sweep in ``axes``.
PLAN_FIELDS = tuple(
    f.name for f in dataclass_fields(SvdPlan) if f.name not in ("matrix", "config")
)


@dataclass(frozen=True)
class Candidate:
    """One expanded campaign member: a stable id plus its plan."""

    candidate_id: str
    index: int
    plan: SvdPlan


def candidate_id(plan: SvdPlan, backend: str = "simulate") -> str:
    """Deterministic, stable id of one (plan, backend) candidate.

    The id hashes the *resolved* plan key — tile size, variant, tree and
    process grid after :func:`repro.api.resolver.resolve` — so defaults
    and their explicit spellings (``tile_size=None`` vs the resolver's
    default ``nb``, ``variant="auto"`` vs the Chan winner) yield the same
    id, and resuming a campaign from a re-expanded spec lands on the same
    store rows.
    """
    resolved = resolve(plan)
    key = plan.describe()
    key.update(
        backend=backend,
        tile_size=resolved.tile_size,
        variant=resolved.variant,
        p=resolved.p,
        q=resolved.q,
        grid=f"{resolved.grid.rows}x{resolved.grid.cols}",
    )
    payload = json.dumps(key, sort_keys=True, default=str)
    return hashlib.sha1(payload.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class CampaignSpec:
    """One declarative, fault-tolerantly-runnable experiment sweep.

    Parameters
    ----------
    name:
        Campaign identifier (names the default store file).
    base:
        Plan fields shared by every candidate (``m``/``n`` required).
    axes:
        Field -> list-of-values; candidates are the cartesian product,
        last axis varying fastest (the :meth:`SvdPlan.sweep` order).
    backend:
        Execution backend for every candidate (default ``"simulate"``).
    max_attempts:
        Bounded retries: a candidate that fails (exception, worker crash
        or timeout) this many times is *quarantined* — recorded with its
        error while the campaign continues.
    timeout_seconds:
        Per-candidate wall-clock limit (``None`` = unlimited).  A task
        past its deadline has its worker killed and counts one attempt.
    backoff_seconds:
        Base of the exponential retry backoff (doubling per attempt,
        deterministic jitter seeded per candidate; see
        :mod:`repro.utils.retry`).
    workers:
        Process fan-out width (``None`` defers to the runner default).
    chunk_size:
        Candidates per worker task: consecutive slices of the expansion
        order, each candidate still one ``execute`` call.  ``> 1`` saves
        pool round trips, which dominate on tiny candidates (the README's
        campaign section gives a measurement); retries and timeouts then
        apply chunk-wise.
    """

    name: str
    base: Mapping[str, object] = field(default_factory=dict)
    axes: Mapping[str, Sequence[object]] = field(default_factory=dict)
    backend: str = "simulate"
    max_attempts: int = 3
    timeout_seconds: Optional[float] = None
    backoff_seconds: float = 0.25
    workers: Optional[int] = None
    chunk_size: int = 1

    def __post_init__(self) -> None:
        if not self.name or not str(self.name).strip():
            raise ValueError("campaign name must be a non-empty string")
        object.__setattr__(self, "name", str(self.name).strip())
        object.__setattr__(self, "backend", str(self.backend).strip().lower())
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; choose from {BACKENDS}"
            )
        object.__setattr__(self, "base", dict(self.base))
        object.__setattr__(
            self, "axes", {str(k): list(v) for k, v in dict(self.axes).items()}
        )
        for source, mapping in (("base", self.base), ("axes", self.axes)):
            unknown = set(mapping) - set(PLAN_FIELDS)
            if unknown:
                raise ValueError(
                    f"unknown plan field(s) in {source}: {sorted(unknown)}; "
                    f"known fields: {sorted(PLAN_FIELDS)}"
                )
        overlap = set(self.base) & set(self.axes)
        if overlap:
            raise ValueError(
                f"field(s) in both base and axes: {sorted(overlap)}"
            )
        for name, values in self.axes.items():
            if not values:
                raise ValueError(f"axis {name!r} has no values")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ValueError(
                f"timeout_seconds must be > 0, got {self.timeout_seconds}"
            )
        if self.backoff_seconds < 0:
            raise ValueError(
                f"backoff_seconds must be >= 0, got {self.backoff_seconds}"
            )
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {self.chunk_size}")

    # ------------------------------------------------------------------ #
    # Construction / serialization
    # ------------------------------------------------------------------ #
    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "CampaignSpec":
        """Build a spec from a plain mapping (JSON/TOML-shaped)."""
        payload = dict(payload)
        known = {f.name for f in dataclass_fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(
                f"unknown campaign spec key(s): {sorted(unknown)}; "
                f"known keys: {sorted(known)}"
            )
        return cls(**payload)  # type: ignore[arg-type]

    @classmethod
    def from_file(cls, path: PathLike) -> "CampaignSpec":
        """Load a spec from a ``.json`` or ``.toml`` file."""
        path = Path(path)
        text = path.read_text(encoding="utf-8")
        if path.suffix.lower() == ".toml":
            try:
                import tomllib
            except ImportError:  # Python < 3.11
                raise ValueError(
                    f"cannot load {path}: TOML specs need Python >= 3.11 "
                    "(tomllib); use a JSON spec instead"
                ) from None
            payload = tomllib.loads(text)
        else:
            payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError(f"{path} does not contain a campaign spec object")
        return cls.from_dict(payload)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready mapping (round-trips through :meth:`from_dict`)."""
        return {
            "name": self.name,
            "base": dict(self.base),
            "axes": {k: list(v) for k, v in self.axes.items()},
            "backend": self.backend,
            "max_attempts": self.max_attempts,
            "timeout_seconds": self.timeout_seconds,
            "backoff_seconds": self.backoff_seconds,
            "workers": self.workers,
            "chunk_size": self.chunk_size,
        }

    def fingerprint(self) -> str:
        """Stable hash of the spec's *sweep identity* (name, base, axes,
        backend) — the runner refuses to resume a store written by a
        different sweep.  Robustness knobs (attempts, timeout, workers)
        are deliberately excluded: re-running with more retries or a
        longer timeout is still the same campaign.
        """
        payload = json.dumps(
            {
                "name": self.name,
                "base": self.base,
                "axes": self.axes,
                "backend": self.backend,
            },
            sort_keys=True,
            default=str,
        )
        return hashlib.sha1(payload.encode()).hexdigest()[:16]

    # ------------------------------------------------------------------ #
    # Expansion
    # ------------------------------------------------------------------ #
    def n_combinations(self) -> int:
        """Size of the raw parameter product (before id-level dedup)."""
        total = 1
        for values in self.axes.values():
            total *= len(values)
        return total

    def expand(self) -> List[Candidate]:
        """Enumerate the parameter product as validated candidates.

        Every combination is built through :class:`SvdPlan` (field
        validation) and :func:`candidate_id` (resolver validation), so a
        malformed spec fails here — before anything runs.  Combinations
        that resolve to the same plan collapse onto one candidate
        (first-seen wins), keeping candidate ids unique.
        """
        base_plan = SvdPlan(**self.base)
        names = list(self.axes)
        combos = itertools.product(*(self.axes[name] for name in names))
        seen: Dict[str, int] = {}
        out: List[Candidate] = []
        for combo in combos:
            plan = base_plan.with_(**dict(zip(names, combo))) if names else base_plan
            cid = candidate_id(plan, self.backend)
            if cid in seen:
                continue
            seen[cid] = len(out)
            out.append(Candidate(candidate_id=cid, index=len(out), plan=plan))
        return out


def build_chunks(
    candidates: Sequence[Candidate], chunk_size: int
) -> List[List[Candidate]]:
    """Partition candidates into worker tasks of at most ``chunk_size``.

    Chunks are consecutive slices of the expansion order, for every
    backend.  With ``chunk_size == 1`` (the robustness default) every
    candidate is its own task.
    """
    size = max(1, chunk_size)
    return [list(candidates[i : i + size]) for i in range(0, len(candidates), size)]
