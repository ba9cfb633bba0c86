"""Common result type returned by every backend.

A :class:`RunResult` normalizes what the three lenses of the paper report
— per-stage timings, task/message counts, critical paths and numerical
accuracy — into one record, so that experiment sweeps can tabulate
heterogeneous backends side by side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional

import numpy as np

from repro.api.plan import SvdPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.tracer import Tracer


class _Deferred:
    """A field value not computed yet: ``fn()`` computes it."""

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[], Any]) -> None:
        self.fn = fn


class _OnFirstRead:
    """Descriptor for a :class:`RunResult` field a backend may defer.

    The value lives in the instance ``__dict__``; when it is a
    :class:`_Deferred` (:meth:`RunResult.defer`), the first read computes
    it and stores the result, and an assignment replaces it.  As a
    dataclass field default it reads as ``None``.
    """

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, obj: Any, owner: Optional[type] = None) -> Any:
        if obj is None:
            return None
        value = obj.__dict__.get(self.name)
        if type(value) is _Deferred:
            value = obj.__dict__[self.name] = value.fn()
        return value

    def __set__(self, obj: Any, value: Any) -> None:
        # ``field(default=self)`` hands the descriptor itself to __init__
        # as the default: that is the field's ``None``.
        obj.__dict__[self.name] = None if value is self else value


@dataclass
class RunResult:
    """Outcome of executing one :class:`~repro.api.plan.SvdPlan`.

    Fields that a backend does not produce stay ``None``:

    * ``numeric``  fills ``singular_values`` (and ``u``/``vt`` for the
      ``gesvd`` stage), wall-clock ``stage_seconds`` and
      ``max_rel_error`` (vs ``numpy.linalg.svd`` of the input, for the
      ``ge2val`` and ``gesvd`` stages);
    * ``dag``      fills ``n_tasks`` and ``critical_path`` (Table-I weight
      units) plus per-kernel counts in ``extras``;
    * ``simulate`` fills ``time_seconds``, ``gflops``, ``n_tasks``,
      ``messages``, ``comm_bytes`` and the simulated ``stage_seconds``.

    ``max_rel_error`` and the simulate backend's ``metrics`` are computed
    on first read, not by :func:`~repro.api.execute.execute`: the reference
    SVD and the utilization summary cost a large share of a small run, and
    sweeps, campaign workers and :meth:`to_row` rows (which leave out
    ``metrics``) mostly never read them.  Until then the result holds what
    they are computed from: the plan's input and σ, or the schedule and
    the run's cache counters.
    """

    backend: str
    plan: SvdPlan
    stage: str
    variant: str
    tree: str
    m: int
    n: int
    p: int
    q: int
    tile_size: int
    n_cores: int
    n_nodes: int
    grid: str = "1x1"
    machine: str = "miriel"
    #: Scheduling policy the simulation engine replayed the program under;
    #: ``None`` for backends that do not schedule (numeric, dag).
    policy: Optional[str] = None
    #: Network model the simulation engine priced transfers with
    #: (``uniform`` / ``alpha-beta``); ``None`` for backends that do not
    #: simulate communication (numeric, dag).
    network: Optional[str] = None
    #: Total simulated sending seconds across all nodes (simulate backend).
    comm_seconds: Optional[float] = None
    #: Machine-realism scenario name the simulation ran under (see
    #: :mod:`repro.runtime.scenario`); ``None`` for the default path.
    scenario: Optional[str] = None
    #: Monte-Carlo makespan distribution for stochastic scenarios
    #: (``time_seconds`` stays the nominal replay); ``None`` otherwise.
    distribution: Optional[object] = field(default=None, repr=False)
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    time_seconds: Optional[float] = None
    gflops: Optional[float] = None
    n_tasks: Optional[int] = None
    messages: Optional[int] = None
    comm_bytes: Optional[int] = None
    critical_path: Optional[float] = None
    singular_values: Optional[np.ndarray] = None
    u: Optional[np.ndarray] = None
    vt: Optional[np.ndarray] = None
    #: Max |σ - σ_numpy| / σ_numpy,max against ``numpy.linalg.svd`` of the
    #: plan's input (numeric ``ge2val`` / ``gesvd``), computed on first
    #: read inside a ``numeric.check`` phase of the then-ambient tracer.
    max_rel_error: Optional[float] = field(default=_OnFirstRead())
    extras: Dict[str, object] = field(default_factory=dict)
    #: Per-run observability snapshot (:func:`repro.obs.metrics.run_metrics`):
    #: cache hit/miss deltas for every backend; utilization, communication
    #: and — when traced — ready-queue / message-size statistics for the
    #: simulate backend, computed on first read.  Deliberately excluded
    #: from :meth:`to_row` so the experiment-table schema stays flat and
    #: pinned.
    metrics: Optional[Dict[str, object]] = field(default=_OnFirstRead(), repr=False)
    #: The :class:`~repro.obs.tracer.Tracer` that recorded this run, when
    #: tracing was requested (``plan.trace`` / ``execute(trace=...)`` /
    #: ``REPRO_TRACE=1``); ``None`` otherwise.
    trace: Optional["Tracer"] = field(default=None, repr=False)

    def defer(self, name: str, fn: Callable[[], Any]) -> None:
        """Leave field ``name`` (``max_rel_error`` or ``metrics``) to ``fn()``,
        called when the field is first read."""
        if not isinstance(vars(type(self)).get(name), _OnFirstRead):
            raise ValueError(f"RunResult.{name} is not computed on read")
        self.__dict__[name] = _Deferred(fn)

    def to_row(self) -> Dict[str, object]:
        """Flatten the scalar fields into an experiment-table row."""
        row: Dict[str, object] = {
            "backend": self.backend,
            "stage": self.stage,
            "variant": self.variant,
            "tree": self.tree,
            "m": self.m,
            "n": self.n,
            "p": self.p,
            "q": self.q,
            "tile_size": self.tile_size,
            "n_cores": self.n_cores,
            "n_nodes": self.n_nodes,
            "grid": self.grid,
            "machine": self.machine,
        }
        if self.policy is not None:
            row["policy"] = self.policy
        if self.network is not None:
            row["network"] = self.network
        # Scenario columns appear only when a scenario ran, so the pinned
        # default-table schema is untouched.
        if self.scenario is not None:
            row["scenario"] = self.scenario
        if self.distribution is not None:
            row.update(self.distribution.to_row())
        for key in ("time_seconds", "gflops", "n_tasks", "messages", "comm_bytes",
                    "comm_seconds", "critical_path", "max_rel_error"):
            value = getattr(self, key)
            if value is not None:
                row[key] = value
        for stage, seconds in self.stage_seconds.items():
            row[f"seconds_{stage}"] = seconds
        return row

    def summary(self) -> str:
        """Multi-line human-readable report (used by the CLI)."""
        lines = [
            f"backend        : {self.backend}",
            f"stage          : {self.stage}",
            f"matrix         : {self.m} x {self.n}  "
            f"(tiles {self.p} x {self.q}, nb={self.tile_size})",
            f"variant        : {self.variant}",
            f"tree           : {self.tree}",
            f"machine        : {self.n_nodes} node(s) x {self.n_cores} core(s) "
            f"({self.machine}, grid {self.grid})",
        ]
        if self.policy is not None:
            lines.append(f"policy         : {self.policy}")
        if self.network is not None:
            lines.append(f"network        : {self.network}")
        if self.scenario is not None:
            lines.append(f"scenario       : {self.scenario}")
        if self.distribution is not None:
            d = self.distribution
            lines.append(
                f"mc makespan    : mean {d.mean:.4f}s  p50 {d.p50:.4f}s  "
                f"p95 {d.p95:.4f}s  ({d.n_draws} draws, seed {d.seed})"
            )
        if self.n_tasks is not None:
            lines.append(f"tasks          : {self.n_tasks}")
        if self.messages is not None:
            lines.append(f"messages       : {self.messages}")
        if self.comm_seconds is not None and self.comm_seconds > 0:
            lines.append(f"comm time (s)  : {self.comm_seconds:.4f}")
        if self.critical_path is not None:
            lines.append(f"critical path  : {self.critical_path:.0f} (nb^3/3 flop units)")
        if self.time_seconds is not None:
            lines.append(f"time (s)       : {self.time_seconds:.4f}")
        if self.gflops is not None:
            lines.append(f"GFlop/s        : {self.gflops:.1f}")
        for stage, seconds in self.stage_seconds.items():
            lines.append(f"{('t_' + stage):15s}: {seconds:.4f}s")
        if self.singular_values is not None and len(self.singular_values):
            lines.append(f"largest sigma  : {self.singular_values[0]:.6e}")
            lines.append(f"smallest sigma : {self.singular_values[-1]:.6e}")
        if self.max_rel_error is not None:
            lines.append(
                f"max rel error  : {self.max_rel_error:.3e} (vs numpy.linalg.svd)"
            )
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - human-readable report
        return self.summary()
