"""Structured execution tracing for the compile → rank → simulate pipeline.

A :class:`Tracer` collects two kinds of timeline:

* **wall-clock phase spans** — compile, dependency analysis, rank,
  simulate — measured with the tracer's injectable
  :class:`~repro.obs.clock.Clock` (the deterministic core never reads a
  clock itself; see :mod:`repro.obs.clock`);
* **simulated-time execution events** — one task event per op (kernel,
  node, core, topological level, start/finish) plus one transfer event
  per deduplicated message (bytes, handshake / queue / injection / wire
  phases) and the ready-queue depth derived from the engine's release
  times.

The crucial property is that the engine records *nothing inside its event
loop*: every execution event is reconstructed after the loop from state
the loop already computes (``start`` / ``finish`` / ``ready_time`` /
``core_of`` arrays and the transfer-arrival dedup map).  Tracing on or
off therefore cannot perturb a schedule — bit-identity is structural, not
a property the tests merely hope for — and the disabled path costs one
``is None`` test per run.

A tracer is *activated* (:meth:`Tracer.activate`) to make it ambient for
the current thread; the IR compiler and the simulation engine pick it up
via :func:`current_tracer` so no intermediate layer has to thread a
tracer argument through its signature.  ``REPRO_TRACE=1`` turns tracing
on globally for API/CLI entry points (:func:`trace_enabled`), with
``REPRO_TRACE_FILE`` overriding where the CLI writes the trace JSON.

Export to Chrome/Perfetto trace-event JSON and Gantt timelines lives in
:mod:`repro.obs.export`; :meth:`Tracer.to_chrome_trace` and
:meth:`Tracer.write` are thin front doors to it.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

#: Environment variable turning tracing on for API / CLI entry points.
TRACE_ENV = "REPRO_TRACE"
#: Environment variable overriding the CLI's default trace output path.
TRACE_FILE_ENV = "REPRO_TRACE_FILE"


def trace_enabled() -> bool:
    """True when ``REPRO_TRACE`` is set to a non-empty, non-"0" value."""
    return os.environ.get(TRACE_ENV, "0") not in ("", "0")


def default_trace_path() -> str:
    """Where auto-emitted traces go (``REPRO_TRACE_FILE`` or trace.json)."""
    return os.environ.get(TRACE_FILE_ENV) or "trace.json"


_ACTIVE = threading.local()


def current_tracer() -> Optional["Tracer"]:
    """The tracer activated on this thread, or ``None``.

    This is the hook the deterministic core polls: one thread-local read
    when tracing is off, so the disabled path is free.
    """
    return getattr(_ACTIVE, "tracer", None)


@dataclass(frozen=True)
class PhaseSpan:
    """One wall-clock phase (seconds relative to the tracer's origin)."""

    name: str
    begin: float
    end: float
    depth: int

    @property
    def seconds(self) -> float:
        return self.end - self.begin


@dataclass(frozen=True)
class TransferRecord:
    """One deduplicated (producer op, destination node) message.

    All times are simulated seconds.  ``release`` is the producer's finish
    time; the message then spends ``handshake`` seconds in the rendezvous
    protocol (0 when eager / uniform), waits for the sender's NIC until
    ``inject_start``, occupies the NIC for ``injection`` seconds, and
    arrives at the receiver ``wire`` seconds after injection starts.
    """

    op_id: int
    src: int
    dst: int
    n_bytes: int
    release: float
    handshake: float
    inject_start: float
    injection: float
    wire: float
    arrival: float

    @property
    def queued(self) -> float:
        """Seconds spent waiting for the sender's NIC after the handshake."""
        return self.inject_start - (self.release + self.handshake)


@dataclass
class EngineRun:
    """The execution record of one engine replay (simulated time).

    Column-oriented — the arrays are shared with (not copied from) the
    Schedule the engine returns, so recording a run is O(1) plus the
    transfer list.
    """

    label: str
    policy: str
    network: str
    n_nodes: int
    cores_per_node: int
    makespan: float
    kernel_codes: Any  #: np.ndarray of per-op kernel codes
    levels: Any  #: np.ndarray of per-op topological levels
    start: Sequence[float]
    finish: Sequence[float]
    node_of: Sequence[int]
    core_of: Sequence[int]
    ready_time: Sequence[float]
    _transfers: Optional[List[TransferRecord]] = field(default=None, repr=False)
    _transfers_source: Optional[Callable[[], List[TransferRecord]]] = field(
        default=None, repr=False
    )

    @property
    def transfers(self) -> List[TransferRecord]:
        """Per-message transfer records of this run.

        Reconstructed lazily on first read (and cached): the engine hands
        the tracer a zero-argument closure over its post-loop dedup state,
        so a traced replay pays nothing per message until an exporter or
        metrics reader actually asks for the transfer timeline.
        """
        if self._transfers is None:
            source = self._transfers_source
            self._transfers = list(source()) if source is not None else []
        return self._transfers

    def __len__(self) -> int:
        return len(self.start)

    def kernel_names(self) -> List[str]:
        """Per-op kernel names (decoded from the packed code column)."""
        from repro.kernels.costs import KERNEL_LIST

        names = [k.value for k in KERNEL_LIST]
        return [names[code] for code in self.kernel_codes.tolist()]


class Tracer:
    """Collects phase spans and engine runs; exports Chrome traces / Gantts.

    Parameters
    ----------
    clock:
        Wall-clock source for the phase spans (default
        :class:`~repro.obs.clock.WallClock`); tests inject a
        :class:`~repro.obs.clock.FakeClock` for bit-reproducible traces.
    """

    def __init__(self, clock: Optional[Any] = None) -> None:
        if clock is None:
            from repro.obs.clock import WallClock

            clock = WallClock()
        self.clock = clock
        self._origin = clock.now()
        self.phases: List[PhaseSpan] = []
        self._phase_stack: List[Tuple[str, float]] = []
        self.runs: List[EngineRun] = []
        self.meta: Dict[str, Any] = {}

    # ------------------------------------------------------------------ #
    # Wall-clock phase spans
    # ------------------------------------------------------------------ #
    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Record one wall-clock span (nested spans are supported)."""
        begin = self.clock.now() - self._origin
        self._phase_stack.append((name, begin))
        try:
            yield
        finally:
            depth = len(self._phase_stack) - 1
            self._phase_stack.pop()
            end = self.clock.now() - self._origin
            self.phases.append(PhaseSpan(name, begin, end, depth))

    def phase_seconds(self) -> Dict[str, float]:
        """Total wall seconds per phase name (over all recorded spans)."""
        out: Dict[str, float] = {}
        for span in self.phases:
            out[span.name] = out.get(span.name, 0.0) + span.seconds
        return out

    # ------------------------------------------------------------------ #
    # Ambient activation
    # ------------------------------------------------------------------ #
    @contextmanager
    def activate(self) -> Iterator["Tracer"]:
        """Make this tracer ambient for the current thread.

        The IR compiler and the simulation engine poll
        :func:`current_tracer`; activation is what connects them to this
        instance without threading a parameter through every layer.
        Activation is per-thread: other threads do not inherit it.
        """
        previous = current_tracer()
        _ACTIVE.tracer = self
        try:
            yield self
        finally:
            _ACTIVE.tracer = previous

    # ------------------------------------------------------------------ #
    # Engine runs (simulated time)
    # ------------------------------------------------------------------ #
    def record_engine_run(
        self,
        *,
        program: Any,
        policy: str,
        network: str,
        n_nodes: int,
        cores_per_node: int,
        makespan: float,
        start: Sequence[float],
        finish: Sequence[float],
        node_of: Sequence[int],
        core_of: Sequence[int],
        ready_time: Sequence[float],
        transfers: Union[
            List[TransferRecord], Callable[[], List[TransferRecord]], None
        ] = None,
        label: str = "",
    ) -> EngineRun:
        """Attach one replay's execution record (called by the engine).

        ``transfers`` may be an explicit record list or a zero-argument
        callable producing one; a callable defers the per-message
        reconstruction until :attr:`EngineRun.transfers` is first read,
        keeping the traced replay itself O(1) next to the schedule build.
        """
        if callable(transfers):
            eager, source = None, transfers
        else:
            eager, source = list(transfers or ()), None
        run = EngineRun(
            label=label or f"run{len(self.runs)}",
            policy=policy,
            network=network,
            n_nodes=n_nodes,
            cores_per_node=cores_per_node,
            makespan=makespan,
            kernel_codes=program.kernel_codes_np,
            levels=program.levels_np,
            start=start,
            finish=finish,
            node_of=node_of,
            core_of=core_of,
            ready_time=ready_time,
            _transfers=eager,
            _transfers_source=source,
        )
        self.runs.append(run)
        return run

    # ------------------------------------------------------------------ #
    # Export front doors (implementation in repro.obs.export)
    # ------------------------------------------------------------------ #
    def to_chrome_trace(self) -> Dict[str, Any]:
        """The trace as a Chrome/Perfetto trace-event JSON object."""
        from repro.obs.export import chrome_trace

        return chrome_trace(self)

    def write(self, path: str) -> str:
        """Write the Chrome trace JSON to ``path``; returns the path."""
        from repro.obs.export import write_chrome_trace

        return write_chrome_trace(self, path)

    def gantt(self, **kwargs: Any) -> str:
        """Text Gantt chart of the most recent engine run."""
        from repro.obs.export import gantt_text

        if not self.runs:
            return "(no engine run recorded)"
        return gantt_text(self.runs[-1], **kwargs)

    def gantt_svg(self, **kwargs: Any) -> str:
        """SVG Gantt timeline of the most recent engine run."""
        from repro.obs.export import gantt_svg

        if not self.runs:
            raise ValueError("no engine run recorded")
        return gantt_svg(self.runs[-1], **kwargs)
