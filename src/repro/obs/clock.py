"""Injectable clocks for the observability layer.

The tracer measures *wall-clock* phase durations (compile, dependency
analysis, rank, simulate) — but the deterministic core under
:mod:`repro.runtime` is forbidden from reading the wall clock (the
``DTM003`` lint rule): simulated time must come from the machine model
only.  The resolution is ownership: the engine never reads a clock;
it calls into a :class:`~repro.obs.tracer.Tracer`, and the tracer owns a
:class:`Clock` behind this injectable interface.  Production code uses
:class:`WallClock` (``time.perf_counter``); tests inject a
:class:`FakeClock` so even the wall-clock phase spans of a trace are
bit-reproducible and can be golden-pinned.
"""

from __future__ import annotations

import time


class Clock:
    """Monotonic-seconds source consumed by the tracer."""

    def now(self) -> float:
        """Current time in seconds (monotonic within one process)."""
        raise NotImplementedError


class WallClock(Clock):
    """The real wall clock (``time.perf_counter``)."""

    def now(self) -> float:
        return time.perf_counter()


class FakeClock(Clock):
    """Deterministic clock for tests: advances ``step`` seconds per read.

    With a fake clock every phase span of a trace has an exactly
    reproducible duration, so whole trace-event files can be compared
    against golden copies.
    """

    def __init__(self, start: float = 0.0, step: float = 0.5) -> None:
        self._t = float(start)
        self.step = float(step)

    def now(self) -> float:
        t = self._t
        self._t += self.step
        return t

    def advance(self, seconds: float) -> None:
        """Move the clock forward without consuming a tick."""
        self._t += float(seconds)
