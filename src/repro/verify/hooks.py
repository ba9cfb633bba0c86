"""Opt-in always-on verification hooks (``REPRO_VERIFY=1``).

With ``REPRO_VERIFY=1`` in the environment, the compiler and the engine
self-check every artifact they produce:

* :class:`~repro.ir.compiler.ProgramCache` verifies each Program with the
  dataflow oracle (:func:`repro.verify.dataflow.verify_program`) before
  inserting it into the cache;
* :class:`~repro.runtime.engine.SimulationEngine` verifies each Schedule
  with the sanitizer (:func:`repro.verify.schedule.verify_schedule`)
  before returning it.

A failed check raises :class:`~repro.verify.findings.VerificationError`
(an :class:`AssertionError` carrying the full report).  The hook call
sites live on the producer side (compiler / engine) behind a cheap
environment test and a lazy import, so the default path pays one string
comparison and no import cost.
"""

from __future__ import annotations

import os
from typing import Optional, Sequence, Union

#: Environment variable gating the hooks.
ENV_VAR = "REPRO_VERIFY"


def verify_enabled() -> bool:
    """True when ``REPRO_VERIFY`` is set to a non-empty, non-"0" value."""
    return os.environ.get(ENV_VAR, "0") not in ("", "0")


def check_program(program) -> None:
    """Verify one compiled Program; raise ``VerificationError`` on findings.

    Called by :meth:`repro.ir.compiler.ProgramCache.get_or_compile` on
    cache insertion when :func:`verify_enabled`.
    """
    from repro.verify.dataflow import verify_program

    verify_program(program).raise_if_failed()


def check_schedule(
    schedule,
    program,
    machine,
    *,
    distribution=None,
    network: Union[str, object] = "uniform",
    durations: Optional[Sequence[float]] = None,
) -> None:
    """Verify one engine Schedule; raise ``VerificationError`` on findings.

    Called by :meth:`repro.runtime.engine.SimulationEngine.run` on exit
    when :func:`verify_enabled`; scenario replays pass ``durations`` (the
    realized per-op durations of a perturbed draw).
    """
    from repro.verify.schedule import verify_schedule

    verify_schedule(
        schedule,
        program,
        machine,
        distribution=distribution,
        network=network,
        durations=durations,
    ).raise_if_failed()
