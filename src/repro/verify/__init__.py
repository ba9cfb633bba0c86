"""Static verification of compiled Programs and simulated Schedules.

Everything downstream of the compiler — three backends, six scheduling
policies, two network models, the shared replay kernel — interprets
the same cached op-stream :class:`~repro.ir.program.Program`, so a single
missing RAW/WAR edge or an infeasible schedule silently corrupts every
result.  This package provides the *static* correctness oracles the dynamic
golden pins and hash-seed subprocess tests cannot give:

* :func:`verify_program` (:mod:`repro.verify.dataflow`) — an independent
  abstract interpretation of a Program's op stream against per-kernel
  read/write-set semantics (:mod:`repro.verify.semantics`, reimplemented
  from the kernel definitions, not from the compiler), recomputing the full
  RAW/WAR edge set and diffing it against the Program's CSR: missing edges
  (data races), spurious edges, use-before-write reads, access-set and
  owner-tile mismatches, topology and level violations;
* :func:`verify_schedule` (:mod:`repro.verify.schedule`) — static
  feasibility checking of a :class:`~repro.runtime.scheduler.Schedule`:
  precedence with network transfer arrivals, core exclusivity, NIC
  injection accounting, owner-computes mapping, makespan consistency —
  valid under every policy x network x grid combination;
* :mod:`repro.verify.lint` — an AST-based determinism lint
  (``python -m repro.verify.lint src/``) that statically forbids the
  nondeterminism classes the subprocess tests catch only dynamically:
  iteration over unsorted sets in the deterministic core (``ir/``,
  ``runtime/``, ``dag/``), ``id()``-based ordering, wall-clock calls
  inside the engine;
* :func:`reference_schedule` (:mod:`repro.verify.reference`) — the
  object-path reference scheduler the shared replay kernel is compared
  against on every schedule field;
* :mod:`repro.verify.hooks` — the opt-in ``REPRO_VERIFY=1`` hook that
  validates Programs on :class:`~repro.ir.compiler.ProgramCache` insertion
  and Schedules on engine exit.

Surfaced on the command line as ``repro verify`` (plan -> compile ->
verify -> simulate -> sanitize, ``--all-policies`` / ``--all-networks``).
"""

from repro.verify.dataflow import verify_program
from repro.verify.findings import (
    Finding,
    VerificationError,
    VerificationReport,
)
from repro.verify.hooks import verify_enabled
from repro.verify.reference import reference_schedule
from repro.verify.schedule import verify_schedule
from repro.verify.semantics import kernel_access_sets

__all__ = [
    "Finding",
    "VerificationError",
    "VerificationReport",
    "kernel_access_sets",
    "reference_schedule",
    "verify_enabled",
    "verify_program",
    "verify_schedule",
]
