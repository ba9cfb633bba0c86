"""Compatibility module: only the ``run_scenario`` attribute remains.

Every plan is simulated through :func:`repro.api.execute`, one plan at a
time (``execute_sweep`` loops over it).  ``benchmarks/harness/probes.py``
still wraps ``repro.runtime.batch.run_scenario`` as a timing probe, so the
attribute stays until the harness stops naming this module.
"""

from repro.runtime.scenario import run_scenario

__all__ = ["run_scenario"]
