"""Backend dispatch: run one plan through one lens of the paper.

``execute(plan, backend=...)`` resolves the plan once and hands the
resolved form to one of three backends:

* ``"numeric"``  — the exact tiled Householder pipeline (GE2BND /
  GE2VAL / GESVD), with per-stage wall-clock timings and accuracy
  against ``numpy.linalg.svd`` of the input;
* ``"dag"``      — the critical-path engine, interpreting the compiled
  :class:`~repro.ir.program.Program`; reports task counts, per-kernel
  counts and the critical path in Table-I units;
* ``"simulate"`` — the event-driven runtime engine replaying the same
  compiled program under the plan's scheduling policy; reports simulated
  time, GFlop/s, task and message counts.

All three backends read one op stream,
:meth:`~repro.api.resolver.ResolvedPlan.program`, through the shared
in-process program cache (:data:`repro.ir.compiler.PROGRAM_CACHE`), so a
sweep traces each DAG shape once, no matter how many candidates consume it.

Backend modules are imported lazily so that importing :mod:`repro.api`
stays cheap and free of import cycles.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Union

import numpy as np

from repro.api.plan import SvdPlan
from repro.api.resolver import ResolvedPlan, overflow_exponent, resolve
from repro.api.result import RunResult
from repro.obs.metrics import REGISTRY

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.tracer import Tracer

#: Names accepted by :func:`execute`.
BACKENDS = ("numeric", "dag", "simulate")


def _base_result(resolved: ResolvedPlan, backend: str) -> RunResult:
    plan = resolved.plan
    return RunResult(
        backend=backend,
        plan=plan,
        stage=resolved.stage,
        variant=resolved.variant,
        tree=resolved.tree_name,
        m=resolved.m,
        n=resolved.n,
        p=resolved.p,
        q=resolved.q,
        tile_size=resolved.tile_size,
        n_cores=plan.n_cores,
        n_nodes=plan.n_nodes,
        grid=f"{resolved.grid.rows}x{resolved.grid.cols}",
        machine=plan.machine,
    )


# --------------------------------------------------------------------------- #
# Numeric backend
# --------------------------------------------------------------------------- #
def _execute_numeric(resolved: ResolvedPlan) -> RunResult:
    """The paper's numeric pipeline: GE2BND, then BND2BD and BD2VAL.

    The tiled GE2BND stage replays the plan's compiled Program
    (:meth:`~repro.api.resolver.ResolvedPlan.program`, the op stream the
    DAG and simulate backends read for the same plan) onto a private copy
    of the input.  ``ge2val`` continues with bulge chasing and the
    bidiagonal QR iteration; ``gesvd`` logs the GE2BND reflectors and runs
    every stage again on the vectors, ``A = (U1 U2 U3) Σ (V3ᵀ V2ᵀ V1ᵀ)``.

    Input near overflow (max|a_ij| above ``2**NUMERIC_MAX_ABS_LOG2``) is
    reduced scaled by ``2**-e`` (:func:`~repro.api.resolver.overflow_exponent`)
    and σ and the band are scaled back exactly; a σ or band entry that
    does not fit in double precision then raises :class:`ValueError`.
    """
    # Imported here, not at module level: the layers are looked up on their
    # modules at call time, where the benchmark harness's probes wrap them.
    from repro.algorithms.accumulate import accumulate_orthogonal_factors
    from repro.algorithms.band import extract_band
    from repro.algorithms.bd2val import bdsqr, bidiagonal_singular_values
    from repro.algorithms.bnd2bd import band_to_bidiagonal
    from repro.algorithms.executor import NumericExecutor
    from repro.ir import replay

    result = _base_result(resolved, "numeric")
    seconds = result.stage_seconds
    gesvd = resolved.stage == "gesvd"
    tiled = resolved.build_tiled()
    # The accuracy reference: the plan's dense input when it carries one,
    # otherwise the input assembled back from its tiles before they are
    # reduced.
    source = resolved.plan.matrix
    dense = np.asarray(source, dtype=float) if isinstance(source, np.ndarray) else None
    reference: Optional[np.ndarray]
    if resolved.stage == "ge2bnd":
        reference = None
    elif dense is not None:
        reference = dense
    else:
        reference = tiled.to_dense()
    exponent = overflow_exponent(dense if dense is not None else tiled)
    if exponent:
        for _, tile in tiled.tiles():
            np.ldexp(tile, -exponent, out=tile)

    t0 = time.perf_counter()
    executor = NumericExecutor(tiled, log_transformations=gesvd)
    replay(resolved.program(), executor)
    band = extract_band(tiled)
    seconds["ge2bnd"] = time.perf_counter() - t0

    if gesvd:
        t0 = time.perf_counter()
        u1, v1 = accumulate_orthogonal_factors(tiled.layout, executor.transform_log)
        seconds["accumulate_u1v1"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        u2, v2t = np.eye(band.n), np.eye(band.n)
        d, e = band_to_bidiagonal(band, u=u2, vt=v2t)
        seconds["bnd2bd"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        bd = bdsqr(d, e)
        seconds["bd2val"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        result.u = u1[:, : band.n] @ (u2 @ bd.u)
        result.vt = (bd.vt @ v2t) @ v1.T
        seconds["compose"] = time.perf_counter() - t0
        result.singular_values = bd.singular_values
    else:
        result.extras["band"] = band
        if resolved.stage == "ge2val":
            t0 = time.perf_counter()
            d, e = band_to_bidiagonal(band)
            seconds["bnd2bd"] = time.perf_counter() - t0
            t0 = time.perf_counter()
            result.singular_values = bidiagonal_singular_values(d, e)
            seconds["bd2val"] = time.perf_counter() - t0

    if exponent:
        _scale_back(result, exponent)
    result.time_seconds = sum(seconds.values())
    if reference is not None and result.singular_values is not None:
        # Against the input, not the reduced matrix: an error anywhere in
        # the pipeline, GE2BND included, shows here.
        ref = np.linalg.svd(reference, compute_uv=False)
        scale = ref[0] if ref[0] > 0 else 1.0
        result.max_rel_error = float(
            np.max(np.abs(result.singular_values - ref)) / scale
        )
    return result


def _scale_back(result: RunResult, exponent: int) -> None:
    """Undo the front door's ``2**-exponent`` scaling on σ and the band."""
    from repro.algorithms.band import BandBidiagonal

    scaled: List[np.ndarray] = []
    with np.errstate(over="ignore"):
        if result.singular_values is not None:
            result.singular_values = np.ldexp(result.singular_values, exponent)
            scaled.append(result.singular_values)
        band = result.extras.get("band")
        if isinstance(band, BandBidiagonal):
            data = np.ldexp(band.data, exponent)
            result.extras["band"] = BandBidiagonal(data, band.n, band.bandwidth)
            scaled.append(data)
    if not all(np.isfinite(values).all() for values in scaled):
        raise ValueError(
            "input near overflow: its singular values exceed the double "
            "precision range (the reduction ran scaled by "
            f"2**-{exponent}); scale the matrix down"
        )


# --------------------------------------------------------------------------- #
# DAG backend
# --------------------------------------------------------------------------- #
def _execute_dag(resolved: ResolvedPlan) -> RunResult:
    if resolved.stage == "gesvd":
        raise ValueError(
            "stage 'gesvd' is only supported by the 'numeric' backend "
            "(the DAG tracer covers the tiled GE2BND stage)"
        )
    # The DAG backend is a Program interpreter: the critical-path engine
    # reads the same compiled op stream (shared in-process cache) that the
    # numeric executor replays and the simulation engine schedules.
    program = resolved.program()
    result = _base_result(resolved, "dag")
    result.n_tasks = len(program)
    result.critical_path = program.critical_path()
    result.extras["n_edges"] = program.n_edges
    # Read off the packed kernel-code column: materializing program.ops
    # here would pin one Op object per op on the cached program.
    result.extras["kernel_counts"] = {
        kernel.name: count for kernel, count in program.kernel_counts().items()
    }
    if resolved.stage == "ge2val":
        result.extras["note"] = (
            "DAG covers the tiled GE2BND stage; BND2BD/BD2VAL are not tiled"
        )
    return result


# --------------------------------------------------------------------------- #
# Simulation backend
# --------------------------------------------------------------------------- #
def _execute_simulate(resolved: ResolvedPlan) -> RunResult:
    from repro.obs.metrics import run_metrics
    from repro.obs.tracer import current_tracer
    from repro.runtime.simulator import simulate

    sim = simulate(resolved)
    plan = resolved.plan
    schedule = sim.schedule
    result = _base_result(resolved, "simulate")
    result.policy = plan.policy
    result.network = plan.network
    if resolved.scenario is not None:
        result.scenario = resolved.scenario.name
    result.distribution = sim.distribution
    result.time_seconds = sim.time_seconds
    result.gflops = sim.gflops
    result.n_tasks = sim.n_tasks
    result.messages = schedule.messages
    result.comm_bytes = schedule.comm_bytes
    result.comm_seconds = schedule.comm_seconds
    result.stage_seconds["ge2bnd"] = sim.ge2bnd_seconds
    if resolved.stage == "ge2val":
        result.stage_seconds["post"] = sim.post_seconds
    # The cache-delta slot is filled by execute()'s registry bracket,
    # which also covers plan resolution and program compilation.
    result.metrics = run_metrics(schedule, resolved.machine, tracer=current_tracer())
    return result


_BACKEND_FNS = {
    "numeric": _execute_numeric,
    "dag": _execute_dag,
    "simulate": _execute_simulate,
}


def _resolve_tracer(
    trace: Union[bool, "Tracer", None], plan: SvdPlan
) -> Optional["Tracer"]:
    """Resolve the effective tracer for one ``execute`` call.

    Precedence: an explicit ``trace`` argument (``False`` forces tracing
    off, ``True`` makes a fresh tracer, a :class:`~repro.obs.tracer.Tracer`
    instance is used as-is and accumulates across calls) beats the plan's
    ``trace`` flag, which beats the ``REPRO_TRACE`` environment gate.
    """
    from repro.obs.tracer import Tracer, trace_enabled

    if trace is None:
        trace = bool(plan.trace) or trace_enabled()
    if trace is False:
        return None
    if trace is True:
        return Tracer()
    return trace


def execute(
    plan: Union[SvdPlan, ResolvedPlan],
    backend: str = "numeric",
    *,
    trace: Union[bool, "Tracer", None] = None,
) -> RunResult:
    """Run one plan through one backend and return a :class:`RunResult`.

    Accepts either a declarative :class:`SvdPlan` (resolved here) or an
    already-:class:`ResolvedPlan` (useful to amortize resolution across
    backends of the same plan).

    ``trace`` opts into execution tracing (see :mod:`repro.obs`): ``True``
    records into a fresh :class:`~repro.obs.tracer.Tracer`, an explicit
    tracer instance accumulates multiple runs, ``False`` forces tracing
    off, and ``None`` (default) defers to ``plan.trace`` and then the
    ``REPRO_TRACE`` environment variable.  The tracer, when active, is
    attached to ``RunResult.trace``; every call also attaches the per-run
    cache counters (and, for the simulate backend, utilization and
    communication statistics) to ``RunResult.metrics``.
    """
    name = backend.strip().lower()
    try:
        fn = _BACKEND_FNS[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {backend!r}; choose from {BACKENDS}"
        ) from None
    source_plan = plan.plan if isinstance(plan, ResolvedPlan) else plan
    tracer = _resolve_tracer(trace, source_plan)
    before = REGISTRY.snapshot()
    ambient = tracer.activate() if tracer is not None else nullcontext()
    with ambient:
        resolved = plan if isinstance(plan, ResolvedPlan) else resolve(plan)
        result = fn(resolved)
    cache_delta = REGISTRY.delta_since(before)
    if result.metrics is None:
        result.metrics = {"cache": cache_delta}
    else:
        result.metrics["cache"] = cache_delta
    result.trace = tracer
    return result


def execute_sweep(
    plans: Iterable[Union[SvdPlan, ResolvedPlan]],
    backend: str = "simulate",
) -> List[Dict[str, object]]:
    """Execute a list of plans (e.g. from :meth:`SvdPlan.sweep`) and return
    the flattened result rows — the surface experiment tables build on.

    Each plan runs through :func:`execute`, in order, so a row is exactly
    that plan's ``execute(plan, backend).to_row()``, an ambient tracer
    records every simulated plan, and the first failing plan raises.
    Candidates that share a compiled program share its memoized pricing
    and dispatch orders (:mod:`repro.runtime.replay`).
    """
    return [execute(plan, backend).to_row() for plan in plans]
