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
from contextlib import contextmanager, nullcontext
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

import numpy as np

from repro.api.plan import SvdPlan
from repro.api.resolver import ResolvedPlan, resolve, scaling_exponent
from repro.api.result import RunResult
from repro.obs.metrics import REGISTRY

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.tracer import Tracer

#: Names accepted by :func:`execute`.
BACKENDS = ("numeric", "dag", "simulate")

#: What a backend hands :func:`execute`: its result, and the run's
#: metrics as a function of the cache delta (``None``: the delta alone).
Backend = Tuple[RunResult, Optional[Callable[[Dict[str, float]], Dict[str, Any]]]]


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
@contextmanager
def _stage(name: str, seconds: Optional[Dict[str, float]] = None) -> Iterator[None]:
    """One stage of the numeric pipeline.

    Opens the phase ``numeric.<name>`` on the ambient tracer, if any, and
    stores the stage's wall seconds in ``seconds[name]`` when ``seconds``
    is given (the input build and the accuracy check are traced only:
    ``stage_seconds`` holds the pipeline's own stages).
    """
    from repro.obs.tracer import current_tracer

    tracer = current_tracer()
    start = time.perf_counter()
    with tracer.phase(f"numeric.{name}") if tracer is not None else nullcontext():
        yield
    if seconds is not None:
        seconds[name] = time.perf_counter() - start


def _execute_numeric(resolved: ResolvedPlan) -> Backend:
    """The paper's numeric pipeline: GE2BND, then BND2BD and BD2VAL.

    The tiled GE2BND stage replays the plan's compiled Program
    (:meth:`~repro.api.resolver.ResolvedPlan.program`, the op stream the
    DAG and simulate backends read for the same plan) onto a private copy
    of the input.  ``ge2val`` continues with two LAPACK calls: ``dgbbrd``
    chases the band to bidiagonal form and ``dbdsqr`` (dqds) takes its
    singular values.  ``gesvd`` logs the GE2BND reflectors and carries
    the vectors through every stage, ``A = (U1 U2 U3) Σ (V3ᵀ V2ᵀ V1ᵀ)``:
    ``dgbbrd`` forms ``U2`` and ``V2ᵀ``, and ``dbdsqr``'s QR iteration
    (:func:`~repro.algorithms.bd2val.bdsqr`) multiplies ``U3`` and ``V3ᵀ``
    into them in place.

    Input near overflow or underflow (max|a_ij| above
    ``2**NUMERIC_MAX_ABS_LOG2`` or below ``2**NUMERIC_MIN_ABS_LOG2``) is
    reduced scaled by ``2**-e`` (:func:`~repro.api.resolver.scaling_exponent`)
    and σ and the band are scaled back; a σ or band entry that does not
    fit in double precision then raises :class:`ValueError`.

    ``max_rel_error`` is left to its first read (:func:`_accuracy`).
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
    with _stage("input"):
        tiled = resolved.build_tiled()
        source = resolved.plan.matrix
        dense = np.asarray(source, dtype=float) if isinstance(source, np.ndarray) else None
        exponent = scaling_exponent(dense if dense is not None else tiled)
        if exponent:
            for _, tile in tiled.tiles():
                np.ldexp(tile, -exponent, out=tile)

    with _stage("ge2bnd", seconds):
        executor = NumericExecutor(
            tiled, log_transformations=gesvd, inner_block=resolved.config.inner_block
        )
        replay(resolved.program(), executor)
        band = extract_band(tiled)

    if gesvd:
        with _stage("accumulate_u1v1", seconds):
            u1, v1 = accumulate_orthogonal_factors(tiled.layout, executor.transform_log)
        with _stage("bnd2bd", seconds):
            d, e, q, pt = band_to_bidiagonal(band, vectors=True)
        with _stage("bd2val", seconds):
            bd = bdsqr(d, e, u=q, vt=pt)
        with _stage("compose", seconds):
            result.u = u1[:, : band.n] @ bd.u
            result.vt = bd.vt @ v1.T
        result.singular_values = bd.singular_values
    else:
        result.extras["band"] = band
        if resolved.stage == "ge2val":
            with _stage("bnd2bd", seconds):
                d, e = band_to_bidiagonal(band)
            with _stage("bd2val", seconds):
                result.singular_values = bidiagonal_singular_values(d, e)

    if exponent:
        _scale_back(result, exponent)
    result.time_seconds = sum(seconds.values())
    if result.singular_values is not None:
        sigma = result.singular_values
        result.defer("max_rel_error", lambda: _accuracy(resolved, sigma))
    return result, None


def _accuracy(resolved: ResolvedPlan, sigma: np.ndarray) -> float:
    """``max_rel_error`` of ``sigma``: against ``numpy.linalg.svd`` of the
    plan's input, not of the reduced matrix, so an error anywhere in the
    pipeline, GE2BND included, shows here.

    The backend reduced a private copy, so the input is intact: a dense
    input as given, a tiled one (in double precision) or the seeded
    matrix rebuilt.
    """
    with _stage("check"):
        source = resolved.build_matrix()
        if isinstance(source, np.ndarray):
            reference = np.asarray(source, dtype=float)
        else:
            reference = np.asarray(source.to_dense(), dtype=float)
        ref = np.linalg.svd(reference, compute_uv=False)
        scale = ref[0] if ref[0] > 0 else 1.0
        return float(np.max(np.abs(sigma - ref)) / scale)


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
def _execute_dag(resolved: ResolvedPlan) -> Backend:
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
    return result, None


# --------------------------------------------------------------------------- #
# Simulation backend
# --------------------------------------------------------------------------- #
def _execute_simulate(resolved: ResolvedPlan) -> Backend:
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
    machine, tracer = resolved.machine, current_tracer()

    def metrics(cache: Dict[str, float]) -> Dict[str, Any]:
        # Looked up on its module when called: the benchmark harness's
        # probes wrap it there.
        from repro.obs.metrics import run_metrics

        return run_metrics(schedule, machine, counters_delta=cache, tracer=tracer)

    return result, metrics


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

    ``metrics`` on the simulate backend and ``max_rel_error`` on the
    numeric one are computed when first read, not here: the result holds
    the schedule and the cache counters, or the plan's input and σ, until
    then.  The cache counters are taken here, so a late read reports this
    run's.
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
        result, metrics = fn(resolved)
    cache_delta = REGISTRY.delta_since(before)
    if metrics is None:
        result.metrics = {"cache": cache_delta}
    else:
        result.defer("metrics", lambda: metrics(cache_delta))
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
