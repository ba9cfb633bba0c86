"""Figure- and table-level experiment drivers.

These functions regenerate the series of every figure and table in the
paper's evaluation section using the runtime simulator and the competitor
models.  Default problem sizes are scaled down (the paper's largest runs
have millions of tile tasks, which a pure-Python simulator cannot sweep in
a benchmark session); set the environment variable ``REPRO_FULL_SCALE=1``
to use the paper's exact sizes.  The *shape* of every comparison (which
tree/algorithm wins, where the crossovers sit) is what the benchmarks
assert, and it is insensitive to this scaling.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Sequence

from repro.analysis.crossover import crossover_table
from repro.analysis.formulas import (
    bidiag_flatts_cp,
    bidiag_flattt_cp,
    bidiag_greedy_cp,
    rbidiag_cp,
)
from repro.api import BACKENDS, RunResult, SvdPlan, execute, execute_sweep
from repro.ir.compiler import get_program
from repro.kernels.costs import KERNEL_WEIGHTS, KernelName
from repro.models.competitors import COMPETITORS
from repro.runtime.machine import Machine
from repro.trees import FlatTSTree, FlatTTTree, GreedyTree

Row = Dict[str, object]


def full_scale() -> bool:
    """Whether the benchmarks should use the paper's exact problem sizes."""
    return os.environ.get("REPRO_FULL_SCALE", "0") not in ("", "0", "false", "False")


def format_rows(rows: Sequence[Row], columns: Optional[Sequence[str]] = None) -> str:
    """Format a list of result rows as an aligned text table."""
    if not rows:
        return "(no data)"
    if columns is None:
        # Union across rows (first-seen order): sweeps with conditional
        # columns — e.g. mc_* on stochastic-scenario rows only — still show
        # every column; rows that lack one print '-'.
        columns = list(dict.fromkeys(key for r in rows for key in r))
    widths = {c: max(len(str(c)), max(len(_fmt(r.get(c))) for r in rows)) for c in columns}
    header = "  ".join(str(c).ljust(widths[c]) for c in columns)
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append("  ".join(_fmt(r.get(c)).ljust(widths[c]) for c in columns))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.1f}"
    return str(value)


# --------------------------------------------------------------------------- #
# Table I
# --------------------------------------------------------------------------- #
def table1_kernel_costs() -> List[Row]:
    """The kernel cost table (Table I), in units of ``nb^3/3`` flops."""
    pairs = [
        (KernelName.GEQRT, KernelName.UNMQR),
        (KernelName.TSQRT, KernelName.TSMQR),
        (KernelName.TTQRT, KernelName.TTMQR),
    ]
    rows: List[Row] = []
    for panel, update in pairs:
        rows.append(
            {
                "panel": panel.value,
                "panel_cost": KERNEL_WEIGHTS[panel],
                "update": update.value,
                "update_cost": KERNEL_WEIGHTS[update],
            }
        )
    return rows


# --------------------------------------------------------------------------- #
# Section IV: critical paths and crossover
# --------------------------------------------------------------------------- #
def critical_path_table(shapes: Iterable[tuple] = ((4, 4), (8, 8), (16, 8), (32, 8), (16, 16))) -> List[Row]:
    """Measured (DAG) vs closed-form critical paths for BIDIAG and R-BIDIAG."""
    rows: List[Row] = []
    trees = {
        "flatts": (FlatTSTree(), bidiag_flatts_cp),
        "flattt": (FlatTTTree(), bidiag_flattt_cp),
        "greedy": (GreedyTree(), bidiag_greedy_cp),
    }
    for p, q in shapes:
        for name, (tree, formula) in trees.items():
            measured = get_program("bidiag", p, q, tree).critical_path()
            rows.append(
                {
                    "p": p,
                    "q": q,
                    "algorithm": "bidiag",
                    "tree": name,
                    "cp_measured": measured,
                    "cp_formula": formula(p, q),
                }
            )
            measured_r = get_program("rbidiag", p, q, tree).critical_path()
            rows.append(
                {
                    "p": p,
                    "q": q,
                    "algorithm": "rbidiag",
                    "tree": name,
                    "cp_measured": measured_r,
                    "cp_formula": rbidiag_cp(p, q, name),
                }
            )
    return rows


def crossover_study(q_values: Sequence[int] = (4, 6, 8, 10, 12, 16)) -> List[Row]:
    """The BIDIAG / R-BIDIAG crossover ratio ``delta_s(q)`` (Section IV-C)."""
    rows: List[Row] = []
    for point in crossover_table(list(q_values)):
        rows.append(
            {"q": point.q, "delta_s": point.delta_s, "p_at_crossover": point.p_at_crossover}
        )
    return rows


# --------------------------------------------------------------------------- #
# Figure 2: shared memory
# --------------------------------------------------------------------------- #
TREES = ("flatts", "flattt", "greedy", "auto")


def _default_machine(n_nodes: int = 1, cores: int = 24, nb: int = 160) -> Machine:
    return Machine(n_nodes=n_nodes, cores_per_node=cores, tile_size=nb)


def _simulate(
    m: int,
    n: int,
    *,
    stage: str = "ge2bnd",
    tree: str = "auto",
    variant: str = "auto",
    n_nodes: int = 1,
    n_cores: int = 24,
    nb: int = 160,
) -> RunResult:
    """One simulated figure point, through the plan API."""
    plan = SvdPlan(
        m=m, n=n, stage=stage, variant=variant, tree=tree,
        tile_size=nb, n_cores=n_cores, n_nodes=n_nodes,
    )
    return execute(plan, "simulate")


def fig2_ge2bnd_square(
    sizes: Optional[Sequence[int]] = None,
    trees: Sequence[str] = TREES,
    n_cores: int = 24,
    nb: int = 160,
) -> List[Row]:
    """Figure 2 (top-left): shared-memory GE2BND on square matrices."""
    if sizes is None:
        sizes = (
            (2500, 5000, 10000, 15000, 20000, 25000, 30000)
            if full_scale()
            else (2000, 4000, 6000, 8000, 10000)
        )
    rows: List[Row] = []
    for mn in sizes:
        for tree in trees:
            sim = _simulate(mn, mn, tree=tree, variant="bidiag", n_cores=n_cores, nb=nb)
            rows.append({"m": mn, "n": mn, "tree": tree, "gflops": sim.gflops})
    return rows


def fig2_ge2bnd_tall_skinny(
    n: int = 2000,
    m_values: Optional[Sequence[int]] = None,
    trees: Sequence[str] = TREES,
    n_cores: int = 24,
    nb: int = 160,
) -> List[Row]:
    """Figure 2 (top-middle / top-right): GE2BND on tall-skinny matrices,
    BIDIAG vs R-BIDIAG for every tree."""
    if m_values is None:
        if n <= 2000:
            m_values = (
                (5000, 10000, 20000, 30000, 40000) if full_scale() else (4000, 8000, 16000, 32000)
            )
        else:
            m_values = (
                (20000, 40000, 60000, 80000, 100000) if full_scale() else (20000, 30000, 40000)
            )
    rows: List[Row] = []
    for m in m_values:
        for tree in trees:
            for alg in ("bidiag", "rbidiag"):
                sim = _simulate(m, n, tree=tree, variant=alg, n_cores=n_cores, nb=nb)
                rows.append(
                    {"m": m, "n": n, "tree": tree, "algorithm": alg, "gflops": sim.gflops}
                )
    return rows


def fig2_ge2val_comparison(
    shapes: Optional[Sequence[tuple]] = None,
    n_cores: int = 24,
    nb: int = 160,
) -> List[Row]:
    """Figure 2 (bottom row): GE2VAL, DPLASMA (best tree) vs competitors."""
    machine = _default_machine(cores=n_cores, nb=nb)
    if shapes is None:
        if full_scale():
            shapes = [(10000, 10000), (20000, 20000), (30000, 30000), (20000, 2000), (40000, 2000)]
        else:
            shapes = [(4000, 4000), (8000, 8000), (16000, 2000), (30000, 2000)]
    rows: List[Row] = []
    for m, n in shapes:
        dplasma = _simulate(m, n, stage="ge2val", n_cores=n_cores, nb=nb)
        rows.append({"m": m, "n": n, "library": "DPLASMA", "gflops": dplasma.gflops})
        for name, model in COMPETITORS.items():
            rows.append({"m": m, "n": n, "library": name, "gflops": model.gflops(m, n, machine)})
    return rows


# --------------------------------------------------------------------------- #
# Figure 3: distributed strong scaling
# --------------------------------------------------------------------------- #
def fig3_strong_scaling_ge2bnd(
    m: int = 10000,
    n: int = 10000,
    node_counts: Sequence[int] = (1, 4, 9, 16, 25),
    trees: Sequence[str] = TREES,
    algorithm: str = "bidiag",
    nb: int = 160,
) -> List[Row]:
    """Figure 3 (top row): distributed GE2BND strong scaling."""
    rows: List[Row] = []
    cores = 23 if m == n else 24
    for nodes in node_counts:
        for tree in trees:
            sim = _simulate(
                m, n, tree=tree, variant=algorithm, n_nodes=nodes, n_cores=cores, nb=nb
            )
            rows.append(
                {
                    "nodes": nodes,
                    "m": m,
                    "n": n,
                    "tree": tree,
                    "algorithm": algorithm,
                    "gflops": sim.gflops,
                    "messages": sim.messages,
                }
            )
    return rows


def fig3_strong_scaling_ge2val(
    m: int = 10000,
    n: int = 10000,
    node_counts: Sequence[int] = (1, 4, 9, 16, 25),
    nb: int = 160,
) -> List[Row]:
    """Figure 3 (bottom row): distributed GE2VAL vs Elemental / ScaLAPACK."""
    rows: List[Row] = []
    cores = 23 if m == n else 24
    for nodes in node_counts:
        machine = _default_machine(n_nodes=nodes, cores=cores, nb=nb)
        dplasma = _simulate(m, n, stage="ge2val", n_nodes=nodes, n_cores=cores, nb=nb)
        rows.append({"nodes": nodes, "library": "DPLASMA", "gflops": dplasma.gflops})
        for name in ("Elemental", "ScaLAPACK"):
            rows.append(
                {
                    "nodes": nodes,
                    "library": name,
                    "gflops": COMPETITORS[name].gflops(m, n, machine),
                }
            )
    return rows


# --------------------------------------------------------------------------- #
# Figure 4: weak scaling
# --------------------------------------------------------------------------- #
def fig4_weak_scaling(
    n: int = 2000,
    rows_per_node: Optional[int] = None,
    node_counts: Sequence[int] = (1, 2, 4, 8, 16, 25),
    trees: Sequence[str] = TREES,
    nb: int = 160,
) -> List[Row]:
    """Figure 4: weak scaling on tall-skinny matrices.

    The paper grows the matrix as ``m = rows_per_node * nodes`` with
    ``rows_per_node = 80,000`` for ``n = 2000`` and ``100,000`` for
    ``n = 10,000``.  The scaled-down default divides those by 10.
    """
    if rows_per_node is None:
        base = 80000 if n <= 2000 else 100000
        rows_per_node = base if full_scale() else base // 10
    rows: List[Row] = []
    for nodes in node_counts:
        m = rows_per_node * nodes
        machine = _default_machine(n_nodes=nodes, cores=24, nb=nb)
        for tree in trees:
            sim = _simulate(m, n, tree=tree, variant="rbidiag", n_nodes=nodes, nb=nb)
            rows.append(
                {
                    "nodes": nodes,
                    "m": m,
                    "n": n,
                    "tree": tree,
                    "stage": "ge2bnd",
                    "gflops": sim.gflops,
                }
            )
        ge2val = _simulate(m, n, stage="ge2val", n_nodes=nodes, nb=nb)
        rows.append(
            {
                "nodes": nodes,
                "m": m,
                "n": n,
                "tree": "auto",
                "stage": "ge2val",
                "gflops": ge2val.gflops,
                "efficiency": ge2val.gflops / (machine.peak_gflops),
            }
        )
        for name in ("Elemental", "ScaLAPACK"):
            g = COMPETITORS[name].gflops(m, n, machine)
            rows.append(
                {
                    "nodes": nodes,
                    "m": m,
                    "n": n,
                    "tree": name,
                    "stage": "ge2val",
                    "gflops": g,
                    "efficiency": g / machine.peak_gflops,
                }
            )
    return rows


# --------------------------------------------------------------------------- #
# Plan-API sweeps (the surface future batching / sharding layers run against)
# --------------------------------------------------------------------------- #
def plan_tree_sweep(
    m: int = 4000,
    n: int = 4000,
    tile_size: int = 250,
    n_cores: int = 24,
    trees: Sequence[str] = ("flatts", "flattt", "greedy", "auto"),
) -> List[Row]:
    """Simulated GE2BND GFlop/s for each reduction tree, via a plan sweep.

    Same quantity as the Figure-2 panels, but expressed as a
    :meth:`~repro.api.SvdPlan.sweep` over the unified plan API instead of
    hand-rolled loops.
    """
    if full_scale():
        m = n = 20000
        tile_size = 160
    base = SvdPlan(
        m=m, n=n, stage="ge2bnd", tile_size=tile_size, n_cores=n_cores
    )
    return execute_sweep(base.sweep(tree=list(trees)), backend="simulate")


def policy_sweep(
    m: int = 4000,
    n: int = 4000,
    tile_size: int = 250,
    n_cores: int = 24,
    n_nodes: int = 4,
    tree: str = "greedy",
    policies: Sequence[str] = ("list", "critical-path", "locality", "random"),
) -> List[Row]:
    """Simulated GE2BND makespan per scheduling policy, via a plan sweep.

    The experiment axis the engine refactor opened: every policy replays
    the *same* compiled :class:`~repro.ir.program.Program` (one trace,
    shared through the in-process program cache), so the rows isolate pure
    scheduling effects.
    """
    if full_scale():
        m = n = 20000
        tile_size = 160
    base = SvdPlan(
        m=m, n=n, stage="ge2bnd", tile_size=tile_size,
        n_cores=n_cores, n_nodes=n_nodes, tree=tree,
    )
    return execute_sweep(base.sweep(policy=list(policies)), backend="simulate")


def network_sweep(
    m: int = 4000,
    n: int = 4000,
    tile_size: int = 250,
    n_cores: int = 8,
    n_nodes: int = 4,
    trees: Sequence[str] = ("flatts", "greedy"),
    networks: Sequence[str] = ("uniform", "alpha-beta"),
) -> List[Row]:
    """Distributed GE2BND under both network models, flat vs greedy top tree.

    The Section VI-D axis the network subsystem opened: the same compiled
    program per tree is replayed under the legacy ``uniform`` model and the
    message-level ``alpha-beta`` model.  Message counts are identical by
    construction (both deduplicate per producer and destination node — the
    rows double as a regression check); what changes is the *time* the
    messages cost, which is where the greedy top tree's extra traffic
    becomes visible.
    """
    if full_scale():
        m = n = 20000
        tile_size = 160
        n_cores = 24
        n_nodes = 16
    base = SvdPlan(
        m=m, n=n, stage="ge2bnd", tile_size=tile_size,
        n_cores=n_cores, n_nodes=n_nodes,
    )
    return execute_sweep(
        base.sweep(tree=list(trees), network=list(networks)), backend="simulate"
    )


def scenario_sweep(
    m: int = 2000,
    n: int = 2000,
    tile_size: int = 250,
    n_cores: int = 8,
    n_nodes: int = 4,
    tree: str = "greedy",
    scenarios: Sequence[str] = ("none", "hetero", "fail-stop", "straggler", "noisy-net"),
    draws: int = 32,
    seed: int = 0,
) -> List[Row]:
    """Simulated GE2BND under the machine-realism scenarios, side by side.

    The axis the scenario subsystem opened: the same compiled program is
    replayed on the ideal machine (``none``), under static heterogeneity
    (``hetero``) and under the stochastic fault/noise models, so the rows
    show how far the paper's nominal makespan degrades per failure mode.
    Stochastic rows carry the Monte-Carlo columns (``mc_mean`` /
    ``mc_p50`` / ``mc_p95``); deterministic rows only the nominal time —
    the ``none`` row is bit-identical to the default simulate path.
    """
    if full_scale():
        m = n = 20000
        tile_size = 160
        n_cores = 24
        draws = 128
    base = SvdPlan(
        m=m, n=n, stage="ge2bnd", tile_size=tile_size,
        n_cores=n_cores, n_nodes=n_nodes, tree=tree,
        draws=draws, seed=seed,
    )
    return execute_sweep(base.sweep(scenario=list(scenarios)), backend="simulate")


def plan_backend_matrix(
    m: int = 60,
    n: int = 40,
    tile_size: int = 10,
    tree: str = "greedy",
) -> List[Row]:
    """One small plan run through all three backends, side by side.

    Demonstrates (and regression-checks) that the numeric, DAG and
    simulation lenses of the paper agree on one problem description.
    """
    plan = SvdPlan(m=m, n=n, stage="ge2val", tile_size=tile_size, tree=tree)
    return [execute(plan, backend=backend).to_row() for backend in BACKENDS]


def tuning_sweep(
    shapes: Sequence[tuple] = ((2000, 2000), (6000, 1200), (1200, 1200)),
    objective: str = "makespan",
    n_cores: int = 24,
    workers: int = 1,
    tile_sizes: Optional[Sequence[int]] = None,
    use_cache: bool = False,
) -> List[Row]:
    """Autotune each shape and tabulate the winning configuration.

    The registry's answer to Section VI-B: instead of quoting the paper's
    tuned ``nb = 160``, let the :mod:`repro.tuning` subsystem find the best
    (tile size, tree, variant) per shape.  Caching is off by default so the
    experiment is self-contained; pass ``use_cache=True`` to go through the
    persistent plan cache.
    """
    from repro.tuning import SearchSpace, tune

    if full_scale():
        shapes = ((20000, 20000), (30000, 30000), (100000, 10000))
    rows: List[Row] = []
    for m, n in shapes:
        plan = SvdPlan(m=m, n=n, stage="ge2val", n_cores=n_cores)
        result = tune(
            plan,
            space=SearchSpace(tile_sizes=tile_sizes),
            objective=objective,
            workers=workers,
            cache=use_cache,
        )
        best = result.best_plan
        rows.append(
            {
                "m": m,
                "n": n,
                "objective": result.objective,
                "best_score": result.best_score,
                "tile_size": best.tile_size,
                "tree": best.tree,
                "variant": best.variant,
                "candidates": result.n_candidates,
                "evaluated": result.n_evaluated,
                "pruned": result.n_pruned,
                "from_cache": result.from_cache,
            }
        )
    return rows


def campaign_demo(
    m: int = 1000,
    n: int = 800,
    tile_size: int = 100,
    n_cores: int = 4,
    workers: int = 2,
    trees: Sequence[str] = ("flatts", "flattt", "greedy", "binary"),
    policies: Sequence[str] = ("list", "fifo"),
) -> List[Row]:
    """Run a small sweep through the fault-tolerant campaign runner.

    The registry's face of :mod:`repro.campaign`: the (tree, policy)
    product executes as a resumable campaign — worker-process fan-out,
    bounded retries, crash-consistent sqlite store — and the completed
    result rows come back annotated with the campaign's bookkeeping
    (candidate id, attempts charged).  Fault injection still applies when
    ``REPRO_CAMPAIGN_FAULTS`` is set, so this doubles as a demo of a sweep
    surviving injected crashes.
    """
    import tempfile
    from pathlib import Path

    from repro.campaign import CampaignSpec, CampaignRunner

    if full_scale():
        m, n, tile_size, n_cores = 20000, 20000, 160, 24
    spec = CampaignSpec(
        name="campaign-demo",
        base={"m": m, "n": n, "tile_size": tile_size, "n_cores": n_cores},
        axes={"tree": list(trees), "policy": list(policies)},
        workers=workers,
        backoff_seconds=0.05,
    )
    with tempfile.TemporaryDirectory(prefix="repro-campaign-") as tmp:
        runner = CampaignRunner(spec, Path(tmp) / "store.sqlite")
        try:
            runner.run()
            records = runner.store.records()
        finally:
            runner.store.close()
    rows: List[Row] = []
    for rec in records:
        row: Row = dict(rec.row) if rec.row else {"error": rec.error}
        row["candidate"] = rec.candidate_id
        row["status"] = rec.status
        row["attempts"] = rec.attempts
        rows.append(row)
    return rows
