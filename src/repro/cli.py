"""Command-line interface.

``python -m repro <command>`` exposes the library's main entry points
without writing any Python:

* ``list``            — list the registered paper experiments;
* ``run <key>``       — run one experiment and print / save its rows;
* ``plan``            — build one :class:`~repro.api.plan.SvdPlan` and run
  it through any backend (``numeric`` / ``dag`` / ``simulate`` / ``all``);
* ``tune``            — autotune a plan (tile size, tree, variant, grid)
  with the :mod:`repro.tuning` subsystem and its persistent plan cache;
* ``critical-path``   — closed-form and DAG-measured critical paths;
* ``simulate``        — one runtime simulation (GE2BND or GE2VAL) under any
  scheduling policy (``--policy``) and network model (``--network``);
* ``trace``           — a traced simulation exporting a Chrome/Perfetto
  trace-event JSON (plus optional ASCII/SVG Gantt charts; see
  :mod:`repro.obs`);
* ``stats``           — a simulation reporting its observability metrics
  (cache hit/miss, per-node utilization, ready-queue depth), optionally
  as JSON;
* ``policies``        — list the simulation engine's scheduling policies;
* ``networks``        — list the simulation engine's network models;
* ``scenarios``       — list the machine-realism scenarios (heterogeneity,
  fault and network-noise models; see :mod:`repro.runtime.scenario`);
* ``verify``          — statically verify a compiled Program (dataflow
  oracle) and its engine Schedules (feasibility sanitizer) for one plan,
  optionally across every policy / network (see :mod:`repro.verify`);
* ``campaign``        — fault-tolerant, resumable sweep campaigns
  (``run`` / ``resume`` / ``status`` / ``report``) over a crash-consistent
  result store (see :mod:`repro.campaign`); ``run`` exits 0 when complete,
  1 with quarantined candidates, 3 when interrupted-but-resumable;
* ``svd``             — compute singular values of a random or ``.npy`` matrix
  with the numeric tiled pipeline and compare against ``numpy.linalg.svd``.

Every plan-backed command (``plan``, ``tune``, ``critical-path``,
``simulate``, ``trace``, ``stats``, ``verify`` and ``svd``) is a thin shell
over the unified plan API (:mod:`repro.api`).  Each declares its plan flags
as ``(spelling, field, default[, overrides])`` rows over one table,
:data:`_FIELDS`, which gives every :class:`~repro.api.plan.SvdPlan` field the
CLI exposes its type, choices and help; every such flag stores into the
field's name, and :func:`_plan_from_args` builds every plan from them.  A new
plan flag is one ``_FIELDS`` row, plus one row in each command that takes it.
:func:`main` dispatches through one table and is the one user-error
boundary: a ``ValueError`` from any command exits 2 with a one-line
``repro <command>: error: ...`` on stderr.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

import numpy as np

from repro.api import BACKENDS, STAGES, VARIANTS
from repro.config import PRESETS
from repro.runtime.network import NETWORK_MODELS
from repro.runtime.policies import POLICIES
from repro.runtime.scenario import SCENARIOS
from repro.trees import TREE_REGISTRY

_POLICY_CHOICES = sorted(POLICIES)
_NETWORK_CHOICES = sorted(NETWORK_MODELS)

#: Type, choices and help of every :class:`~repro.api.plan.SvdPlan` field
#: the CLI exposes, keyed by field name.
_FIELDS = {
    "m": {"type": int, "help": "matrix rows"},
    "n": {"type": int, "help": "matrix columns"},
    "stage": {"choices": list(STAGES), "help": "pipeline stage"},
    "tile_size": {"type": int, "help": "tile size nb"},
    "tree": {"choices": sorted(TREE_REGISTRY), "help": "reduction tree"},
    "variant": {"choices": list(VARIANTS), "help": "BIDIAG / R-BIDIAG / Chan auto-crossover"},
    "n_cores": {"type": int, "help": "cores per node (AUTO-tree hint / simulator cores)"},
    "n_nodes": {"type": int, "help": "node count"},
    "machine": {"choices": sorted(PRESETS), "help": "machine preset"},
    "policy": {"choices": _POLICY_CHOICES, "help": "scheduling policy of the simulation engine"},
    "network": {"choices": _NETWORK_CHOICES,
                "help": "communication model of the simulation engine"},
    "scenario": {"choices": sorted(SCENARIOS), "help": "machine-realism scenario "
                 "(heterogeneity / faults / noise; see 'repro scenarios')"},
    "draws": {"type": int, "help": "Monte-Carlo draw count for stochastic scenarios "
              "(default: the scenario's own)"},
    "seed": {"type": int,
             "help": "seed of the generated input matrix and of the Monte-Carlo scenario draws"},
}

#: A row default meaning "the flag is required".
_REQUIRED = object()

#: The simulation dialect of simulate, trace, stats and verify.
_SIM_ROWS = [
    ("m", "m", None),
    ("n", "n", None),
    ("--nodes", "n_nodes", 1),
    ("--cores", "n_cores", 24),
    ("--nb", "tile_size", 160),
    ("--tree", "tree", "auto"),
    ("--algorithm", "variant", "auto"),
    ("--policy", "policy", "list"),
    ("--network", "network", "uniform"),
]

#: The scenario flags of simulate, trace, stats and tune.
_SCENARIO_ROWS = [
    ("--scenario", "scenario", None),
    ("--draws", "draws", None),
    ("--seed", "seed", 0),
]


def _add_fields(parser: argparse.ArgumentParser, rows: Sequence[tuple], **helps: str) -> None:
    """Declare plan flags from ``(spelling, field, default[, overrides])``
    rows: each stores into its field's name; a spelling without dashes is a
    positional; ``overrides`` narrow the field (e.g. fewer choices) and
    ``helps`` re-word a field's help for a command where it means more."""
    for spelling, name, default, *narrowed in rows:
        kwargs = {**_FIELDS[name], **(narrowed[0] if narrowed else {})}
        if name in helps:
            kwargs["help"] = helps[name]
        if not spelling.startswith("-"):
            parser.add_argument(name, metavar=spelling, **kwargs)
            continue
        if "choices" not in kwargs:
            # Usage names the flag, not the field: --nb NB, not --nb TILE_SIZE.
            kwargs["metavar"] = spelling.lstrip("-").replace("-", "_").upper()
        required = default is _REQUIRED
        parser.add_argument(spelling, dest=name, required=required,
                            default=None if required else default, **kwargs)


def _plan_from_args(args: argparse.Namespace, **fixed):
    """The one plan builder: every field the command declared, then
    ``fixed`` (the fields the command itself decides)."""
    from repro.api import SvdPlan

    declared = {name: getattr(args, name) for name in _FIELDS if hasattr(args, name)}
    return SvdPlan(**{**declared, **fixed})


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Tiled bidiagonalization / R-bidiagonalization reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, chelp in (
        ("list", "list the registered paper experiments"),
        ("policies", "list the simulation engine's scheduling policies"),
        ("networks", "list the simulation engine's network models"),
        ("scenarios", "list the machine-realism scenarios and their fault/noise models"),
    ):
        sub.add_parser(name, help=chelp)

    run = sub.add_parser("run", help="run a registered experiment")
    run.add_argument("experiment", help="experiment key (see 'repro list')")
    run.add_argument("--csv", help="write the result rows to this CSV file")
    run.add_argument("--json", help="write the result rows to this JSON file")
    run.add_argument("--markdown", action="store_true", help="print a markdown table")
    run.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one experiment parameter (repeatable)",
    )

    plan = sub.add_parser(
        "plan", help="run one SvdPlan through the numeric / dag / simulate backends"
    )
    _add_fields(plan, [
        ("--m", "m", _REQUIRED),
        ("--n", "n", _REQUIRED),
        ("--stage", "stage", "ge2val"),
        ("--tile-size", "tile_size", None),
        ("--tree", "tree", None),
        ("--variant", "variant", "auto"),
        ("--n-cores", "n_cores", 1),
        ("--nodes", "n_nodes", 1),
        ("--machine", "machine", "miriel"),
        ("--policy", "policy", "list"),
        ("--network", "network", "uniform"),
        ("--seed", "seed", 0),
    ])
    plan.add_argument("--backend", default="numeric",
                      choices=[*BACKENDS, "all"])
    plan.add_argument("--json", help="write the result row(s) to this JSON file")

    tune = sub.add_parser(
        "tune", help="autotune tile size / tree / variant / grid for one problem"
    )
    _add_fields(
        tune,
        [
            ("--m", "m", _REQUIRED),
            ("--n", "n", _REQUIRED),
            ("--stage", "stage", "ge2val",
             {"choices": [s for s in STAGES if s != "gesvd"]}),
            ("--n-cores", "n_cores", 24),
            ("--nodes", "n_nodes", 1),
            ("--machine", "machine", "miriel"),
            ("--policy", "policy", "list"),
            ("--network", "network", "uniform"),
            *_SCENARIO_ROWS,
        ],
        policy="scheduling policy scoring simulated candidates",
        network="communication model scoring simulated candidates",
        scenario="machine-realism scenario the candidates run under "
                 "(pair with --objective robust-makespan)",
    )
    tune.add_argument("--objective", default="makespan",
                      help="scoring objective (see repro.tuning.OBJECTIVES)")
    tune.add_argument("--strategy", default="grid", choices=["grid", "halving"])
    tune.add_argument("--workers", type=int, default=1,
                      help="process-pool width for searches nothing can prune "
                           "(--no-prune, or critical-path / comm-volume / "
                           "comm-time); a prunable search walks serially")
    tune.add_argument("--tile-sizes", default=None,
                      help="comma-separated nb candidates (default: problem-derived)")
    tune.add_argument("--inner-blocks", default=None,
                      help="comma-separated ib candidates (default: config value)")
    tune.add_argument("--trees", default=None,
                      help="comma-separated tree names (default: flatts,flattt,greedy,auto)")
    tune.add_argument("--variants", default=None,
                      help="comma-separated variants (default: bidiag,rbidiag)")
    tune.add_argument("--no-prune", action="store_true",
                      help="disable bound pruning (exhaustive evaluation)")
    tune.add_argument("--no-cache", action="store_true",
                      help="do not read or write the persistent plan cache")
    tune.add_argument("--force", action="store_true",
                      help="re-tune even on a plan-cache hit (refreshes the entry)")
    tune.add_argument("--clear-cache", action="store_true",
                      help="clear the plan cache and exit")
    tune.add_argument("--cache-file", default=None,
                      help="plan cache location (default: $REPRO_TUNE_CACHE or "
                           "~/.cache/repro/plan_cache.json)")
    tune.add_argument("--json", help="write the evaluation rows to this JSON file")

    cp = sub.add_parser("critical-path", help="critical paths of BIDIAG / R-BIDIAG")
    _add_fields(
        cp,
        [
            ("p", "m", None),
            ("q", "n", None),
            ("--tree", "tree", "greedy", {"choices": ["flatts", "flattt", "greedy"]}),
            ("--algorithm", "variant", "bidiag", {"choices": ["bidiag", "rbidiag"]}),
        ],
        m="tile rows",
        n="tile columns",
    )

    for name, chelp in (
        ("simulate", "simulate one GE2BND / GE2VAL run"),
        ("trace", "simulate one run with execution tracing and export the "
                  "timeline (Chrome/Perfetto trace JSON, optional Gantt)"),
        ("stats", "simulate one run and report its observability metrics "
                  "(cache hit/miss, utilization, communication)"),
    ):
        sim = sub.add_parser(name, help=chelp)
        _add_fields(sim, [*_SIM_ROWS, *_SCENARIO_ROWS])
        sim.add_argument("--ge2val", action="store_true",
                         help="include BND2BD + BD2VAL stages")
        if name == "trace":
            sim.add_argument("--out", default="trace.json",
                             help="trace-event JSON output path (default: trace.json; "
                                  "load in ui.perfetto.dev or chrome://tracing)")
            sim.add_argument("--gantt", default=None, metavar="PATH",
                             help="also write an ASCII Gantt chart ('-' = stdout)")
            sim.add_argument("--svg", default=None, metavar="PATH",
                             help="also write an SVG Gantt timeline")
        elif name == "stats":
            sim.add_argument("--json", default=None, metavar="PATH",
                             help="write the metrics as JSON ('-' = stdout) instead "
                                  "of the human-readable report")

    ver = sub.add_parser(
        "verify",
        help="statically verify the compiled Program and engine Schedules "
             "for one plan (dataflow oracle + feasibility sanitizer)",
    )
    _add_fields(
        ver,
        [*_SIM_ROWS, ("--machine", "machine", "miriel")],
        policy="scheduling policy to sanitize (unless --all-policies)",
        network="network model to sanitize (unless --all-networks)",
    )
    ver.add_argument("--all-policies", action="store_true",
                     help="sanitize schedules under every scheduling policy")
    ver.add_argument("--all-networks", action="store_true",
                     help="sanitize schedules under every network model")
    ver.add_argument("--json", help="write the structured finding report "
                                    "to this JSON file")
    ver.add_argument("--inject-defect", default=None,
                     choices=["drop-edge", "perturb-start", "swap-owner"],
                     help="inject one synthetic defect before verifying "
                          "(self-test: the command must exit nonzero)")

    camp = sub.add_parser(
        "campaign",
        help="fault-tolerant, resumable sweep campaigns (see repro.campaign)",
    )
    csub = camp.add_subparsers(dest="campaign_command", required=True)
    for name, chelp in (
        ("run", "run a campaign from a spec file (resumes automatically)"),
        ("resume", "resume an interrupted campaign (alias of run)"),
    ):
        crun = csub.add_parser(name, help=chelp)
        crun.add_argument("spec", help="campaign spec file (.json or .toml)")
        crun.add_argument(
            "--store", help="result store path (default: campaign_<name>.sqlite)"
        )
        crun.add_argument("--workers", type=int, help="process fan-out width")
        crun.add_argument(
            "--max-attempts", type=int, help="retries before quarantine"
        )
        crun.add_argument(
            "--timeout", type=float, help="per-candidate timeout in seconds"
        )
        crun.add_argument(
            "--backoff", type=float, help="base retry backoff in seconds"
        )
        crun.add_argument(
            "--requeue-quarantined",
            action="store_true",
            help="give quarantined candidates a fresh retry budget first",
        )
    cstatus = csub.add_parser("status", help="progress summary of a campaign store")
    cstatus.add_argument("store", help="result store path")
    creport = csub.add_parser(
        "report", help="result table / quarantine report of a campaign store"
    )
    creport.add_argument("store", help="result store path")
    creport.add_argument("--csv", help="write the result rows to this CSV file")
    creport.add_argument("--json", help="write the result rows to this JSON file")
    creport.add_argument(
        "--all-columns", action="store_true", help="show every result column"
    )
    creport.add_argument(
        "--quarantine", action="store_true", help="list quarantined candidates"
    )

    svd = sub.add_parser("svd", help="singular values via the numeric tiled pipeline")
    svd.add_argument("--input", help=".npy file holding the matrix (random if omitted)")
    _add_fields(svd, [
        ("--m", "m", 120),
        ("--n", "n", 80),
        ("--tile-size", "tile_size", 20),
        ("--tree", "tree", "greedy"),
        ("--variant", "variant", "auto"),
        ("--n-cores", "n_cores", 1),
        ("--seed", "seed", 0),
    ])

    return parser


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.experiments.registry import list_experiments

    for exp in list_experiments():
        print(f"{exp.key:22s}  {exp.paper_ref:24s}  {exp.description}")
    return 0


def _cmd_policies(args: argparse.Namespace) -> int:
    from repro.runtime.policies import available_policies

    for name, description in available_policies():
        print(f"{name:14s}  {description}")
    return 0


def _cmd_networks(args: argparse.Namespace) -> int:
    from repro.runtime.network import available_networks

    for name, description in available_networks():
        print(f"{name:12s}  {description}")
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from repro.runtime.faults import available_fault_models, available_noise_models
    from repro.runtime.scenario import available_scenarios

    print("scenarios:")
    for name, description in available_scenarios():
        print(f"  {name:12s}  {description}")
    print("fault models:")
    for name, description in available_fault_models():
        print(f"  {name:12s}  {description}")
    print("noise models:")
    for name, description in available_noise_models():
        print(f"  {name:12s}  {description}")
    return 0


def _parse_params(pairs: Sequence[str]) -> dict:
    """Parse repeated ``KEY=VALUE`` overrides, with literal values."""
    import ast

    params = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise SystemExit(f"--param expects KEY=VALUE, got {pair!r}")
        try:
            params[key.replace("-", "_")] = ast.literal_eval(raw)
        except (SyntaxError, ValueError):
            params[key.replace("-", "_")] = raw
    return params


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments.figures import format_rows
    from repro.experiments.registry import run_experiment
    from repro.utils.io import rows_to_markdown

    try:
        rows = run_experiment(args.experiment, **_parse_params(args.param))
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    except TypeError as exc:
        # Bad --param name/value for this experiment's runner signature.
        return _user_error("run", exc)
    if args.markdown:
        print(rows_to_markdown(rows))
    else:
        print(format_rows(rows))
    _write_rows(rows, csv=args.csv, json=args.json)
    return 0


def _user_error(command: str, exc: Exception) -> int:
    print(f"repro {command}: error: {exc}", file=sys.stderr)
    return 2


def _write_rows(rows: list, *, csv: Optional[str] = None,
                json: Optional[str] = None) -> None:
    """The one rows writer behind every ``--csv`` / ``--json`` row output."""
    from repro.utils.io import save_rows_csv, save_rows_json

    for path, save in ((csv, save_rows_csv), (json, save_rows_json)):
        if path:
            save(rows, path)
            print(f"wrote {len(rows)} rows to {path}")


def _write_text(text: str, path: str, what: str) -> None:
    """Print ``text`` when ``path`` is ``-``, else write it to ``path``."""
    if path == "-":
        print(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    print(f"{what} written to {path}")


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.api import execute

    plan = _plan_from_args(args)
    backends = list(BACKENDS) if args.backend == "all" else [args.backend]
    rows = []
    for backend in backends:
        try:
            result = execute(plan, backend=backend)
        except ValueError as exc:
            if args.backend != "all":
                raise
            # A backend that cannot model this stage (e.g. gesvd under the
            # simulator) is skipped, not fatal, when sweeping all.
            print(f"(skipped {backend}: {exc})")
            continue
        if rows:
            print()
        print(result.summary())
        rows.append(result.to_row())
    _write_rows(rows, json=args.json)
    return 0


def _parse_list(raw: Optional[str], cast) -> Optional[list]:
    """A comma-separated flag value as a list (``None`` when absent)."""
    if raw is None:
        return None
    return [cast(v.strip()) for v in raw.split(",") if v.strip()]


def _cmd_tune(args: argparse.Namespace) -> int:
    from repro.experiments.figures import format_rows
    from repro.tuning import (
        GridSearch,
        PlanCache,
        SearchSpace,
        SuccessiveHalving,
        tune,
    )

    cache = PlanCache(args.cache_file) if args.cache_file else PlanCache()
    if args.clear_cache:
        removed = cache.clear()
        print(f"cleared {removed} cached plan(s) from {cache.path}")
        return 0
    plan = _plan_from_args(args)
    space = SearchSpace(
        tile_sizes=_parse_list(args.tile_sizes, int),
        inner_blocks=_parse_list(args.inner_blocks, int),
        trees=_parse_list(args.trees, str.lower) or SearchSpace().trees,
        variants=_parse_list(args.variants, str.lower) or SearchSpace().variants,
    )
    search = GridSearch if args.strategy == "grid" else SuccessiveHalving
    result = tune(
        plan,
        space=space,
        objective=args.objective,
        strategy=search(prune=not args.no_prune),
        workers=args.workers,
        cache=False if args.no_cache else cache,
        force=args.force,
    )
    rows = result.rows()
    if rows:
        # format_rows prints floats at fixed .1f; scores can be milliseconds.
        display = [
            {**r, "score": f"{r['score']:.4g}" if isinstance(r["score"], float) else "-"}
            for r in rows
        ]
        print(format_rows(display))
        print()
    print(result.summary())
    _write_rows(rows, json=args.json)
    return 0


def _cmd_critical_path(args: argparse.Namespace) -> int:
    from repro.analysis.formulas import bidiag_cp, rbidiag_cp
    from repro.api import execute

    # tile_size=1 makes the element shape equal the tile shape, so one DAG
    # plan covers the (p, q) tile-level studies of Section IV.
    plan = _plan_from_args(args, tile_size=1, stage="ge2bnd")
    result = execute(plan, backend="dag")
    formula = (bidiag_cp if args.variant == "bidiag" else rbidiag_cp)(
        args.m, args.n, args.tree
    )
    print(f"algorithm      : {args.variant}")
    print(f"tree           : {args.tree}")
    print(f"tiles          : {args.m} x {args.n}")
    print(f"closed form    : {formula}")
    print(f"measured (DAG) : {result.critical_path:.0f}")
    return 0


def _simulated(args: argparse.Namespace, *, trace: bool):
    """The one simulation of simulate / trace / stats."""
    from repro.api import execute

    stage = "ge2val" if args.ge2val else "ge2bnd"
    return execute(_plan_from_args(args, stage=stage, trace=trace), backend="simulate")


def _cmd_simulate(args: argparse.Namespace) -> int:
    result = _simulated(args, trace=False)
    print(result.summary())
    if result.trace is not None:
        # REPRO_TRACE=1 turns any simulate into a trace run; the file
        # lands at REPRO_TRACE_FILE (default trace.json).
        from repro.obs.tracer import default_trace_path

        path = result.trace.write(default_trace_path())
        print(f"trace written to {path}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    result = _simulated(args, trace=True)
    tracer = result.trace
    path = tracer.write(args.out)
    print(result.summary())
    print(f"trace written to {path} (load in ui.perfetto.dev or chrome://tracing)")
    if args.gantt is not None:
        _write_text(tracer.gantt(), args.gantt, "gantt")
    if args.svg is not None:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(tracer.gantt_svg() + "\n")
        print(f"svg written to {args.svg}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    import json

    # Tracing on: the metrics then include ready-queue depth and
    # message-size histograms on top of cache/utilization figures.
    result = _simulated(args, trace=True)
    metrics = result.metrics or {}
    if args.json is not None:
        payload = {"plan": result.plan.describe(), "metrics": metrics}
        _write_text(json.dumps(payload, indent=2, sort_keys=True), args.json, "stats")
        return 0
    print(result.summary())
    util = metrics.get("utilization", {})
    if util:
        print(f"overall busy   : {util.get('overall_busy_fraction', 0.0):.1%}")
        fractions = util.get("busy_fraction_per_node", [])
        per_node = "  ".join(f"n{i}={f:.1%}" for i, f in enumerate(fractions))
        print(f"per-node busy  : {per_node}")
        print(f"idle (core-s)  : {util.get('total_idle_seconds', 0.0):.4f}")
    ready = metrics.get("ready_queue")
    if ready:
        print(
            f"ready queue    : peak={ready['peak']} "
            f"mean={ready['time_weighted_mean']:.2f} "
            f"waited={ready['ops_that_waited']}"
        )
    cache = metrics.get("cache", {})
    if cache:
        print("cache counters :")
        for name, value in sorted(cache.items()):
            print(f"  {name:32s} {value:g}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.api.resolver import resolve
    from repro.ir.program import Program
    from repro.runtime.engine import SimulationEngine
    from repro.verify import verify_program, verify_schedule

    resolved = resolve(_plan_from_args(args, stage="ge2bnd"))
    program = resolved.program()
    if args.inject_defect == "drop-edge":
        # Self-test: remove the last predecessor edge of the last op that
        # has one — the dataflow oracle must flag the resulting data race.
        pred_lists = [
            list(program.predecessors(i)) for i in range(len(program))
        ]
        victim = max(
            (i for i in range(len(program)) if pred_lists[i]), default=None
        )
        if victim is None:
            raise ValueError("program has no edges to drop")
        pred_lists[victim].pop()
        program = Program(list(program.ops), pred_lists, key=program.key)

    reports = []
    prog_report = verify_program(program)
    prog_report.subject = (
        f"program[{resolved.variant}, p={resolved.p}, q={resolved.q}, "
        f"tree={resolved.tree_name}]"
    )
    reports.append(prog_report)
    print(prog_report.summary())

    policies = (
        _POLICY_CHOICES if args.all_policies else [args.policy]
    )
    networks = (
        _NETWORK_CHOICES if args.all_networks else [args.network]
    )
    distribution = resolved.distribution
    for policy in policies:
        for network in networks:
            engine = SimulationEngine(
                resolved.machine, distribution, policy=policy, network=network
            )
            schedule = engine.run(program)
            if args.inject_defect == "perturb-start":
                mid = len(schedule.start) // 2
                start = list(schedule.start)
                start[mid] += 0.5 * (schedule.makespan or 1.0)
                schedule = replace(schedule, start=start)
            elif args.inject_defect == "swap-owner":
                mid = len(schedule.node_of_task) // 2
                nodes = list(schedule.node_of_task)
                nodes[mid] = (nodes[mid] + 1) % resolved.machine.n_nodes
                schedule = replace(schedule, node_of_task=nodes)
            report = verify_schedule(
                schedule,
                program,
                resolved.machine,
                distribution=distribution,
                network=network,
            )
            report.subject = f"schedule[policy={policy}, network={network}]"
            reports.append(report)
            print(report.summary())

    ok = all(r.ok for r in reports)
    findings = sum(len(r.findings) for r in reports)
    checks = sum(r.checked for r in reports)
    print(
        f"verify: {'PASS' if ok else 'FAIL'} — {findings} finding(s) over "
        f"{checks} checks in {len(reports)} report(s)"
    )
    if args.json:
        import json

        payload = {
            "ok": ok,
            "checks": checks,
            "reports": [
                {
                    "subject": r.subject,
                    "ok": r.ok,
                    "checked": r.checked,
                    "findings": [f.to_row() for f in r.findings],
                }
                for r in reports
            ],
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote report to {args.json}")
    return 0 if ok else 1


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.campaign import (
        CampaignRunner,
        CampaignSpec,
        campaign_rows,
        campaign_table,
        quarantine_report,
        status_summary,
    )

    command = args.campaign_command
    if command == "status":
        print(status_summary(args.store))
        return 0
    if command == "report":
        if args.quarantine:
            print(quarantine_report(args.store))
            return 0
        if args.all_columns:
            print(campaign_table(args.store, columns=None))
        else:
            print(campaign_table(args.store))
        _write_rows(campaign_rows(args.store), csv=args.csv, json=args.json)
        return 0
    # run / resume
    try:
        spec = CampaignSpec.from_file(args.spec)
    except (OSError, ValueError) as exc:
        return _user_error(f"campaign {command}", exc)
    runner = CampaignRunner(
        spec,
        args.store,
        workers=args.workers,
        max_attempts=args.max_attempts,
        timeout_seconds=args.timeout,
        backoff_seconds=args.backoff,
        requeue_quarantined=args.requeue_quarantined,
    )
    try:
        report = runner.run()
    except ValueError as exc:  # e.g. spec fingerprint mismatch on the store
        return _user_error(f"campaign {command}", exc)
    finally:
        runner.store.close()
    print(report.summary())
    if report.interrupted:
        print("interrupted; resume with: repro campaign resume "
              f"{args.spec}" + (f" --store {args.store}" if args.store else ""))
        return 3
    return 0 if report.complete else 1


def _cmd_svd(args: argparse.Namespace) -> int:
    from repro.api import execute

    given = {}
    if args.input:
        # An .npy input replaces the generated m x n matrix and its seed.
        given = {"matrix": np.load(args.input), "m": None, "n": None, "seed": 0}
    plan = _plan_from_args(args, stage="ge2val", **given)
    result = execute(plan, backend="numeric")
    print(result.summary())
    return 0 if result.max_rel_error < 1e-8 else 1


#: Subcommand -> handler; every handler returns the exit code.
_COMMANDS = {
    "list": _cmd_list, "policies": _cmd_policies, "networks": _cmd_networks,
    "scenarios": _cmd_scenarios, "run": _cmd_run, "plan": _cmd_plan, "tune": _cmd_tune,
    "critical-path": _cmd_critical_path, "simulate": _cmd_simulate, "trace": _cmd_trace,
    "stats": _cmd_stats, "verify": _cmd_verify, "campaign": _cmd_campaign, "svd": _cmd_svd,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        # The one user-error boundary: a bad plan, stage/backend pairing,
        # objective or input exits 2 with one line, not a traceback.
        return _user_error(args.command, exc)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
