"""Pins of the ``repro`` command line.

Three pins, computed from the command line as it stood before every plan
flag was declared in one table (``repro.cli._FIELDS``) and every plan built
by one function (``repro.cli._plan_from_args``):

* :class:`TestArgumentSurface` — per subcommand, a digest of each action's
  option strings (or positional name), default, choices, required, nargs,
  type, action class and usage metavar;
* :class:`TestPlanBuilderParity` — the first :class:`~repro.api.SvdPlan`
  each plan-backed invocation builds (``describe()``, trace flag and matrix
  shape), over every plan-backed invocation of CI and of README's "Command
  line" block plus one invocation for each plan flag those leave unused;
* :class:`TestUserErrors` — the exit code and last stderr line of
  erroneous invocations.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shlex
import sys

import numpy as np
import pytest

from repro.api import SvdPlan
from repro.cli import _build_parser, main


# --------------------------------------------------------------------------- #
# Argument surface
# --------------------------------------------------------------------------- #
def _usage_metavar(action: argparse.Action):
    """The metavar usage shows for ``action`` (``None`` when it takes no
    value or shows its choices, which the record pins already)."""
    if action.nargs == 0:
        return None
    if action.metavar is not None:
        return action.metavar
    if action.choices is not None:
        return None
    return action.dest.upper() if action.option_strings else action.dest


def _action_record(action: argparse.Action) -> list:
    name = "/".join(action.option_strings) or action.metavar or action.dest
    return [
        name,
        repr(action.default),
        None if action.choices is None else list(action.choices),
        action.required,
        action.nargs,
        getattr(action.type, "__name__", None if action.type is None else repr(action.type)),
        type(action).__name__,
        _usage_metavar(action),
    ]


def _surface_digest(parser: argparse.ArgumentParser) -> str:
    """Positionals in order, optionals sorted: reordering help is free."""
    positionals = [_action_record(a) for a in parser._actions if not a.option_strings]
    optionals = sorted(_action_record(a) for a in parser._actions if a.option_strings)
    text = json.dumps([positionals, optionals], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _subcommands(parser: argparse.ArgumentParser, prefix: str = ""):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield f"{prefix}{name}", sub
                yield from _subcommands(sub, f"{prefix}{name} ")


def surface_digests() -> dict:
    parser = _build_parser()
    digests = {"repro": _surface_digest(parser)}
    digests.update((name, _surface_digest(sub)) for name, sub in _subcommands(parser))
    return digests


SURFACE_PINS = {
    "repro": "ff1b46c2b52585b5",
    "list": "46b1ec7596a9d214",
    "policies": "46b1ec7596a9d214",
    "networks": "46b1ec7596a9d214",
    "scenarios": "46b1ec7596a9d214",
    "run": "0f746c81cb4ff3c3",
    "plan": "8d13be889b2845a9",
    "tune": "223298610cb8647e",
    "critical-path": "2371bc6ffa2289f1",
    "simulate": "97daf4807931fa54",
    "trace": "06f8dd9234e5e485",
    "stats": "945fe522b29e038a",
    "verify": "53ede757d7dd14ce",
    "campaign": "4830c219997b9fe2",
    "campaign run": "742981bdc17658ed",
    "campaign resume": "742981bdc17658ed",
    "campaign status": "de017bd5380dc422",
    "campaign report": "69b738a22090fed5",
    "svd": "8703baac288ab1e7",
}


class TestArgumentSurface:
    def test_every_subcommand_keeps_its_surface(self):
        assert surface_digests() == SURFACE_PINS


# --------------------------------------------------------------------------- #
# Plan-builder parity
# --------------------------------------------------------------------------- #
#: Plan-backed invocations: CI's, README's "Command line" block's, and one
#: for each plan flag those leave unused.  Run in a scratch directory that
#: holds ``a.npy`` (a 40 x 24 input).
PLAN_ARGVS = [
    # CI
    "verify 320 240 --nb 80 --nodes 2 --cores 2 --all-policies --all-networks",
    "verify 320 240 --nb 80 --nodes 2 --cores 2 --inject-defect drop-edge",
    "simulate 2000 2000 --nb 200 --cores 8 --nodes 4 --network alpha-beta",
    *(
        f"simulate 1200 1200 --nb 150 --cores 4 --nodes 2 --scenario {s} --draws 8 --seed 1"
        for s in ("hetero", "slow-core", "fail-stop", "straggler", "noisy-net", "hostile")
    ),
    "plan --m 48 --n 32 --tile-size 8 --backend all",
    "svd --m 40 --n 24 --tile-size 8 --tree auto --n-cores 4",
    "critical-path 8 4 --tree greedy",
    "simulate 2000 2000 --nb 200 --cores 8",
    "svd --input a.npy --tile-size 8",
    "svd --input a.npy --tile-size 16",
    "plan --m 48 --n 32 --tile-size 8 --stage gesvd --backend numeric",
    "simulate 2000 2000 --nb 200 --cores 8 --policy critical-path",
    "simulate 2000 2000 --nb 200 --cores 8 --nodes 4 --scenario straggler --draws 16 --seed 1",
    "trace 2000 2000 --nb 200 --cores 8 --nodes 4 --network alpha-beta --out t.json --svg t.svg",
    "stats 2000 2000 --nb 200 --cores 8 --nodes 4 --json s.json",
    "tune --m 600 --n 600 --n-cores 4 --tile-sizes 30,60 --trees flatts,greedy"
    " --variants bidiag --workers 2",
    "tune --m 1 --n 1 --clear-cache",
    # README "Command line"
    "tune --m 4000 --n 4000 --json tuned.json",
    "svd --m 120 --n 80 --tree auto --n-cores 8",
    "simulate 20000 20000 --nodes 9 --cores 23",
    "simulate 20000 20000 --nodes 16 --network alpha-beta",
    "simulate 20000 20000 --nodes 4 --scenario hostile --draws 64",
    "trace 8000 8000 --nodes 4 --network alpha-beta --out trace.json",
    "stats 8000 8000 --nodes 4 --json -",
    "critical-path 16 8 --tree greedy --algorithm rbidiag",
    # every other plan flag
    "plan --m 40 --n 24",
    "plan --m 64 --n 40 --stage ge2bnd --backend dag --tree flattt --variant rbidiag"
    " --n-cores 4 --nodes 2 --machine miriel-slow-network --policy fifo"
    " --network alpha-beta --seed 7",
    "tune --m 800 --n 400 --stage ge2bnd --objective robust-makespan --policy fifo"
    " --network alpha-beta --scenario straggler --draws 4 --seed 3 --nodes 2"
    " --machine miriel-slow-network",
    "verify 640 320 --nb 80 --tree flatts --algorithm bidiag"
    " --machine miriel-slow-network --policy fifo --network alpha-beta",
    "simulate 4000 1000 --nb 250 --cores 8 --ge2val --tree greedy --algorithm rbidiag",
    "trace 1200 1200 --nb 150 --cores 4 --nodes 2 --scenario hetero --policy fifo"
    " --ge2val --out t.json",
    "stats 1200 1200 --nb 150 --cores 4 --nodes 2 --scenario straggler --draws 4"
    " --seed 5 --json -",
    "svd",
    "svd --m 60 --n 40 --variant rbidiag --seed 3 --tree flatts",
    "critical-path 10 10 --tree flattt",
]


class _Built(Exception):
    """Raised as soon as an invocation has built its first plan."""


def first_plan(argv: str, monkeypatch):
    """``(describe() values, trace, matrix shape)`` of the first plan the
    invocation builds, or ``None`` when it builds none; nothing heavier
    than the plan itself runs."""
    built = []
    original = SvdPlan.__post_init__

    def recording(self):
        original(self)
        built.append(self)
        raise _Built

    with monkeypatch.context() as patch:
        patch.setattr(SvdPlan, "__post_init__", recording)
        try:
            main(shlex.split(argv))
        except _Built:
            pass
    if not built:
        return None
    plan = built[0]
    shape = None if plan.matrix is None else tuple(plan.matrix.shape)
    return tuple(plan.describe().values()), plan.trace, shape


@pytest.fixture
def scratch_cwd(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("REPRO_TUNE_CACHE", str(tmp_path / "plan_cache.json"))
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    np.save(tmp_path / "a.npy", np.random.default_rng(0).standard_normal((40, 24)))
    return tmp_path


#: argv -> (``describe()`` values: m, n, stage, variant, tree, tile_size,
#: n_cores, n_nodes, grid, machine, policy, network, scenario, draws, seed;
#: then trace, then matrix shape), or ``None`` when no plan is built.
PLAN_PINS = {
    "verify 320 240 --nb 80 --nodes 2 --cores 2 --all-policies --all-networks":
        ((320, 240, "ge2bnd", "auto", "auto", 80, 2, 2, None, "miriel", "list", "uniform", None, None, 0), False, None),
    "verify 320 240 --nb 80 --nodes 2 --cores 2 --inject-defect drop-edge":
        ((320, 240, "ge2bnd", "auto", "auto", 80, 2, 2, None, "miriel", "list", "uniform", None, None, 0), False, None),
    "simulate 2000 2000 --nb 200 --cores 8 --nodes 4 --network alpha-beta":
        ((2000, 2000, "ge2bnd", "auto", "auto", 200, 8, 4, None, "miriel", "list", "alpha-beta", None, None, 0), False, None),
    "simulate 1200 1200 --nb 150 --cores 4 --nodes 2 --scenario hetero --draws 8 --seed 1":
        ((1200, 1200, "ge2bnd", "auto", "auto", 150, 4, 2, None, "miriel", "list", "uniform", "hetero", 8, 1), False, None),
    "simulate 1200 1200 --nb 150 --cores 4 --nodes 2 --scenario slow-core --draws 8 --seed 1":
        ((1200, 1200, "ge2bnd", "auto", "auto", 150, 4, 2, None, "miriel", "list", "uniform", "slow-core", 8, 1), False, None),
    "simulate 1200 1200 --nb 150 --cores 4 --nodes 2 --scenario fail-stop --draws 8 --seed 1":
        ((1200, 1200, "ge2bnd", "auto", "auto", 150, 4, 2, None, "miriel", "list", "uniform", "fail-stop", 8, 1), False, None),
    "simulate 1200 1200 --nb 150 --cores 4 --nodes 2 --scenario straggler --draws 8 --seed 1":
        ((1200, 1200, "ge2bnd", "auto", "auto", 150, 4, 2, None, "miriel", "list", "uniform", "straggler", 8, 1), False, None),
    "simulate 1200 1200 --nb 150 --cores 4 --nodes 2 --scenario noisy-net --draws 8 --seed 1":
        ((1200, 1200, "ge2bnd", "auto", "auto", 150, 4, 2, None, "miriel", "list", "uniform", "noisy-net", 8, 1), False, None),
    "simulate 1200 1200 --nb 150 --cores 4 --nodes 2 --scenario hostile --draws 8 --seed 1":
        ((1200, 1200, "ge2bnd", "auto", "auto", 150, 4, 2, None, "miriel", "list", "uniform", "hostile", 8, 1), False, None),
    "plan --m 48 --n 32 --tile-size 8 --backend all":
        ((48, 32, "ge2val", "auto", "greedy", 8, 1, 1, None, "miriel", "list", "uniform", None, None, 0), False, None),
    "svd --m 40 --n 24 --tile-size 8 --tree auto --n-cores 4":
        ((40, 24, "ge2val", "auto", "auto", 8, 4, 1, None, "miriel", "list", "uniform", None, None, 0), False, None),
    "critical-path 8 4 --tree greedy":
        ((8, 4, "ge2bnd", "bidiag", "greedy", 1, 1, 1, None, "miriel", "list", "uniform", None, None, 0), False, None),
    "simulate 2000 2000 --nb 200 --cores 8":
        ((2000, 2000, "ge2bnd", "auto", "auto", 200, 8, 1, None, "miriel", "list", "uniform", None, None, 0), False, None),
    "svd --input a.npy --tile-size 8":
        ((40, 24, "ge2val", "auto", "greedy", 8, 1, 1, None, "miriel", "list", "uniform", None, None, 0), False, (40, 24)),
    "svd --input a.npy --tile-size 16":
        ((40, 24, "ge2val", "auto", "greedy", 16, 1, 1, None, "miriel", "list", "uniform", None, None, 0), False, (40, 24)),
    "plan --m 48 --n 32 --tile-size 8 --stage gesvd --backend numeric":
        ((48, 32, "gesvd", "auto", "greedy", 8, 1, 1, None, "miriel", "list", "uniform", None, None, 0), False, None),
    "simulate 2000 2000 --nb 200 --cores 8 --policy critical-path":
        ((2000, 2000, "ge2bnd", "auto", "auto", 200, 8, 1, None, "miriel", "critical-path", "uniform", None, None, 0), False, None),
    "simulate 2000 2000 --nb 200 --cores 8 --nodes 4 --scenario straggler --draws 16 --seed 1":
        ((2000, 2000, "ge2bnd", "auto", "auto", 200, 8, 4, None, "miriel", "list", "uniform", "straggler", 16, 1), False, None),
    "trace 2000 2000 --nb 200 --cores 8 --nodes 4 --network alpha-beta --out t.json --svg t.svg":
        ((2000, 2000, "ge2bnd", "auto", "auto", 200, 8, 4, None, "miriel", "list", "alpha-beta", None, None, 0), True, None),
    "stats 2000 2000 --nb 200 --cores 8 --nodes 4 --json s.json":
        ((2000, 2000, "ge2bnd", "auto", "auto", 200, 8, 4, None, "miriel", "list", "uniform", None, None, 0), True, None),
    "tune --m 600 --n 600 --n-cores 4 --tile-sizes 30,60 --trees flatts,greedy --variants bidiag --workers 2":
        ((600, 600, "ge2val", "auto", "greedy", None, 4, 1, None, "miriel", "list", "uniform", None, None, 0), False, None),
    "tune --m 1 --n 1 --clear-cache":
        None,
    "tune --m 4000 --n 4000 --json tuned.json":
        ((4000, 4000, "ge2val", "auto", "greedy", None, 24, 1, None, "miriel", "list", "uniform", None, None, 0), False, None),
    "svd --m 120 --n 80 --tree auto --n-cores 8":
        ((120, 80, "ge2val", "auto", "auto", 20, 8, 1, None, "miriel", "list", "uniform", None, None, 0), False, None),
    "simulate 20000 20000 --nodes 9 --cores 23":
        ((20000, 20000, "ge2bnd", "auto", "auto", 160, 23, 9, None, "miriel", "list", "uniform", None, None, 0), False, None),
    "simulate 20000 20000 --nodes 16 --network alpha-beta":
        ((20000, 20000, "ge2bnd", "auto", "auto", 160, 24, 16, None, "miriel", "list", "alpha-beta", None, None, 0), False, None),
    "simulate 20000 20000 --nodes 4 --scenario hostile --draws 64":
        ((20000, 20000, "ge2bnd", "auto", "auto", 160, 24, 4, None, "miriel", "list", "uniform", "hostile", 64, 0), False, None),
    "trace 8000 8000 --nodes 4 --network alpha-beta --out trace.json":
        ((8000, 8000, "ge2bnd", "auto", "auto", 160, 24, 4, None, "miriel", "list", "alpha-beta", None, None, 0), True, None),
    "stats 8000 8000 --nodes 4 --json -":
        ((8000, 8000, "ge2bnd", "auto", "auto", 160, 24, 4, None, "miriel", "list", "uniform", None, None, 0), True, None),
    "critical-path 16 8 --tree greedy --algorithm rbidiag":
        ((16, 8, "ge2bnd", "rbidiag", "greedy", 1, 1, 1, None, "miriel", "list", "uniform", None, None, 0), False, None),
    "plan --m 40 --n 24":
        ((40, 24, "ge2val", "auto", "greedy", None, 1, 1, None, "miriel", "list", "uniform", None, None, 0), False, None),
    "plan --m 64 --n 40 --stage ge2bnd --backend dag --tree flattt --variant rbidiag --n-cores 4 --nodes 2 --machine miriel-slow-network --policy fifo --network alpha-beta --seed 7":
        ((64, 40, "ge2bnd", "rbidiag", "flattt", None, 4, 2, None, "miriel-slow-network", "fifo", "alpha-beta", None, None, 7), False, None),
    "tune --m 800 --n 400 --stage ge2bnd --objective robust-makespan --policy fifo --network alpha-beta --scenario straggler --draws 4 --seed 3 --nodes 2 --machine miriel-slow-network":
        ((800, 400, "ge2bnd", "auto", "greedy", None, 24, 2, None, "miriel-slow-network", "fifo", "alpha-beta", "straggler", 4, 3), False, None),
    "verify 640 320 --nb 80 --tree flatts --algorithm bidiag --machine miriel-slow-network --policy fifo --network alpha-beta":
        ((640, 320, "ge2bnd", "bidiag", "flatts", 80, 24, 1, None, "miriel-slow-network", "fifo", "alpha-beta", None, None, 0), False, None),
    "simulate 4000 1000 --nb 250 --cores 8 --ge2val --tree greedy --algorithm rbidiag":
        ((4000, 1000, "ge2val", "rbidiag", "greedy", 250, 8, 1, None, "miriel", "list", "uniform", None, None, 0), False, None),
    "trace 1200 1200 --nb 150 --cores 4 --nodes 2 --scenario hetero --policy fifo --ge2val --out t.json":
        ((1200, 1200, "ge2val", "auto", "auto", 150, 4, 2, None, "miriel", "fifo", "uniform", "hetero", None, 0), True, None),
    "stats 1200 1200 --nb 150 --cores 4 --nodes 2 --scenario straggler --draws 4 --seed 5 --json -":
        ((1200, 1200, "ge2bnd", "auto", "auto", 150, 4, 2, None, "miriel", "list", "uniform", "straggler", 4, 5), True, None),
    "svd":
        ((120, 80, "ge2val", "auto", "greedy", 20, 1, 1, None, "miriel", "list", "uniform", None, None, 0), False, None),
    "svd --m 60 --n 40 --variant rbidiag --seed 3 --tree flatts":
        ((60, 40, "ge2val", "rbidiag", "flatts", 20, 1, 1, None, "miriel", "list", "uniform", None, None, 3), False, None),
    "critical-path 10 10 --tree flattt":
        ((10, 10, "ge2bnd", "bidiag", "flattt", 1, 1, 1, None, "miriel", "list", "uniform", None, None, 0), False, None),
}


class TestPlanBuilderParity:
    @pytest.mark.parametrize("argv", PLAN_ARGVS)
    def test_first_plan_is_unchanged(self, argv, scratch_cwd, monkeypatch):
        assert first_plan(argv, monkeypatch) == PLAN_PINS[argv]

    def test_corpus_is_pinned(self):
        assert sorted(PLAN_PINS) == sorted(PLAN_ARGVS)


# --------------------------------------------------------------------------- #
# User errors
# --------------------------------------------------------------------------- #
#: Erroneous invocations, run in the same scratch directory, which also
#: holds ``bad.npy`` (a NaN at (3, 4)) and ``complex.npy``.
ERROR_ARGVS = [
    # m < n on every plan-backed command
    "plan --m 16 --n 32",
    "tune --m 16 --n 32 --no-cache",
    "critical-path 4 8",
    "simulate 16 32",
    "trace 16 32 --out t.json",
    "stats 16 32",
    "verify 16 32",
    "svd --m 16 --n 32",
    # plan and handler errors
    "plan --m 16 --n 16 --tile-size 4 --stage gesvd --backend simulate",
    "plan --m 40 --n 24 --tile-size 0",
    "simulate 1200 1200 --nb 150 --scenario straggler --draws 0",
    "svd --input bad.npy --tile-size 5",
    "svd --input complex.npy --tile-size 8",
    "tune --m 64 --n 64 --objective bogus --no-cache",
    "tune --m 64 --n 64 --tile-sizes 8,x --no-cache",
    "verify 10 10 --nb 10 --inject-defect drop-edge",
    "run bogus-experiment",
    "run plan-tree-sweep --param bogus=1",
    "run plan-tree-sweep --param novalue",
    "campaign run missing.json",
]


def exit_and_last_error(argv: str, capsys):
    """``(exit code, last stderr line)`` as the ``repro`` process gives them."""
    try:
        code = main(shlex.split(argv))
    except SystemExit as exc:
        code = exc.code
        if isinstance(code, str):  # the interpreter prints it and exits 1
            print(code, file=sys.stderr)
            code = 1
    err = capsys.readouterr().err.strip().splitlines()
    return code, err[-1] if err else ""


#: argv -> (exit code, last stderr line).
ERROR_PINS = {
    "plan --m 16 --n 32":
        (2, "repro plan: error: expected m >= n, got 16x32; pass the transpose"),
    "tune --m 16 --n 32 --no-cache":
        (2, "repro tune: error: expected m >= n, got 16x32; pass the transpose"),
    "critical-path 4 8":
        (2, "repro critical-path: error: expected m >= n, got 4x8; pass the transpose"),
    "simulate 16 32":
        (2, "repro simulate: error: expected m >= n, got 16x32; pass the transpose"),
    "trace 16 32 --out t.json":
        (2, "repro trace: error: expected m >= n, got 16x32; pass the transpose"),
    "stats 16 32":
        (2, "repro stats: error: expected m >= n, got 16x32; pass the transpose"),
    "verify 16 32":
        (2, "repro verify: error: expected m >= n, got 16x32; pass the transpose"),
    "svd --m 16 --n 32":
        (2, "repro svd: error: expected m >= n, got 16x32; pass the transpose"),
    "plan --m 16 --n 16 --tile-size 4 --stage gesvd --backend simulate":
        (2, "repro plan: error: stage 'gesvd' is only supported by the 'numeric' backend (the simulator models GE2BND and GE2VAL)"),
    "plan --m 40 --n 24 --tile-size 0":
        (2, "repro plan: error: tile_size must be >= 1, got 0"),
    "simulate 1200 1200 --nb 150 --scenario straggler --draws 0":
        (2, "repro simulate: error: draws must be >= 1, got 0"),
    "svd --input bad.npy --tile-size 5":
        (2, "repro svd: error: input matrix must be finite: element (3, 4) is nan"),
    "svd --input complex.npy --tile-size 8":
        (2, "repro svd: error: matrix must be real, got dtype complex128"),
    "tune --m 64 --n 64 --objective bogus --no-cache":
        (2, "repro tune: error: unknown objective 'bogus'; available: ['comm-time', 'comm-volume', 'critical-path', 'gflops', 'makespan', 'robust-makespan']"),
    "tune --m 64 --n 64 --tile-sizes 8,x --no-cache":
        (2, "repro tune: error: invalid literal for int() with base 10: 'x'"),
    "verify 10 10 --nb 10 --inject-defect drop-edge":
        (2, "repro verify: error: program has no edges to drop"),
    "run bogus-experiment":
        (2, "unknown experiment 'bogus-experiment'; known experiments: campaign, critical-paths, crossover, fig2-ge2bnd-square, fig2-ge2bnd-ts10000, fig2-ge2bnd-ts2000, fig2-ge2val, fig3-ge2bnd, fig3-ge2val, fig4-weak-n10000, fig4-weak-n2000, network-sweep, plan-backend-matrix, plan-tree-sweep, policy-sweep, scenario-sweep, table1, tuning-sweep"),
    "run plan-tree-sweep --param bogus=1":
        (2, "repro run: error: plan_tree_sweep() got an unexpected keyword argument 'bogus'"),
    "run plan-tree-sweep --param novalue":
        (1, "--param expects KEY=VALUE, got 'novalue'"),
    "campaign run missing.json":
        (2, "repro campaign run: error: [Errno 2] No such file or directory: 'missing.json'"),
}


class TestUserErrors:
    @pytest.fixture
    def error_cwd(self, scratch_cwd):
        bad = np.random.default_rng(0).standard_normal((30, 20))
        np.save(scratch_cwd / "complex.npy", bad * (1 + 1j))
        bad[3, 4] = np.nan
        np.save(scratch_cwd / "bad.npy", bad)
        return scratch_cwd

    @pytest.mark.parametrize("argv", ERROR_ARGVS)
    def test_exit_code_and_message(self, argv, error_cwd, capsys):
        assert exit_and_last_error(argv, capsys) == ERROR_PINS[argv]

    def test_corpus_is_pinned(self):
        assert sorted(ERROR_PINS) == sorted(ERROR_ARGVS)
