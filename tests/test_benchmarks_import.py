"""Import every benchmark script, so a removed API fails the suite.

Each ``benchmarks/bench_*.py`` is either a pytest-benchmark module or a
standalone script with a ``main()``; none of them runs in the tier-1
suite.  Importing each one (without running it) catches a renamed or
deleted API the script still uses, instead of letting it rot until the
next benchmark run.  ``benchmarks/harness/`` has its own self-test and
is left out.  The two scripts whose sizes depend on ``REPRO_FULL_SCALE``
are also checked to read them after their arguments, without running.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted((ROOT / "benchmarks").glob("bench_*.py"))


def test_benchmarks_directory_is_populated():
    assert len(BENCH_FILES) >= 20


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.stem)
def test_benchmark_imports(path: Path, monkeypatch):
    # The scripts import their shared helpers as ``benchmarks.conftest``.
    monkeypatch.syspath_prepend(str(ROOT))
    module = importlib.import_module(f"benchmarks.{path.stem}")
    assert module.__file__ == str(path)


def test_reduced_wins_over_full_scale(monkeypatch):
    """``bench_scale.py`` and ``bench_faults.py`` read their sizes after
    their arguments, so ``--reduced`` gives the scaled-down sizes even
    under ``REPRO_FULL_SCALE=1``."""
    monkeypatch.setenv("REPRO_FULL_SCALE", "1")
    monkeypatch.syspath_prepend(str(ROOT))
    scale = importlib.import_module("benchmarks.bench_scale")
    assert scale.parse_args(["--reduced"]).sizes == scale.Sizes(m=1600, nb=100, scale_p=48)
    assert scale.parse_args([]).sizes == scale.Sizes(m=20000, nb=160, scale_p=96)
    faults = importlib.import_module("benchmarks.bench_faults")
    assert faults.sizes(["--reduced"]) == faults.Sizes(
        m=1000, nb=100, n_nodes=2, n_cores=4, draws=32
    )
    assert faults.sizes([]) == faults.Sizes(m=20000, nb=160, n_nodes=4, n_cores=24, draws=128)
