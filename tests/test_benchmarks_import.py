"""Import every benchmark script, so a removed API fails the suite.

Each ``benchmarks/bench_*.py`` is either a pytest-benchmark module or a
standalone script with a ``main()``; none of them runs in the tier-1
suite.  Importing each one (without running it) catches a renamed or
deleted API the script still uses, instead of letting it rot until the
next benchmark run.  ``benchmarks/harness/`` has its own self-test and
is left out.
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
