"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

# Make the package importable even without an installed distribution
# (the environment installs it via a .pth file; this is a belt-and-braces
# fallback so `pytest` works from a fresh checkout too).
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator shared by the numeric tests."""
    return np.random.default_rng(1234)


def _structured_band(kind: str, n: int, bw: int) -> np.ndarray:
    gen = np.random.default_rng(2000)
    if kind == "zero":
        return np.zeros((n, n))
    if kind == "rank-1":
        # x on rows [2, 2 + h), y on columns [1 + h, 3 + bw): every product
        # lands on diagonals 0..bw.
        h = bw // 2 + 1
        x, y = np.zeros(n), np.zeros(n)
        x[2 : 2 + h] = gen.standard_normal(h)
        y[1 + h : 3 + bw] = gen.standard_normal(bw + 2 - h)
        return np.outer(x, y)
    if kind == "bidiagonal":
        a = np.diag(gen.standard_normal(n))
        a[np.arange(n - 1), np.arange(1, n)] = gen.standard_normal(n - 1)
        return a
    if kind == "exact-zeros":
        a = np.triu(gen.standard_normal((n, n)))
        a -= np.triu(a, bw + 1)
        a[gen.random((n, n)) < 0.3] = 0.0
        a[1] = 0.0
        return a
    raise ValueError(f"unknown band kind {kind!r}")


@pytest.fixture
def structured_band():
    """Factory ``structured_band(kind, n, bw)`` of ``n x n`` upper bands of
    bandwidth ``bw`` with exact zeros, for ``kind`` in ``zero``, ``rank-1``,
    ``bidiagonal`` (declared with the wider ``bw``) and ``exact-zeros`` (30%
    scattered zeros and a zero row).

    Random bands never hand BND2BD's bulge chase a reflector with
    ``tau == 0``; these do.
    """
    return _structured_band


@pytest.fixture(autouse=True)
def _isolate_plan_cache(tmp_path, monkeypatch):
    """Point the autotuner's persistent plan cache at a per-test temp file.

    Keeps the suite from reading or writing ``~/.cache/repro`` — tuning
    tests must be hermetic, and no other test should inherit a stale tuned
    plan.
    """
    monkeypatch.setenv("REPRO_TUNE_CACHE", str(tmp_path / "plan_cache.json"))
