"""Property suite of the numeric backend on hostile inputs.

Drives ``execute(plan, "numeric")`` for the ``ge2val`` and ``gesvd``
stages over inputs drawn deterministically (``derandomize=True``: the
same examples on every run) from

* scales of 1e±300, one huge entry among unit ones, graded columns and
  subnormal entries;
* the zero matrix, rank-1 matrices and clustered spectra;
* one tile row or column, nb > m, ragged last tiles, and tall shapes
  either side of Chan's crossover ``m = 5n/3`` (R-BIDIAG from it on).

Every stage must give singular values within :data:`SV_TOL` of numpy's,
in units of σ_max.  ``gesvd`` must also give a backward error
``‖A − UΣVᵀ‖_F / ‖A‖_F`` and orthogonality defects ``‖UᵀU − I‖_F`` and
``‖VᵀV − I‖_F`` within ``c·n·ε`` (:data:`BACKWARD_C`, ``n`` the larger
dimension).  The residual is taken on copies of ``A`` and ``Σ`` scaled
by one power of two to ``max|a_ij| ~ 1``, so it neither over- nor
underflows at the extreme scales.

Subnormal inputs keep σ_max within a few binades of the normal range:
below it, σ itself has fewer than 50 significant bits in double
precision and no algorithm can return it to :data:`SV_TOL` of the exact
σ.  Three fixed scales go below it (:data:`TINY_SCALES`), where numpy's
σ is rounded to the subnormal grid too: the front door scales such input
up by a power of two, so σ matches numpy's up to that rounding, and
gesvd's backward error is ``c·n·ε`` plus that rounding.  A float32 tiled
input is reduced in double precision, like a float32 array.  A complex
input raises :class:`ValueError` naming its dtype.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import SvdPlan, execute
from repro.tiles.matrix import TiledMatrix

#: Singular-value bar, units of σ_max (the differential suite's SV_TOL).
SV_TOL = 1e-12
#: The ``c`` of the ``c·n·ε`` backward-error and orthogonality bar.
BACKWARD_C = 16.0
EPS = np.finfo(float).eps

#: (label, m, n, nb) of the tile geometries.
GEOMETRIES = [
    ("one-tile-column", 40, 6, 8),        # q = 1, p = 5
    ("one-tile-column-ragged", 29, 5, 8),  # q = 1, ragged last tile row
    ("nb-above-m", 12, 10, 16),           # p = q = 1
    ("nb-above-m-square", 7, 7, 9),       # p = q = 1, square
    ("ragged", 53, 37, 8),                # ragged last tile row and column
    ("ragged-wide-tiles", 45, 31, 12),
    ("chan-below", 39, 24, 8),            # m < 5n/3: BIDIAG
    ("chan-at", 40, 24, 8),               # m = 5n/3: R-BIDIAG
    ("chan-above", 48, 24, 8),            # m > 5n/3: R-BIDIAG
    ("square", 32, 32, 8),
]

#: Scales of a standard normal 40 x 24 input whose σ_max is subnormal.
TINY_SCALES = (1e-312, 1e-315, 1e-318)

KINDS = ("scale", "huge-entry", "graded", "subnormal", "zero", "rank-1", "clustered")
TREES = ("flatts", "flattt", "greedy", "auto")


def _orthonormal(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((m, n)))
    return q


def hostile_matrix(kind: str, m: int, n: int, seed: int, knob: int) -> np.ndarray:
    """An ``m x n`` input of ``kind``; ``knob`` is the kind's free integer."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    if kind == "scale":  # 10**knob, knob in [-300, 300]
        return a * 10.0 ** knob
    if kind == "huge-entry":  # one entry 10**(knob/2 + 150) among unit ones
        i, j = rng.integers(m), rng.integers(n)
        a[i, j] = 10.0 ** (knob // 2 + 150) * (1.0 if rng.random() < 0.5 else -1.0)
        return a
    if kind == "graded":  # columns graded from 1 down to 10**-(|knob| / 2)
        return a * 10.0 ** (-np.linspace(0.0, abs(knob) / 2.0, n))
    if kind == "subnormal":  # max|a| = 2**(-1021 - |knob| % 4): most entries subnormal
        return np.ldexp(a / np.max(np.abs(a)), -1021 - abs(knob) % 4)
    if kind == "zero":
        return np.zeros((m, n))
    if kind == "rank-1":
        return np.outer(a[:, 0], a[0]) * 10.0 ** (knob // 10)
    if kind == "clustered":  # two tight clusters of singular values
        k = min(m, n)
        sigma = np.where(np.arange(k) < k // 2, 1.0, 10.0 ** (-(abs(knob) % 12)))
        sigma = sigma * (1.0 + 1e-13 * rng.standard_normal(k))
        return (_orthonormal(rng, m, k) * sigma) @ _orthonormal(rng, n, k).T
    raise ValueError(f"unknown input kind {kind!r}")


@st.composite
def cases(draw):
    label, m, n, nb = draw(st.sampled_from(GEOMETRIES))
    kind = draw(st.sampled_from(KINDS))
    knob = draw(st.integers(min_value=-300, max_value=300))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    tree = draw(st.sampled_from(TREES))
    return label, kind, hostile_matrix(kind, m, n, seed, knob), nb, tree


SETTINGS = dict(
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _run(a: np.ndarray, nb: int, tree: str, stage: str):
    return execute(SvdPlan(matrix=a, tile_size=nb, stage=stage, tree=tree), "numeric")


def _assert_singular_values(a: np.ndarray, sigma: np.ndarray) -> None:
    ref = np.linalg.svd(a, compute_uv=False)
    assert sigma.shape == ref.shape
    assert np.all(np.isfinite(sigma))
    if ref[0] == 0.0:
        np.testing.assert_array_equal(sigma, 0.0)
        return
    assert np.max(np.abs(sigma - ref)) / ref[0] < SV_TOL


def _scaled_copies(a: np.ndarray, sigma: np.ndarray):
    """``A`` and ``Σ`` times one power of two bringing ``max|a_ij|`` near 1."""
    top = float(np.max(np.abs(a)))
    shift = -np.frexp(top)[1] if top > 0.0 else 0
    return np.ldexp(a, shift), np.ldexp(sigma, shift)


@given(case=cases())
@settings(max_examples=60, **SETTINGS)
def test_ge2val_singular_values(case):
    label, kind, a, nb, tree = case
    result = _run(a, nb, tree, "ge2val")
    _assert_singular_values(a, result.singular_values)


@given(case=cases())
@settings(max_examples=40, **SETTINGS)
def test_gesvd_backward_error_and_orthogonality(case):
    label, kind, a, nb, tree = case
    m, n = a.shape
    result = _run(a, nb, tree, "gesvd")
    u, sigma, vt = result.u, result.singular_values, result.vt
    _assert_singular_values(a, sigma)
    bar = BACKWARD_C * max(m, n) * EPS
    assert u.shape == (m, n) and vt.shape == (n, n)
    assert np.linalg.norm(u.T @ u - np.eye(n)) <= bar
    assert np.linalg.norm(vt @ vt.T - np.eye(n)) <= bar
    a_s, sigma_s = _scaled_copies(a, sigma)
    residual = np.linalg.norm(a_s - (u * sigma_s) @ vt)
    assert residual <= bar * np.linalg.norm(a_s)


@pytest.mark.parametrize("scale", TINY_SCALES)
def test_input_near_underflow(scale):
    a = np.random.default_rng(0).standard_normal((40, 24)) * scale
    _assert_singular_values(a, _run(a, 8, "greedy", "ge2val").singular_values)
    result = _run(a, 8, "greedy", "gesvd")
    u, sigma, vt = result.u, result.singular_values, result.vt
    _assert_singular_values(a, sigma)
    bar = BACKWARD_C * 40 * EPS
    assert np.linalg.norm(u.T @ u - np.eye(24)) <= bar
    assert np.linalg.norm(vt @ vt.T - np.eye(24)) <= bar
    a_s, sigma_s = _scaled_copies(a, sigma)
    # Each σ is returned rounded to the subnormal grid, 2**-1074 apart:
    # half a spacing of error each, in the copies' units.
    shift = -np.frexp(np.max(np.abs(a)))[1]
    rounding = 0.5 * np.ldexp(1.0, shift - 1074) * np.sqrt(sigma.size)
    residual = np.linalg.norm(a_s - (u * sigma_s) @ vt)
    assert residual <= bar * np.linalg.norm(a_s) + rounding


def test_float32_tiled_input_is_reduced_in_double():
    a = np.random.default_rng(0).standard_normal((40, 24)).astype(np.float32)
    tiled = TiledMatrix.from_dense(a, 8)
    result = execute(SvdPlan(matrix=tiled, stage="ge2val"), "numeric")
    _assert_singular_values(a.astype(float), result.singular_values)
    assert result.max_rel_error < SV_TOL
    assert result.extras["band"].data.dtype == np.float64
    assert tiled.dtype == np.float32 and np.array_equal(tiled.to_dense(), a)


@pytest.mark.parametrize("tiled", [False, True], ids=["dense", "tiled"])
def test_complex_input_is_rejected(tiled):
    """A complex matrix raises, naming its dtype: reducing its real part
    would return σ of another matrix, and max_rel_error would read ~1e-16
    against a reference cast the same way."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((24, 16)) + 1j * rng.standard_normal((24, 16))
    with pytest.raises(ValueError, match="complex128"):
        matrix = TiledMatrix.from_dense(a, 8) if tiled else a
        execute(SvdPlan(matrix=matrix, tile_size=8), "numeric")


def test_the_geometries_cover_the_named_cases():
    from repro.api.resolver import resolve

    variants = {}
    for label, m, n, nb in GEOMETRIES:
        resolved = resolve(SvdPlan(m=m, n=n, tile_size=nb))
        variants[label] = resolved.variant
        if label.startswith("one-tile-column"):
            assert resolved.q == 1 and resolved.p > 1
        if label.startswith("nb-above-m"):
            assert nb > m and resolved.p == resolved.q == 1
        if label.startswith("ragged"):
            assert m % nb and n % nb
    assert variants["chan-below"] == "bidiag"
    assert variants["chan-at"] == variants["chan-above"] == "rbidiag"
