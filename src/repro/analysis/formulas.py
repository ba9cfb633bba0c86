"""Closed-form critical-path lengths (Section IV of the paper).

All lengths are in units of ``nb^3 / 3`` flops, matching Table I.

Per-step critical paths for a ``(u, v)`` tile matrix (Section IV-A):

* FLATTS: ``4 + 6(u-1)`` if ``v = 1`` else ``4 + 6 + 12(u-1)``
* FLATTT: ``4 + 2(u-1)`` if ``v = 1`` else ``4 + 6 + 6(u-1)``
* GREEDY: ``4 + 2*ceil(log2 u)`` if ``v = 1`` else ``4 + 6 + 6*ceil(log2 u)``

BIDIAG totals (sum over the interleaved QR/LQ steps, which cannot overlap):

* ``BIDIAG_FLATTS(p, q) = 12pq - 6p + 2q - 4``
* ``BIDIAG_FLATTT(p, q) = 6pq - 4p + 12q - 10``
* ``BIDIAG_GREEDY(p, q)`` — the explicit sum of the per-step formulas.

R-BIDIAG totals are computed, as in the paper, as the critical path of the
full QR factorization plus the critical path of the square ``q x q``
bidiagonalization minus the first QR step (which overlaps with the QR
factorization).
"""

from __future__ import annotations

import math
from typing import Callable, Dict


def _ceil_log2(x: int) -> int:
    """``ceil(log2(x))`` for ``x >= 1`` (0 for ``x = 1``)."""
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    return int(math.ceil(math.log2(x))) if x > 1 else 0


# --------------------------------------------------------------------------- #
# Per-step critical paths
# --------------------------------------------------------------------------- #
def qr_step_cp(u: int, v: int, tree: str) -> int:
    """Critical path of one QR step on a ``(u, v)`` tile matrix."""
    if u < 1 or v < 1:
        raise ValueError(f"step size must be >= 1, got ({u}, {v})")
    tree = tree.lower()
    if tree == "flatts":
        return 4 + 6 * (u - 1) if v == 1 else 4 + 6 + 12 * (u - 1)
    if tree == "flattt":
        return 4 + 2 * (u - 1) if v == 1 else 4 + 6 + 6 * (u - 1)
    if tree == "greedy":
        return 4 + 2 * _ceil_log2(u) if v == 1 else 4 + 6 + 6 * _ceil_log2(u)
    raise ValueError(f"unknown tree {tree!r} (use 'flatts', 'flattt' or 'greedy')")


def lq_step_cp(u: int, v: int, tree: str) -> int:
    """Critical path of one LQ step on a ``(u, v)`` tile matrix.

    ``LQ1step(u, v) = QR1step(v, u)`` by symmetry.
    """
    return qr_step_cp(v, u, tree)


# --------------------------------------------------------------------------- #
# BIDIAG
# --------------------------------------------------------------------------- #
def bidiag_cp(p: int, q: int, tree: str) -> int:
    """Critical path of BIDIAG(p, q) with the given tree (exact sum).

    In the BIDIAG algorithm the size of the matrix for step ``QR(k)`` is
    ``(p - k + 1, q - k + 1)`` and for step ``LQ(k)`` it is
    ``(p - k + 1, q - k)`` (1-based ``k``); consecutive steps cannot
    overlap, so the total is the sum of the per-step critical paths.
    """
    if p < q:
        raise ValueError(f"BIDIAG expects p >= q, got ({p}, {q})")
    if q < 1:
        raise ValueError("q must be >= 1")
    total = 0
    for k in range(1, q + 1):
        total += qr_step_cp(p - k + 1, q - k + 1, tree)
        if k <= q - 1:
            total += lq_step_cp(p - k + 1, q - k, tree)
    return total


def bidiag_flatts_cp(p: int, q: int) -> int:
    """``BIDIAG_FLATTS(p, q) = 12pq - 6p + 2q - 4`` (closed form)."""
    if p < q or q < 1:
        raise ValueError(f"expected p >= q >= 1, got ({p}, {q})")
    return 12 * p * q - 6 * p + 2 * q - 4


def bidiag_flattt_cp(p: int, q: int) -> int:
    """``BIDIAG_FLATTT(p, q) = 6pq - 4p + 12q - 10`` (closed form)."""
    if p < q or q < 1:
        raise ValueError(f"expected p >= q >= 1, got ({p}, {q})")
    return 6 * p * q - 4 * p + 12 * q - 10


def bidiag_greedy_cp(p: int, q: int) -> int:
    """``BIDIAG_GREEDY(p, q)``: explicit sum of the per-step GREEDY formulas.

    Matches the expression of Section IV-A:
    ``sum_{k=1}^{q-1} (10 + 6 ceil(log2(p+1-k)))
    + sum_{k=1}^{q-1} (10 + 6 ceil(log2(q-k)))
    + (4 + 2 ceil(log2(p+1-q)))``.
    """
    if p < q or q < 1:
        raise ValueError(f"expected p >= q >= 1, got ({p}, {q})")
    total = 4 + 2 * _ceil_log2(p + 1 - q)
    for k in range(1, q):
        total += 10 + 6 * _ceil_log2(p + 1 - k)
        total += 10 + 6 * _ceil_log2(q - k)
    return total


#: Dispatch table used by the crossover study and the benchmarks.
BIDIAG_CP_FORMULAS: Dict[str, Callable[[int, int], int]] = {
    "flatts": bidiag_flatts_cp,
    "flattt": bidiag_flattt_cp,
    "greedy": bidiag_greedy_cp,
}


def greedy_asymptotic_cp(q: int, alpha: float = 0.0) -> float:
    """Asymptotic BIDIAG-GREEDY critical path ``(12 + 6*alpha) q log2(q)``.

    For ``p = beta * q^(1+alpha)`` (Equation (1) of the paper).
    """
    if q < 2:
        raise ValueError("q must be >= 2 for the asymptotic expression")
    return (12.0 + 6.0 * alpha) * q * math.log2(q)


# --------------------------------------------------------------------------- #
# Total work (the tiled programs' Table-I weight)
# --------------------------------------------------------------------------- #
def qr_step_weight(u: int, v: int) -> int:
    """Total weight of one QR or LQ step on a ``(u, v)`` tile matrix.

    ``4 + 6(u-1) + 6(v-1) + 12(u-1)(v-1)`` whatever the tree: a TS
    elimination (TSQRT 6, TSMQR 12) costs what a TT one does together
    with the GEQRT and UNMQR it needs first (2 + 4, 6 + 6).  Symmetric
    in ``u`` and ``v``, so it prices LQ steps too.
    """
    return 4 + 6 * (u - 1) + 6 * (v - 1) + 12 * (u - 1) * (v - 1)


def bidiag_weight(p: int, q: int) -> int:
    """Total weight of BIDIAG(p, q), any tree (its Program's total weight)."""
    if p < q or q < 1:
        raise ValueError(f"expected p >= q >= 1, got ({p}, {q})")
    return qr_step_weight(p - q + 1, 1) + sum(
        qr_step_weight(p - k + 1, q - k + 1) + qr_step_weight(p - k + 1, q - k)
        for k in range(1, q)
    )


def rbidiag_weight(p: int, q: int) -> int:
    """Total weight of R-BIDIAG(p, q): ``QR(p, q) + BIDIAG(q, q) - QR(1)``.

    The square bidiagonalization skips its first QR step: R is already
    upper triangular.
    """
    if p < q or q < 1:
        raise ValueError(f"expected p >= q >= 1, got ({p}, {q})")
    qr = sum(qr_step_weight(p - k + 1, q - k + 1) for k in range(1, q + 1))
    return qr + bidiag_weight(q, q) - qr_step_weight(q, q)


# --------------------------------------------------------------------------- #
# R-BIDIAG
# --------------------------------------------------------------------------- #
def qr_factorization_cp(p: int, q: int, tree: str) -> int:
    """Critical path of the full tiled QR factorization QR(p, q).

    Computed as the sum of the per-step critical paths (no overlap), which
    is an upper bound on the pipelined critical path; the paper uses the
    same simplification for the R-BIDIAG analysis since the difference does
    not affect the higher-order terms.
    """
    if p < q or q < 1:
        raise ValueError(f"expected p >= q >= 1, got ({p}, {q})")
    return sum(qr_step_cp(p - k + 1, q - k + 1, tree) for k in range(1, q + 1))


def rbidiag_cp(p: int, q: int, tree: str) -> int:
    """Critical path of R-BIDIAG(p, q): ``QR(p, q) + BIDIAG(q, q) - QR(1)``.

    The first QR step of the square bidiagonalization overlaps with the end
    of the preliminary QR factorization (Section IV-B), hence the
    subtraction; finer overlaps are ignored, as in the paper.
    """
    if p < q or q < 1:
        raise ValueError(f"expected p >= q >= 1, got ({p}, {q})")
    return (
        qr_factorization_cp(p, q, tree)
        + bidiag_cp(q, q, tree)
        - qr_step_cp(q, q, tree)
    )


def rbidiag_greedy_cp(p: int, q: int) -> int:
    """R-BIDIAG critical path with the GREEDY tree."""
    return rbidiag_cp(p, q, "greedy")


def rbidiag_greedy_asymptotic_cp(q: int) -> float:
    """Asymptotic R-BIDIAG-GREEDY critical path (Section IV-B).

    Combining [5, Theorem 3.5] with [11, Theorem 3], the pipelined GREEDY QR
    factorization costs ``22q + o(q)`` whenever ``p = o(q^2)``, so

    ``R-BIDIAG_GREEDY(p, q) <= 12 q log2(q) + (42 - 12 log2 e) q + o(q)``.

    This is the expression the paper uses to derive the ``1 + alpha/2``
    ratio of Theorem 1; the plain :func:`rbidiag_greedy_cp` closed form sums
    the per-step critical paths of the preliminary QR factorization without
    pipelining and is therefore only an upper bound unsuitable for the
    asymptotic comparison.
    """
    if q < 2:
        raise ValueError("q must be >= 2 for the asymptotic expression")
    return 12.0 * q * math.log2(q) + (42.0 - 12.0 * math.log2(math.e)) * q
