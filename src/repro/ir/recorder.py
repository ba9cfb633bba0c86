"""Capture a tiled-algorithm driver run into a compact :class:`Program`.

:class:`ProgramRecorder` implements the
:class:`~repro.algorithms.executor.KernelExecutor` interface: instead of
touching numbers, each kernel method appends the op to typed buffers:

* the kernel code (``array('b')``) and the tile-index params (one
  ``array('i')`` row of four per op, zero-padded);
* the step label, run-length coded.

Nothing else happens per op.  :meth:`ProgramRecorder.program` runs the
dependency analysis once, over the whole stream, as a few vectorized
numpy passes:

1. every tile-half access of every op becomes one int64 key
   ``((item << bits | op) << 1) | is_write`` (``bits`` wide enough for
   any op id), gathered per kernel code from :data:`ACCESS` and sorted
   once, so each item's accesses form one run in stream order (an op's
   read of an item before its write of it);
2. within a run every access depends on the last write before it (RAW
   and WAW, a running max over the write keys) and every read precedes
   the next write after it (WAR, a running min from the end), the
   superscalar rules of :class:`~repro.ir.program.DependencyAnalyzer`;
   self-edges are dropped and the edges deduplicated by one sort, which
   gives the predecessor CSR, ascending per op, and one more sort by
   source the successor CSR;
3. one level-synchronous sweep over the successor CSR gives the hop
   levels (``1 + max`` over the predecessors' levels), and its frontiers
   are the ops of each level, ascending.

The finished :class:`~repro.ir.program.Program` keeps the predecessor
CSR, the hop levels, per-op successor tuples, the successor CSR and the
level grouping; the last two are what the ranking sweeps read.

The tile halves each kernel reads and writes are one declarative table,
:data:`ACCESS`: the analysis reads it, and so do :data:`WRITE_COUNTS`
and :func:`access_decoder`, through which a finished Program decodes an
op's reads and writes on demand.  :mod:`repro.verify.semantics` states
the rules a second, independent time as the verifier's oracle.

Data items are coded as dense integers: the upper half of tile ``(i, j)``
is ``i * q + j`` and the lower half is ``p * q + i * q + j``.
"""

from __future__ import annotations

from array import array
from itertools import accumulate, pairwise
from typing import TYPE_CHECKING, Callable, List, NoReturn, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms.executor import KernelExecutor
from repro.kernels.costs import KERNEL_CODES, KERNEL_LIST, KernelName

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ir.program import Program

_GEQRT = KERNEL_CODES[KernelName.GEQRT]
_UNMQR = KERNEL_CODES[KernelName.UNMQR]
_TSQRT = KERNEL_CODES[KernelName.TSQRT]
_TSMQR = KERNEL_CODES[KernelName.TSMQR]
_TTQRT = KERNEL_CODES[KernelName.TTQRT]
_TTMQR = KERNEL_CODES[KernelName.TTMQR]
_GELQT = KERNEL_CODES[KernelName.GELQT]
_UNMLQ = KERNEL_CODES[KernelName.UNMLQ]
_TSLQT = KERNEL_CODES[KernelName.TSLQT]
_TSMLQ = KERNEL_CODES[KernelName.TSMLQ]
_TTLQT = KERNEL_CODES[KernelName.TTLQT]
_TTMLQ = KERNEL_CODES[KernelName.TTMLQ]

#: Params stored per op: the widest kernel signature (``tsmqr(piv, i, k, j)``).
PARAM_STRIDE = 4

#: Per kernel: ``(arity, row, col)`` — how many tile indices the method
#: takes, and which two of them name the owner tile, the tile the op
#: updates (the owner-computes rule maps the op to that tile's node).
_SIGNATURES = {
    KernelName.GEQRT: (2, 0, 1),  # (i, k)
    KernelName.UNMQR: (3, 0, 2),  # (i, k, j) -> (i, j)
    KernelName.TSQRT: (3, 1, 2),  # (piv, i, k) -> (i, k)
    KernelName.TSMQR: (4, 1, 3),  # (piv, i, k, j) -> (i, j)
    KernelName.TTQRT: (3, 1, 2),  # (piv, i, k) -> (i, k)
    KernelName.TTMQR: (4, 1, 3),  # (piv, i, k, j) -> (i, j)
    KernelName.GELQT: (2, 0, 1),  # (k, j)
    KernelName.UNMLQ: (3, 2, 1),  # (k, j, i) -> (i, j)
    KernelName.TSLQT: (3, 2, 1),  # (piv, j, k) -> (k, j)
    KernelName.TSMLQ: (4, 3, 1),  # (piv, j, k, i) -> (i, j)
    KernelName.TTLQT: (3, 2, 1),  # (piv, j, k) -> (k, j)
    KernelName.TTMLQ: (4, 3, 1),  # (piv, j, k, i) -> (i, j)
}
#: ``(arity, owner row position, owner col position)`` by kernel code.
KERNEL_SIGNATURES: Tuple[Tuple[int, int, int], ...] = tuple(
    _SIGNATURES[kernel] for kernel in KERNEL_LIST
)
#: Executor method name per kernel code.
METHOD_NAMES = tuple(kernel.name.lower() for kernel in KERNEL_LIST)

#: One tile-half access: ``(half, row param, col param)``.  Half 0 is the
#: upper (factor) half, half 1 the lower (reflector) half; the tile is
#: ``(params[row], params[col])``.
HalfAccess = Tuple[int, int, int]
_U, _L = 0, 1
_ACCESS = {
    # QR family.
    KernelName.GEQRT: ((), ((_U, 0, 1), (_L, 0, 1))),  # (i, k)
    KernelName.UNMQR: (((_L, 0, 1),), ((_U, 0, 2), (_L, 0, 2))),  # (i, k, j)
    KernelName.TSQRT: ((), ((_U, 0, 2), (_U, 1, 2), (_L, 1, 2))),  # (piv, i, k)
    KernelName.TSMQR: (  # (piv, i, k, j)
        ((_U, 1, 2), (_L, 1, 2)),
        ((_U, 0, 3), (_L, 0, 3), (_U, 1, 3), (_L, 1, 3)),
    ),
    # The TT reflectors are stored in the *upper* (triangular) part of the
    # killed tile; the lower part still holds the GEQRT reflectors, which
    # is why TTQRT does not conflict with the UNMQR updates of row i.
    KernelName.TTQRT: ((), ((_U, 0, 2), (_U, 1, 2))),  # (piv, i, k)
    KernelName.TTMQR: (  # (piv, i, k, j)
        ((_U, 1, 2),),
        ((_U, 0, 3), (_L, 0, 3), (_U, 1, 3), (_L, 1, 3)),
    ),
    # LQ family: the mirror images, with rows and columns swapped.
    KernelName.GELQT: ((), ((_U, 0, 1), (_L, 0, 1))),  # (k, j)
    KernelName.UNMLQ: (((_U, 0, 1),), ((_U, 2, 1), (_L, 2, 1))),  # (k, j, i)
    KernelName.TSLQT: ((), ((_L, 2, 0), (_U, 2, 1), (_L, 2, 1))),  # (piv, j, k)
    KernelName.TSMLQ: (  # (piv, j, k, i)
        ((_U, 2, 1), (_L, 2, 1)),
        ((_U, 3, 0), (_L, 3, 0), (_U, 3, 1), (_L, 3, 1)),
    ),
    # Mirror of TTQRT: the TT reflectors live in the *lower* part of the
    # killed tile, leaving the GELQT reflectors (upper part) untouched.
    KernelName.TTLQT: ((), ((_L, 2, 0), (_L, 2, 1))),  # (piv, j, k)
    KernelName.TTMLQ: (  # (piv, j, k, i)
        ((_L, 2, 1),),
        ((_U, 3, 0), (_L, 3, 0), (_U, 3, 1), (_L, 3, 1)),
    ),
}
#: ``(reads, writes)`` tile-half accesses by kernel code: the one
#: definition of what each kernel touches.
ACCESS: Tuple[Tuple[Tuple[HalfAccess, ...], Tuple[HalfAccess, ...]], ...] = tuple(
    _ACCESS[kernel] for kernel in KERNEL_LIST
)
#: Tile halves each kernel writes, by kernel code.
WRITE_COUNTS: Tuple[int, ...] = tuple(len(writes) for _, writes in ACCESS)

#: ``(reads, writes)`` of one op, as integer item codes.
Access = Tuple[Tuple[int, ...], Tuple[int, ...]]


def access_decoder(p: int, q: int) -> Callable[[int, Sequence[int]], Access]:
    """``(code, params) -> (reads, writes)`` item codes on a ``p x q`` grid.

    Reads :data:`ACCESS`, the table the analysis read, so a compiled
    Program's access sets come from the definition that built its edges.
    The decoder holds no state: one may be shared between threads, as a
    cached Program is.
    """
    pq = p * q

    def access(code: int, params: Sequence[int]) -> Access:
        reads, writes = ACCESS[code]
        return (
            tuple(h * pq + params[r] * q + params[c] for h, r, c in reads),
            tuple(h * pq + params[r] * q + params[c] for h, r, c in writes),
        )

    return access


def _already_finalized() -> NoReturn:
    raise RuntimeError(
        "this recorder already produced its Program; record another "
        "driver run with a new ProgramRecorder"
    )


class ProgramRecorder(KernelExecutor):
    """Executor that records a compact op stream.

    Each kernel method appends the op's kernel code and params
    (:meth:`_record`); :meth:`program` analyzes the whole stream and turns
    it into an immutable :class:`~repro.ir.program.Program`, once.
    """

    def __init__(self, p: int, q: int) -> None:
        if p < 1 or q < 1:
            raise ValueError(f"tile shape must be at least 1x1, got {p}x{q}")
        self._p = p
        self._q = q
        # The buffers the Program keeps.  The params grow as a list, which
        # takes a 4-tuple faster than ``array.extend``, and become an
        # ``array('i')`` at finalize.
        self._codes = array("b")
        self._params: List[int] = []
        self._steps: List[Tuple[int, str]] = []
        # The label of the current step run; None before the first op and
        # after finalize, so that the next op goes through _new_step.
        self._step: Optional[str] = None
        self._finalized = False
        #: Panel step label (``QR(k)`` / ``LQ(k)``) stamped on recorded ops;
        #: the drivers update it as they go.
        self.current_step: str = ""

    @property
    def p(self) -> int:
        return self._p

    @property
    def q(self) -> int:
        return self._q

    def __len__(self) -> int:
        return len(self._codes)

    def _record(self, code: int, params: Tuple[int, int, int, int]) -> None:
        """Append one op; ``params`` is already padded to PARAM_STRIDE."""
        if self.current_step is not self._step:
            self._new_step()
        self._codes.append(code)
        self._params += params

    def _new_step(self) -> None:
        """Open a step run if the label changed; refuse ops after finalize."""
        if self._finalized:
            _already_finalized()
        step = self.current_step
        if step != self._step:
            self._steps.append((len(self._codes), step))
        self._step = step

    def program(self, key: Optional[Tuple] = None) -> "Program":
        """Analyze the recorded stream and hand it to an immutable :class:`Program`.

        Runs once per recorder: the kernel methods refuse further ops
        afterwards.  The ``dep-analysis`` phase times the analysis and the
        hand-over.
        """
        from contextlib import nullcontext

        from repro.ir.program import Program, op_id_table
        from repro.obs.tracer import current_tracer

        if self._finalized:
            _already_finalized()
        self._finalized = True
        self._step = None
        codes = self._codes
        params = array("i", self._params)
        self._params = []
        n = len(codes)
        tracer = current_tracer()
        with tracer.phase("dep-analysis") if tracer is not None else nullcontext():
            keys, bits = _access_keys(self._p, self._q, codes, params)
            dst, src = _edges(keys, bits)
            pred_indptr = _indptr(dst, n)
            succ_indptr = _indptr(src, n)
            succ_ids = _by_source(dst, src, bits)
            del dst
            levels, level_order = _level_sweep(
                np.diff(pred_indptr), succ_indptr, succ_ids
            )
            op_ids = op_id_table(n)
            return Program.from_recording(
                (self._p, self._q),
                codes,
                params,
                tuple(self._steps),
                array("q", pred_indptr.tobytes()),
                array("q", src.tobytes()),
                array("q", levels.tobytes()),
                _successor_lists(succ_indptr, succ_ids, op_ids),
                succ_csr=(succ_indptr, succ_ids),
                level_order=level_order,
                op_ids=op_ids,
                key=key,
            )

    # ------------------------------------------------------------------ #
    # The kernel methods; ACCESS says what each one touches.
    # ------------------------------------------------------------------ #
    def geqrt(self, i: int, k: int) -> None:
        self._record(_GEQRT, (i, k, 0, 0))

    def unmqr(self, i: int, k: int, j: int) -> None:
        self._record(_UNMQR, (i, k, j, 0))

    def tsqrt(self, piv: int, i: int, k: int) -> None:
        self._record(_TSQRT, (piv, i, k, 0))

    def tsmqr(self, piv: int, i: int, k: int, j: int) -> None:
        self._record(_TSMQR, (piv, i, k, j))

    def ttqrt(self, piv: int, i: int, k: int) -> None:
        self._record(_TTQRT, (piv, i, k, 0))

    def ttmqr(self, piv: int, i: int, k: int, j: int) -> None:
        self._record(_TTMQR, (piv, i, k, j))

    def gelqt(self, k: int, j: int) -> None:
        self._record(_GELQT, (k, j, 0, 0))

    def unmlq(self, k: int, j: int, i: int) -> None:
        self._record(_UNMLQ, (k, j, i, 0))

    def tslqt(self, piv: int, j: int, k: int) -> None:
        self._record(_TSLQT, (piv, j, k, 0))

    def tsmlq(self, piv: int, j: int, k: int, i: int) -> None:
        self._record(_TSMLQ, (piv, j, k, i))

    def ttlqt(self, piv: int, j: int, k: int) -> None:
        self._record(_TTLQT, (piv, j, k, 0))

    def ttmlq(self, piv: int, j: int, k: int, i: int) -> None:
        self._record(_TTMLQ, (piv, j, k, i))


# --------------------------------------------------------------------------- #
# The dependency analysis
# --------------------------------------------------------------------------- #
def _access_keys(p: int, q: int, codes: array, params: array) -> Tuple[np.ndarray, int]:
    """Every tile-half access as one sorted int64 key, and the op field's width.

    A key is ``((item << bits | op) << 1) | is_write`` with ``bits`` the
    bit length of the op count: a power-of-two stride, so the fields come
    back by shifts and masks.
    """
    n = len(codes)
    bits = n.bit_length()
    pq = p * q
    kernel = np.frombuffer(codes, dtype=np.int8)
    table = np.frombuffer(params, dtype=np.intc).reshape(n, PARAM_STRIDE)
    counts = np.bincount(kernel, minlength=len(ACCESS)).tolist()
    by_code = np.argsort(kernel, kind="stable")
    keys = np.empty(
        sum(c * (len(r) + len(w)) for c, (r, w) in zip(counts, ACCESS)), np.int64
    )
    at = first = 0
    for count, (reads, writes) in zip(counts, ACCESS):
        if not count:
            continue
        ops = by_code[first: first + count]
        first += count
        cols = table[ops].T.astype(np.int64)
        for is_write, accesses in ((0, reads), (1, writes)):
            for half, row, col in accesses:
                out = keys[at: at + count]
                at += count
                np.multiply(cols[row], q, out=out)
                out += cols[col] + half * pq
                out <<= bits
                out |= ops
                out <<= 1
                out |= is_write
    keys.sort()
    return keys, bits


def _edges(keys: np.ndarray, bits: int) -> Tuple[np.ndarray, np.ndarray]:
    """The ``(dst, src)`` dependency edges of the sorted access keys.

    Distinct, without self-edges, and sorted by ``dst`` then ``src``.
    ``keys`` is consumed.
    """
    mask = (1 << bits) - 1
    is_write = (keys & 1).astype(bool)
    # ``item << bits | op`` ascends, so a running max (or, from the end, a
    # running min) over the write keys finds the nearest write; it belongs
    # to the same item's run exactly when its item field matches.
    keys >>= 1
    item = keys >> bits
    # RAW and WAW: each access depends on the last write before it.
    last = np.where(is_write, keys, -1)
    np.maximum.accumulate(last, out=last)
    hit = (last[:-1] >> bits) == item[1:]
    dst = [keys[1:][hit]]
    src = [last[:-1][hit]]
    del last
    # WAR: each read precedes the next write after it.
    following = np.where(is_write, keys, np.iinfo(np.int64).max)
    np.minimum.accumulate(following[::-1], out=following[::-1])
    hit = (following >> bits) == item
    hit &= ~is_write
    del item, is_write
    dst.append(following[hit])
    src.append(keys[hit])
    del following, hit, keys
    edge = np.concatenate(dst)
    edge &= mask
    edge <<= bits
    origin = np.concatenate(src)
    del dst, src
    origin &= mask
    edge |= origin
    # Drop self-edges, then repeats.
    edge = edge[(edge >> bits) != origin]
    del origin
    edge.sort()
    keep = np.empty(edge.size, bool)
    keep[:1] = True
    np.not_equal(edge[1:], edge[:-1], out=keep[1:])
    edge = edge[keep]
    dst_out = edge >> bits
    edge &= mask
    return dst_out, edge


def _by_source(dst: np.ndarray, src: np.ndarray, bits: int) -> np.ndarray:
    """The edges' destinations ordered by source, then destination."""
    out = src << bits
    out |= dst
    out.sort()
    out &= (1 << bits) - 1
    return out


def _indptr(rows: np.ndarray, n: int) -> np.ndarray:
    """CSR offsets of ``n`` rows from the row of every entry."""
    out = np.zeros(n + 1, np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=out[1:])
    return out


def _level_sweep(
    indegree: np.ndarray, succ_indptr: np.ndarray, succ_ids: np.ndarray
) -> Tuple[np.ndarray, Tuple[np.ndarray, np.ndarray]]:
    """Hop levels, and the op ids grouped by level: ``(order, level_indptr)``.

    A level-synchronous (Kahn) sweep: level ``k + 1`` holds the ops whose
    last predecessor is on level ``k``.  Each frontier is sorted, so the
    grouping equals a stable argsort of the levels.  ``indegree`` is
    consumed.  The loop runs once per level, so it calls ndarray methods
    rather than the slower numpy module-level wrappers.
    """
    out_degree = np.diff(succ_indptr)
    frontier = np.flatnonzero(indegree == 0)
    groups: List[np.ndarray] = []
    while frontier.size:
        groups.append(frontier)
        counts = out_degree[frontier]
        ends = counts.cumsum()
        total = int(ends[-1])
        if not total:
            break
        # The successor-CSR rows of the frontier, flattened.
        index = succ_indptr[frontier]
        index -= ends
        index += counts
        index = index.repeat(counts)
        index += np.arange(total)
        targets = succ_ids[index]
        np.subtract.at(indegree, targets, 1)
        ready = targets[indegree[targets] == 0]
        if ready.size > 1:  # listed once per predecessor in this frontier
            ready.sort()
            keep = np.empty(ready.size, bool)
            keep[0] = True
            np.not_equal(ready[1:], ready[:-1], out=keep[1:])
            ready = ready[keep]
        frontier = ready
    sizes = [group.size for group in groups]
    order = np.concatenate(groups) if groups else np.zeros(0, np.int64)
    level_indptr = np.zeros(len(sizes) + 1, np.int64)
    np.cumsum(sizes, out=level_indptr[1:])
    levels = np.empty(order.size, np.int64)
    levels[order] = np.repeat(np.arange(len(sizes)), sizes)
    return levels, (order, level_indptr)


def _successor_lists(
    succ_indptr: np.ndarray, succ_ids: np.ndarray, op_ids: np.ndarray
) -> List[Tuple[int, ...]]:
    """Per-op successor tuples holding the ints of ``op_ids`` (one per op,
    not one per edge)."""
    flat = op_ids[succ_ids].tolist()
    # Offsets are summed on the fly: a list of them would hold an int object
    # per op at once.
    bounds = accumulate(np.diff(succ_indptr).tolist(), initial=0)
    return [tuple(flat[a:b]) for a, b in pairwise(bounds)]
