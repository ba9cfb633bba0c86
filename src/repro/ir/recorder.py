"""Capture a tiled-algorithm driver run into a compact :class:`Program`.

:class:`ProgramRecorder` implements the
:class:`~repro.algorithms.executor.KernelExecutor` interface: instead of
touching numbers, each kernel method names the tile halves the kernel
reads and writes (see :data:`~repro.ir.program.DataItem`) and records
the op.  Recording *is* the dependency analysis: every op is run through
the superscalar RAW/WAR rules of
:class:`~repro.ir.program.DependencyAnalyzer` as it arrives, and what it
yields is appended to typed buffers:

* the kernel code (``array('b')``) and the tile-index params (one
  ``array('i')`` row of four per op, zero-padded);
* the step label, run-length coded;
* the op's predecessors, ascending, onto the predecessor CSR, and its hop
  level (``1 + max`` over its predecessors' levels);
* the op's id onto each predecessor's successor list, which so stays
  ascending for free.

No per-op tuple, access set or :class:`~repro.ir.program.Op` is kept, and
no second pass runs: :meth:`ProgramRecorder.program` only checks the
buffers and hands them to the :class:`~repro.ir.program.Program`.

The kernel methods are the one definition of each kernel's access sets:
the finished Program decodes an op's reads and writes on demand by
running the method again on an :func:`access_decoder`, a recorder that
reports the access instead of recording it.

Data items are coded as dense integers: the upper half of tile ``(i, j)``
is ``i * q + j`` and the lower half is ``p * q + i * q + j``.  Integer
items index flat tables in the analysis instead of hashing tuples.
"""

from __future__ import annotations

import threading
from array import array
from typing import TYPE_CHECKING, Callable, List, NoReturn, Optional, Sequence, Tuple

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
#: Zero padding that fills each kernel's params to :data:`PARAM_STRIDE`.
_PADDING = tuple((0,) * (PARAM_STRIDE - arity) for arity, _, _ in KERNEL_SIGNATURES)
#: Executor method name per kernel code.
METHOD_NAMES = tuple(kernel.name.lower() for kernel in KERNEL_LIST)

#: ``(reads, writes)`` of one op, as integer item codes.
Access = Tuple[Tuple[int, ...], Tuple[int, ...]]


def _already_finalized() -> NoReturn:
    raise RuntimeError(
        "this recorder already produced its Program; record another "
        "driver run with a new ProgramRecorder"
    )


class ProgramRecorder(KernelExecutor):
    """Executor that records a compact, analyzed op stream.

    Each kernel method computes its coded access sets and calls
    :meth:`_record`, which applies the RAW/WAR rules and appends to the
    buffers; :meth:`program` turns them into an immutable
    :class:`~repro.ir.program.Program`, once.
    """

    def __init__(self, p: int, q: int) -> None:
        if p < 1 or q < 1:
            raise ValueError(f"tile shape must be at least 1x1, got {p}x{q}")
        self._p = p
        self._q = q
        self._pq = p * q
        n_items = 2 * self._pq
        # The buffers the Program keeps.
        self._codes = array("b")
        self._params = array("i")
        self._steps: List[Tuple[int, str]] = []
        self._pred_indptr = array("q", [0])
        self._pred_ids = array("q")
        self._levels = array("q")
        self._successors: List[List[int]] = []
        # Analysis tables, dropped at finalize: the last writer of every
        # item (-1: none yet), the readers since that write, and per op a
        # dedup stamp (``stamp[w] == tid`` once producer ``w`` is collected
        # for op ``tid``).
        self._last_writer = [-1] * n_items
        self._readers: List[Optional[List[int]]] = [None] * n_items
        self._stamp: List[int] = []
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

    def _record(
        self,
        code: int,
        params: Tuple[int, ...],
        reads: Tuple[int, ...],
        writes: Tuple[int, ...],
    ) -> None:
        """Analyze one op against the stream so far and append it."""
        if self._finalized:
            _already_finalized()
        tid = len(self._codes)
        self._codes.append(code)
        self._params.extend(params)
        pad = _PADDING[code]
        if pad:
            self._params.extend(pad)
        if self.current_step != self._step:
            self._step = self.current_step
            self._steps.append((tid, self._step))
        last_writer = self._last_writer
        readers = self._readers
        stamp = self._stamp
        stamp.append(tid)  # pre-marking tid makes self-edges impossible
        preds: List[int] = []
        collect = preds.append
        # RAW: the last writer of every item read.
        for it in reads:
            w = last_writer[it]
            if w >= 0 and stamp[w] != tid:
                stamp[w] = tid
                collect(w)
        # One fused pass per written item: RAW/WAW edge, WAR edges to the
        # readers since, then claim the item (items are distinct within
        # one op's write set, so the claim cannot affect a later item).
        for it in writes:
            w = last_writer[it]
            if w >= 0 and stamp[w] != tid:
                stamp[w] = tid
                collect(w)
            r = readers[it]
            if r is not None:
                for x in r:
                    if stamp[x] != tid:
                        stamp[x] = tid
                        collect(x)
                readers[it] = None
            last_writer[it] = tid
        for it in reads:
            if it not in writes:
                r = readers[it]
                if r is None:
                    readers[it] = [tid]
                else:
                    r.append(tid)
        successors = self._successors
        levels = self._levels
        level = 0
        if preds:
            preds.sort()
            for w in preds:
                successors[w].append(tid)
                lv = levels[w] + 1
                if lv > level:
                    level = lv
            self._pred_ids.extend(preds)
        self._pred_indptr.append(len(self._pred_ids))
        levels.append(level)
        successors.append([])

    def program(self, key: Optional[Tuple] = None) -> "Program":
        """Hand the recorded buffers to an immutable :class:`Program`.

        Runs once per recorder: the analysis tables are dropped and the
        kernel methods refuse further ops.  The ``dep-analysis`` phase
        times this finalize step (the analysis itself ran while recording).
        """
        from contextlib import nullcontext

        from repro.ir.program import Program
        from repro.obs.tracer import current_tracer

        if self._finalized:
            _already_finalized()
        tracer = current_tracer()
        with tracer.phase("dep-analysis") if tracer is not None else nullcontext():
            program = Program.from_recording(
                (self._p, self._q),
                self._codes,
                self._params,
                tuple(self._steps),
                self._pred_indptr,
                self._pred_ids,
                self._levels,
                self._successors,
                key=key,
            )
        self._finalized = True
        self._last_writer, self._readers, self._stamp = [], [], []
        return program

    # ------------------------------------------------------------------ #
    # QR family.  Item codes: upper(i, j) = i*q + j, lower(i, j) = pq + i*q + j.
    # ------------------------------------------------------------------ #
    def geqrt(self, i: int, k: int) -> None:
        u = i * self._q + k
        self._record(_GEQRT, (i, k), (), (u, self._pq + u))

    def unmqr(self, i: int, k: int, j: int) -> None:
        q = self._q
        pq = self._pq
        u = i * q + j
        self._record(_UNMQR, (i, k, j), (pq + i * q + k,), (u, pq + u))

    def tsqrt(self, piv: int, i: int, k: int) -> None:
        q = self._q
        u = i * q + k
        self._record(_TSQRT, (piv, i, k), (), (piv * q + k, u, self._pq + u))

    def tsmqr(self, piv: int, i: int, k: int, j: int) -> None:
        q = self._q
        pq = self._pq
        uk = i * q + k
        up = piv * q + j
        ui = i * q + j
        self._record(
            _TSMQR, (piv, i, k, j), (uk, pq + uk), (up, pq + up, ui, pq + ui)
        )

    def ttqrt(self, piv: int, i: int, k: int) -> None:
        # The TT reflectors are stored in the *upper* (triangular) part of the
        # killed tile; the lower part still holds the GEQRT reflectors, which
        # is why TTQRT does not conflict with the UNMQR updates of row i.
        q = self._q
        self._record(_TTQRT, (piv, i, k), (), (piv * q + k, i * q + k))

    def ttmqr(self, piv: int, i: int, k: int, j: int) -> None:
        q = self._q
        pq = self._pq
        up = piv * q + j
        ui = i * q + j
        self._record(
            _TTMQR, (piv, i, k, j), (i * q + k,), (up, pq + up, ui, pq + ui)
        )

    # ------------------------------------------------------------------ #
    # LQ family
    # ------------------------------------------------------------------ #
    def gelqt(self, k: int, j: int) -> None:
        u = k * self._q + j
        self._record(_GELQT, (k, j), (), (u, self._pq + u))

    def unmlq(self, k: int, j: int, i: int) -> None:
        q = self._q
        pq = self._pq
        u = i * q + j
        self._record(_UNMLQ, (k, j, i), (k * q + j,), (u, pq + u))

    def tslqt(self, piv: int, j: int, k: int) -> None:
        q = self._q
        pq = self._pq
        u = k * q + j
        self._record(_TSLQT, (piv, j, k), (), (pq + k * q + piv, u, pq + u))

    def tsmlq(self, piv: int, j: int, k: int, i: int) -> None:
        q = self._q
        pq = self._pq
        uk = k * q + j
        up = i * q + piv
        ui = i * q + j
        self._record(
            _TSMLQ, (piv, j, k, i), (uk, pq + uk), (up, pq + up, ui, pq + ui)
        )

    def ttlqt(self, piv: int, j: int, k: int) -> None:
        # Mirror of ttqrt: the TT reflectors live in the *lower* part of the
        # killed tile, leaving the GELQT reflectors (upper part) untouched.
        q = self._q
        pq = self._pq
        self._record(
            _TTLQT, (piv, j, k), (), (pq + k * q + piv, pq + k * q + j)
        )

    def ttmlq(self, piv: int, j: int, k: int, i: int) -> None:
        q = self._q
        pq = self._pq
        up = i * q + piv
        ui = i * q + j
        self._record(
            _TTMLQ, (piv, j, k, i), (pq + k * q + j,), (up, pq + up, ui, pq + ui)
        )


class _AccessProbe(ProgramRecorder):
    """A recorder whose kernel methods report their access, not record it."""

    def __init__(self, p: int, q: int) -> None:
        self._p = p
        self._q = q
        self._pq = p * q
        self.access: Access = ((), ())

    def _record(
        self,
        code: int,
        params: Tuple[int, ...],
        reads: Tuple[int, ...],
        writes: Tuple[int, ...],
    ) -> None:
        self.access = (reads, writes)


def access_decoder(p: int, q: int) -> Callable[[int, Sequence[int]], Access]:
    """``(code, params) -> (reads, writes)`` item codes on a ``p x q`` grid.

    Runs the recorder's own kernel method for the op, so a compiled
    Program's access sets come from the definition that recorded it.  The
    probe holds the last access, so a lock makes one decoder safe to share
    between threads, as a cached Program is.
    """
    probe = _AccessProbe(p, q)
    methods = [getattr(probe, name) for name in METHOD_NAMES]
    lock = threading.Lock()

    def access(code: int, params: Sequence[int]) -> Access:
        with lock:
            methods[code](*params)
            return probe.access

    return access


#: Tile halves each kernel writes, by kernel code (read off the methods).
WRITE_COUNTS: Tuple[int, ...] = tuple(
    len(access_decoder(1, 1)(code, (0,) * arity)[1])
    for code, (arity, _, _) in enumerate(KERNEL_SIGNATURES)
)
