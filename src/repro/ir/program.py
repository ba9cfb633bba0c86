"""The op-stream Program IR and its dependency analyzer.

A :class:`Program` is the compiled form of one tiled algorithm at one tile
shape: a flat stream of ops (one per tile-kernel call, in the sequentially
consistent order the driver issued them) plus the dependency DAG, stored
as a predecessor CSR and per-op successor tuples.  Programs are immutable
and cheap to replay, which is what lets a tuning sweep trace each DAG
shape once and re-schedule it many times.

The dependencies follow the superscalar logic a PaRSEC/StarPU-style
runtime applies to its task stream (:class:`DependencyAnalyzer`):

* a task that *writes* a data item depends on the item's last writer and on
  every reader since that write (RAW + WAR);
* a task that *reads* a data item depends on its last writer (RAW).

Data items are tile *halves* (upper = factor part, lower = reflector part);
see :data:`DataItem` for why this split is needed to reproduce the
dependency structure — and hence the critical paths — of the paper.

Compact storage
---------------

A Program recorded by :class:`~repro.ir.recorder.ProgramRecorder` holds
typed buffers and no per-op Python object but its successor tuple:

* kernel codes (one byte per op) and tile-index params (one int32 row of
  four per op, zero-padded); the step labels, run-length coded;
* the predecessor CSR (``array('q')``, ascending within each op) and the
  hop levels, both found by the recorder's one vectorized analysis of
  the finished stream, which also hands over the successor CSR and the
  ops grouped by level that the ranking sweeps read;
* each op's successor tuple, ascending: the single-node replay and the
  structural dispatch pass walk these (walking ``array('q')`` CSR slices
  instead took 3x as long, 6.7 against 2.1 ms over 18.4k ops).  They
  hold the ints of one per-program op-id table (:meth:`Program.op_ids`),
  which the dispatch orders and streams of :mod:`repro.runtime.replay`
  draw from too, so each op id is one int object however many orders
  replay the program; and a tuple of ints is untracked by the cyclic
  garbage collector after one young collection, where a list is
  traversed by every collection.

Everything else is derived on demand and cached where a hot path reads
it: Table-I weights and write counts from the kernel codes, owner tiles
gathered from (kernel, params).  :class:`Op` records, with their
read/write sets, are decoded on demand from the recorder's access table
(:func:`~repro.ir.recorder.access_decoder`), so the access rules have one
definition; :mod:`repro.verify.semantics` states them a second,
independent time as the verifier's oracle.  The vectorized analyses read
only flat arrays and are bit-identical to the per-node recursions they
replace (asserted by the equivalence tests).

Programs built from explicit :class:`Op` records (``Program(ops,
pred_lists)`` and :meth:`Program.from_ops`) keep those records and read
every column off them, custom weights and access sets included; tests
and the verifier's mutation suites build the programs the recorder never
would that way, and :meth:`Program.from_ops` is the independent
reference the recorder's analysis is tested against.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.ir.recorder import (
    KERNEL_SIGNATURES,
    PARAM_STRIDE,
    WRITE_COUNTS,
    Access,
    access_decoder,
)
from repro.kernels.costs import (
    KERNEL_CODES,
    KERNEL_LIST,
    KERNEL_WEIGHTS,
    KernelName,
)


def _read_only(values: Sequence[int]) -> np.ndarray:
    out = np.array(values, dtype=np.int64)
    out.setflags(write=False)
    return out


#: Table-I weights, tile halves written, params arity and owner-tile param
#: positions, indexed by kernel code (see ``KERNEL_LIST``).
_WEIGHT_BY_CODE = _read_only([KERNEL_WEIGHTS[k] for k in KERNEL_LIST])
_WRITES_BY_CODE = _read_only(WRITE_COUNTS)
_ARITY_BY_CODE = _read_only([arity for arity, _, _ in KERNEL_SIGNATURES])
_OWNER_ROW_BY_CODE = _read_only([row for _, row, _ in KERNEL_SIGNATURES])
_OWNER_COL_BY_CODE = _read_only([col for _, _, col in KERNEL_SIGNATURES])

#: A data item is one half of a tile: ("U", i, j) is the upper (R/L factor)
#: part, ("L", i, j) the lower (reflector) part.  Splitting tiles this way
#: reproduces PLASMA's dependency structure, where e.g. TSQRT only touches
#: the R part of the pivot tile while UNMQR only reads its reflectors.
DataItem = Tuple[str, int, int]


@dataclass(frozen=True)
class Op:
    """One tile-kernel instance in a compiled program.

    Attributes
    ----------
    index:
        Dense op id (position in the stream).
    kernel:
        Which tile kernel this op runs.
    params:
        The kernel's tile indices, as passed to the executor.
    reads, writes:
        Data items read / written (a data item is half a tile).
    weight:
        Critical-path weight in units of ``nb^3 / 3`` flops (Table I).
    owner_tile:
        Tile coordinate the owner-computes rule maps to a node.
    step:
        The panel step (``QR(k)`` / ``LQ(k)``) the op belongs to.
    """

    index: int
    kernel: KernelName
    params: Tuple[int, ...]
    reads: FrozenSet[DataItem]
    writes: FrozenSet[DataItem]
    weight: int
    owner_tile: Tuple[int, int]
    step: str = ""


class DependencyAnalyzer:
    """Superscalar RAW/WAR dependency inference over a stream of accesses.

    Feed it one op at a time (:meth:`add`) and it returns the ids of the
    ops the new op depends on.  Data items are iterated in sorted order, so
    the produced edge ordering is independent of ``PYTHONHASHSEED`` — a
    prerequisite for bit-reproducible schedules.

    This is the object-path analyzer (data items are tuples), behind
    :meth:`Program.from_ops`, and the reference the compiler's analysis is
    tested against: :meth:`repro.ir.recorder.ProgramRecorder.program`
    applies the same rules to a whole recorded stream at once, as sorted
    integer-coded accesses.
    """

    def __init__(self) -> None:
        self._last_writer: Dict[DataItem, int] = {}
        self._readers_since_write: Dict[DataItem, List[int]] = {}
        self._count = 0

    def add(
        self, reads: FrozenSet[DataItem], writes: FrozenSet[DataItem]
    ) -> List[int]:
        """Register op ``id = current count``; return its predecessor ids."""
        tid = self._count
        self._count += 1
        preds: set[int] = set()
        for item in sorted(reads | writes):
            writer = self._last_writer.get(item)
            if writer is not None:
                preds.add(writer)
        for item in sorted(writes):
            # WAR: wait for every reader since the last write.
            preds.update(self._readers_since_write.get(item, ()))
        # Update the bookkeeping *after* all edges are found.
        for item in sorted(writes):
            self._last_writer[item] = tid
            self._readers_since_write[item] = []
        for item in sorted(reads - writes):
            self._readers_since_write.setdefault(item, []).append(tid)
        preds.discard(tid)
        return sorted(preds)


def _csr_from_lists(lists: Sequence[Sequence[int]]) -> Tuple[array, array]:
    indptr = array("q", [0])
    ids = array("q")
    for row in lists:
        ids.extend(row)
        indptr.append(len(ids))
    return indptr, ids


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a`` as a read-only int64 array (no copy when it already is one)."""
    out = np.asarray(a, dtype=np.int64)
    out.setflags(write=False)
    return out


def op_id_table(n: int) -> np.ndarray:
    """The ints ``0 .. n-1`` as a read-only object array, one int object each.

    Gathering from it (``table[ids].tolist()``) hands out these objects
    instead of minting a new int per element.
    """
    out = np.arange(n).astype(object)
    out.setflags(write=False)
    return out


def _np_view(a: array, dtype: Any = np.int64) -> np.ndarray:
    """Zero-copy read-only numpy view of a typed ``array`` buffer."""
    out = np.frombuffer(a, dtype=dtype) if len(a) else np.zeros(0, dtype=dtype)
    out.setflags(write=False)
    return out


class Program:
    """An immutable op stream with its dependency DAG.

    Compiled programs come from :func:`repro.ir.compiler.compile_program`
    (through :meth:`from_recording`, the recorder's finalize step); build
    one from explicit ``(ops, pred_lists)`` or with :meth:`from_ops` (runs
    the :class:`DependencyAnalyzer`) when the ops are hand-made.

    The predecessor CSR is stored as ``array('q')`` (fast scalar access)
    with zero-copy numpy views (``pred_indptr_np``, ``pred_ids_np``) for
    the vectorized analyses; the successors are per-op tuples, with a
    numpy CSR (``succ_indptr_np``, ``succ_ids_np``) that the compiler
    hands over and an object-built program derives on demand.
    """

    __slots__ = (
        "key",
        "_ops",
        "_shape",
        "_codes",
        "_params",
        "_steps",
        "_levels",
        "_pred_indptr",
        "_pred_ids",
        "_succ",
        "_cache",
        "__weakref__",
    )

    def __init__(
        self,
        ops: Sequence[Op],
        pred_lists: Sequence[Sequence[int]],
        key: Optional[Tuple] = None,
    ) -> None:
        self._ops: Optional[Tuple[Op, ...]] = tuple(ops)
        self._shape: Optional[Tuple[int, int]] = None
        self._codes: Optional[array] = None
        self._params: Optional[array] = None
        self._steps: Tuple[Tuple[int, str], ...] = ()
        self._levels: Optional[array] = None
        self._cache: Dict[str, object] = {}
        self.key = key
        n = len(self._ops)
        if len(pred_lists) != n:
            raise ValueError(
                f"{n} ops but {len(pred_lists)} predecessor lists"
            )
        ids = op_id_table(n)
        self._cache["op_ids"] = ids
        id_of = ids.tolist()
        succ: List[List[int]] = [[] for _ in range(n)]
        for dst, preds in enumerate(pred_lists):
            for src in preds:
                if not (0 <= src < dst):
                    raise ValueError(
                        f"edge {src} -> {dst} violates insertion-order topology"
                    )
                succ[src].append(id_of[dst])
        self._pred_indptr, self._pred_ids = _csr_from_lists(pred_lists)
        self._succ = list(map(tuple, succ))

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_ops(cls, ops: Iterable[Op], key: Optional[Tuple] = None) -> "Program":
        """Analyze the access sets of ``ops`` and build the dependency DAG."""
        ops = tuple(ops)
        analyzer = DependencyAnalyzer()
        pred_lists = [analyzer.add(op.reads, op.writes) for op in ops]
        return cls(ops, pred_lists, key=key)

    @classmethod
    def from_recording(
        cls,
        shape: Tuple[int, int],
        codes: array,
        params: array,
        steps: Tuple[Tuple[int, str], ...],
        pred_indptr: array,
        pred_ids: array,
        levels: array,
        successors: List[Tuple[int, ...]],
        *,
        succ_csr: Tuple[np.ndarray, np.ndarray],
        level_order: Tuple[np.ndarray, np.ndarray],
        op_ids: Optional[np.ndarray] = None,
        key: Optional[Tuple] = None,
    ) -> "Program":
        """Adopt a recorder's buffers and analysis (the compiler's finalize step).

        ``codes`` is an ``array('b')`` of kernel codes, ``params`` an
        ``array('i')`` of :data:`~repro.ir.recorder.PARAM_STRIDE` entries
        per op, ``steps`` the ``(first op, label)`` runs, ``pred_indptr``
        / ``pred_ids`` the ``array('q')`` predecessor CSR, ``levels`` the
        hop levels and ``successors`` the per-op successor tuples;
        ``succ_csr`` is the int64 ``(indptr, ids)`` successor CSR and
        ``level_order`` the int64 ``(order, level_indptr)`` grouping of
        the ops by level, which :attr:`succ_indptr_np` /
        :attr:`succ_ids_np` and the level sweeps read.  ``op_ids`` is the
        :func:`op_id_table` the successor tuples were gathered from
        (:meth:`op_ids`; a fresh one is made on demand without it).  The
        buffers are
        taken over, not copied.  The lengths must agree and every edge
        must respect the insertion-order topology (``0 <= src < dst``),
        checked with two segmented reductions.
        """
        n = len(codes)
        if not (
            len(params) == PARAM_STRIDE * n
            and len(pred_indptr) == n + 1
            and len(levels) == n
            and len(successors) == n
            and len(succ_csr[0]) == n + 1
            and len(level_order[0]) == n
        ):
            raise ValueError(
                f"{n} kernel codes but {len(params)} params, "
                f"{len(pred_indptr)} CSR offsets, {len(levels)} levels and "
                f"{len(successors)} successor lists"
            )
        self = object.__new__(cls)
        self._ops = None
        self._shape = shape
        self._codes = codes
        self._params = params
        self._steps = steps
        self._levels = levels
        self._pred_indptr = pred_indptr
        self._pred_ids = pred_ids
        self._succ = successors
        self._cache = {}
        self.key = key
        if op_ids is not None:
            self._cache["op_ids"] = op_ids
        self._cache["succ_indptr"], self._cache["succ_ids"] = map(_frozen, succ_csr)
        self._cache["level_order"] = tuple(map(_frozen, level_order))
        indptr = self.pred_indptr_np
        ids = self.pred_ids_np
        if len(ids) != int(indptr[-1]):
            raise ValueError(
                f"predecessor CSR ends at {int(indptr[-1])} but holds {len(ids)} ids"
            )
        rows = np.flatnonzero(np.diff(indptr))
        if rows.size:
            starts = indptr[rows]
            low = np.minimum.reduceat(ids, starts)
            high = np.maximum.reduceat(ids, starts)
            bad = np.flatnonzero((low < 0) | (high >= rows))
            if bad.size:
                b = int(bad[0])
                src = int(low[b]) if low[b] < 0 else int(high[b])
                raise ValueError(
                    f"edge {src} -> {int(rows[b])} violates insertion-order topology"
                )
        return self

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._succ)

    @property
    def n_edges(self) -> int:
        return len(self._pred_ids)

    def predecessors(self, index: int) -> Sequence[int]:
        """Ids of the ops ``index`` depends on (ascending)."""
        return self._pred_ids[self._pred_indptr[index]: self._pred_indptr[index + 1]]

    def successors(self, index: int) -> Tuple[int, ...]:
        """Ids of the ops depending on ``index`` (ascending)."""
        return self._succ[index]

    def successor_lists(self) -> List[Tuple[int, ...]]:
        """Every op's successor tuple (the list is shared; do not mutate it)."""
        return self._succ

    def op_ids(self) -> np.ndarray:
        """The program's op-id table (:func:`op_id_table`), shared.

        The successor tuples hold its int objects; the replay's dispatch
        orders and streams gather from it, so they mint no ints of their
        own.
        """
        return self._cached("op_ids", lambda: op_id_table(len(self)))

    def indegrees(self) -> List[int]:
        """Number of predecessors of each op (fresh list, safe to mutate)."""
        return np.diff(self.pred_indptr_np).tolist()

    def sources(self) -> List[int]:
        """Ops with no predecessors."""
        return np.flatnonzero(np.diff(self.pred_indptr_np) == 0).tolist()

    def edges(self) -> Iterable[Tuple[int, int]]:
        """All ``(src, dst)`` dependency pairs, grouped by ``dst``."""
        for dst in range(len(self)):
            for src in self.predecessors(dst):
                yield (src, dst)

    # ------------------------------------------------------------------ #
    # The op stream
    # ------------------------------------------------------------------ #
    @property
    def ops(self) -> Tuple[Op, ...]:
        """The op stream as :class:`Op` objects (decoded once, then kept).

        Materializing pins one object per op on the program; loops that
        only pass through use :meth:`op`, :meth:`kernel_calls` or the
        numpy columns instead.
        """
        ops = self._ops
        if ops is None:
            ops = tuple(self._decode_ops())
            self._ops = ops
        return ops

    def op(self, index: int) -> Op:
        """One op, decoded on demand (no per-op state is kept)."""
        if self._ops is not None:
            return self._ops[index]
        index = range(len(self))[index]  # bounds check; negative indices count back
        code = int(self.kernel_codes_np[index])
        params = tuple(self._param_table()[index, : KERNEL_SIGNATURES[code][0]].tolist())
        starts = [start for start, _ in self._steps]
        step = self._steps[bisect_right(starts, index) - 1][1]
        return self._make_op(index, code, params, step, self._access())

    def kernel_calls(self) -> Tuple[Tuple[int, Tuple[int, ...]], ...]:
        """``(kernel code, params)`` of every op, in stream order.

        Cached: the numeric replay walks it once per run.
        """
        return self._cached(
            "kernel_calls",
            lambda: tuple(zip(self.kernel_codes_np.tolist(), self._param_tuples())),
        )

    def step_labels(self) -> List[str]:
        """The panel step label of every op, in stream order."""
        if self._codes is None:
            return [op.step for op in self.ops]
        labels: List[str] = []
        ends = [start for start, _ in self._steps[1:]] + [len(self)]
        for (start, label), end in zip(self._steps, ends):
            labels.extend([label] * (end - start))
        return labels

    def _access(self) -> Callable[[int, Sequence[int]], Access]:
        shape = self._shape
        assert shape is not None
        return self._cached("access", lambda: access_decoder(*shape))

    def _buffers(self) -> Tuple[array, array]:
        """The kernel-code and params buffers of a compiled program."""
        assert self._codes is not None and self._params is not None
        return self._codes, self._params

    def _make_op(
        self,
        index: int,
        code: int,
        params: Tuple[int, ...],
        step: str,
        access: Callable[[int, Sequence[int]], Access],
    ) -> Op:
        assert self._shape is not None
        q = self._shape[1]
        pq = self._shape[0] * q

        def item(c: int) -> DataItem:
            return ("U", c // q, c % q) if c < pq else ("L", (c - pq) // q, c % q)

        reads, writes = access(code, params)
        kernel = KERNEL_LIST[code]
        _, row, col = KERNEL_SIGNATURES[code]
        return Op(
            index=index,
            kernel=kernel,
            params=params,
            reads=frozenset(map(item, reads)),
            writes=frozenset(map(item, writes)),
            weight=KERNEL_WEIGHTS[kernel],
            owner_tile=(params[row], params[col]),
            step=step,
        )

    def _decode_ops(self) -> Iterator[Op]:
        access = self._access()
        calls = zip(self.kernel_calls(), self.step_labels())
        for index, ((code, params), step) in enumerate(calls):
            yield self._make_op(index, code, params, step, access)

    def _param_table(self) -> np.ndarray:
        """The params buffer as an ``(ops, PARAM_STRIDE)`` int32 view."""
        return self._cached(
            "params",
            lambda: _np_view(self._buffers()[1], np.intc).reshape(-1, PARAM_STRIDE),
        )

    def _param_tuples(self, order: Optional[np.ndarray] = None) -> List[Tuple[int, ...]]:
        """Each op's params, in stream order or in the op order ``order``."""
        if self._codes is None:
            ops = self.ops
            ids = range(len(ops)) if order is None else order.tolist()
            return [ops[i].params for i in ids]
        table = self._param_table()
        codes = self.kernel_codes_np
        if order is not None:
            table, codes = table[order], codes[order]
        arity = _ARITY_BY_CODE[codes].tolist()
        return [tuple(row[:a]) for row, a in zip(table.tolist(), arity)]

    # ------------------------------------------------------------------ #
    # Structure-of-arrays columns (cached, zero-copy where possible)
    # ------------------------------------------------------------------ #
    def _cached(self, name: str, build: Callable[[], Any]) -> Any:
        try:
            return self._cache[name]
        except KeyError:
            value = build()
            self._cache[name] = value
            return value

    @property
    def pred_indptr_np(self) -> np.ndarray:
        return self._cached("pred_indptr", lambda: _np_view(self._pred_indptr))

    @property
    def pred_ids_np(self) -> np.ndarray:
        return self._cached("pred_ids", lambda: _np_view(self._pred_ids))

    @property
    def succ_indptr_np(self) -> np.ndarray:
        def build() -> np.ndarray:
            out = np.zeros(len(self) + 1, dtype=np.int64)
            np.cumsum(
                np.fromiter(map(len, self._succ), dtype=np.int64, count=len(self)),
                out=out[1:],
            )
            out.setflags(write=False)
            return out

        return self._cached("succ_indptr", build)

    @property
    def succ_ids_np(self) -> np.ndarray:
        def build() -> np.ndarray:
            out = np.fromiter(
                chain.from_iterable(self._succ), dtype=np.int64, count=self.n_edges
            )
            out.setflags(write=False)
            return out

        return self._cached("succ_ids", build)

    def _column(
        self,
        name: str,
        compact: Callable[[], np.ndarray],
        from_ops: Callable[[Op], int],
    ) -> np.ndarray:
        """A cached int64 per-op column: derived from the buffers, or read
        off the :class:`Op` records of an object-built program."""
        def build() -> np.ndarray:
            if self._codes is not None:
                out = np.ascontiguousarray(compact(), dtype=np.int64)
            else:
                out = np.fromiter(
                    map(from_ops, self.ops), dtype=np.int64, count=len(self)
                )
            out.setflags(write=False)
            return out

        return self._cached(name, build)

    @property
    def kernel_codes_np(self) -> np.ndarray:
        """Kernel code of every op (index into ``KERNEL_LIST``), int64."""
        return self._column(
            "kernel_codes",
            lambda: _np_view(self._buffers()[0], np.int8),
            lambda op: KERNEL_CODES[op.kernel],
        )

    @property
    def weights_np(self) -> np.ndarray:
        """Weight of every op (``nb^3/3`` flop units), int64.

        Compiled programs derive the Table-I weights from the kernel
        codes; object-built programs read the ``weight`` field actually
        carried by each :class:`Op`, which callers are free to have
        customized.
        """
        return self._column(
            "weights",
            lambda: _WEIGHT_BY_CODE[self.kernel_codes_np],
            lambda op: op.weight,
        )

    def _owner_param(self, positions: np.ndarray) -> np.ndarray:
        """Gather each op's param at ``positions[kernel code]``."""
        table = self._param_table()
        return table[np.arange(len(self)), positions[self.kernel_codes_np]]

    @property
    def owner_rows_np(self) -> np.ndarray:
        """Owner-tile row coordinate of every op, int64."""
        return self._column(
            "owner_rows",
            lambda: self._owner_param(_OWNER_ROW_BY_CODE),
            lambda op: op.owner_tile[0],
        )

    @property
    def owner_cols_np(self) -> np.ndarray:
        """Owner-tile column coordinate of every op, int64."""
        return self._column(
            "owner_cols",
            lambda: self._owner_param(_OWNER_COL_BY_CODE),
            lambda op: op.owner_tile[1],
        )

    @property
    def writes_count_np(self) -> np.ndarray:
        """Number of data items (tile halves) each op writes, int64."""
        return self._column(
            "writes_count",
            lambda: _WRITES_BY_CODE[self.kernel_codes_np],
            lambda op: len(op.writes),
        )

    @property
    def levels_np(self) -> np.ndarray:
        """Topological hop level of every op (``1 + max`` over predecessors).

        Found by the recorder's analysis on the compiler path; object-built
        programs derive it with one forward pass over the pred CSR.
        """
        def build() -> np.ndarray:
            if self._levels is not None:
                return _np_view(self._levels)
            n = len(self)
            indptr = self._pred_indptr
            ids = self._pred_ids
            level = [0] * n
            for i in range(n):
                best = -1
                for k in range(indptr[i], indptr[i + 1]):
                    lv = level[ids[k]]
                    if lv > best:
                        best = lv
                level[i] = best + 1
            return _read_only(level)

        return self._cached("levels", build)

    # ------------------------------------------------------------------ #
    # Vectorized topological level sweeps
    # ------------------------------------------------------------------ #
    def _level_order(self) -> Tuple[np.ndarray, np.ndarray]:
        """Op ids grouped by level: ``(order, level_indptr)``."""
        def build() -> Tuple[np.ndarray, np.ndarray]:
            level = self.levels_np
            n = len(self)
            if n == 0:
                return np.zeros(0, np.int64), np.zeros(1, np.int64)
            order = np.argsort(level, kind="stable")
            counts = np.bincount(level)
            indptr = np.zeros(len(counts) + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            return order, indptr

        return self._cached("level_order", build)

    def _sweep_groups(
        self, name: str, indptr_np: np.ndarray, ids_np: np.ndarray,
        descending: bool,
    ) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per-level gather structure ``(nodes, neighbor gather, offsets)``.

        For each level (descending for bottom-level sweeps over the succ
        CSR, ascending for critical-path sweeps over the pred CSR), the
        nodes with at least one neighbor, a flattened gather of their CSR
        rows and the reduceat segment offsets.  Built once per program and
        reused by every (machine, policy) combination that sweeps it.
        """
        def build() -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
            order, _ = self._level_order()
            counts = np.diff(indptr_np)
            ord2 = order[::-1] if descending else order
            keep = counts[ord2] > 0
            nodes_all = ord2[keep]
            if nodes_all.size == 0:
                return []
            c = counts[nodes_all]
            starts = indptr_np[nodes_all]
            cum = np.cumsum(c)
            offsets_all = cum - c
            total = int(cum[-1])
            # Flatten the CSR rows of all swept nodes in level order.
            idx = np.repeat(starts - offsets_all, c) + np.arange(total)
            gather_all = ids_np[idx]
            # Group boundaries: positions where the (monotone) level changes.
            level_of = self.levels_np[nodes_all]
            change = np.flatnonzero(np.diff(level_of)) + 1
            bounds = np.concatenate(
                ([0], change, [nodes_all.size])
            ).tolist()
            groups = []
            for gi in range(len(bounds) - 1):
                a, b = bounds[gi], bounds[gi + 1]
                ea = int(offsets_all[a])
                eb = int(offsets_all[b - 1] + c[b - 1])
                groups.append(
                    (nodes_all[a:b], gather_all[ea:eb], offsets_all[a:b] - ea)
                )
            return groups

        return self._cached(name, build)

    def bottom_levels_np(self, durations: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`bottom_levels` (bit-identical results).

        A reverse topological level sweep: all ops of one level take the
        segmented max over their successors' levels at once
        (``np.maximum.reduceat``), replacing the per-node Python recursion.
        """
        durations = np.ascontiguousarray(durations, dtype=np.float64)
        out = durations.copy()
        groups = self._sweep_groups(
            "rev_sweep", self.succ_indptr_np, self.succ_ids_np, descending=True
        )
        for nodes, gather, offsets in groups:
            seg = np.maximum.reduceat(out[gather], offsets)
            out[nodes] = durations[nodes] + seg
        return out

    def finish_times_np(self, durations: np.ndarray) -> np.ndarray:
        """Earliest finish time of every op with unbounded cores (ASAP).

        A forward topological level sweep over the predecessor CSR: every
        op starts when its last predecessor finishes.
        """
        durations = np.ascontiguousarray(durations, dtype=np.float64)
        finish = durations.copy()
        groups = self._sweep_groups(
            "fwd_sweep", self.pred_indptr_np, self.pred_ids_np,
            descending=False,
        )
        for nodes, gather, offsets in groups:
            seg = np.maximum.reduceat(finish[gather], offsets)
            finish[nodes] = durations[nodes] + seg
        return finish

    def critical_path_np(self, durations: np.ndarray) -> float:
        """Vectorized duration-weighted critical path (bit-identical).

        The max of :meth:`finish_times_np`.
        """
        if len(self) == 0:
            return 0.0
        return float(self.finish_times_np(durations).max())

    # ------------------------------------------------------------------ #
    # Aggregates and analyses
    # ------------------------------------------------------------------ #
    def total_weight(self) -> int:
        """Sum of all op weights (the sequential time in Table-I units)."""
        return int(self.weights_np.sum())

    def kernel_counts(self) -> Dict[KernelName, int]:
        """Histogram of kernel types."""
        counts = np.bincount(self.kernel_codes_np, minlength=len(KERNEL_LIST))
        return {
            KERNEL_LIST[code]: int(c)
            for code, c in enumerate(counts)
            if c > 0
        }

    def critical_path(
        self, weight_fn: Optional[Callable[[Op], float]] = None
    ) -> float:
        """Length of the heaviest dependent chain.

        The default weighs ops by their Table-I weight (``nb^3 / 3`` flop
        units), the unit of the paper's closed-form critical paths, and
        runs the vectorized level sweep; an explicit ``weight_fn`` falls
        back to the per-op loop (it needs the ``Op`` objects).
        """
        if len(self) == 0:
            return 0.0
        if weight_fn is None:
            return self.critical_path_np(
                self.weights_np.astype(np.float64)
            )
        finish = [0.0] * len(self)
        best = 0.0
        for i, op in enumerate(self.ops):
            start = 0.0
            for pred in self.predecessors(i):
                if finish[pred] > start:
                    start = finish[pred]
            end = start + weight_fn(op)
            finish[i] = end
            if end > best:
                best = end
        return best

    def bottom_levels(self, durations: Sequence[float]) -> List[float]:
        """Longest downstream path (inclusive) of each op, in ``durations`` units."""
        n = len(self)
        levels = [0.0] * n
        for i in range(n - 1, -1, -1):
            succ_best = 0.0
            for s in self.successors(i):
                if levels[s] > succ_best:
                    succ_best = levels[s]
            levels[i] = durations[i] + succ_best
        return levels

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Program(n_ops={len(self)}, n_edges={self.n_edges}, key={self.key!r})"
