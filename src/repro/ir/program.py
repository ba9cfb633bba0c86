"""The op-stream Program IR and its dependency analyzer.

A :class:`Program` is the compiled form of one tiled algorithm at one tile
shape: a flat stream of :class:`Op` records (one per tile-kernel call, in
the sequentially consistent order the driver issued them) plus the
dependency DAG stored as two CSR arrays (predecessors and successors).
Programs are immutable and cheap to replay, which is what lets a tuning
sweep trace each DAG shape once and re-schedule it many times.

The dependencies are inferred by :class:`DependencyAnalyzer`, the
superscalar logic a PaRSEC/StarPU-style runtime applies to its task
stream:

* a task that *writes* a data item depends on the item's last writer and on
  every reader since that write (RAW + WAR);
* a task that *reads* a data item depends on its last writer (RAW).

Data items are tile *halves* (upper = factor part, lower = reflector part);
see :data:`DataItem` for why this split is needed to reproduce the
dependency structure — and hence the critical paths — of the paper.

Structure-of-arrays fast path
-----------------------------

Besides the object form (a tuple of :class:`Op` records), a program
carries packed *columns*: numpy vectors of kernel codes, Table-I weights,
owner-tile coordinates and CSR views, plus a cached topological level
decomposition.  The columns are what the batched task-runtime designs the
paper builds on (PaRSEC/DPLASMA) keep hot: the simulation engine's inner
loop and the critical-path/bottom-level analyses touch only flat int/float
arrays, never per-op Python objects.  Programs recorded through
:class:`~repro.ir.recorder.ProgramRecorder` are born in column form
(:meth:`Program.from_columns`) and materialize the ``ops`` tuple lazily —
compiling a million-op DAG never builds a million ``Op`` objects unless a
consumer asks for them.  Both forms describe the same program; the
vectorized analyses are bit-identical to the per-node recursions they
replace (asserted by the equivalence tests).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.kernels.costs import (
    KERNEL_CODES,
    KERNEL_LIST,
    KERNEL_WEIGHTS,
    KernelName,
)

#: Table-I weights indexed by kernel code (see ``KERNEL_LIST``).
_WEIGHT_BY_CODE = np.array(
    [KERNEL_WEIGHTS[k] for k in KERNEL_LIST], dtype=np.int64
)
_WEIGHT_BY_CODE.setflags(write=False)

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

    This is the object-path analyzer (data items are tuples); the compiler
    hot path uses :func:`analyze_coded_stream`, the same rules specialized
    for integer-coded items over dense tables.
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


def analyze_coded_stream(
    reads_list: Sequence[Tuple[int, ...]],
    writes_list: Sequence[Tuple[int, ...]],
    n_items: int,
) -> Tuple[List[List[int]], List[int]]:
    """RAW/WAR inference over integer-coded data items (the compiler hot path).

    Applies exactly the rules of :class:`DependencyAnalyzer` — the produced
    predecessor *sets* are identical — but items are dense integer codes
    indexed into flat tables instead of tuples hashed into dicts, which is
    several times faster on the million-op streams the SoA path targets.
    Each op's predecessor list is returned unsorted (deterministically:
    integer set iteration does not depend on ``PYTHONHASHSEED``);
    :meth:`Program.from_columns` normalizes edge order with one vectorized
    lexsort instead of one ``sorted()`` per op.  Also returns each op's
    topological *hop level* (``1 + max`` over predecessor levels), computed
    for free while the predecessors are in hand; the level decomposition
    drives the vectorized critical-path / bottom-level sweeps of
    :class:`Program`.
    """
    n = len(reads_list)
    last_writer = [-1] * n_items
    readers: List[Optional[List[int]]] = [None] * n_items
    # Predecessor dedup via epoch stamps: stamp[w] == tid + 1 means
    # producer w is already collected for the op being analyzed.  O(1)
    # integer compares instead of per-op set construction and hashing.
    stamp = [0] * n
    pred_lists: List[List[int]] = []
    levels: List[int] = []
    add_preds = pred_lists.append
    add_level = levels.append
    for tid, (reads, writes) in enumerate(zip(reads_list, writes_list)):
        mark = tid + 1
        stamp[tid] = mark  # pre-marking tid makes self-edges impossible
        preds: List[int] = []
        collect = preds.append
        for it in reads:
            w = last_writer[it]
            if w >= 0 and stamp[w] != mark:
                stamp[w] = mark
                collect(w)
        # One fused pass per written item: RAW edge, WAR edges, then claim
        # the item (items are distinct within one op's write set, so the
        # in-place claim cannot affect a later item of the same op).
        for it in writes:
            w = last_writer[it]
            if w >= 0 and stamp[w] != mark:
                stamp[w] = mark
                collect(w)
            r = readers[it]
            if r:
                for x in r:
                    if stamp[x] != mark:
                        stamp[x] = mark
                        collect(x)
            last_writer[it] = tid
            readers[it] = None
        for it in reads:
            if it not in writes:
                r = readers[it]
                if r is None:
                    readers[it] = [tid]
                else:
                    r.append(tid)
        lv = 0
        for w in preds:
            cand = levels[w] + 1
            if cand > lv:
                lv = cand
        add_level(lv)
        add_preds(preds)
    return pred_lists, levels


class OpColumns:
    """One op stream in structure-of-arrays form (parallel per-op columns).

    ``kernels`` holds kernel codes (indices into
    :data:`repro.kernels.costs.KERNEL_LIST`); ``reads``/``writes`` hold
    tuples of integer-coded data items — the upper half of tile ``(i, j)``
    codes as ``i * q + j`` and the lower half as ``p * q + i * q + j`` —
    and ``rows``/``cols`` the owner-tile coordinates.  Produced by
    :class:`~repro.ir.recorder.ProgramRecorder`, consumed by
    :meth:`Program.from_columns`; :meth:`op` decodes one column row back
    into a full :class:`Op` object for the object-path consumers.
    """

    __slots__ = (
        "q", "pq", "kernels", "params", "reads", "writes", "rows", "cols",
        "steps",
    )

    def __init__(
        self,
        q: int,
        pq: int,
        kernels: Sequence[int],
        params: Sequence[Tuple[int, ...]],
        reads: Sequence[Tuple[int, ...]],
        writes: Sequence[Tuple[int, ...]],
        rows: Sequence[int],
        cols: Sequence[int],
        steps: Sequence[str],
    ) -> None:
        self.q = q
        self.pq = pq
        self.kernels = kernels
        self.params = params
        self.reads = reads
        self.writes = writes
        self.rows = rows
        self.cols = cols
        self.steps = steps

    def __len__(self) -> int:
        return len(self.kernels)

    def decode_item(self, code: int) -> DataItem:
        """Integer item code back to the ``("U"/"L", i, j)`` tuple form."""
        if code < self.pq:
            return ("U", code // self.q, code % self.q)
        code -= self.pq
        return ("L", code // self.q, code % self.q)

    def op(self, index: int) -> Op:
        """Materialize one :class:`Op` from the columns."""
        kernel = KERNEL_LIST[self.kernels[index]]
        decode = self.decode_item
        return Op(
            index=index,
            kernel=kernel,
            params=self.params[index],
            reads=frozenset(decode(c) for c in self.reads[index]),
            writes=frozenset(decode(c) for c in self.writes[index]),
            weight=KERNEL_WEIGHTS[kernel],
            owner_tile=(self.rows[index], self.cols[index]),
            step=self.steps[index],
        )

    def to_ops(self) -> Tuple[Op, ...]:
        """Materialize the whole stream as :class:`Op` objects."""
        return tuple(self.op(i) for i in range(len(self.kernels)))


def _csr_from_lists(lists: Sequence[Sequence[int]]) -> Tuple[array, array]:
    indptr = array("q", [0])
    ids = array("q")
    for row in lists:
        ids.extend(row)
        indptr.append(len(ids))
    return indptr, ids


def _array_from_np(a: np.ndarray) -> array:
    """int64 numpy array -> ``array('q')`` (fast Python-loop element access)."""
    out = array("q")
    out.frombytes(np.ascontiguousarray(a, dtype=np.int64).tobytes())
    return out


def _np_view(a: array) -> np.ndarray:
    """Zero-copy read-only int64 view of an ``array('q')``."""
    if len(a) == 0:
        out = np.zeros(0, dtype=np.int64)
    else:
        out = np.frombuffer(a, dtype=np.int64)
    out.setflags(write=False)
    return out


class Program:
    """An immutable op stream with CSR dependency structure.

    Build one from explicit ``(ops, pred_lists)``, with :meth:`from_ops`
    (runs the :class:`DependencyAnalyzer`), :meth:`from_columns` (the
    structure-of-arrays compiler path) or, most commonly, through
    :func:`repro.ir.compiler.compile_program`.

    The dependency CSR is stored twice: as ``array('q')`` (fast scalar
    access from the engine's event loop) and as zero-copy numpy views
    (``pred_indptr_np`` and friends) feeding the vectorized analyses.
    """

    __slots__ = (
        "key",
        "_ops",
        "_cols",
        "_pred_indptr",
        "_pred_ids",
        "_succ_indptr",
        "_succ_ids",
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
        self._cols: Optional[OpColumns] = None
        self._cache: Dict[str, object] = {}
        self.key = key
        n = len(self._ops)
        if len(pred_lists) != n:
            raise ValueError(
                f"{n} ops but {len(pred_lists)} predecessor lists"
            )
        succ_lists: List[List[int]] = [[] for _ in range(n)]
        for dst, preds in enumerate(pred_lists):
            for src in preds:
                if not (0 <= src < dst):
                    raise ValueError(
                        f"edge {src} -> {dst} violates insertion-order topology"
                    )
                succ_lists[src].append(dst)
        self._pred_indptr, self._pred_ids = _csr_from_lists(pred_lists)
        self._succ_indptr, self._succ_ids = _csr_from_lists(succ_lists)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_ops(cls, ops: Iterable[Op], key: Optional[Tuple] = None) -> "Program":
        """Analyze the access sets of ``ops`` and build the CSR dependency DAG."""
        ops = tuple(ops)
        analyzer = DependencyAnalyzer()
        pred_lists = [analyzer.add(op.reads, op.writes) for op in ops]
        return cls(ops, pred_lists, key=key)

    @classmethod
    def from_columns(
        cls,
        cols: OpColumns,
        pred_lists: Sequence[Sequence[int]],
        key: Optional[Tuple] = None,
        levels: Optional[Sequence[int]] = None,
    ) -> "Program":
        """Build a program from packed columns (the SoA compiler path).

        ``pred_lists`` may be unsorted within each op (as
        :func:`analyze_coded_stream` emits them); edge order is normalized
        here with one vectorized lexsort, and the insertion-order topology
        (``src < dst``) is validated with two whole-array comparisons.
        ``levels``, when given, are the hop levels the analyzer computed
        alongside.  ``ops`` materializes lazily on first access.
        """
        n = len(cols)
        if len(pred_lists) != n:
            raise ValueError(
                f"{n} ops but {len(pred_lists)} predecessor lists"
            )
        self = object.__new__(cls)
        self._ops = None
        self._cols = cols
        self._cache = {}
        self.key = key

        counts = np.fromiter(map(len, pred_lists), dtype=np.int64, count=n)
        pred_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=pred_indptr[1:])
        total = int(pred_indptr[-1])
        pred_ids = np.fromiter(
            chain.from_iterable(pred_lists), dtype=np.int64, count=total
        )
        dst = np.repeat(np.arange(n, dtype=np.int64), counts)
        # Normalize: predecessors ascending within each op (one lexsort —
        # dst groups are already contiguous, pred order within may not be).
        pred_ids = pred_ids[np.lexsort((pred_ids, dst))]
        if total and (
            int(pred_ids.min()) < 0 or bool(np.any(pred_ids >= dst))
        ):
            bad = int(np.flatnonzero((pred_ids < 0) | (pred_ids >= dst))[0])
            raise ValueError(
                f"edge {int(pred_ids[bad])} -> {int(dst[bad])} violates "
                "insertion-order topology"
            )
        # Successor CSR: edges sorted by src (stable, so dst stays ascending
        # within each src — the edge stream is grouped by dst ascending).
        order = np.argsort(pred_ids, kind="stable")
        succ_ids = dst[order]
        succ_counts = (
            np.bincount(pred_ids, minlength=n) if total else
            np.zeros(n, dtype=np.int64)
        )
        succ_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(succ_counts, out=succ_indptr[1:])

        self._pred_indptr = _array_from_np(pred_indptr)
        self._pred_ids = _array_from_np(pred_ids)
        self._succ_indptr = _array_from_np(succ_indptr)
        self._succ_ids = _array_from_np(succ_ids)
        if levels is not None:
            lv = np.asarray(levels, dtype=np.int64)
            lv.setflags(write=False)
            self._cache["levels"] = lv
        return self

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #
    @property
    def ops(self) -> Tuple[Op, ...]:
        """The op stream as :class:`Op` objects (materialized lazily)."""
        ops = self._ops
        if ops is None:
            assert self._cols is not None
            ops = self._cols.to_ops()
            self._ops = ops
        return ops

    @property
    def columns(self) -> Optional[OpColumns]:
        """The packed columns, or ``None`` for object-built programs."""
        return self._cols

    def __len__(self) -> int:
        if self._ops is not None:
            return len(self._ops)
        assert self._cols is not None
        return len(self._cols)

    @property
    def n_edges(self) -> int:
        return len(self._pred_ids)

    def predecessors(self, index: int) -> Sequence[int]:
        """Ids of the ops ``index`` depends on (ascending)."""
        return self._pred_ids[self._pred_indptr[index]: self._pred_indptr[index + 1]]

    def successors(self, index: int) -> Sequence[int]:
        """Ids of the ops depending on ``index`` (ascending)."""
        return self._succ_ids[self._succ_indptr[index]: self._succ_indptr[index + 1]]

    def indegrees(self) -> List[int]:
        """Number of predecessors of each op (fresh list, safe to mutate)."""
        indptr = self._pred_indptr
        return [indptr[i + 1] - indptr[i] for i in range(len(self))]

    def sources(self) -> List[int]:
        """Ops with no predecessors."""
        return [i for i, d in enumerate(self.indegrees()) if d == 0]

    def edges(self) -> Iterable[Tuple[int, int]]:
        """All ``(src, dst)`` dependency pairs, grouped by ``dst``."""
        for dst in range(len(self)):
            for src in self.predecessors(dst):
                yield (src, dst)

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
        return self._cached("succ_indptr", lambda: _np_view(self._succ_indptr))

    @property
    def succ_ids_np(self) -> np.ndarray:
        return self._cached("succ_ids", lambda: _np_view(self._succ_ids))

    def _int_column(
        self,
        name: str,
        from_cols: Callable[[OpColumns], Sequence[int]],
        from_ops: Callable[[Sequence[Op]], Iterable[int]],
    ) -> np.ndarray:
        def build() -> np.ndarray:
            n = len(self)
            if self._cols is not None:
                src = from_cols(self._cols)
            else:
                assert self._ops is not None
                src = from_ops(self._ops)
            if isinstance(src, (tuple, list)):
                out = np.array(src, dtype=np.int64)
            else:
                out = np.fromiter(src, dtype=np.int64, count=n)
            out.setflags(write=False)
            return out

        return self._cached(name, build)

    @property
    def kernel_codes_np(self) -> np.ndarray:
        """Kernel code of every op (index into ``KERNEL_LIST``), int64."""
        return self._int_column(
            "kernel_codes",
            lambda c: c.kernels,
            lambda ops: (KERNEL_CODES[op.kernel] for op in ops),
        )

    @property
    def weights_np(self) -> np.ndarray:
        """Weight of every op (``nb^3/3`` flop units), int64.

        Column-built programs derive the Table-I weights from the kernel
        codes (the recorder stamps exactly those); object-built programs
        read the ``weight`` field actually carried by each :class:`Op`,
        which callers are free to have customized.
        """
        def build() -> np.ndarray:
            if self._cols is not None:
                out = _WEIGHT_BY_CODE[self.kernel_codes_np]
            else:
                assert self._ops is not None
                out = np.fromiter(
                    (op.weight for op in self._ops),
                    dtype=np.int64,
                    count=len(self._ops),
                )
            out.setflags(write=False)
            return out

        return self._cached("weights", build)

    @property
    def owner_rows_np(self) -> np.ndarray:
        """Owner-tile row coordinate of every op, int64."""
        return self._int_column(
            "owner_rows",
            lambda c: c.rows,
            lambda ops: (op.owner_tile[0] for op in ops),
        )

    @property
    def owner_cols_np(self) -> np.ndarray:
        """Owner-tile column coordinate of every op, int64."""
        return self._int_column(
            "owner_cols",
            lambda c: c.cols,
            lambda ops: (op.owner_tile[1] for op in ops),
        )

    @property
    def writes_count_np(self) -> np.ndarray:
        """Number of data items (tile halves) each op writes, int64."""
        return self._int_column(
            "writes_count",
            lambda c: map(len, c.writes),
            lambda ops: (len(op.writes) for op in ops),
        )

    @property
    def levels_np(self) -> np.ndarray:
        """Topological hop level of every op (``1 + max`` over predecessors).

        Computed by the analyzer on the compiler path; object-built
        programs derive it with one forward pass over the pred CSR.
        """
        def build() -> np.ndarray:
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
            out = np.array(level, dtype=np.int64)
            out.setflags(write=False)
            return out

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

    def level_groups(self) -> Tuple[Tuple[int, Tuple[Tuple[int, ...], ...]], ...]:
        """The op stream as ``(kernel code, params of its ops)`` groups.

        One group per (hop level, kernel) pair, levels ascending, kernel
        codes ascending within a level and stream order within a group.
        Ops of one level share no edge, and the program carries every RAW,
        WAR and WAW dependency on tile halves, so running the groups in
        this order computes what stream order computes; the numeric
        replay runs each group as one stacked kernel call.
        """
        def build() -> Tuple[Tuple[int, Tuple[Tuple[int, ...], ...]], ...]:
            n = len(self)
            if n == 0:
                return ()
            codes = self.kernel_codes_np
            order = np.lexsort((codes, self.levels_np))
            level, code = self.levels_np[order], codes[order]
            change = np.flatnonzero(
                (level[1:] != level[:-1]) | (code[1:] != code[:-1])
            ) + 1
            bounds = [0, *change.tolist(), n]
            cols = self._cols
            params = (
                cols.params if cols is not None else [op.params for op in self.ops]
            )
            picked = [params[i] for i in order.tolist()]
            code_list = code.tolist()
            return tuple(
                (code_list[a], tuple(picked[a:b]))
                for a, b in zip(bounds, bounds[1:])
            )

        return self._cached("level_groups", build)

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
