"""The replay kernel: the one event loop every simulation path runs.

A :class:`PreparedReplay` binds one compiled
:class:`~repro.ir.program.Program` to one engine configuration (machine,
distribution, policy, network) and hoists everything that does not change
between replays, once:

* the per-op **duration vector** (a 12-entry kernel table gathered through
  the program's kernel-code column), with per-node slowdowns folded in;
* the **owner vector** (the distribution's owner-computes placement) and
  the per-core slowdown factors;
* the **dispatch order** — the op ids in the order the loop dispatches
  them (:func:`dispatch_order`), derived from the policy's ranks over the
  *nominal* durations and memoized, so every replay of a prepared
  program dispatches ops in the same order;
* on several nodes, the **dispatch stream** (:func:`dispatch_stream`):
  the order laid out as one flat list the walk reads front to back,
  memoized beside the order, plus the payload and price of each of its
  messages.

:meth:`PreparedReplay.run` then replays: one pass of the greedy
owner-computes list-scheduling discipline the paper's PaRSEC runtime
implements.  An op becomes ready when its last predecessor is
*dispatched*, not when it finishes, so the order is structural and the
replay is a timing-only walk over it: core heaps, ready times and
transfers.

The node count selects the walk.  On one node every edge is local, and
``_drain`` walks the order, releasing successors from the program's own
successor tuples: a stream would only add an op marker per op there.  On
several nodes the order is a greedy node round-robin and
``_stream_walk`` reads the stream, which holds, for each op in dispatch
order:

* a node-switch entry, ``-1 - n_nodes - node``, when the op's node
  differs from the previous op's;
* an op entry: ``None``, then the op id;
* the op's local successors;
* for each remote destination node, in order of first appearance among
  the op's ascending successors: one message entry, ``-1 - node``, then
  that node's successors.

Successor ids are ``>= 0``, so an identity test and at most two int
comparisons classify an entry.  Each (producer, destination node)
transfer is one message entry, priced once by the network model with no
per-edge node lookup or dedup table; later consumers on that node reuse
its arrival (the runtime caches remote tiles).  Each node's NIC
serializes its injections in stream order, which is dispatch order, not
the order ops finish.  That is the same no-lookahead discipline the loop
applies to cores, kept deliberately: a time-ordered NIC would need a
global message event queue and would reprice every schedule.  The walk
keeps the message arrivals in stream order, and tracing pairs them with
the stream's message entries
(:func:`repro.runtime.engine._collect_transfers`).  The ints of the
memoized orders and streams are the program's op-id table's
(:meth:`~repro.ir.program.Program.op_ids`), so each memo entry costs a
pointer per op or entry, not an int object.

``run(duration_row, noise_row)`` multiplies op durations and per-message
wire times by per-op factor rows (the scenario layer's Monte-Carlo draws).
``x * 1.0 == x`` is exact in IEEE-754 and the dispatch order does not
depend on the rows, so unit rows reproduce the nominal schedule bit for
bit.

:class:`~repro.runtime.engine.SimulationEngine` and the scenario driver
(:mod:`repro.runtime.scenario`) are thin callers of this kernel; every
plan, sweeps included, reaches it through one of the two.  The
independent check against it is the object-path oracle
:func:`repro.verify.reference.reference_schedule` plus the golden pins.

The per-program memo tables live here too.  They are keyed by weak
program references, so a sweep whose candidates share a cached program
shares the pricing and ordering work across its per-plan replays, and
dropping a program from the program cache frees its tables.
"""

from __future__ import annotations

import heapq
import threading
import weakref
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.ir.program import Program
from repro.obs.metrics import REGISTRY
from repro.runtime.network import resolved_message_bytes_vector
from repro.runtime.policies import get_policy
from repro.runtime.scheduler import Schedule
from repro.tiles.distribution import BlockCyclicDistribution

__all__ = [
    "DispatchStream",
    "PreparedReplay",
    "ReplayState",
    "dense_order",
    "dispatch_order",
    "dispatch_stream",
    "policy_order",
]

# --------------------------------------------------------------------------- #
# Per-(program, ...) memo tables.  Weak keys: dropping a Program from the
# program cache frees its derived tables.  A single lock guards them all,
# so threads that share a program may replay it concurrently; the values
# are cheap to (re)build, so contention is negligible.
# --------------------------------------------------------------------------- #
_MEMO_LOCK = threading.Lock()
#: program -> {machine: duration vector (float64, read-only)}
_DURATION_VECTORS: "weakref.WeakKeyDictionary[Program, Dict]" = (
    weakref.WeakKeyDictionary()
)
#: program -> {(grid rows, grid cols): owner vector (int64, read-only)}
_OWNER_VECTORS: "weakref.WeakKeyDictionary[Program, Dict]" = (
    weakref.WeakKeyDictionary()
)
#: program -> {(policy token, machine-or-None, grid key): dispatch order}
#: ``machine`` is folded to ``None`` for machine-invariant rankings so
#: configurations that differ only in their machine share one entry.
_RANK_ORDERS: "weakref.WeakKeyDictionary[Program, Dict]" = (
    weakref.WeakKeyDictionary()
)
#: program -> {order memo key: dispatch stream}, filled beside
#: ``_RANK_ORDERS``: a stream is its order laid out for the walk.
_STREAMS: "weakref.WeakKeyDictionary[Program, Dict]" = (
    weakref.WeakKeyDictionary()
)
#: program -> {(machine, grid key): makespan lower bound in seconds}
#: :meth:`SimulationEngine.lower_bound`'s ``max(critical path, area)``,
#: which the tuner prunes with; keyed per (machine, grid) because both the
#: duration vector and the owner-computes placement feed the bound.
_BOUNDS: "weakref.WeakKeyDictionary[Program, Dict]" = (
    weakref.WeakKeyDictionary()
)


def _memo_get(table, program: Program, key, name: str):
    with _MEMO_LOCK:
        per = table.get(program)
        value = None if per is None else per.get(key)
    # Hit/miss accounting happens outside the memo lock; one registry
    # increment per lookup (not per op), so the metrics cost is negligible
    # even in tuning sweeps.
    REGISTRY.inc(f"engine.memo.{name}.{'hits' if value is not None else 'misses'}")
    return value


def _memo_put(table, program: Program, key, value) -> None:
    with _MEMO_LOCK:
        per = table.get(program)
        if per is None:
            per = {}
            table[program] = per
        per[key] = value


# --------------------------------------------------------------------------- #
# Dispatch orders
# --------------------------------------------------------------------------- #
#: A dense-rank policy ordering: ``rank_of[op]`` is the op's position in
#: the stable ``(key, op id)`` sort and ``id_of[position]`` inverts it.
DenseOrder = Tuple[List[int], List[int]]

#: Integers below this magnitude convert to float64 exactly.
_EXACT_INT = 2.0**53


def dense_order(
    keys: Sequence[object], n: int, ids: Optional[np.ndarray] = None
) -> DenseOrder:
    """Collapse policy keys into the stable ``(key, op id)`` permutation.

    Heap-popping ``rank_of[op]`` ints reproduces ``(keys[op], op)`` tuple
    pops exactly: a stable ascending sort breaks key ties by ascending op
    id, and heap order over distinct ints is total.  numpy sorts the keys
    only when it holds them exactly — integer arrays, or float arrays
    whose magnitudes stay below 2**53 (a Python int at or above it would
    have been rounded into a false tie); anything else takes Python's
    stable sort, the reference order.  Both lists hold ints below ``n``;
    with an op-id table ``ids`` (:meth:`~repro.ir.program.Program.op_ids`)
    they are its int objects rather than new ones.
    """
    if n == 0:
        return [], []
    id_of_np: Optional[np.ndarray] = None
    try:
        arr = np.asarray(keys)
        exact = arr.dtype.kind in "iub" or (
            arr.dtype.kind == "f" and bool(np.abs(arr).max() < _EXACT_INT)
        )
        if exact and arr.shape == (n,):
            id_of_np = np.argsort(arr, kind="stable")
        elif exact and arr.ndim == 2 and arr.shape[0] == n:
            # Tuple keys (e.g. locality's (remote, -level)): lexsort with
            # the first component primary.  np.lexsort is stable, so full
            # ties keep ascending op id.
            id_of_np = np.lexsort(arr.T[::-1])
    except (TypeError, ValueError, OverflowError):
        id_of_np = None
    if id_of_np is None:
        id_of_np = np.array(sorted(range(n), key=keys.__getitem__), dtype=np.int64)
    rank_np = np.empty(n, dtype=np.int64)
    rank_np[id_of_np] = np.arange(n, dtype=np.int64)
    if ids is None:
        return rank_np.tolist(), id_of_np.tolist()
    return ids[rank_np].tolist(), ids[id_of_np].tolist()


def dispatch_order(
    program: Program,
    ranks: DenseOrder,
    node_of: Optional[Sequence[int]],
    n_nodes: int,
) -> List[int]:
    """The op ids in the order the event loop dispatches them.

    An op becomes ready when its last predecessor is *dispatched*, and
    ready ops are dispatched by rank, so the order depends only on the
    ranks, the DAG and the placement — never on durations, slowdowns,
    factor rows or the network.  A greedy round-robin drains each node's
    rank heap in turn: an op made ready for a later node is dispatched in
    the same round, one made ready for an earlier node in the next.  On
    one node (``node_of`` is ``None``) that is a single rank-heap drain.
    """
    rank_of, id_of = ranks
    succ_lists = program.successor_lists()
    indegree = program.indegrees()
    n = len(program)
    if node_of is None:
        node_of, n_nodes = [0] * n, 1
    heappush = heapq.heappush
    heappop = heapq.heappop
    ready_heaps: List[List[int]] = [[] for _ in range(n_nodes)]
    for op_id in program.sources():
        heappush(ready_heaps[node_of[op_id]], rank_of[op_id])
    order: List[int] = []
    dispatch = order.append
    while len(order) < n:
        dispatched = len(order)
        for heap in ready_heaps:
            while heap:
                op_id = id_of[heappop(heap)]
                dispatch(op_id)
                for succ in succ_lists[op_id]:
                    deg = indegree[succ] - 1
                    indegree[succ] = deg
                    if deg == 0:
                        heappush(ready_heaps[node_of[succ]], rank_of[succ])
        if len(order) == dispatched:  # pragma: no cover - defensive (cycle)
            raise RuntimeError("engine stalled: the program has a cycle")
    return order


def policy_order(
    engine,
    program: Program,
    durations_np: np.ndarray,
    node_np: Optional[np.ndarray],
) -> List[int]:
    """The engine policy's dispatch order over ``program`` (memoized).

    Keys come from the policy's vectorized
    :meth:`~repro.runtime.policies.SchedulingPolicy.rank_array` hook when
    it has one, else from :meth:`~repro.runtime.policies.SchedulingPolicy.
    rank`; their dense ranks are transient, only the
    :func:`dispatch_order` they induce is kept.  Memoized per (policy
    token, machine, grid); machine-invariant policies drop the machine
    from the key so one order serves every machine.  Only the canonical
    block-cyclic mapping may hit the memo: a distribution subclass with
    its own ``owner()`` produces different node vectors for the same grid
    shape.
    """
    return _policy_order(engine, program, durations_np, node_np)[0]


def _policy_order(
    engine,
    program: Program,
    durations_np: np.ndarray,
    node_np: Optional[np.ndarray],
) -> Tuple[List[int], Optional[Tuple]]:
    """:func:`policy_order` and its memo key (``None`` when not memoized)."""
    n = len(program)
    if n == 0:
        return [], None
    machine = engine.machine
    policy = engine.policy
    token = policy.cache_token
    # On one node every producer is local, so locality's (remote count,
    # bottom level) keys are (0, list key) for every op: the stable sort
    # is the list policy's, bit for bit.  Fold the token so the two
    # policies share one order entry and the cheaper float ranking.
    if node_np is None and token == ("locality",):
        token = ("list",)
        policy = get_policy("list")
    multi = machine.n_nodes > 1
    key = None
    if token is not None and (
        not multi or type(engine.distribution) is BlockCyclicDistribution
    ):
        grid = engine.distribution.grid
        grid_key = (grid.rows, grid.cols) if multi else None
        machine_key = None if policy.rank_machine_invariant else machine
        key = (token, machine_key, grid_key)
        cached = _memo_get(_RANK_ORDERS, program, key, "order")
        if cached is not None:
            return cached, key
    keys = policy.rank_array(program, durations_np, node_np, machine)
    if keys is None:
        node_list = node_np.tolist() if node_np is not None else [0] * n
        keys = policy.rank(program, durations_np.tolist(), node_list, machine)
    if len(keys) != n:
        raise ValueError(
            f"policy {policy.name!r} ranked {len(keys)} ops, expected {n}"
        )
    node_of = None if node_np is None else node_np.tolist()
    ranks = dense_order(keys, n, program.op_ids())
    del keys
    order = dispatch_order(program, ranks, node_of, machine.n_nodes)
    if key is not None:
        _memo_put(_RANK_ORDERS, program, key, order)
    return order, key


# --------------------------------------------------------------------------- #
# Dispatch streams
# --------------------------------------------------------------------------- #
class DispatchStream(NamedTuple):
    """A multi-node dispatch order laid out for the walk (module docstring)."""

    #: The entries the walk reads front to back.
    entries: List[Optional[int]]
    #: Producing op and destination node of each message entry, in stream
    #: order (int64).
    msg_src: np.ndarray
    msg_dst: np.ndarray
    #: Message entries per sending node.
    messages_per_node: List[int]


def dispatch_stream(
    program: Program, order: Sequence[int], node_np: np.ndarray, n_nodes: int
) -> DispatchStream:
    """Lay the dispatch ``order`` out as the multi-node walk's stream.

    ``node_np`` is the owner vector.  Built with numpy from the successor
    CSR: the ops' successor rows are gathered in dispatch order, each row
    is stably sorted by group (its local successors, then one group per
    destination node in order of first appearance), and every entry's
    slot follows from running counts of the op heads, edges and messages
    before it.  The entries are gathered from the program's op-id table.
    """
    n = len(program)
    if n == 0:
        return DispatchStream([], np.zeros(0, np.int64), np.zeros(0, np.int64), [0] * n_nodes)
    indptr = program.succ_indptr_np
    n_edges = int(indptr[-1])
    order_np = np.array(order, dtype=np.int64)
    degree_k = np.diff(indptr)[order_np]  # per op, in dispatch order
    row_start = np.cumsum(degree_k)
    row_start -= degree_k
    edges = np.repeat(indptr[order_np] - row_start, degree_k)
    edges += np.arange(n_edges, dtype=np.int64)  # CSR edge ids, row by row
    succ = program.succ_ids_np[edges]
    del edges
    node_k = node_np[order_np]
    succ_node = node_np[succ]
    remote = succ_node != np.repeat(node_k, degree_k)
    # Sort key within a row: the row's start for a local successor, one
    # more than the position of the first edge to the same node for a
    # remote one, so groups follow in order of first appearance.
    key = np.repeat(row_start, degree_k)
    at = np.flatnonzero(remote)
    if at.size:
        pair = key[at] * n_nodes + succ_node[at]
        by_pair = np.argsort(pair, kind="stable")
        pair = pair[by_pair]
        runs = np.flatnonzero(np.concatenate(([True], pair[1:] != pair[:-1])))
        del pair
        sizes = np.diff(np.append(runs, at.size))
        key[at[by_pair]] = np.repeat(at[by_pair[runs]] + 1, sizes)
        del by_pair, runs, sizes
    del at
    # Stable, on keys already sorted between rows: the edges of one group
    # keep ascending successor order.
    within = np.argsort(key, kind="stable")
    del key
    succ = succ[within]
    succ_node = succ_node[within]
    remote = remote[within]
    del within
    # The first edge of each message group: a remote edge that starts its
    # row or whose node differs from the edge before it.
    row_first = np.zeros(n_edges, dtype=bool)
    row_first[row_start[degree_k > 0]] = True
    opens = remote
    opens[1:] &= row_first[1:] | (succ_node[1:] != succ_node[:-1])
    del row_first
    groups_upto = np.cumsum(opens)
    switch = np.empty(n, dtype=bool)
    switch[0] = True
    np.not_equal(node_k[1:], node_k[:-1], out=switch[1:])
    heads_upto = np.cumsum(switch + 2)
    n_messages = int(groups_upto[-1]) if n_edges else 0
    codes = np.empty(int(heads_upto[-1]) + n_edges + n_messages, dtype=np.int64)
    # The table the codes index: op ids, then None, the message entries and
    # the node switches.
    slot = np.arange(n_edges, dtype=np.int64)
    slot += groups_upto
    slot += np.repeat(heads_upto, degree_k)
    del groups_upto
    codes[slot] = succ
    del succ
    codes[slot[opens] - 1] = (n + 1) + succ_node[opens]
    del slot
    # An op's own slot: its head, after the heads, edges and messages of
    # the ops before it.
    msg_k = np.repeat(np.arange(n, dtype=np.int64), degree_k)[opens]
    messages_k = np.bincount(msg_k, minlength=n)
    op_slot = heads_upto - 1
    op_slot += row_start
    op_slot += np.cumsum(messages_k) - messages_k
    del heads_upto, degree_k, messages_k, row_start
    codes[op_slot] = order_np
    codes[op_slot - 1] = n
    codes[op_slot[switch] - 2] = (n + 1 + n_nodes) + node_k[switch]
    del op_slot, switch
    markers = np.array([None] + [-1 - k for k in range(2 * n_nodes)], dtype=object)
    entries = np.concatenate((program.op_ids(), markers))[codes].tolist()
    del codes
    msg_src = order_np[msg_k]
    msg_dst = succ_node[opens]
    per_node = np.bincount(node_np[msg_src], minlength=n_nodes).tolist()
    return DispatchStream(entries, msg_src, msg_dst, per_node)


def _stream_for(
    program: Program,
    order: List[int],
    node_np: np.ndarray,
    n_nodes: int,
    key: Optional[Tuple],
) -> DispatchStream:
    """:func:`dispatch_stream`, memoized under the order's memo ``key``."""
    if key is not None:
        with _MEMO_LOCK:
            per = _STREAMS.get(program)
            stream = None if per is None else per.get(key)
        if stream is not None:
            return stream
    stream = dispatch_stream(program, order, node_np, n_nodes)
    if key is not None:
        _memo_put(_STREAMS, program, key, stream)
    return stream


# --------------------------------------------------------------------------- #
# The kernel
# --------------------------------------------------------------------------- #
class ReplayState(NamedTuple):
    """One replay's schedule plus the loop state tracing reconstructs from.

    ``arrivals`` holds each event-driven message's arrival time in stream
    order, which is NIC dispatch order; it pairs with the stream's message
    entries (:attr:`DispatchStream.msg_src` / ``msg_dst``) and is empty
    under the uniform model and on one node.
    """

    schedule: Schedule
    ready_time: List[float]
    arrivals: List[float]


def _empty_state(n_nodes: int) -> ReplayState:
    schedule = Schedule(
        0.0, [], [], [], [0.0] * n_nodes, 0, 0,
        core_of_task=[],
        comm_time_per_node=[0.0] * n_nodes,
        messages_per_node=[0] * n_nodes,
    )
    return ReplayState(schedule, [], [])


class PreparedReplay:
    """One (program, engine configuration) with every replay-invariant hoisted.

    ``engine`` supplies the machine, distribution, policy and network
    (a :class:`~repro.runtime.engine.SimulationEngine`); the
    distribution's owner-computes placement decides where each op runs.
    ``order`` is the dispatch order (:func:`policy_order`); on several
    nodes :meth:`run` walks ``stream``, the order's memoized
    :class:`DispatchStream`, and on one node the order itself.
    """

    def __init__(self, engine, program: Program) -> None:
        machine = engine.machine
        network = engine.network
        self.engine = engine
        self.program = program
        self.n = len(program)
        self.n_nodes = n_nodes = machine.n_nodes
        self.cores = machine.cores_per_node

        nominal = engine.duration_vector(program)
        node_np = engine.owner_vector(program)
        self.node_np = node_np
        # Ranks come from the *nominal* durations: the policy orders ops by
        # its model of the machine and cannot foresee slowdowns or faults,
        # which is also what lets every draw share one memoized order.
        self.order, order_key = _policy_order(engine, program, nominal, node_np)
        self.stream: Optional[DispatchStream] = None
        if node_np is not None:
            self.stream = _stream_for(program, self.order, node_np, n_nodes, order_key)

        # Node slowdowns fold into the base durations (owner nodes are fixed
        # per op); core slowdowns apply at dispatch, when the core is known.
        node_factors = machine.node_factors()
        if node_factors is None:
            self.durations_np = nominal
        else:
            nf = np.asarray(node_factors, dtype=np.float64)
            self.durations_np = nominal * (nf[node_np] if node_np is not None else nf[0])
        self.durations = self.durations_np.tolist()
        # Always multiplied, never branched on: ``x * 1.0 == x`` exactly.
        self.core_factors = list(machine.core_factors() or [1.0] * self.cores)

        self.succ_lists = program.successor_lists()
        # The messages' payloads and (injection, wire) seconds, in stream
        # order; ``None`` under the uniform model, whose every message is
        # one tile at the flat transfer time.
        self.msg_bytes: Optional[List[int]] = None
        self.msg_costs: Optional[List[Tuple[float, float]]] = None
        self.comm_bytes = 0
        self.handshake = network.handshake_seconds(machine)
        self.transfer = machine.transfer_time()
        if self.stream is not None:
            if network.event_driven:
                sizes = resolved_message_bytes_vector(network, program, machine)
                self.msg_bytes = sizes[self.stream.msg_src].tolist()
                cost_of = {
                    size: (
                        machine.injection_seconds(size),
                        network.message_seconds(size, machine),
                    )
                    for size in sorted(set(self.msg_bytes))
                }
                self.msg_costs = [cost_of[size] for size in self.msg_bytes]
                self.comm_bytes = sum(self.msg_bytes)
            else:
                self.comm_bytes = len(self.stream.msg_src) * machine.tile_bytes

    # ------------------------------------------------------------------ #
    def run(
        self,
        duration_row: Optional[np.ndarray] = None,
        noise_row: Optional[np.ndarray] = None,
    ) -> Schedule:
        """One event-loop pass; see :meth:`run_state`."""
        return self.run_state(duration_row, noise_row).schedule

    def run_state(
        self,
        duration_row: Optional[np.ndarray] = None,
        noise_row: Optional[np.ndarray] = None,
    ) -> ReplayState:
        """Replay once and return the schedule with the loop's state.

        ``duration_row`` multiplies op durations and ``noise_row``
        per-message wire times (per-op vectors, or ``None`` for nominal).
        """
        if self.n == 0:
            return _empty_state(self.n_nodes)
        if duration_row is None:
            durations = self.durations
        else:
            durations = (self.durations_np * duration_row).tolist()
        if self.stream is None:
            return self._drain(durations)
        noise = noise_row.tolist() if noise_row is not None else None
        return self._stream_walk(durations, noise)

    def _drain(self, durations: List[float]) -> ReplayState:
        """Single node: every edge is local; walk the dispatch order."""
        n = self.n
        succ_lists = self.succ_lists
        cf = self.core_factors
        ready_time = [0.0] * n
        start = [0.0] * n
        finish = [0.0] * n
        core_of_op = [0] * n
        heapreplace = heapq.heapreplace
        core_heap = [(0.0, c) for c in range(self.cores)]  # already a heap
        busy = 0.0
        for op_id in self.order:
            # Heap entries are distinct (time, core) pairs, so replacing the
            # top yields the cores in the same sequence as pop-then-push.
            core_free, core_idx = core_heap[0]
            rt = ready_time[op_id]
            t_start = core_free if core_free > rt else rt
            d = durations[op_id] * cf[core_idx]
            t_finish = t_start + d
            start[op_id] = t_start
            finish[op_id] = t_finish
            core_of_op[op_id] = core_idx
            # Accumulated in dispatch order: a vectorized sum would associate
            # differently and change the pinned bits.
            busy += d
            heapreplace(core_heap, (t_finish, core_idx))
            for succ in succ_lists[op_id]:
                if t_finish > ready_time[succ]:
                    ready_time[succ] = t_finish
        schedule = Schedule(
            makespan=max(finish),
            start=start,
            finish=finish,
            node_of_task=[0] * n,
            busy_time_per_node=[busy],
            messages=0,
            comm_bytes=0,
            core_of_task=core_of_op,
            comm_time_per_node=[0.0],
            messages_per_node=[0],
        )
        return ReplayState(schedule, ready_time, [])

    def _stream_walk(
        self, durations: List[float], noise: Optional[List[float]]
    ) -> ReplayState:
        """Several nodes: walk the dispatch stream; dispatch-order NIC."""
        n = self.n
        n_nodes = self.n_nodes
        stream = self.stream
        assert stream is not None
        cf = self.core_factors
        ready_time = [0.0] * n
        start = [0.0] * n
        finish = [0.0] * n
        core_of_op = [0] * n
        heapreplace = heapq.heapreplace
        core_heaps: List[List[Tuple[float, int]]] = [
            [(0.0, c) for c in range(self.cores)] for _ in range(n_nodes)
        ]
        # Per-node totals.  The current node's live in locals and go back
        # at each node switch; each still sums in dispatch order, so the
        # bits do not change.
        busy = [0.0] * n_nodes
        comm_time = [0.0] * n_nodes
        nic_free = [0.0] * n_nodes
        node = 0
        core_heap = core_heaps[0]
        node_busy = node_comm = node_nic = 0.0
        msg_costs = self.msg_costs
        costs = iter(msg_costs or ())
        handshake = self.handshake
        transfer = self.transfer
        arrivals: List[float] = []
        record = arrivals.append
        last_message = -n_nodes  # entries below it are node switches
        op_id = 0
        t_finish = arrival = 0.0
        entries = iter(stream.entries)
        for x in entries:
            if x is None:  # an op entry: the op id follows
                op_id = next(entries)
                core_free, core_idx = core_heap[0]
                rt = ready_time[op_id]
                t_start = core_free if core_free > rt else rt
                d = durations[op_id] * cf[core_idx]
                t_finish = t_start + d
                start[op_id] = t_start
                finish[op_id] = t_finish
                core_of_op[op_id] = core_idx
                node_busy += d
                heapreplace(core_heap, (t_finish, core_idx))
                arrival = t_finish
            elif x >= 0:  # a successor: on the op's node or the message's
                if arrival > ready_time[x]:
                    ready_time[x] = arrival
            elif x >= last_message:  # a message to node -1 - x
                if msg_costs is not None:
                    injection, wire = next(costs)
                    if noise is not None:
                        # Noise stretches the wire, not the sender's NIC
                        # occupancy.
                        wire = wire * noise[op_id]
                    inject_start = t_finish + handshake
                    if node_nic > inject_start:
                        inject_start = node_nic
                    node_nic = inject_start + injection
                    arrival = inject_start + wire
                    record(arrival)
                    node_comm += injection
                else:
                    hop = transfer
                    if noise is not None:
                        hop = hop * noise[op_id]
                    arrival = t_finish + hop
                    node_comm += hop
            else:  # a switch to node last_message - 1 - x
                busy[node] = node_busy
                comm_time[node] = node_comm
                nic_free[node] = node_nic
                node = last_message - 1 - x
                core_heap = core_heaps[node]
                node_busy = busy[node]
                node_comm = comm_time[node]
                node_nic = nic_free[node]
        busy[node] = node_busy
        comm_time[node] = node_comm

        schedule = Schedule(
            makespan=max(finish),
            start=start,
            finish=finish,
            node_of_task=self.node_np.tolist(),
            busy_time_per_node=busy,
            messages=len(stream.msg_src),
            comm_bytes=self.comm_bytes,
            core_of_task=core_of_op,
            comm_time_per_node=comm_time,
            messages_per_node=list(stream.messages_per_node),
        )
        return ReplayState(schedule, ready_time, arrivals)
