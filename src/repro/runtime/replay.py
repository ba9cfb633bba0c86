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
* the message-byte vector; the successor lists it walks are the
  program's own.

:meth:`PreparedReplay.run` then replays: one pass of the greedy
owner-computes list-scheduling discipline the paper's PaRSEC runtime
implements.  An op becomes ready when its last predecessor is
*dispatched*, not when it finishes, so the order is structural and the
replay is a timing-only walk over it: core heaps, ready times and
transfers.  There are two walks and the node count selects between
them.  On one node every edge is local.  On several nodes the order is
a greedy node round-robin; every deduplicated (producer, destination
node) transfer is priced by the network model, and each node's NIC
serializes its injections in dispatch order, not the order ops finish.
That is the same no-lookahead discipline the loop applies to cores,
kept deliberately: a time-ordered NIC would need a global message event
queue and would reprice every schedule.

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
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

from repro.ir.program import Program
from repro.obs.metrics import REGISTRY
from repro.runtime.network import resolved_message_bytes_vector
from repro.runtime.policies import get_policy
from repro.runtime.scheduler import Schedule
from repro.tiles.distribution import BlockCyclicDistribution

__all__ = [
    "PreparedReplay",
    "ReplayState",
    "dense_order",
    "dispatch_order",
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


def dense_order(keys: Sequence[object], n: int) -> DenseOrder:
    """Collapse policy keys into the stable ``(key, op id)`` permutation.

    Heap-popping ``rank_of[op]`` ints reproduces ``(keys[op], op)`` tuple
    pops exactly: a stable ascending sort breaks key ties by ascending op
    id, and heap order over distinct ints is total.  numpy sorts the keys
    only when it holds them exactly — integer arrays, or float arrays
    whose magnitudes stay below 2**53 (a Python int at or above it would
    have been rounded into a false tie); anything else takes Python's
    stable sort, the reference order.
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
        id_of = sorted(range(n), key=keys.__getitem__)
        rank_of = [0] * n
        for rank, op_id in enumerate(id_of):
            rank_of[op_id] = rank
        return rank_of, id_of
    rank_np = np.empty(n, dtype=np.int64)
    rank_np[id_of_np] = np.arange(n, dtype=np.int64)
    return rank_np.tolist(), id_of_np.tolist()


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
    n = len(program)
    if n == 0:
        return []
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
            return cached
    keys = policy.rank_array(program, durations_np, node_np, machine)
    if keys is None:
        node_list = node_np.tolist() if node_np is not None else [0] * n
        keys = policy.rank(program, durations_np.tolist(), node_list, machine)
    if len(keys) != n:
        raise ValueError(
            f"policy {policy.name!r} ranked {len(keys)} ops, expected {n}"
        )
    node_of = None if node_np is None else node_np.tolist()
    order = dispatch_order(program, dense_order(keys, n), node_of, machine.n_nodes)
    if key is not None:
        _memo_put(_RANK_ORDERS, program, key, order)
    return order


# --------------------------------------------------------------------------- #
# The kernel
# --------------------------------------------------------------------------- #
class ReplayState(NamedTuple):
    """One replay's schedule plus the loop state tracing reconstructs from.

    ``transfer_arrival`` maps each event-driven (producer, destination
    node) message to its arrival time, in NIC dispatch order;
    ``seen_transfers`` holds the deduplicated uniform-network transfers.
    """

    schedule: Schedule
    ready_time: List[float]
    transfer_arrival: Dict[Tuple[int, int], float]
    seen_transfers: Set[Tuple[int, int]]


def _empty_state(n_nodes: int) -> ReplayState:
    schedule = Schedule(
        0.0, [], [], [], [0.0] * n_nodes, 0, 0,
        core_of_task=[],
        comm_time_per_node=[0.0] * n_nodes,
        messages_per_node=[0] * n_nodes,
    )
    return ReplayState(schedule, [], {}, set())


class PreparedReplay:
    """One (program, engine configuration) with every replay-invariant hoisted.

    ``engine`` supplies the machine, distribution, policy and network
    (a :class:`~repro.runtime.engine.SimulationEngine`); the
    distribution's owner-computes placement decides where each op runs.
    ``order`` is the dispatch order (:func:`policy_order`) every
    :meth:`run` walks.
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
        # Ranks come from the *nominal* durations: the policy orders ops by
        # its model of the machine and cannot foresee slowdowns or faults,
        # which is also what lets every draw share one memoized order.
        self.order = policy_order(engine, program, nominal, node_np)
        self.node_of: Optional[List[int]] = (
            None if node_np is None else node_np.tolist()
        )

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
        self.msg_bytes: Optional[List[int]] = None
        if n_nodes > 1 and network.event_driven:
            self.msg_bytes = resolved_message_bytes_vector(
                network, program, machine
            ).tolist()

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
        if self.node_of is None:
            return self._drain(durations)
        noise = noise_row.tolist() if noise_row is not None else None
        return self._round_robin(durations, noise)

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
        return ReplayState(schedule, ready_time, {}, set())

    def _round_robin(
        self, durations: List[float], noise: Optional[List[float]]
    ) -> ReplayState:
        """Several nodes: walk the round-robin order; dispatch-order NIC."""
        n = self.n
        machine = self.engine.machine
        network = self.engine.network
        n_nodes = self.n_nodes
        node_of = self.node_of
        succ_lists = self.succ_lists
        cf = self.core_factors
        ready_time = [0.0] * n
        start = [0.0] * n
        finish = [0.0] * n
        core_of_op = [0] * n
        heapreplace = heapq.heapreplace

        busy = [0.0] * n_nodes
        messages = 0
        comm_bytes = 0
        sent = [0] * n_nodes
        comm_time = [0.0] * n_nodes
        event_driven = network.event_driven
        transfer = machine.transfer_time()
        tile_bytes = machine.tile_bytes
        handshake = network.handshake_seconds(machine)
        msg_bytes = self.msg_bytes
        # (injection seconds, wire seconds) per distinct payload size — the
        # recorded streams only produce a handful of distinct sizes.
        msg_cost_cache: Dict[int, Tuple[float, float]] = {}
        # Uniform model: dedup set for message *counting* only (arrival is
        # charged per edge).  Event-driven models: the first release of a
        # (producer, destination node) pair injects a message; later
        # consumers of the pair reuse its arrival (remote tiles are cached).
        seen_transfers: Set[Tuple[int, int]] = set()
        transfer_arrival: Dict[Tuple[int, int], float] = {}
        nic_free = [0.0] * n_nodes

        core_heaps: List[List[Tuple[float, int]]] = [
            [(0.0, c) for c in range(self.cores)] for _ in range(n_nodes)
        ]
        for op_id in self.order:
            node = node_of[op_id]
            core_heap = core_heaps[node]
            core_free, core_idx = core_heap[0]
            rt = ready_time[op_id]
            t_start = core_free if core_free > rt else rt
            d = durations[op_id] * cf[core_idx]
            t_finish = t_start + d
            start[op_id] = t_start
            finish[op_id] = t_finish
            core_of_op[op_id] = core_idx
            busy[node] += d
            heapreplace(core_heap, (t_finish, core_idx))
            for succ in succ_lists[op_id]:
                dst = node_of[succ]
                arrival = t_finish
                if dst != node:
                    tkey = (op_id, dst)
                    if event_driven:
                        cached = transfer_arrival.get(tkey)
                        if cached is None:
                            n_bytes = msg_bytes[op_id]
                            cost = msg_cost_cache.get(n_bytes)
                            if cost is None:
                                cost = (
                                    machine.injection_seconds(n_bytes),
                                    network.message_seconds(n_bytes, machine),
                                )
                                msg_cost_cache[n_bytes] = cost
                            injection, wire = cost
                            if noise is not None:
                                # Noise stretches the wire, not the sender's
                                # NIC occupancy.
                                wire = wire * noise[op_id]
                            inject_start = t_finish + handshake
                            if nic_free[node] > inject_start:
                                inject_start = nic_free[node]
                            nic_free[node] = inject_start + injection
                            cached = inject_start + wire
                            transfer_arrival[tkey] = cached
                            messages += 1
                            comm_bytes += n_bytes
                            sent[node] += 1
                            comm_time[node] += injection
                        arrival = cached
                    else:
                        hop = transfer
                        if noise is not None:
                            hop = hop * noise[op_id]
                        arrival += hop
                        if tkey not in seen_transfers:
                            seen_transfers.add(tkey)
                            messages += 1
                            comm_bytes += tile_bytes
                            sent[node] += 1
                            comm_time[node] += hop
                if arrival > ready_time[succ]:
                    ready_time[succ] = arrival

        schedule = Schedule(
            makespan=max(finish),
            start=start,
            finish=finish,
            node_of_task=list(node_of),
            busy_time_per_node=busy,
            messages=messages,
            comm_bytes=comm_bytes,
            core_of_task=core_of_op,
            comm_time_per_node=comm_time,
            messages_per_node=sent,
        )
        return ReplayState(schedule, ready_time, transfer_arrival, seen_transfers)
