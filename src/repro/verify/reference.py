"""Object-path reference scheduler: the oracle the replay kernel is held to.

Every simulation path — :meth:`~repro.runtime.engine.SimulationEngine.run`
and the scenario driver — runs one shared kernel,
:class:`~repro.runtime.replay.PreparedReplay`.  Comparing those paths
against each other therefore checks nothing about the kernel itself.
:func:`reference_schedule` is the independent check: a deliberately
plain implementation of the same greedy owner-computes list-scheduling
discipline over the materialized ``program.ops`` objects — per-op
pricing through :meth:`~repro.runtime.machine.Machine.kernel_duration`,
per-op ownership through ``distribution.owner()``, the policy's
per-op :meth:`~repro.runtime.policies.SchedulingPolicy.rank` keys in
``(key, op id)`` tuple heaps, and per-message network pricing.  It shares
no precomputed vector, memo table or dispatch order with the kernel.

It is slow by design and is meant for tests and audits, not for sweeps.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.ir.program import Program
from repro.runtime.machine import Machine
from repro.runtime.network import NetworkModel, get_network_model
from repro.runtime.policies import SchedulingPolicy, get_policy
from repro.runtime.scheduler import Schedule
from repro.tiles.distribution import BlockCyclicDistribution, ProcessGrid

__all__ = ["reference_schedule"]


def reference_schedule(
    program: Program,
    machine: Machine,
    distribution: Optional[BlockCyclicDistribution] = None,
    *,
    policy: Union[str, SchedulingPolicy] = "list",
    network: Union[str, NetworkModel] = "uniform",
    node_of_op: Optional[Sequence[int]] = None,
) -> Schedule:
    """Schedule ``program`` on ``machine`` with the object-path loop.

    Takes the same configuration as :class:`~repro.runtime.engine.
    SimulationEngine` (the default distribution is block-cyclic on the
    near-square grid) and returns a schedule that must equal the engine's
    on every field.  Machines with per-node or per-core slowdowns are
    rejected: the reference prices nominal kernel durations only.
    """
    if machine.heterogeneous:
        raise ValueError(
            "reference_schedule prices nominal durations only; got a "
            "machine with node or core slowdowns"
        )
    policy = get_policy(policy)
    network = get_network_model(network)
    n_nodes = machine.n_nodes
    if distribution is None:
        distribution = BlockCyclicDistribution(ProcessGrid.for_square_matrix(n_nodes))
    n = len(program)
    if n == 0:
        return Schedule(
            0.0, [], [], [], [0.0] * n_nodes, 0, 0,
            core_of_task=[],
            comm_time_per_node=[0.0] * n_nodes,
            messages_per_node=[0] * n_nodes,
        )

    durations = [machine.kernel_duration(op.kernel) for op in program.ops]
    if node_of_op is not None:
        node_of_op = [int(x) for x in node_of_op]
    else:
        node_of_op = [
            distribution.owner(*op.owner_tile) if n_nodes > 1 else 0
            for op in program.ops
        ]
    keys = policy.rank(program, durations, node_of_op, machine)
    if len(keys) != n:
        raise ValueError(
            f"policy {policy.name!r} ranked {len(keys)} ops, expected {n}"
        )

    indegree = program.indegrees()
    ready_time = [0.0] * n
    start = [0.0] * n
    finish = [0.0] * n
    busy = [0.0] * n_nodes
    messages = 0
    comm_bytes = 0
    sent = [0] * n_nodes
    comm_time = [0.0] * n_nodes
    event_driven = network.event_driven
    transfer = machine.transfer_time()
    # Uniform model: dedup set for message *counting* only (arrival is
    # charged per edge).  Alpha-beta: the first release of a (producer,
    # destination node) pair injects a message event; later consumers of
    # the same pair reuse its arrival time (the runtime caches remote
    # tiles).  ``nic_free`` serializes each node's injections in
    # *dispatch order* — the order ops are popped by the greedy loop —
    # not in finish-time order.
    seen_transfers: set[Tuple[int, int]] = set()
    transfer_arrival: Dict[Tuple[int, int], float] = {}
    nic_free = [0.0] * n_nodes

    # Per-node event state: a heap of core-free events (free time, core
    # index) and a heap of ready ops ordered by (policy key, op id).
    core_of_op = [0] * n
    core_heaps: List[List[Tuple[float, int]]] = [
        [(0.0, c) for c in range(machine.cores_per_node)]
        for _ in range(n_nodes)
    ]
    for h in core_heaps:
        heapq.heapify(h)
    ready_heaps: List[List[Tuple[object, int]]] = [
        [] for _ in range(n_nodes)
    ]

    def push_ready(op_id: int) -> None:
        heapq.heappush(ready_heaps[node_of_op[op_id]], (keys[op_id], op_id))

    for op_id in range(n):
        if indegree[op_id] == 0:
            push_ready(op_id)

    scheduled = 0
    while scheduled < n:
        progressed = False
        for node in range(n_nodes):
            heap = ready_heaps[node]
            while heap:
                _, op_id = heapq.heappop(heap)
                core_free, core_idx = heapq.heappop(core_heaps[node])
                t_start = max(core_free, ready_time[op_id])
                t_finish = t_start + durations[op_id]
                start[op_id] = t_start
                finish[op_id] = t_finish
                core_of_op[op_id] = core_idx
                busy[node] += durations[op_id]
                heapq.heappush(core_heaps[node], (t_finish, core_idx))
                scheduled += 1
                progressed = True
                # Release successors; cross-node edges cost one transfer
                # per (producer, destination node) — the runtime caches
                # remote tiles.
                for succ in program.successors(op_id):
                    dst = node_of_op[succ]
                    arrival = t_finish
                    if dst != node:
                        key = (op_id, dst)
                        if event_driven:
                            cached = transfer_arrival.get(key)
                            if cached is None:
                                op = program.ops[op_id]
                                n_bytes = network.message_bytes(op, machine)
                                inject_start = max(
                                    t_finish + network.handshake_seconds(machine),
                                    nic_free[node],
                                )
                                injection = machine.injection_seconds(n_bytes)
                                nic_free[node] = inject_start + injection
                                cached = inject_start + network.message_seconds(
                                    n_bytes, machine
                                )
                                transfer_arrival[key] = cached
                                messages += 1
                                comm_bytes += n_bytes
                                sent[node] += 1
                                comm_time[node] += injection
                            arrival = cached
                        else:
                            arrival += transfer
                            if key not in seen_transfers:
                                seen_transfers.add(key)
                                messages += 1
                                comm_bytes += machine.tile_bytes
                                sent[node] += 1
                                comm_time[node] += transfer
                    if arrival > ready_time[succ]:
                        ready_time[succ] = arrival
                    indegree[succ] -= 1
                    if indegree[succ] == 0:
                        push_ready(succ)
        if not progressed:  # pragma: no cover - defensive (cycle)
            raise RuntimeError("engine stalled: the program has a cycle")

    return Schedule(
        makespan=max(finish),
        start=start,
        finish=finish,
        node_of_task=node_of_op,
        busy_time_per_node=busy,
        messages=messages,
        comm_bytes=comm_bytes,
        core_of_task=core_of_op,
        comm_time_per_node=comm_time,
        messages_per_node=sent,
    )
