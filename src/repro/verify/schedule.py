"""The schedule sanitizer: static feasibility checking of engine output.

:func:`verify_schedule` takes a :class:`~repro.runtime.scheduler.Schedule`
produced by the :class:`~repro.runtime.engine.SimulationEngine` or the
reference scheduler (any policy, any network model, any process grid)
together with the program / machine / network it was simulated under, and
statically verifies every invariant a feasible distributed execution must
satisfy:

* ``S-SHAPE`` — per-task and per-node vectors have the right lengths;
* ``S-TIME-RANGE`` — no negative start times;
* ``S-DURATION`` — ``finish == start + kernel duration`` for every task
  (bitwise: the engine computes exactly this IEEE sum);
* ``S-OWNER`` — every task ran on the node the owner-computes rule maps its
  owner tile to under the block-cyclic distribution;
* ``S-PRECEDENCE`` — every task starts at or after each predecessor's
  finish time **plus the network transfer arrival** for cross-node edges:
  the flat per-edge transfer under the ``uniform`` model, and the
  ``finish + handshake + wire`` lower bound under event-driven models
  (NIC queueing can only delay arrivals further, and IEEE addition is
  monotone, so the bound is exact — no epsilon);
* ``S-CORE-RANGE`` / ``S-CORE-OVERLAP`` — core indices are valid and no
  core executes two overlapping tasks;
* ``S-MAKESPAN`` — the recorded makespan is exactly ``max(finish)``;
* ``S-COMM-COUNT`` / ``S-COMM-BYTES`` — message and byte counters equal
  the deduplicated (producer op, destination node) cross-edge transfer
  set, globally and per sender node (the dedup set is a pure function of
  the edge set and the owner mapping, so it is dispatch-order free);
* ``S-COMM-TIME`` / ``S-BUSY-TIME`` — per-node sending/compute seconds
  match recomputation (``math.isclose``: these are float accumulations
  whose summation order the engine does not pin down);
* ``S-NIC-OVERLOAD`` — under event-driven networks, per-node NIC
  serialization is respected: each deduplicated message occupies the
  sender's NIC for its injection time inside the window
  ``[producer finish + handshake, earliest consumer start - wire]``, and
  for every such window-interval the total injection demand must fit.
  This is the preemptive-relaxation feasibility test (a necessary
  condition for the engine's non-preemptive NIC), so real engine output
  always passes and an impossible injection pile-up is always flagged.

All exact-equality checks are safe because the sanitizer recomputes the
very same IEEE expressions the engine evaluates (``t_start + d``,
``t_finish + transfer``, ``(t_finish + handshake) + wire``); only the
order-dependent accumulations use a tolerance.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.ir.program import Program
from repro.runtime.machine import Machine
from repro.runtime.network import (
    NetworkModel,
    get_network_model,
    resolved_message_bytes_vector,
)
from repro.runtime.scheduler import Schedule
from repro.tiles.distribution import BlockCyclicDistribution, ProcessGrid
from repro.verify.findings import (
    S_BUSY_TIME,
    S_COMM_BYTES,
    S_COMM_COUNT,
    S_COMM_TIME,
    S_CORE_OVERLAP,
    S_CORE_RANGE,
    S_DURATION,
    S_MAKESPAN,
    S_NIC_OVERLOAD,
    S_OWNER,
    S_PRECEDENCE,
    S_SHAPE,
    S_TIME_RANGE,
    VerificationReport,
)


def _isclose(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def verify_schedule(
    schedule: Schedule,
    program: Program,
    machine: Machine,
    *,
    distribution: Optional[BlockCyclicDistribution] = None,
    network: Union[str, NetworkModel] = "uniform",
    durations: Optional[Sequence[float]] = None,
) -> VerificationReport:
    """Statically verify one engine schedule; returns the finding report.

    ``distribution`` / ``network`` must name the same configuration the
    engine ran under (same defaulting rules as
    :class:`~repro.runtime.engine.SimulationEngine`).  ``durations``
    overrides the per-op durations the bitwise ``S-DURATION`` and
    ``S-BUSY-TIME`` checks expect — scenario replays pass the realized
    (fault-perturbed) durations of a draw; by default the nominal kernel
    table is used, priced with the machine's heterogeneity factors when
    present.  Never raises on a defective schedule — every violated
    invariant becomes a finding.
    """
    net = get_network_model(network)
    n = len(program)
    n_nodes = machine.n_nodes
    report = VerificationReport(
        subject=f"schedule[n={n}, nodes={n_nodes}, network={net.name}]"
    )

    # ------------------------------------------------------------------ #
    # S-SHAPE: vector lengths.  Everything after this indexes per-task
    # vectors, so a shape violation short-circuits the rest.
    # ------------------------------------------------------------------ #
    report.checked += 1
    per_task = {
        "start": schedule.start,
        "finish": schedule.finish,
        "node_of_task": schedule.node_of_task,
    }
    if schedule.core_of_task is not None:
        per_task["core_of_task"] = schedule.core_of_task
    for name, vec in per_task.items():
        if len(vec) != n:
            report.add(
                S_SHAPE,
                f"{name} has {len(vec)} entries, program has {n} ops",
            )
    per_node = {"busy_time_per_node": schedule.busy_time_per_node}
    if schedule.comm_time_per_node is not None:
        per_node["comm_time_per_node"] = schedule.comm_time_per_node
    if schedule.messages_per_node is not None:
        per_node["messages_per_node"] = schedule.messages_per_node
    for name, vec in per_node.items():
        if len(vec) != n_nodes:
            report.add(
                S_SHAPE,
                f"{name} has {len(vec)} entries, machine has {n_nodes} nodes",
            )
    if not report.ok:
        return report

    start = schedule.start
    finish = schedule.finish
    node_of = schedule.node_of_task

    # ------------------------------------------------------------------ #
    # Expected owner mapping (the engine's defaulting rules, restated).
    # ------------------------------------------------------------------ #
    if n_nodes == 1:
        expected_node = [0] * n
    else:
        if distribution is None:
            distribution = BlockCyclicDistribution(
                ProcessGrid.for_square_matrix(n_nodes)
            )
        rows = program.owner_rows_np.tolist()
        cols = program.owner_cols_np.tolist()
        expected_node = [distribution.owner(i, j) for i, j in zip(rows, cols)]

    if durations is None:
        dur_np = machine.kernel_duration_table()[program.kernel_codes_np]
        if machine.heterogeneous:
            # Reprice with the slowdown factors in the scenario replay's
            # exact multiplication order — (nominal * node factor) * core
            # factor — so the bitwise S-DURATION check still holds.
            import numpy as np

            nf = machine.node_factors()
            if nf is not None:
                nf_np = np.asarray(nf, dtype=np.float64)
                dur_np = dur_np * nf_np[
                    np.asarray(schedule.node_of_task, dtype=np.int64)
                ]
            cf = machine.core_factors()
            if cf is not None and schedule.core_of_task is not None:
                cf_np = np.asarray(cf, dtype=np.float64)
                dur_np = dur_np * cf_np[
                    np.asarray(schedule.core_of_task, dtype=np.int64)
                ]
        durations = dur_np.tolist()
    else:
        durations = [float(d) for d in durations]
        if len(durations) != n:
            report.add(
                S_SHAPE,
                f"durations override has {len(durations)} entries, program "
                f"has {n} ops",
            )
            return report

    # ------------------------------------------------------------------ #
    # Per-task checks: time range, exact duration, owner mapping, cores.
    # ------------------------------------------------------------------ #
    cores = machine.cores_per_node
    core_of = schedule.core_of_task
    for i in range(n):
        report.checked += 3
        if start[i] < 0.0:
            report.add(
                S_TIME_RANGE, f"task starts at {start[i]} < 0", op=i
            )
        if finish[i] != start[i] + durations[i]:
            report.add(
                S_DURATION,
                f"finish {finish[i]!r} != start {start[i]!r} + kernel "
                f"duration {durations[i]!r}",
                op=i,
            )
        if node_of[i] != expected_node[i]:
            report.add(
                S_OWNER,
                f"task ran on node {node_of[i]}, owner-computes maps its "
                f"owner tile to node {expected_node[i]}",
                op=i,
            )
        if core_of is not None:
            report.checked += 1
            if not (0 <= core_of[i] < cores):
                report.add(
                    S_CORE_RANGE,
                    f"core index {core_of[i]} outside [0, {cores})",
                    op=i,
                )

    # ------------------------------------------------------------------ #
    # S-PRECEDENCE: start >= predecessor finish + transfer arrival.
    # ------------------------------------------------------------------ #
    event_driven = net.event_driven
    transfer = machine.transfer_time()
    handshake = net.handshake_seconds(machine)
    msg_bytes: Optional[List[int]] = None
    wire_cache: Dict[int, float] = {}
    if event_driven:
        msg_bytes = resolved_message_bytes_vector(net, program, machine).tolist()

    def wire_of(src: int) -> float:
        n_bytes = msg_bytes[src]
        wire = wire_cache.get(n_bytes)
        if wire is None:
            wire = net.message_seconds(n_bytes, machine)
            wire_cache[n_bytes] = wire
        return wire

    for dst in range(n):
        for src in program.predecessors(dst):
            report.checked += 1
            if node_of[src] == node_of[dst]:
                bound = finish[src]
                how = "predecessor finish"
            elif event_driven:
                bound = (finish[src] + handshake) + wire_of(src)
                how = "predecessor finish + handshake + wire"
            else:
                bound = finish[src] + transfer
                how = "predecessor finish + transfer"
            if start[dst] < bound:
                report.add(
                    S_PRECEDENCE,
                    f"task starts at {start[dst]!r}, before {how} "
                    f"{bound!r} of op {src}",
                    op=dst,
                    other=src,
                )

    # ------------------------------------------------------------------ #
    # S-CORE-OVERLAP: no (node, core) runs two tasks at once.
    # ------------------------------------------------------------------ #
    if core_of is not None:
        by_core: Dict[Tuple[int, int], List[int]] = {}
        for i in range(n):
            by_core.setdefault((node_of[i], core_of[i]), []).append(i)
        for (node, core), tasks in sorted(by_core.items()):
            tasks.sort(key=lambda i: (start[i], finish[i], i))
            report.checked += 1
            for prev, cur in zip(tasks, tasks[1:]):
                if start[cur] < finish[prev]:
                    report.add(
                        S_CORE_OVERLAP,
                        f"node {node} core {core}: task starts at "
                        f"{start[cur]!r} while op {prev} runs until "
                        f"{finish[prev]!r}",
                        op=cur,
                        other=prev,
                    )

    # ------------------------------------------------------------------ #
    # S-MAKESPAN: exactly max(finish) (0.0 for an empty program).
    # ------------------------------------------------------------------ #
    report.checked += 1
    true_makespan = max(finish) if n else 0.0
    if schedule.makespan != true_makespan:
        report.add(
            S_MAKESPAN,
            f"recorded makespan {schedule.makespan!r} != max finish time "
            f"{true_makespan!r}",
        )

    # ------------------------------------------------------------------ #
    # Communication accounting: the deduplicated (producer, destination
    # node) transfer set is a pure function of edges + owners, so message
    # and byte counters are exactly recomputable without replaying the
    # dispatch order.
    # ------------------------------------------------------------------ #
    pairs: List[Tuple[int, int]] = []
    seen = set()
    # earliest consumer start per transfer, for the NIC window test
    earliest_consumer: Dict[Tuple[int, int], float] = {}
    for dst in range(n):
        for src in program.predecessors(dst):
            dst_node = node_of[dst]
            if node_of[src] == dst_node:
                continue
            key = (src, dst_node)
            if key not in seen:
                seen.add(key)
                pairs.append(key)
                earliest_consumer[key] = start[dst]
            elif start[dst] < earliest_consumer[key]:
                earliest_consumer[key] = start[dst]

    exp_messages = len(pairs)
    exp_sent = [0] * n_nodes
    exp_bytes = 0
    exp_comm_time = [0.0] * n_nodes
    for src, _dst_node in pairs:
        sender = node_of[src]
        exp_sent[sender] += 1
        if event_driven:
            n_bytes = msg_bytes[src]
            exp_bytes += n_bytes
            exp_comm_time[sender] += machine.injection_seconds(n_bytes)
        else:
            exp_bytes += machine.tile_bytes
            exp_comm_time[sender] += transfer

    report.checked += 2
    if schedule.messages != exp_messages:
        report.add(
            S_COMM_COUNT,
            f"recorded {schedule.messages} messages, the deduplicated "
            f"cross-edge transfer set has {exp_messages}",
        )
    if schedule.comm_bytes != exp_bytes:
        report.add(
            S_COMM_BYTES,
            f"recorded {schedule.comm_bytes} bytes, transfer set totals "
            f"{exp_bytes}",
        )
    if schedule.messages_per_node is not None:
        report.checked += 1
        if schedule.messages_per_node != exp_sent:
            report.add(
                S_COMM_COUNT,
                f"messages_per_node {schedule.messages_per_node} != "
                f"per-sender recount {exp_sent}",
            )
    if schedule.comm_time_per_node is not None:
        for node in range(n_nodes):
            report.checked += 1
            if not _isclose(schedule.comm_time_per_node[node], exp_comm_time[node]):
                report.add(
                    S_COMM_TIME,
                    f"node {node} sending time "
                    f"{schedule.comm_time_per_node[node]!r} != recomputed "
                    f"{exp_comm_time[node]!r}",
                )

    # ------------------------------------------------------------------ #
    # S-BUSY-TIME: per-node compute seconds.
    # ------------------------------------------------------------------ #
    exp_busy = [0.0] * n_nodes
    for i in range(n):
        exp_busy[node_of[i]] += durations[i]
    for node in range(n_nodes):
        report.checked += 1
        if not _isclose(schedule.busy_time_per_node[node], exp_busy[node]):
            report.add(
                S_BUSY_TIME,
                f"node {node} busy time "
                f"{schedule.busy_time_per_node[node]!r} != summed kernel "
                f"durations {exp_busy[node]!r}",
            )

    # ------------------------------------------------------------------ #
    # S-NIC-OVERLOAD: event-driven NIC serialization.  Each message must
    # *start* injecting somewhere in [producer finish + handshake,
    # earliest consumer start - wire] and occupies the sender's NIC for
    # its injection time.  For messages confined to a window, serialized
    # starts force the sum of all injection lengths but the last-started
    # one to fit inside the window — a necessary condition every real
    # engine run satisfies (interleaved other messages only widen the
    # gaps), so a violation is a definite injection pile-up.
    # ------------------------------------------------------------------ #
    if event_driven and pairs:
        eps = 1e-9 * max(1.0, schedule.makespan)
        jobs_per_node: Dict[int, List[Tuple[float, float, float]]] = {}
        for key in pairs:
            src, _dst_node = key
            n_bytes = msg_bytes[src]
            release = finish[src] + handshake
            deadline = earliest_consumer[key] - wire_of(src)
            length = machine.injection_seconds(n_bytes)
            jobs_per_node.setdefault(node_of[src], []).append(
                (release, deadline, length)
            )
        for node, jobs in sorted(jobs_per_node.items()):
            report.checked += 1
            jobs.sort(key=lambda j: j[1])  # by start-deadline
            releases = sorted({r for r, _d, _l in jobs})
            overloaded = False
            for r in releases:
                demand = 0.0
                longest = 0.0
                for rel, dl, length in jobs:
                    if rel >= r:
                        demand += length
                        if length > longest:
                            longest = length
                        if demand - longest > (dl - r) + eps:
                            report.add(
                                S_NIC_OVERLOAD,
                                f"node {node} NIC: messages confined to "
                                f"[{r!r}, {dl!r}] need {demand!r}s of "
                                f"serialized injection, window holds "
                                f"{dl - r!r}s",
                            )
                            overloaded = True
                            break
                if overloaded:
                    break
    return report
