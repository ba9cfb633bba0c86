"""Event-driven simulation engine: replay a Program under any policy.

The :class:`SimulationEngine` is an engine/policy/network split:

* the **engine** owns the events — per-node core-free heaps (the event
  queues), dependency release, owner-computes mapping — and is agnostic of
  both the scheduling order and the communication cost;
* the **policy** (:mod:`repro.runtime.policies`) only ranks ops; the
  engine dispatches ready ops in ``(policy key, op id)`` order, so
  tie-breaking is stable task-id ordering and schedules are
  bit-reproducible across runs and Python hash seeds;
* the **network model** (:mod:`repro.runtime.network`) prices cross-node
  transfers: ``uniform`` is a flat pre-charge per edge (golden-pinned),
  ``alpha-beta`` turns each deduplicated (producer, destination node)
  transfer into a message event with latency + bandwidth cost, serialized
  injection through the sender's NIC and an optional rendezvous
  handshake.

:meth:`SimulationEngine.run` is a thin caller of the replay kernel
(:class:`~repro.runtime.replay.PreparedReplay`), which prices every op
through memoized structure-of-arrays vectors, fixes the memoized
dispatch order (ready ops release on their predecessors' dispatch, so
the order is structural) and walks it once with the time arithmetic —
on several nodes through the order's memoized dispatch stream; the
engine adds trace recording and the ``REPRO_VERIFY`` hook.
The per-op duration and owner vectors come from :meth:`SimulationEngine.
duration_vector` and :meth:`SimulationEngine.owner_vector`, memoized per
(program, machine) and (program, grid) in weak-keyed module tables, so a
tuning sweep whose candidates share a cached program shares the pricing
work, and dropping a program from the program cache frees its tables.
:meth:`SimulationEngine.lower_bound` prices a program's makespan lower
bound from the same vectors without an event loop; the tuner prunes with
it.  Every simulated plan, each member of a sweep included, is one
:meth:`SimulationEngine.run` (or one scenario driver call).
The object-path oracle the tests compare the kernel against is
:func:`repro.verify.reference.reference_schedule`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.ir.program import Program
from repro.obs.metrics import REGISTRY
from repro.obs.tracer import Tracer, TransferRecord, current_tracer
from repro.runtime.machine import Machine
from repro.runtime.network import NetworkModel, get_network_model
from repro.runtime.policies import SchedulingPolicy, get_policy
from repro.runtime.replay import (
    _BOUNDS,
    _DURATION_VECTORS,
    _MEMO_LOCK,
    _OWNER_VECTORS,
    _RANK_ORDERS,
    _STREAMS,
    DispatchStream,
    PreparedReplay,
    ReplayState,
    _memo_get,
    _memo_put,
)
from repro.runtime.scheduler import Schedule
from repro.tiles.distribution import BlockCyclicDistribution, ProcessGrid


def engine_memo_stats() -> Dict[str, int]:
    """Entry counts and hit/miss totals of the per-program memo tables.

    The entry counts are read off the weak-keyed tables directly; the
    hit/miss counters live in the observability registry
    (:data:`repro.obs.metrics.REGISTRY`, names ``engine.memo.*``), so
    callers can bracket a run with ``REGISTRY.snapshot()`` /
    ``delta_since`` for per-run figures or ``REGISTRY.reset("engine.memo.")``
    instead of inheriting totals from unrelated runs.  ``order_*`` counts
    the memoized dispatch orders (:func:`~repro.runtime.replay.policy_order`,
    one entry per policy, machine or ``None``, and grid); a hit skips both
    the ranking and the structural pass.  ``stream_programs`` counts the
    programs with a memoized multi-node dispatch stream; a stream is
    looked up under its order's key, so it has no counters of its own.
    """
    with _MEMO_LOCK:
        stats = {
            "duration_programs": len(_DURATION_VECTORS),
            "owner_programs": len(_OWNER_VECTORS),
            "order_programs": len(_RANK_ORDERS),
            "stream_programs": len(_STREAMS),
            "bound_programs": len(_BOUNDS),
        }
    # ``bound_*`` counts the schedule-bound memo (SimulationEngine.lower_bound).
    for name in ("duration", "owner", "order", "bound"):
        for outcome in ("hits", "misses"):
            stats[f"{name}_{outcome}"] = int(
                REGISTRY.counter(f"engine.memo.{name}.{outcome}")
            )
    # No batch engine is left; benchmarks/harness/probes.py still reads
    # these four keys, so they stay and read 0.
    for name in ("candidates", "simulated", "deduped", "pruned"):
        stats[f"batch_{name}"] = 0
    return stats


def _collect_transfers(
    machine: Machine,
    network: NetworkModel,
    finish: Sequence[float],
    node_of: Sequence[int],
    stream: DispatchStream,
    arrivals: Sequence[float],
    msg_bytes: Optional[Sequence[int]],
) -> List[TransferRecord]:
    """Reconstruct per-message transfer records after the event loop.

    The loops record nothing while running; every message's full timeline
    is recoverable from state they already keep.  Under the event-driven
    models the stream's message entries are in NIC dispatch order, and
    ``arrivals`` and the payloads ``msg_bytes`` pair with them one for
    one; ``inject_start = arrival - wire`` / ``injection`` / ``wire`` are
    re-derived from the payload size exactly as the loop derived them.
    Under the uniform model each message is a flat pre-charge with no NIC
    queueing, so the record is ``release -> release + transfer`` with the
    tile payload, in (producer, destination) order.
    """
    records: List[TransferRecord] = []
    pairs = zip(stream.msg_src.tolist(), stream.msg_dst.tolist())
    if network.event_driven:
        assert msg_bytes is not None
        handshake = network.handshake_seconds(machine)
        for (op_id, dst), n_bytes, arrival in zip(pairs, msg_bytes, arrivals):
            wire = network.message_seconds(n_bytes, machine)
            records.append(
                TransferRecord(
                    op_id=op_id,
                    src=node_of[op_id],
                    dst=dst,
                    n_bytes=n_bytes,
                    release=finish[op_id],
                    handshake=handshake,
                    inject_start=arrival - wire,
                    injection=machine.injection_seconds(n_bytes),
                    wire=wire,
                    arrival=arrival,
                )
            )
    else:
        transfer = machine.transfer_time()
        n_bytes = machine.tile_bytes
        for op_id, dst in sorted(pairs):
            release = finish[op_id]
            records.append(
                TransferRecord(
                    op_id=op_id,
                    src=node_of[op_id],
                    dst=dst,
                    n_bytes=n_bytes,
                    release=release,
                    handshake=0.0,
                    inject_start=release,
                    injection=transfer,
                    wire=transfer,
                    arrival=release + transfer,
                )
            )
    return records


class SimulationEngine:
    """Replay compiled programs on a machine model under a pluggable policy.

    Parameters
    ----------
    machine:
        The machine model (node count, cores, kernel durations, network
        hardware parameters).
    distribution:
        Tile-to-node mapping; defaults to a 2D block-cyclic distribution on
        the near-square process grid for the machine's node count.
    policy:
        A :class:`~repro.runtime.policies.SchedulingPolicy` name or
        instance (default ``"list"``, greedy list scheduling).
    network:
        A :class:`~repro.runtime.network.NetworkModel` name or instance
        (default ``"uniform"``, the flat-cost communication model).
    """

    def __init__(
        self,
        machine: Machine,
        distribution: Optional[BlockCyclicDistribution] = None,
        *,
        policy: Union[str, SchedulingPolicy] = "list",
        network: Union[str, NetworkModel] = "uniform",
    ) -> None:
        self.machine = machine
        self.policy = get_policy(policy)
        self.network = get_network_model(network)
        if distribution is None:
            distribution = BlockCyclicDistribution(
                ProcessGrid.for_square_matrix(machine.n_nodes)
            )
        if distribution.grid.size != machine.n_nodes:
            raise ValueError(
                f"distribution has {distribution.grid.size} processes but the machine "
                f"has {machine.n_nodes} nodes"
            )
        self.distribution = distribution

    # ------------------------------------------------------------------ #
    # Memoized per-program vectors (shared module-wide across engines)
    # ------------------------------------------------------------------ #
    def duration_vector(self, program: Program) -> np.ndarray:
        """Per-op durations on this machine (float64, read-only, memoized).

        One 12-entry kernel table gather instead of ``len(program)`` dict
        lookups; identical values to ``machine.kernel_duration(op.kernel)``
        per op.
        """
        machine = self.machine
        vec = _memo_get(_DURATION_VECTORS, program, machine, "duration")
        if vec is None:
            vec = machine.kernel_duration_table()[program.kernel_codes_np]
            vec.setflags(write=False)
            _memo_put(_DURATION_VECTORS, program, machine, vec)
        return vec

    def owner_vector(self, program: Program) -> Optional[np.ndarray]:
        """Owner node of every op (int64, memoized), or ``None`` on one node.

        Uses the vectorized block-cyclic mapping
        (:meth:`~repro.tiles.distribution.BlockCyclicDistribution.owner_array`)
        over the program's owner-tile columns; distribution subclasses with
        a custom ``owner()`` fall back to per-op resolution (uncached),
        which raises ``ValueError`` on the first op whose owner is not a
        node of the machine.
        """
        if self.machine.n_nodes == 1:
            return None
        dist = self.distribution
        if type(dist) is BlockCyclicDistribution:
            key = (dist.grid.rows, dist.grid.cols)
            vec = _memo_get(_OWNER_VECTORS, program, key, "owner")
            if vec is None:
                vec = dist.owner_array(
                    program.owner_rows_np, program.owner_cols_np
                )
                vec.setflags(write=False)
                _memo_put(_OWNER_VECTORS, program, key, vec)
            return vec
        rows = program.owner_rows_np.tolist()
        cols = program.owner_cols_np.tolist()
        vec = np.fromiter(
            (dist.owner(i, j) for i, j in zip(rows, cols)),
            dtype=np.int64,
            count=len(program),
        )
        # A negative node would silently index the last node's queues.
        n_nodes = self.machine.n_nodes
        bad = np.flatnonzero((vec < 0) | (vec >= n_nodes))
        if bad.size:
            op = int(bad[0])
            raise ValueError(
                f"{type(dist).__name__}.owner({rows[op]}, {cols[op]}) = "
                f"{int(vec[op])} (op {op}) is not a node of this machine "
                f"(expected 0 <= node < {n_nodes})"
            )
        return vec

    def lower_bound(self, program: Program) -> float:
        """Makespan lower bound in seconds, without an event loop (memoized).

        ``max(critical path, area)``: no schedule can beat the heaviest
        dependent chain, nor can a node finish before its owner-computes
        work divided by its core count.  Both price the nominal durations,
        so the bound also holds for every scenario draw (each slowdown
        factor is ``>= 1``).  Memoized per (program, machine, grid); no
        dispatch order is computed.
        """
        if len(program) == 0:
            return 0.0
        machine = self.machine
        dist = self.distribution
        key: Optional[Tuple] = None
        if machine.n_nodes == 1:
            key = (machine, None)
        elif type(dist) is BlockCyclicDistribution:
            key = (machine, (dist.grid.rows, dist.grid.cols))
        if key is not None:
            cached = _memo_get(_BOUNDS, program, key, "bound")
            if cached is not None:
                return cached
        durations = self.duration_vector(program)
        cp = program.critical_path_np(durations)
        owner = self.owner_vector(program)
        if owner is None:
            work = float(durations.sum())
        else:
            work = float(
                np.bincount(owner, weights=durations, minlength=machine.n_nodes).max()
            )
        area = work / machine.cores_per_node
        bound = cp if cp > area else area
        if key is not None:
            _memo_put(_BOUNDS, program, key, bound)
        return bound

    # ------------------------------------------------------------------ #
    def run(self, program: Program) -> Schedule:
        """Simulate one replay of ``program`` and return the schedule.

        Each op runs on the node that owns its output tile under the
        engine's distribution; a custom placement is a
        :class:`~repro.tiles.distribution.BlockCyclicDistribution`
        subclass with its own ``owner()``.
        """
        # Ambient tracer pickup: one thread-local read.  The kernel never
        # consults the tracer — it records nothing while running — so
        # traced and untraced replays execute identical instructions and
        # schedules are bit-identical by construction.
        tracer = current_tracer()
        if tracer is None:
            schedule = PreparedReplay(self, program).run()
        else:
            with tracer.phase("simulate"):
                # Ranking and, on a memo miss, the structural dispatch-order
                # pass; the rest of the simulate phase is the timing walk.
                with tracer.phase("rank"):
                    replay = PreparedReplay(self, program)
                state = replay.run_state()
                schedule = state.schedule
                self._record_run(tracer, replay, state)
        # Opt-in static verification on exit (REPRO_VERIFY=1): sanitize the
        # schedule's feasibility before handing it to the caller.
        from repro.verify.hooks import verify_enabled

        if verify_enabled():
            from repro.verify.hooks import check_schedule

            check_schedule(
                schedule,
                program,
                self.machine,
                distribution=self.distribution,
                network=self.network,
            )
        return schedule

    # ------------------------------------------------------------------ #
    # Trace recording (post-loop; see repro.obs.tracer)
    # ------------------------------------------------------------------ #
    def _record_run(
        self, tracer: Tracer, replay: PreparedReplay, state: ReplayState
    ) -> None:
        """Hand one finished replay's state to the ambient tracer.

        Called strictly after the event loop: the arrays are the ones the
        Schedule already carries (shared, not copied) and the transfer
        timeline is a lazy closure over the stream's message entries and
        the loop's arrivals — reconstructed only when an exporter or
        metrics reader asks for it — so recording cannot feed back into
        scheduling decisions and costs O(1) per replay.
        """
        program, schedule = replay.program, state.schedule
        transfers: Optional[Callable[[], List[TransferRecord]]] = None
        stream = replay.stream
        if stream is not None and len(stream.msg_src):
            machine, network = self.machine, self.network

            def _reconstruct() -> List[TransferRecord]:
                return _collect_transfers(
                    machine,
                    network,
                    schedule.finish,
                    schedule.node_of_task,
                    stream,
                    state.arrivals,
                    replay.msg_bytes,
                )

            transfers = _reconstruct
        tracer.record_engine_run(
            program=program,
            policy=self.policy.name,
            network=self.network.name,
            n_nodes=self.machine.n_nodes,
            cores_per_node=self.machine.cores_per_node,
            makespan=schedule.makespan,
            start=schedule.start,
            finish=schedule.finish,
            node_of=schedule.node_of_task,
            core_of=schedule.core_of_task,
            ready_time=state.ready_time,
            transfers=transfers,
        )


def critical_path_seconds(program: Program, machine: Machine) -> float:
    """Duration-weighted critical path: the makespan lower bound no
    scheduling policy can beat on ``machine`` (unbounded cores, free
    communication)."""
    return program.critical_path_np(
        machine.kernel_duration_table()[program.kernel_codes_np]
    )


def serial_seconds(program: Program, machine: Machine) -> float:
    """Single-core replay time: the makespan upper bound for any policy."""
    # Summed in stream order (not numpy pairwise), bit-identical to adding
    # up machine.kernel_duration op by op.
    table = machine.kernel_duration_table()
    return sum(table[program.kernel_codes_np].tolist())
