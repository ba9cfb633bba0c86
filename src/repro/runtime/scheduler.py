"""The :class:`Schedule` record every simulation path returns.

Schedules come from the replay kernel
(:class:`~repro.runtime.replay.PreparedReplay`) behind the
:class:`~repro.runtime.engine.SimulationEngine`, the batch engine and the
scenario driver: makespan, per-task start/finish times, the node and core
mapping, and communication statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.runtime.machine import Machine


@dataclass
class Schedule:
    """Result of scheduling a task graph / program.

    Attributes
    ----------
    makespan:
        Total simulated time in seconds.
    start, finish:
        Per-task start and finish times (indexed by task id).
    node_of_task:
        Node each task ran on.
    busy_time_per_node:
        Total compute seconds spent by each node.
    messages, comm_bytes:
        Number of inter-node messages and total bytes moved.
    """

    makespan: float
    start: List[float]
    finish: List[float]
    node_of_task: List[int]
    busy_time_per_node: List[float]
    messages: int
    comm_bytes: int
    #: Core index (within its node) each task ran on; filled by the
    #: simulation engine and used by the per-core utilization and Gantt
    #: tooling in :mod:`repro.obs`.  ``None`` for schedules built by hand.
    core_of_task: Optional[List[int]] = None
    #: Seconds each node spent sending (NIC injection time under the
    #: alpha-beta network model; ``sent * transfer_time`` under uniform).
    #: ``None`` for schedules built by hand.
    comm_time_per_node: Optional[List[float]] = None
    #: Deduplicated messages *sent* by each node (indexed by rank); sums to
    #: ``messages``.  ``None`` for schedules built by hand.
    messages_per_node: Optional[List[int]] = None

    @property
    def comm_seconds(self) -> float:
        """Total sending time across all nodes (0.0 when not tracked)."""
        return sum(self.comm_time_per_node or ())

    @property
    def n_tasks(self) -> int:
        return len(self.start)

    def node_utilization(self, machine: Machine) -> List[float]:
        """Fraction of available core-seconds each node spent computing."""
        from repro.obs.util import node_busy_fractions

        return node_busy_fractions(
            self.busy_time_per_node, self.makespan, machine.cores_per_node
        )
