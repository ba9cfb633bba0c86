"""Pluggable scheduling policies for the simulation engine.

A :class:`SchedulingPolicy` decides *in which order* ready ops are picked
off a node's ready queue; everything else (owner-computes mapping, core
events, communication delays) belongs to the
:class:`~repro.runtime.engine.SimulationEngine`.  A policy ranks the whole
program up front: :meth:`SchedulingPolicy.rank` returns one sortable key
per op, and the engine always breaks ties on the op id — stable task-id
ordering, so simulated makespans are bit-reproducible across runs and
Python hash seeds.

Available policies (see :data:`POLICIES`):

=============== ==============================================================
``list``        duration-weighted bottom levels — greedy list scheduling,
                the default
``critical-path`` bottom levels in Table-I weight units (``nb^3/3`` flops),
                i.e. priorities from the paper's critical-path analysis
``locality``    block-cyclic-aware: prefer ops with the fewest off-node
                producers (cheapest to start under owner-computes), bottom
                level breaking ties
``fifo``        program order (the tracer's sequentially consistent order)
``weight``      heaviest kernel first
``random``      seeded uniform-random priorities — the chaos baseline that
                shows how much the smarter orders actually buy
=============== ==============================================================
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple, Type, Union

import numpy as np

from repro.ir.program import Program
from repro.runtime.machine import Machine


class SchedulingPolicy:
    """Base class: a named ranking over the ops of a program.

    Subclasses implement :meth:`rank`; lower keys are scheduled first.
    Keys may be floats or tuples of floats, but every op's key must be
    comparable with every other's.

    Policies may additionally implement :meth:`rank_array`, the vectorized
    hook the replay kernel calls with numpy inputs; the built-in policies
    rank through the program's topological level sweeps there, producing
    bit-identical keys to :meth:`rank`.  A non-``None`` :attr:`cache_token`
    lets the kernel memoize the resulting order per (program, machine,
    grid) — static rankings only.
    """

    #: Registry name (e.g. ``"list"``); also used by the CLI.
    name: str = ""
    #: One-line description for ``repro policies``.
    description: str = ""

    @property
    def cache_token(self) -> Optional[Tuple]:
        """Hashable identity for rank-key memoization (``None`` = don't).

        The default is ``None``: a custom policy's ranking may depend on
        state the engine cannot see, so it is re-ranked on every run
        unless it opts in by returning a token that captures its full
        configuration.
        """
        return None

    @property
    def rank_machine_invariant(self) -> bool:
        """Whether the ranking ignores the machine's duration model.

        ``True`` means the keys depend only on the program (and, for
        node-aware policies, the grid): the replay kernel may then share
        one computed order across configurations that differ only in their
        machine.  The conservative default is ``False``.
        """
        return False

    def rank(
        self,
        program: Program,
        durations: Sequence[float],
        node_of_op: Sequence[int],
        machine: Machine,
    ) -> List[object]:
        """One sort key per op (ascending = more urgent)."""
        raise NotImplementedError

    def rank_array(
        self,
        program: Program,
        durations: np.ndarray,
        node_of_op: Optional[np.ndarray],
        machine: Machine,
    ) -> Optional[List[object]]:
        """Vectorized ranking for the replay kernel.

        ``durations`` is the per-op duration vector and ``node_of_op`` the
        owner-node vector (``None`` on a single node).  Return the key list
        (or a numpy array), or ``None`` to fall back to :meth:`rank`.
        """
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class ListPolicy(SchedulingPolicy):
    """Duration-weighted bottom levels: greedy list scheduling."""

    name = "list"
    description = (
        "greedy list scheduling by bottom level (longest downstream path in "
        "simulated seconds)"
    )

    @property
    def cache_token(self):
        return ("list",)

    def rank(self, program, durations, node_of_op, machine):
        return [-level for level in program.bottom_levels(durations)]

    def rank_array(self, program, durations, node_of_op, machine):
        return (-program.bottom_levels_np(durations)).tolist()


class CriticalPathPolicy(SchedulingPolicy):
    """Bottom levels in Table-I weight units (machine-independent)."""

    name = "critical-path"
    description = (
        "bottom level measured in nb^3/3 flop weights (Section IV units) "
        "instead of simulated seconds"
    )

    @property
    def cache_token(self):
        return ("critical-path",)

    @property
    def rank_machine_invariant(self):
        return True

    def rank(self, program, durations, node_of_op, machine):
        weights = [float(op.weight) for op in program.ops]
        return [-level for level in program.bottom_levels(weights)]

    def rank_array(self, program, durations, node_of_op, machine):
        weights = program.weights_np.astype(np.float64)
        return (-program.bottom_levels_np(weights)).tolist()


class LocalityPolicy(SchedulingPolicy):
    """Block-cyclic-aware: fewest off-node producers first.

    Under owner-computes every op's node is fixed, so the number of
    predecessors mapped to *other* nodes measures how much remote data the
    op must wait for.  Preferring well-fed ops keeps nodes working on data
    they already hold; bottom level breaks ties.  On one node this policy
    degenerates to ``list`` (every producer is local).
    """

    name = "locality"
    description = (
        "prefer ops whose producers are on the same node (block-cyclic "
        "owner-computes), then by bottom level"
    )

    @property
    def cache_token(self):
        return ("locality",)

    def rank(self, program, durations, node_of_op, machine):
        levels = program.bottom_levels(durations)
        keys: List[Tuple[float, float]] = []
        for i in range(len(program)):
            remote = sum(
                1 for pred in program.predecessors(i)
                if node_of_op[pred] != node_of_op[i]
            )
            keys.append((float(remote), -levels[i]))
        return keys

    def rank_array(self, program, durations, node_of_op, machine):
        levels = program.bottom_levels_np(durations)
        n = len(program)
        if node_of_op is None:
            remote = np.zeros(n, dtype=np.float64)
        else:
            # Edge-wise remote-producer count: compare owner nodes across
            # every dependency edge, then segment-sum per consumer.
            dst = np.repeat(
                np.arange(n, dtype=np.int64),
                np.diff(program.pred_indptr_np),
            )
            cross = dst[node_of_op[program.pred_ids_np] != node_of_op[dst]]
            remote = np.bincount(cross, minlength=n).astype(np.float64)
        return list(zip(remote.tolist(), (-levels).tolist()))


class FifoPolicy(SchedulingPolicy):
    """Program order (the drivers' sequentially consistent order)."""

    name = "fifo"
    description = "ops in program order (insertion order is topological)"

    @property
    def cache_token(self):
        return ("fifo",)

    @property
    def rank_machine_invariant(self):
        return True

    def rank(self, program, durations, node_of_op, machine):
        return [float(i) for i in range(len(program))]

    def rank_array(self, program, durations, node_of_op, machine):
        return np.arange(len(program), dtype=np.float64).tolist()


class WeightPolicy(SchedulingPolicy):
    """Heaviest kernel first."""

    name = "weight"
    description = "heaviest kernel duration first, ignoring the DAG below it"

    @property
    def cache_token(self):
        return ("weight",)

    def rank(self, program, durations, node_of_op, machine):
        return [-d for d in durations]

    def rank_array(self, program, durations, node_of_op, machine):
        return (-durations).tolist()


class RandomPolicy(SchedulingPolicy):
    """Seeded uniform-random priorities (the baseline other policies beat).

    The keys come from :class:`random.Random` seeded with ``seed``, so the
    policy is fully reproducible and independent of ``PYTHONHASHSEED``.
    """

    name = "random"
    description = "seeded random priorities; the baseline the others must beat"

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    @property
    def cache_token(self):
        return ("random", self.seed)

    @property
    def rank_machine_invariant(self):
        return True

    def rank(self, program, durations, node_of_op, machine):
        rng = random.Random(self.seed)
        return [rng.random() for _ in range(len(program))]

    def rank_array(self, program, durations, node_of_op, machine):
        # The seeded stream is already O(n) and hash-seed independent; the
        # kernel just reuses it (and memoizes per seed via cache_token).
        return self.rank(program, durations, node_of_op, machine)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomPolicy(seed={self.seed})"


#: Name -> policy class.  Instantiate via :func:`get_policy`.
POLICIES: Dict[str, Type[SchedulingPolicy]] = {
    cls.name: cls
    for cls in (
        ListPolicy,
        CriticalPathPolicy,
        LocalityPolicy,
        FifoPolicy,
        WeightPolicy,
        RandomPolicy,
    )
}


def get_policy(policy: Union[str, SchedulingPolicy], **kwargs) -> SchedulingPolicy:
    """Coerce a name or instance to a :class:`SchedulingPolicy`."""
    if isinstance(policy, SchedulingPolicy):
        return policy
    try:
        cls = POLICIES[str(policy).strip().lower()]
    except KeyError:
        raise ValueError(
            f"unknown scheduling policy {policy!r}; available: {sorted(POLICIES)}"
        ) from None
    return cls(**kwargs)


def available_policies() -> List[Tuple[str, str]]:
    """``(name, description)`` pairs, sorted by name (for the CLI listing)."""
    return [(name, POLICIES[name].description) for name in sorted(POLICIES)]
