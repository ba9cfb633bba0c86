"""Machine model used by the runtime simulator.

A :class:`Machine` is a set of identical multicore nodes connected by a
network, described by a :class:`~repro.config.MachinePreset` (the default
is the paper's ``miriel`` node: 24 Haswell cores, 37 GFlop/s GEMM per core,
642 GFlop/s per node, InfiniBand QDR at 40 Gb/s).

The machine translates tile kernels into durations and tile transfers into
communication delays; everything else (who runs what, when) is the
scheduler's job.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from repro.config import MIRIEL, MachinePreset
from repro.kernels.costs import (
    KERNEL_LIST,
    KernelName,
    kernel_efficiency,
    kernel_flops,
)


@lru_cache(maxsize=256)
def _kernel_duration_table(machine: "Machine") -> np.ndarray:
    """Kernel durations indexed by kernel code, cached per machine.

    ``Machine`` is a frozen (hashable) dataclass, so equal machines share
    one table; the engine's structure-of-arrays path prices a whole
    program with a single 12-entry gather instead of one
    :meth:`Machine.kernel_duration` call per op.
    """
    table = np.array(
        [machine.kernel_duration(k) for k in KERNEL_LIST], dtype=np.float64
    )
    table.setflags(write=False)
    return table


@dataclass(frozen=True)
class Machine:
    """A homogeneous cluster of multicore nodes.

    Parameters
    ----------
    n_nodes:
        Number of nodes (1 for the shared-memory experiments).
    cores_per_node:
        Cores used for computation on each node.  The paper leaves one core
        free for MPI progress on distributed square runs; pass 23 to mimic
        that.
    tile_size:
        Tile size ``nb``; kernel durations scale as ``nb^3``.
    preset:
        Hardware characteristics (GEMM peaks, network).
    inner_block:
        Inner blocking ``ib`` of the TS/TT kernels, or ``None`` for the
        calibration value (the paper's ``ib = 32``).  Only affects kernel
        efficiencies (see
        :func:`repro.kernels.costs.inner_block_efficiency_factor`).
    node_slowdowns, core_slowdowns:
        Optional speed heterogeneity: a factor ``>= 1.0`` per node /
        per core (``1.25`` = 25% slower), of length exactly ``n_nodes`` /
        ``cores_per_node``; ``None`` (the default) is the homogeneous
        machine.  Kernel-duration *tables* stay nominal — the factors are
        applied by the scenario replay layer
        (:mod:`repro.runtime.scenario`), which the engine routes
        heterogeneous machines through automatically.  Build these from a
        named pattern with :meth:`repro.runtime.scenario.Scenario.
        apply_to_machine` rather than by hand.
    """

    n_nodes: int = 1
    cores_per_node: int = 24
    tile_size: int = 160
    preset: MachinePreset = MIRIEL
    inner_block: Optional[int] = None
    node_slowdowns: Optional[Tuple[float, ...]] = None
    core_slowdowns: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        if self.cores_per_node < 1:
            raise ValueError("cores_per_node must be >= 1")
        if self.tile_size < 1:
            raise ValueError("tile_size must be >= 1")
        if self.inner_block is not None and self.inner_block < 1:
            raise ValueError("inner_block must be >= 1")
        for attr, count, what in (
            ("node_slowdowns", self.n_nodes, "n_nodes"),
            ("core_slowdowns", self.cores_per_node, "cores_per_node"),
        ):
            factors = getattr(self, attr)
            if factors is None:
                continue
            factors = tuple(float(f) for f in factors)
            if len(factors) != count:
                raise ValueError(
                    f"{attr} must have length {what}={count}, got {len(factors)}"
                )
            for f in factors:
                if not np.isfinite(f) or f < 1.0:
                    raise ValueError(
                        f"{attr} entries must be finite and >= 1.0, got {f}"
                    )
            object.__setattr__(self, attr, factors)

    # ------------------------------------------------------------------ #
    # Heterogeneity
    # ------------------------------------------------------------------ #
    @property
    def heterogeneous(self) -> bool:
        """Whether any node or core runs slower than nominal.

        All-ones slowdown tuples count as homogeneous, so such machines
        keep their memo-table keys.
        """
        return bool(
            (self.node_slowdowns and any(f != 1.0 for f in self.node_slowdowns))
            or (self.core_slowdowns and any(f != 1.0 for f in self.core_slowdowns))
        )

    def node_factors(self) -> Optional[Tuple[float, ...]]:
        """Per-node duration factors, or ``None`` when all nominal."""
        ns = self.node_slowdowns
        if ns is None or all(f == 1.0 for f in ns):
            return None
        return ns

    def core_factors(self) -> Optional[Tuple[float, ...]]:
        """Per-core duration factors, or ``None`` when all nominal."""
        cs = self.core_slowdowns
        if cs is None or all(f == 1.0 for f in cs):
            return None
        return cs

    # ------------------------------------------------------------------ #
    # Compute model
    # ------------------------------------------------------------------ #
    @property
    def total_cores(self) -> int:
        return self.n_nodes * self.cores_per_node

    @property
    def core_rate_gflops(self) -> float:
        """Per-core sustainable rate when the whole node is busy.

        The node aggregate GEMM peak (642 GFlop/s on miriel) is lower than
        ``24 x 37`` because of shared memory bandwidth; dividing it evenly
        over the cores gives the sustained per-core rate used for kernel
        durations.
        """
        per_core_from_node = self.preset.node_gemm_gflops / self.preset.cores_per_node
        return min(self.preset.core_gemm_gflops, per_core_from_node)

    def kernel_duration(self, kernel: KernelName) -> float:
        """Wall-clock seconds of one tile kernel on one core.

        The efficiency of every kernel depends on the tile size (small tiles
        have a worse surface-to-volume ratio, see
        :func:`repro.kernels.costs.tile_efficiency_factor`), which is what
        creates the GE2BND side of the tile-size trade-off of Section VI-B.
        """
        flops = kernel_flops(kernel, self.tile_size)
        rate = self.core_rate_gflops * 1e9 * kernel_efficiency(
            kernel, self.tile_size, self.inner_block
        )
        return flops / rate

    def kernel_duration_table(self) -> np.ndarray:
        """Durations of all kernels, indexed by kernel code (read-only).

        The code order is :data:`repro.kernels.costs.KERNEL_LIST`; the
        table is cached per (equal) machine, so gathering it through a
        program's ``kernel_codes_np`` column prices every op without
        re-evaluating the efficiency model.
        """
        return _kernel_duration_table(self)

    @property
    def node_peak_gflops(self) -> float:
        """Aggregate GEMM peak of one node (GFlop/s)."""
        return self.core_rate_gflops * self.cores_per_node

    @property
    def peak_gflops(self) -> float:
        """Aggregate GEMM peak of the whole machine (GFlop/s)."""
        return self.node_peak_gflops * self.n_nodes

    # ------------------------------------------------------------------ #
    # Communication model
    # ------------------------------------------------------------------ #
    @property
    def tile_bytes(self) -> int:
        """Size of one tile in bytes (double precision)."""
        return self.tile_size * self.tile_size * 8

    def transfer_time(self, n_bytes: Optional[int] = None) -> float:
        """Seconds to move ``n_bytes`` (default: one tile) between two nodes."""
        if self.n_nodes == 1:
            return 0.0
        if n_bytes is None:
            n_bytes = self.tile_bytes
        bandwidth = self.preset.network_bandwidth_bytes_per_s
        return self.preset.network_latency_us * 1e-6 + n_bytes / bandwidth

    @property
    def alpha_seconds(self) -> float:
        """Per-message network latency (the alpha of the alpha-beta model)."""
        return self.preset.network_latency_us * 1e-6

    def beta_seconds(self, n_bytes: int) -> float:
        """Wire time of ``n_bytes`` at the link bandwidth (the beta term)."""
        return n_bytes / self.preset.network_bandwidth_bytes_per_s

    def injection_seconds(self, n_bytes: int) -> float:
        """Seconds the sending NIC is occupied pushing one ``n_bytes`` message.

        Per-message overhead plus serialization at the NIC injection rate;
        concurrent sends from the same node queue behind each other for this
        long in the alpha-beta model (see :mod:`repro.runtime.network`).
        """
        return (
            self.preset.injection_overhead_us * 1e-6
            + n_bytes / self.preset.injection_rate_bytes_per_s
        )

    def with_nodes(self, n_nodes: int) -> "Machine":
        """Copy of this machine with a different node count (scaling studies).

        Per-node slowdowns are cycled block-cyclically to the new node
        count (the same expansion rule scenarios use); per-core slowdowns
        carry over unchanged.
        """
        ns = self.node_slowdowns
        if ns is not None:
            ns = tuple(ns[i % len(ns)] for i in range(n_nodes))
        return Machine(
            n_nodes=n_nodes,
            cores_per_node=self.cores_per_node,
            tile_size=self.tile_size,
            preset=self.preset,
            inner_block=self.inner_block,
            node_slowdowns=ns,
            core_slowdowns=self.core_slowdowns,
        )
