"""Global configuration objects shared across the library.

The defaults mirror the experimental setup of the paper (Section VI):

* tile size ``nb = 160`` and inner blocking ``ib = 32`` tuned on the
  ``m = n = 20000`` / ``30000`` square cases;
* AUTO tree parallelism factor ``gamma = 2``;
* the ``miriel`` node: 2 × 12-core Haswell Xeon E5-2680 v3, per-core
  practical GEMM peak 37 GFlop/s and 642 GFlop/s for the full 24-core node;
* InfiniBand QDR TrueScale network, 40 Gb/s.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Config:
    """Algorithmic parameters used throughout the library.

    Parameters
    ----------
    tile_size:
        Tile size ``nb``. Tiles are ``nb x nb`` except for the last tile row
        and column of a matrix whose dimensions are not multiples of ``nb``.
    inner_block:
        Inner blocking ``ib`` of the tile kernels.  The performance model
        prices it (kernel efficiency), and the numeric kernels block their
        ``T`` factors by ``min(ib, k)`` (LAPACK ``dgeqrt`` / ``dtpqrt``), so
        it changes the rounding of numeric results, not their accuracy.
    auto_gamma:
        The ``gamma`` parameter of the AUTO tree: at every panel step the
        FlatTS sub-domain size ``a`` is chosen so that the number of
        independent tasks is at least ``gamma * n_cores``.
    """

    tile_size: int = 160
    inner_block: int = 32
    auto_gamma: float = 2.0

    def with_(self, **kwargs) -> "Config":
        """Return a copy of this configuration with some fields replaced."""
        return replace(self, **kwargs)

    def __post_init__(self) -> None:
        if self.tile_size < 1:
            raise ValueError(f"tile_size must be >= 1, got {self.tile_size}")
        if self.inner_block < 1:
            raise ValueError(f"inner_block must be >= 1, got {self.inner_block}")
        if self.auto_gamma <= 0:
            raise ValueError(f"auto_gamma must be > 0, got {self.auto_gamma}")


#: Library-wide default configuration (paper values).
default_config = Config()


@dataclass(frozen=True)
class MachinePreset:
    """Hardware parameters of a compute platform used by the simulator.

    The defaults describe one ``miriel`` node of the PLAFRIM testbed as
    reported in Section VI-A of the paper.
    """

    name: str = "miriel"
    cores_per_node: int = 24
    #: Practical GEMM peak of a single core, in GFlop/s.
    core_gemm_gflops: float = 37.0
    #: Practical GEMM peak of the full node (less than 24 x 37 because of
    #: shared memory bandwidth), in GFlop/s.
    node_gemm_gflops: float = 642.0
    #: Network bandwidth between nodes, in Gbit/s (InfiniBand QDR).
    network_bandwidth_gbits: float = 40.0
    #: Network latency per message, in microseconds.
    network_latency_us: float = 2.0
    #: NIC injection rate of one node, in Gbit/s — how fast a node can push
    #: bytes onto the wire.  ``None`` means the link bandwidth (the QDR HCA
    #: is not injection-limited).  Used by the alpha-beta network model to
    #: serialize concurrent sends from the same node.
    injection_rate_gbits: "float | None" = None
    #: Per-message send overhead on the sending NIC, in microseconds (the
    #: ``o`` of LogP-style models: descriptor setup, doorbell, DMA start).
    injection_overhead_us: float = 0.5
    #: Memory bandwidth of a node in GB/s (used by the memory-bound
    #: competitor models, e.g. ScaLAPACK's BLAS-2 phases).
    memory_bandwidth_gbs: float = 60.0

    @property
    def node_efficiency(self) -> float:
        """Parallel efficiency of a full node relative to per-core peak."""
        return self.node_gemm_gflops / (self.cores_per_node * self.core_gemm_gflops)

    @property
    def network_bandwidth_bytes_per_s(self) -> float:
        """Network bandwidth converted to bytes per second."""
        return self.network_bandwidth_gbits * 1e9 / 8.0

    @property
    def injection_rate_bytes_per_s(self) -> float:
        """NIC injection rate in bytes per second (defaults to link bandwidth)."""
        rate = (
            self.injection_rate_gbits
            if self.injection_rate_gbits is not None
            else self.network_bandwidth_gbits
        )
        return rate * 1e9 / 8.0


#: The cluster node used for all experiments in the paper.
MIRIEL = MachinePreset()

#: A deliberately slow network variant used by ablation benchmarks.
MIRIEL_SLOW_NETWORK = MachinePreset(
    name="miriel-slow-network", network_bandwidth_gbits=10.0, network_latency_us=10.0
)

PRESETS = {
    MIRIEL.name: MIRIEL,
    MIRIEL_SLOW_NETWORK.name: MIRIEL_SLOW_NETWORK,
}


def get_preset(name: str) -> MachinePreset:
    """Look up a machine preset by name.

    Raises ``KeyError`` with the list of known presets if ``name`` is
    unknown.
    """
    try:
        return PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown machine preset {name!r}; known presets: {sorted(PRESETS)}"
        ) from None
