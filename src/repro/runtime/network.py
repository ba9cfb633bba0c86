"""Message-level network models for the simulation engine.

Section VI-D of the paper lives or dies on communication: the greedy
top-level reduction tree roughly doubles the message count of the flat
tree on square cases, which is why flat can win distributed runs despite
exposing less parallelism.  Seeing that trade-off in *simulated time* (not
just message counts) needs a network model with per-message cost, which is
what this module provides:

* :class:`UniformNetwork` — the legacy model: every cross-node dependency
  edge delays its consumer by one flat ``machine.transfer_time()``; no
  per-message latency accumulation, no link occupancy.  The engine's
  original accounting, kept bit-identical (golden-pinned in the tests) so
  all existing determinism guarantees survive;
* :class:`AlphaBetaNetwork` — a message-level alpha-beta (Hockney) model:
  each deduplicated (producer op, destination node) transfer becomes one
  message costing ``alpha + bytes / beta``, with the payload derived from
  the producing op's written tile halves (so bandwidth cost scales with
  the tile size ``nb``), serialized injection through the sending node's
  NIC (per-node occupancy), and a configurable eager/rendezvous protocol
  (rendezvous adds a request/acknowledge handshake before injection).

Both models count messages with the same (producer op, destination node)
deduplication the static analysis uses
(:func:`repro.analysis.communication.communication_volume`), so engine and
analysis message counts always agree exactly — only the *time* charged per
message differs.

Select a model by name through :func:`get_network_model` (``"uniform"`` /
``"alpha-beta"``), the ``network=`` keyword of the engine and simulator
drivers, :attr:`repro.api.SvdPlan.network`, or ``--network`` on the CLI.
"""

from __future__ import annotations

from typing import Dict, List, Tuple, Type, Union

import numpy as np

from repro.ir.program import Op, Program
from repro.runtime.machine import Machine


class NetworkModel:
    """Base class: how cross-node data dependencies turn into time.

    Subclasses set :attr:`name` and implement either nothing beyond the
    defaults (:class:`UniformNetwork`) or the message-cost hooks the
    engine's event loop calls (:class:`AlphaBetaNetwork`).  The
    :attr:`event_driven` flag selects the engine's code path: ``False``
    keeps the legacy fixed pre-charge per edge, ``True`` routes transfers
    through per-message injection events.
    """

    #: Registry name (e.g. ``"uniform"``); also used by the CLI.
    name: str = ""
    #: One-line description for ``repro networks``.
    description: str = ""
    #: Whether the engine should simulate per-message transfer events.
    event_driven: bool = False

    def message_bytes(self, op: Op, machine: Machine) -> int:
        """Payload of one message carrying ``op``'s output, in bytes.

        The default charges one full tile per message (the legacy
        accounting, also used by the static communication analysis).
        """
        return machine.tile_bytes

    def message_bytes_vector(
        self, program: Program, machine: Machine
    ) -> np.ndarray:
        """Per-op message payloads for the engine's structure-of-arrays path.

        Must agree element-wise with :meth:`message_bytes` on every op; the
        default is the flat full-tile charge.
        """
        return np.full(len(program), machine.tile_bytes, dtype=np.int64)

    def handshake_seconds(self, machine: Machine) -> float:
        """Pre-injection protocol delay of one message (default: none)."""
        return 0.0

    def message_seconds(self, n_bytes: int, machine: Machine) -> float:
        """Injection-start to arrival at the receiver.

        The default prices a message like the legacy flat model
        (latency + link bandwidth); event-driven subclasses refine it.
        """
        return machine.transfer_time(n_bytes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class UniformNetwork(NetworkModel):
    """The legacy fixed-cost model (bit-identical to the pre-network engine).

    Every cross-node dependency edge delays its consumer by one flat
    ``machine.transfer_time()`` — even edges whose (producer, destination
    node) transfer was already counted, mirroring how the original engine
    charged arrival times.  There is no NIC occupancy and no per-message
    queueing, so makespans are independent of how many messages a node
    sends concurrently.
    """

    name = "uniform"
    description = (
        "legacy fixed cost: one flat transfer_time() per cross-node edge, "
        "no link occupancy (bit-identical to the pre-network engine)"
    )
    event_driven = False


class AlphaBetaNetwork(NetworkModel):
    """Alpha-beta (Hockney) cost with serialized per-node injection.

    One message per deduplicated (producer op, destination node) pair:

    * the payload is the producing op's written tile halves — each
      :data:`~repro.ir.program.DataItem` is half an ``nb x nb`` tile, so
      bandwidth cost scales with the tile size of the machine the program
      is replayed on;
    * the sending node's NIC injects messages one at a time
      (``machine.injection_seconds(bytes)`` each: per-message overhead +
      serialization at the injection rate), which is what makes a node
      that must scatter to many peers — e.g. the greedy top tree's panel
      heads — pay for it in simulated time, not just message counts;
    * the wire adds ``alpha + bytes / beta``
      (``machine.alpha_seconds`` + ``machine.beta_seconds(bytes)``);
    * ``eager=False`` switches to a rendezvous protocol: a request /
      acknowledge handshake (one round trip, ``2 * alpha``) must complete
      before injection starts, modeling an MPI implementation that cannot
      overlap large sends with compute.

    Subsequent consumers of the same (producer, destination) transfer
    reuse the first message's arrival time — the runtime caches remote
    tiles, exactly like the dedup rule of the legacy model.

    Messages enter a node's NIC queue in the engine's greedy *dispatch
    order* (the order producing ops are popped), not sorted by finish
    time — the same no-lookahead approximation the engine uses for core
    assignment; see the injection comment in
    :meth:`repro.runtime.engine.SimulationEngine.run`.
    """

    name = "alpha-beta"
    description = (
        "per-message alpha + bytes/beta cost, serialized NIC injection per "
        "node, optional rendezvous handshake (eager=False)"
    )
    event_driven = True

    def __init__(self, eager: bool = True) -> None:
        self.eager = eager

    def message_bytes(self, op: Op, machine: Machine) -> int:
        # Each written data item is one tile *half*; integer arithmetic so
        # payloads (and hence schedules) stay exactly reproducible.
        n_halves = max(1, len(op.writes))
        return machine.tile_bytes * n_halves // 2

    def message_bytes_vector(self, program, machine):
        # Vector form of message_bytes over the packed written-halves
        # column (identical integer arithmetic, element for element).
        n_halves = np.maximum(program.writes_count_np, 1)
        return machine.tile_bytes * n_halves // 2

    def handshake_seconds(self, machine: Machine) -> float:
        """Pre-injection delay of the rendezvous protocol (0 when eager)."""
        return 0.0 if self.eager else 2.0 * machine.alpha_seconds

    def message_seconds(self, n_bytes: int, machine: Machine) -> float:
        """Injection-start to arrival: overhead + serialization + alpha.

        Serialization is pipelined through the slower of the NIC injection
        rate and the link bandwidth, so a slow NIC stretches the message
        without double-charging the wire.
        """
        serialization = max(
            machine.beta_seconds(n_bytes),
            n_bytes / machine.preset.injection_rate_bytes_per_s,
        )
        return (
            machine.preset.injection_overhead_us * 1e-6
            + serialization
            + machine.alpha_seconds
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AlphaBetaNetwork(eager={self.eager})"


def resolved_message_bytes_vector(
    network: NetworkModel, program: Program, machine: Machine
) -> np.ndarray:
    """Per-op payload vector for the replay kernel, override-safe.

    A network subclass may override only the per-op :meth:`~NetworkModel.
    message_bytes` hook; in that case the inherited
    :meth:`~NetworkModel.message_bytes_vector` no longer agrees with it
    element-wise, and pricing through the vector would silently change
    schedules.  This resolver checks which hook is defined deepest in the
    MRO: if ``message_bytes`` is the more specific override, the vector is
    built from it per op (materializing the ops — correctness over speed);
    otherwise the vectorized form is authoritative.
    """
    mro = type(network).__mro__
    vec_cls = next(c for c in mro if "message_bytes_vector" in vars(c))
    per_op_cls = next(c for c in mro if "message_bytes" in vars(c))
    if mro.index(per_op_cls) < mro.index(vec_cls):
        return np.fromiter(
            (network.message_bytes(op, machine) for op in program.ops),
            dtype=np.int64,
            count=len(program),
        )
    return network.message_bytes_vector(program, machine)


#: Name -> network model class.  Instantiate via :func:`get_network_model`.
NETWORK_MODELS: Dict[str, Type[NetworkModel]] = {
    cls.name: cls for cls in (UniformNetwork, AlphaBetaNetwork)
}


def get_network_model(
    network: Union[str, NetworkModel], **kwargs
) -> NetworkModel:
    """Coerce a name or instance to a :class:`NetworkModel`.

    ``kwargs`` are constructor arguments for a *named* model (e.g.
    ``get_network_model("alpha-beta", eager=False)``); combining them with
    an already-built instance is rejected rather than silently ignored.
    """
    if isinstance(network, NetworkModel):
        if kwargs:
            raise ValueError(
                "keyword arguments only apply when the network is given by "
                f"name; got an instance of {type(network).__name__} plus "
                f"{sorted(kwargs)}"
            )
        return network
    try:
        cls = NETWORK_MODELS[str(network).strip().lower()]
    except KeyError:
        raise ValueError(
            f"unknown network model {network!r}; available: {sorted(NETWORK_MODELS)}"
        ) from None
    return cls(**kwargs)


def available_networks() -> List[Tuple[str, str]]:
    """``(name, description)`` pairs, sorted by name (for the CLI listing)."""
    return [(name, NETWORK_MODELS[name].description) for name in sorted(NETWORK_MODELS)]
