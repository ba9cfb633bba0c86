"""PaRSEC-like runtime simulator: machine model, engine, policies, networks.

The layers compose left to right: a :class:`Machine` prices tile kernels
and network hardware, a :class:`~repro.runtime.network.NetworkModel`
prices inter-node messages (``uniform`` legacy flat cost or
``alpha-beta`` message-level fidelity), a
:class:`~repro.runtime.policies.SchedulingPolicy` orders the ready queue,
and the :class:`~repro.runtime.engine.SimulationEngine` replays a compiled
:class:`~repro.ir.program.Program` through all three, running the one
replay kernel (:class:`~repro.runtime.replay.PreparedReplay`) that the
scenario driver shares.  The simulate backend's one driver,
:func:`repro.runtime.simulator.simulate`, runs a resolved plan through
the stack and prices the schedule into the GE2BND / GE2VAL results the
paper's figures report; ``repro.execute`` is the front door to it, and
``repro.execute_sweep`` calls ``execute`` once per plan.  On top,
:mod:`~repro.runtime.scenario` layers machine realism — heterogeneity,
fault models, network noise — and replays the same program across
Monte-Carlo draws into a
:class:`~repro.runtime.scenario.MakespanDistribution`.
"""

from repro.runtime.machine import Machine
from repro.runtime.engine import (
    SimulationEngine,
    critical_path_seconds,
    serial_seconds,
)
from repro.runtime.network import (
    NETWORK_MODELS,
    AlphaBetaNetwork,
    NetworkModel,
    UniformNetwork,
    available_networks,
    get_network_model,
)
from repro.runtime.policies import (
    POLICIES,
    SchedulingPolicy,
    available_policies,
    get_policy,
)
from repro.runtime.scheduler import Schedule
from repro.runtime.replay import PreparedReplay
from repro.runtime.simulator import SimulationResult
from repro.runtime.faults import (
    FAULT_MODELS,
    NOISE_MODELS,
    FailStopFaults,
    FaultModel,
    LinkJitterNoise,
    NoFaults,
    NoiseModel,
    NoNoise,
    StragglerFaults,
    available_fault_models,
    available_noise_models,
    get_fault_model,
    get_noise_model,
)
from repro.runtime.scenario import (
    SCENARIOS,
    MakespanDistribution,
    Scenario,
    available_scenarios,
    get_scenario,
    run_scenario,
)

__all__ = [
    "AlphaBetaNetwork",
    "FAULT_MODELS",
    "FailStopFaults",
    "FaultModel",
    "LinkJitterNoise",
    "Machine",
    "MakespanDistribution",
    "NETWORK_MODELS",
    "NOISE_MODELS",
    "NetworkModel",
    "NoFaults",
    "NoNoise",
    "NoiseModel",
    "POLICIES",
    "PreparedReplay",
    "SCENARIOS",
    "Scenario",
    "Schedule",
    "SchedulingPolicy",
    "SimulationEngine",
    "SimulationResult",
    "StragglerFaults",
    "UniformNetwork",
    "available_fault_models",
    "available_networks",
    "available_noise_models",
    "available_policies",
    "available_scenarios",
    "critical_path_seconds",
    "get_fault_model",
    "get_network_model",
    "get_noise_model",
    "get_policy",
    "get_scenario",
    "run_scenario",
    "serial_seconds",
]
