"""Scenario simulation: heterogeneity, faults, and Monte-Carlo makespans.

The deterministic engine answers "how fast is this plan on an ideal
machine?".  A :class:`Scenario` asks the operational question instead:
*how fast is it on a machine whose cores differ, fail, and straggle, over
a noisy network?*  It bundles

* **speed heterogeneity** — per-node and per-core slowdown patterns
  applied to :class:`~repro.runtime.machine.Machine` (block-cyclically
  cycled over the actual node/core counts, so one named scenario works on
  any machine size);
* a **fault model** (:mod:`repro.runtime.faults`) drawing per-op duration
  factors: fail-stop re-execution, straggler slowdowns;
* a **noise model** drawing per-message wire-time factors layered on any
  network model (uniform or alpha-beta).

Stochastic scenarios run in **Monte-Carlo mode**: all perturbation
factors are sampled vectorized up front — one ``(n_draws, n_ops)`` matrix
per model from a single seeded generator — and one prepared replay of the
kernel (:class:`~repro.runtime.replay.PreparedReplay`, the event loop
every simulation path runs) is run once per draw with that draw's factor
rows, producing a :class:`MakespanDistribution` (mean / p50 / p95 / CI)
next to the nominal schedule.  A scenario whose every factor is ``1.0``
reproduces :meth:`~repro.runtime.engine.SimulationEngine.run` bit for
bit — the property the zero-perturbation tests pin.

Two modeling decisions worth knowing:

* **priorities are nominal.**  Policy rank keys are computed from the
  unperturbed duration vector: the scheduler ranks ops by its *model* of
  the machine and cannot foresee faults, exactly like a real list
  scheduler.  This also lets every draw share one memoized order, so the
  per-draw marginal cost is one event loop and nothing else.
* **all factors are >= 1.**  Slowdowns, fault factors and noise factors
  only ever delay; the nominal analytic lower bound therefore bounds
  every draw, which keeps the tuner's pruning sound for
  ``robust-makespan``.

Observability: every Monte-Carlo run reports ``engine.mc.draws`` /
``engine.mc.runs`` counters and an ``engine.mc.fault_events`` per-draw
histogram into :data:`repro.obs.metrics.REGISTRY`.  Under
``REPRO_VERIFY=1`` the nominal schedule — and the first draw of a
noise-free stochastic scenario — is re-checked by the static verifier
with the realized durations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.ir.program import Program
from repro.obs.metrics import REGISTRY
from repro.obs.tracer import current_tracer
from repro.runtime.faults import (
    FailStopFaults,
    FaultModel,
    LinkJitterNoise,
    NoFaults,
    NoiseModel,
    NoNoise,
    StragglerFaults,
    get_fault_model,
    get_noise_model,
)
from repro.runtime.machine import Machine
from repro.runtime.replay import PreparedReplay
from repro.runtime.scheduler import Schedule

__all__ = [
    "SCENARIOS",
    "MakespanDistribution",
    "Scenario",
    "ScenarioRun",
    "available_scenarios",
    "get_scenario",
    "run_scenario",
]


# --------------------------------------------------------------------------- #
# Makespan distributions
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class MakespanDistribution:
    """Summary of the makespans of one Monte-Carlo scenario run.

    Quantiles use numpy's default linear interpolation; ``ci95_low`` /
    ``ci95_high`` is the normal-approximation 95% confidence interval on
    the *mean* (±1.96 standard errors).  The raw per-draw makespans ride
    along (``makespans``, draw order = sampling order) so callers can
    compute any other statistic without re-simulating; two distributions
    are equal iff every draw agrees bitwise, which is what the seeded
    determinism tests compare.
    """

    n_draws: int
    seed: int
    mean: float
    std: float
    p5: float
    p50: float
    p95: float
    ci95_low: float
    ci95_high: float
    min: float
    max: float
    makespans: Tuple[float, ...] = field(repr=False)

    @classmethod
    def from_makespans(
        cls, makespans: Sequence[float], seed: int
    ) -> "MakespanDistribution":
        arr = np.asarray(makespans, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("from_makespans needs a non-empty 1-D sequence")
        n = int(arr.size)
        mean = float(arr.mean())
        std = float(arr.std(ddof=1)) if n > 1 else 0.0
        half = 1.96 * std / math.sqrt(n)
        p5, p50, p95 = (float(x) for x in np.quantile(arr, (0.05, 0.5, 0.95)))
        return cls(
            n_draws=n,
            seed=int(seed),
            mean=mean,
            std=std,
            p5=p5,
            p50=p50,
            p95=p95,
            ci95_low=mean - half,
            ci95_high=mean + half,
            min=float(arr.min()),
            max=float(arr.max()),
            makespans=tuple(arr.tolist()),
        )

    def quantile(self, q: float) -> float:
        """Empirical quantile of the draw makespans (linear interpolation)."""
        return float(np.quantile(np.asarray(self.makespans), q))

    def shifted(self, delta: float) -> "MakespanDistribution":
        """This distribution translated by a deterministic ``delta`` seconds.

        Used to stack the (deterministic, single-node) GE2VAL
        post-processing stages onto a GE2BND distribution: every location
        statistic shifts, the spread statistics do not.
        """
        return replace(
            self,
            mean=self.mean + delta,
            p5=self.p5 + delta,
            p50=self.p50 + delta,
            p95=self.p95 + delta,
            ci95_low=self.ci95_low + delta,
            ci95_high=self.ci95_high + delta,
            min=self.min + delta,
            max=self.max + delta,
            makespans=tuple(m + delta for m in self.makespans),
        )

    def to_row(self) -> Dict[str, float]:
        """Scalar summary for result tables (raw draws excluded)."""
        return {
            "mc_draws": self.n_draws,
            "mc_mean": self.mean,
            "mc_std": self.std,
            "mc_p50": self.p50,
            "mc_p95": self.p95,
        }


# --------------------------------------------------------------------------- #
# Scenarios
# --------------------------------------------------------------------------- #
def _cycle(pattern: Tuple[float, ...], count: int) -> Optional[Tuple[float, ...]]:
    """Expand a slowdown pattern block-cyclically to ``count`` entries.

    Returns ``None`` when the expansion is a no-op (empty or all-ones
    pattern), so homogeneous machines keep ``slowdowns=None`` and share
    the nominal machine's memo entries.
    """
    if not pattern or all(f == 1.0 for f in pattern):
        return None
    return tuple(pattern[i % len(pattern)] for i in range(count))


@dataclass(frozen=True)
class Scenario:
    """One named machine-realism configuration.

    Parameters
    ----------
    name:
        Registry / display name (also what result rows report).
    description:
        One-line summary for ``repro scenarios``.
    node_slowdowns, core_slowdowns:
        Relative speed patterns (``1.0`` = nominal, ``1.25`` = 25%
        slower), cycled block-cyclically over the machine's actual node /
        core count by :meth:`apply_to_machine` — node ``i`` gets
        ``node_slowdowns[i % len]``.  Every factor must be ``>= 1.0``.
    faults, noise:
        Fault / noise model instances or registry names (see
        :mod:`repro.runtime.faults`).
    draws:
        Default Monte-Carlo draw count when the caller does not pass one.
    """

    name: str
    description: str = ""
    node_slowdowns: Tuple[float, ...] = ()
    core_slowdowns: Tuple[float, ...] = ()
    faults: Union[str, FaultModel] = NoFaults()
    noise: Union[str, NoiseModel] = NoNoise()
    draws: int = 64

    def __post_init__(self) -> None:
        for attr in ("node_slowdowns", "core_slowdowns"):
            factors = tuple(float(f) for f in getattr(self, attr))
            for f in factors:
                if not np.isfinite(f) or f < 1.0:
                    raise ValueError(
                        f"{attr} entries must be finite and >= 1.0 "
                        f"(slowdowns only ever slow a core down), got {f}"
                    )
            object.__setattr__(self, attr, factors)
        object.__setattr__(self, "faults", get_fault_model(self.faults))
        object.__setattr__(self, "noise", get_noise_model(self.noise))
        if self.draws < 1:
            raise ValueError(f"draws must be >= 1, got {self.draws}")

    # ------------------------------------------------------------------ #
    @property
    def heterogeneous(self) -> bool:
        """Whether any node/core runs slower than nominal."""
        return any(f != 1.0 for f in self.node_slowdowns + self.core_slowdowns)

    @property
    def stochastic(self) -> bool:
        """Whether Monte-Carlo draws can differ from the nominal run."""
        return not (self.faults.deterministic and self.noise.deterministic)

    @property
    def is_trivial(self) -> bool:
        """Whether this scenario is exactly the ideal deterministic world."""
        return not self.heterogeneous and not self.stochastic

    def fingerprint(self) -> Tuple:
        """Hashable identity (tuning cache keys, dedup)."""
        return (
            self.name,
            self.node_slowdowns,
            self.core_slowdowns,
            self.faults.spec(),
            self.noise.spec(),
        )

    def apply_to_machine(self, machine: Machine) -> Machine:
        """``machine`` with this scenario's slowdown patterns expanded.

        Homogeneous scenarios return ``machine`` unchanged (same object),
        so the zero-perturbation path keeps its memo-table keys.
        """
        if not self.heterogeneous:
            return machine
        return replace(
            machine,
            node_slowdowns=_cycle(self.node_slowdowns, machine.n_nodes),
            core_slowdowns=_cycle(self.core_slowdowns, machine.cores_per_node),
        )


#: Name -> scenario.  Extend via plain dict assignment (tests do).
SCENARIOS: Dict[str, Scenario] = {
    s.name: s
    for s in (
        Scenario(
            name="none",
            description="ideal machine: homogeneous, fault-free, noiseless",
        ),
        Scenario(
            name="hetero",
            description="every other node runs 25% slower",
            node_slowdowns=(1.0, 1.25),
        ),
        Scenario(
            name="slow-core",
            description="one core in four runs 50% slower",
            core_slowdowns=(1.5, 1.0, 1.0, 1.0),
        ),
        Scenario(
            name="fail-stop",
            description="2% fail-stop op failures with full re-execution",
            faults=FailStopFaults(prob=0.02, rework=1.0),
            draws=128,
        ),
        Scenario(
            name="straggler",
            description="5% straggler ops at 1 + Exp(0.5) x nominal",
            faults=StragglerFaults(prob=0.05, scale=0.5),
            draws=128,
        ),
        Scenario(
            name="noisy-net",
            description="link jitter: wire times stretch by exp(0.25 |N|)",
            noise=LinkJitterNoise(sigma=0.25),
            draws=128,
        ),
        Scenario(
            name="hostile",
            description="slow nodes + slow cores + fail-stop faults + jitter",
            node_slowdowns=(1.0, 1.25),
            core_slowdowns=(1.5, 1.0, 1.0, 1.0),
            faults=FailStopFaults(prob=0.02, rework=1.0),
            noise=LinkJitterNoise(sigma=0.25),
            draws=128,
        ),
    )
}


def get_scenario(scenario: Union[str, Scenario, None]) -> Optional[Scenario]:
    """Coerce a name / instance / None to a :class:`Scenario` (or None)."""
    if scenario is None or isinstance(scenario, Scenario):
        return scenario
    try:
        return SCENARIOS[str(scenario).strip().lower()]
    except KeyError:
        raise ValueError(
            f"unknown scenario {scenario!r}; available: {sorted(SCENARIOS)}"
        ) from None


def available_scenarios() -> List[Tuple[str, str]]:
    """``(name, description)`` pairs, sorted by name (for the CLI listing)."""
    return [(name, SCENARIOS[name].description) for name in sorted(SCENARIOS)]


# --------------------------------------------------------------------------- #
# Monte-Carlo driver
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ScenarioRun:
    """Outcome of one scenario simulation.

    ``schedule`` is the *nominal* replay (heterogeneity applied, no
    stochastic perturbations) — the headline makespan; ``distribution``
    summarizes the Monte-Carlo draws, or is ``None`` for deterministic
    scenarios.
    """

    schedule: Schedule
    distribution: Optional[MakespanDistribution] = None


def run_scenario(
    program: Program,
    machine: Machine,
    scenario: Scenario,
    distribution=None,
    *,
    policy="list",
    network="uniform",
    draws: Optional[int] = None,
    seed: int = 0,
) -> ScenarioRun:
    """Simulate ``program`` under ``scenario`` on (a perturbed) ``machine``.

    ``machine`` is the nominal machine; the scenario's slowdown patterns
    are applied here.  Deterministic scenarios return only the nominal
    schedule; stochastic ones add a :class:`MakespanDistribution` over
    ``draws`` Monte-Carlo draws (default: the scenario's own ``draws``)
    seeded by ``seed`` — fault factors are sampled before noise factors,
    always, so a seed identifies its draws regardless of engine path or
    hash seed.  Under an ambient tracer (:mod:`repro.obs`) the nominal
    replay is recorded as an engine run; the draws are not.
    """
    from repro.runtime.engine import SimulationEngine

    eff_machine = scenario.apply_to_machine(machine)
    engine = SimulationEngine(
        eff_machine, distribution, policy=policy, network=network
    )
    replay = PreparedReplay(engine, program)
    tracer = current_tracer()
    if tracer is None:
        nominal = replay.run()
    else:
        # The draws stay unrecorded: their distribution summarizes them.
        state = replay.run_state()
        nominal = state.schedule
        engine._record_run(tracer, replay, state)
    _maybe_verify(replay, nominal, fault_row=None)
    if not scenario.stochastic:
        return ScenarioRun(schedule=nominal)

    n_draws = int(draws) if draws is not None else scenario.draws
    if n_draws < 1:
        raise ValueError(f"draws must be >= 1, got {n_draws}")
    n = len(program)
    rng = np.random.default_rng(seed)
    # Fixed sampling order: faults first, then noise (each model consumes
    # a configuration-determined amount of the stream).
    fault_factors, fault_events = scenario.faults.sample(rng, n_draws, n)
    noise_factors = scenario.noise.sample(rng, n_draws, n)
    fault_trivial = scenario.faults.deterministic
    noise_trivial = scenario.noise.deterministic

    makespans: List[float] = []
    verified = False
    for i in range(n_draws):
        fault_row = None if fault_trivial else fault_factors[i]
        noise_row = None if noise_trivial else noise_factors[i]
        sched = replay.run(fault_row, noise_row)
        if not verified and noise_trivial:
            # One perturbed draw through the static verifier (the noise
            # models reprice wires in ways the verifier's exact network
            # arithmetic cannot re-derive, so noisy draws are skipped).
            _maybe_verify(replay, sched, fault_row=fault_row)
            verified = True
        makespans.append(sched.makespan)
    REGISTRY.inc("engine.mc.runs")
    REGISTRY.inc("engine.mc.draws", n_draws)
    for events in fault_events.tolist():
        REGISTRY.observe("engine.mc.fault_events", events)
    return ScenarioRun(
        schedule=nominal,
        distribution=MakespanDistribution.from_makespans(makespans, seed),
    )


def _maybe_verify(
    replay: PreparedReplay,
    schedule: Schedule,
    *,
    fault_row: Optional[np.ndarray],
) -> None:
    """Re-check one replay under ``REPRO_VERIFY=1`` with realized durations."""
    from repro.verify.hooks import verify_enabled

    if not verify_enabled():
        return
    from repro.verify.hooks import check_schedule

    # The kernel's multiplication chain (base x fault x core factor), in
    # the same order, so the verifier's bitwise ``finish == start +
    # duration`` check holds on perturbed draws.
    realized = replay.durations_np
    if fault_row is not None:
        realized = realized * fault_row
    realized = realized * np.asarray(replay.core_factors)[
        np.asarray(schedule.core_of_task, dtype=np.int64)
    ]
    engine = replay.engine
    check_schedule(
        schedule,
        replay.program,
        engine.machine,
        distribution=engine.distribution,
        network=engine.network,
        durations=realized.tolist(),
    )
