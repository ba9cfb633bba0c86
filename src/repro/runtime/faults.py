"""Pluggable fault and network-noise models for scenario simulation.

The deterministic engine prices every op with one nominal duration and
every message with one nominal wire time.  Real machines are messier:
cores fail mid-kernel and re-execute, background daemons turn a kernel
into a straggler, links jitter.  This module provides the stochastic
*perturbation* layer of :mod:`repro.runtime.scenario`, modeled on the
pluggable ``FaultModel`` hierarchy of the slp framework (see PAPERS.md):

* a :class:`FaultModel` turns an rng into a ``(n_draws, n_ops)`` matrix of
  **duration factors** — op ``j`` in draw ``i`` runs for
  ``nominal * factors[i, j]`` seconds — plus a per-draw fault-event count
  for the observability histograms;
* a :class:`NoiseModel` does the same for **wire-time factors**: every
  message carrying op ``j``'s output in draw ``i`` spends
  ``nominal_wire * factors[i, j]`` seconds on the wire (NIC injection
  occupancy stays nominal — noise models the link, not the sender).

Every factor is ``>= 1.0`` by construction.  That invariant is what keeps
the analytic ``max(critical path, area)`` lower bound of
:meth:`~repro.runtime.engine.SimulationEngine.lower_bound` valid on every
draw (perturbations only ever slow a schedule down), so the
``robust-makespan`` tuning objective can keep pruning.  Models are frozen
dataclasses: hashable (they ride on frozen
:class:`~repro.runtime.scenario.Scenario` instances and tuning cache keys)
and reproducible (all randomness flows through the caller's seeded
generator; the models themselves hold no state).

Registries follow :mod:`repro.runtime.network`: look a model up by name
through :func:`get_fault_model` / :func:`get_noise_model`, optionally with
constructor overrides (``get_fault_model("fail-stop", prob=0.01)``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple, Type, Union

import numpy as np

__all__ = [
    "FAULT_MODELS",
    "NOISE_MODELS",
    "FailStopFaults",
    "FaultModel",
    "LinkJitterNoise",
    "NoFaults",
    "NoNoise",
    "NoiseModel",
    "StragglerFaults",
    "available_fault_models",
    "available_noise_models",
    "fail_stop_factors",
    "get_fault_model",
    "get_noise_model",
]


def _validate_probability(prob: float, what: str) -> None:
    if not 0.0 <= prob <= 1.0:
        raise ValueError(f"{what} must be in [0, 1], got {prob}")


def _validate_positive(value: float, what: str) -> None:
    if not value > 0.0 or not np.isfinite(value):
        raise ValueError(f"{what} must be a positive finite number, got {value}")


# --------------------------------------------------------------------------- #
# Fault models: per-op duration factors
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class FaultModel:
    """Base class: how faults turn into per-op duration factors.

    Subclasses set :attr:`name` / :attr:`description` and implement
    :meth:`sample`.  The base class is the identity model (no faults).
    """

    #: Registry name (e.g. ``"fail-stop"``); also used by the CLI.
    name = "none"
    #: One-line description for ``repro scenarios``.
    description = "no faults: every op runs at its nominal duration"

    @property
    def deterministic(self) -> bool:
        """Whether :meth:`sample` always returns all-ones factors."""
        return True

    def sample(
        self, rng: np.random.Generator, n_draws: int, n_ops: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Draw duration factors and fault-event counts.

        Returns ``(factors, events)``: ``factors`` has shape
        ``(n_draws, n_ops)`` with every entry ``>= 1.0``; ``events`` has
        shape ``(n_draws,)`` and counts the fault events of each draw
        (for the ``engine.mc.fault_events`` histogram).  Implementations
        must consume randomness from ``rng`` in a fixed, documented order
        so a given seed always produces the same draws.
        """
        return (
            np.ones((n_draws, n_ops), dtype=np.float64),
            np.zeros(n_draws, dtype=np.int64),
        )

    def spec(self) -> Tuple:
        """Hashable identity of this model (for tuning cache keys)."""
        return (type(self).__name__,) + tuple(
            sorted(self.__dict__.items())
        )


@dataclass(frozen=True)
class NoFaults(FaultModel):
    """The identity model, registered under ``"none"``."""


def fail_stop_factors(counts: np.ndarray, rework: float) -> np.ndarray:
    """Duration factors of ops that failed ``counts`` times each.

    A fail-stop fault loses the in-flight execution; recovery re-runs the
    op, paying ``rework`` extra nominal durations per failure (``rework =
    1.0`` means a clean from-scratch re-execution; smaller values model
    checkpoint restart).  Exposed as a pure function so tests can inject
    exact fault counts without touching an rng.
    """
    return 1.0 + rework * np.asarray(counts, dtype=np.float64)


@dataclass(frozen=True)
class FailStopFaults(FaultModel):
    """Fail-stop faults with re-execution cost.

    Each op execution independently fails with probability ``prob``; a
    failed execution is retried until it succeeds, so the number of
    failures per op is geometric with mean ``prob / (1 - prob)`` and the
    realized duration is ``nominal * (1 + rework * n_failures)``.
    """

    name = "fail-stop"
    description = (
        "each op execution fails w.p. prob and re-executes (geometric "
        "retries), paying rework extra nominal durations per failure"
    )

    prob: float = 0.01
    rework: float = 1.0

    def __post_init__(self) -> None:
        _validate_probability(self.prob, "fail-stop fault probability")
        if self.prob >= 1.0:
            raise ValueError("fail-stop prob must be < 1 (an op must be able to finish)")
        _validate_positive(self.rework, "fail-stop rework cost")

    @property
    def deterministic(self) -> bool:
        return self.prob == 0.0

    def sample(
        self, rng: np.random.Generator, n_draws: int, n_ops: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        if self.prob == 0.0:
            return FaultModel.sample(self, rng, n_draws, n_ops)
        # One geometric block draw: numpy's geometric counts trials to the
        # first success (>= 1), so failures-before-success is that minus 1.
        failures = rng.geometric(1.0 - self.prob, size=(n_draws, n_ops)) - 1
        return (
            fail_stop_factors(failures, self.rework),
            failures.sum(axis=1).astype(np.int64),
        )


@dataclass(frozen=True)
class StragglerFaults(FaultModel):
    """Straggler slowdowns: rare ops run a random factor slower.

    Each op independently straggles with probability ``prob``; a straggler
    runs ``1 + Exponential(scale)`` times its nominal duration.  The
    conditional excess ``factor - 1`` is exactly ``Exponential(scale)``
    (mean ``scale``), which gives the statistical tests a closed-form
    distribution to validate against.
    """

    name = "straggler"
    description = (
        "each op straggles w.p. prob, running 1 + Exp(scale) times its "
        "nominal duration"
    )

    prob: float = 0.05
    scale: float = 0.5

    def __post_init__(self) -> None:
        _validate_probability(self.prob, "straggler probability")
        _validate_positive(self.scale, "straggler scale")

    @property
    def deterministic(self) -> bool:
        return self.prob == 0.0

    def sample(
        self, rng: np.random.Generator, n_draws: int, n_ops: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        if self.prob == 0.0:
            return FaultModel.sample(self, rng, n_draws, n_ops)
        # Fixed consumption order: the straggle mask first, then the
        # excess draws (always n_draws * n_ops of each, so the stream
        # position never depends on the outcomes).
        straggles = rng.random((n_draws, n_ops)) < self.prob
        excess = rng.exponential(self.scale, size=(n_draws, n_ops))
        factors = 1.0 + np.where(straggles, excess, 0.0)
        return factors, straggles.sum(axis=1).astype(np.int64)


# --------------------------------------------------------------------------- #
# Noise models: per-message wire-time factors
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class NoiseModel:
    """Base class: how network noise turns into wire-time factors.

    The factor matrix is indexed like the fault factors — entry
    ``[draw, op]`` multiplies the wire time of every message carrying op
    ``op``'s output in that draw.  The base class is the identity model.
    """

    name = "none"
    description = "no network noise: every message takes its nominal wire time"

    @property
    def deterministic(self) -> bool:
        return True

    def sample(
        self, rng: np.random.Generator, n_draws: int, n_ops: int
    ) -> np.ndarray:
        """Wire-time factors, shape ``(n_draws, n_ops)``, every entry >= 1."""
        return np.ones((n_draws, n_ops), dtype=np.float64)

    def spec(self) -> Tuple:
        return (type(self).__name__,) + tuple(sorted(self.__dict__.items()))


@dataclass(frozen=True)
class NoNoise(NoiseModel):
    """The identity model, registered under ``"none"``."""


@dataclass(frozen=True)
class LinkJitterNoise(NoiseModel):
    """Half-normal multiplicative link jitter.

    Each message's wire time is stretched by ``exp(sigma * |Z|)`` with
    ``Z`` standard normal — always ``>= 1`` (contention and retransmits
    only ever delay a message), median ``exp(sigma * 0.674)``.
    """

    name = "link-jitter"
    description = (
        "each message's wire time stretches by exp(sigma * |N(0,1)|) "
        "(always >= 1; models link contention bursts)"
    )

    sigma: float = 0.25

    def __post_init__(self) -> None:
        _validate_positive(self.sigma, "link-jitter sigma")

    @property
    def deterministic(self) -> bool:
        return False

    def sample(
        self, rng: np.random.Generator, n_draws: int, n_ops: int
    ) -> np.ndarray:
        return np.exp(self.sigma * np.abs(rng.standard_normal((n_draws, n_ops))))


# --------------------------------------------------------------------------- #
# Registries (the network-model pattern: name -> class, get_* to coerce)
# --------------------------------------------------------------------------- #
#: Name -> fault model class.  Instantiate via :func:`get_fault_model`.
FAULT_MODELS: Dict[str, Type] = {
    cls.name: cls for cls in (NoFaults, FailStopFaults, StragglerFaults)
}

#: Name -> noise model class.  Instantiate via :func:`get_noise_model`.
NOISE_MODELS: Dict[str, Type] = {
    cls.name: cls for cls in (NoNoise, LinkJitterNoise)
}


def _get_model(registry: Dict[str, Type], kind: str, model, kwargs):
    if not isinstance(model, str):
        if kwargs:
            raise ValueError(
                f"keyword arguments only apply when the {kind} model is "
                f"given by name; got an instance of {type(model).__name__} "
                f"plus {sorted(kwargs)}"
            )
        return model
    try:
        cls = registry[model.strip().lower()]
    except KeyError:
        raise ValueError(
            f"unknown {kind} model {model!r}; available: {sorted(registry)}"
        ) from None
    return cls(**kwargs)


def get_fault_model(model: Union[str, FaultModel], **kwargs):
    """Coerce a name or instance to a fault model."""
    return _get_model(FAULT_MODELS, "fault", model, kwargs)


def get_noise_model(model: Union[str, NoiseModel], **kwargs):
    """Coerce a name or instance to a noise model."""
    return _get_model(NOISE_MODELS, "noise", model, kwargs)


def available_fault_models() -> List[Tuple[str, str]]:
    """``(name, description)`` pairs, sorted by name (for the CLI listing)."""
    return [(name, FAULT_MODELS[name].description) for name in sorted(FAULT_MODELS)]


def available_noise_models() -> List[Tuple[str, str]]:
    """``(name, description)`` pairs, sorted by name (for the CLI listing)."""
    return [(name, NOISE_MODELS[name].description) for name in sorted(NOISE_MODELS)]
