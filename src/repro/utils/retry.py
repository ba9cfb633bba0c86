"""Bounded retry schedule: exponential backoff with deterministic jitter.

The campaign runner retries a failed candidate a bounded number of times,
sleeping an exponentially growing delay between attempts, with a little
jitter so that many retried candidates do not come due in lockstep.  The
jitter here is *deterministic* — seeded from ``(jitter_seed, key,
attempt)`` — so retry schedules are reproducible run to run and testable
to the exact float.  :class:`RetryPolicy` holds the schedule's settings
and :func:`backoff_delay` is the pure schedule.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class RetryPolicy:
    """Schedule of one bounded-retry loop.

    ``attempts`` is the total number of tries (1 = no retry).  The delay
    before retry ``k`` (1-based: the sleep after the ``k``-th failure) is

        ``min(max_delay, backoff * factor**(k-1)) * (1 + jitter * u)``

    where ``u`` is a uniform [0, 1) draw seeded by ``(jitter_seed, key,
    k)`` — deterministic per retrier and attempt, decorrelated across
    retriers via ``key``.
    """

    attempts: int = 3
    backoff: float = 0.1
    factor: float = 2.0
    max_delay: float = 30.0
    jitter: float = 0.25
    jitter_seed: int = 0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")
        if self.backoff < 0 or self.max_delay < 0:
            raise ValueError("backoff and max_delay must be >= 0")
        if self.factor < 1.0:
            raise ValueError(f"factor must be >= 1, got {self.factor}")
        if self.jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")


def backoff_delay(policy: RetryPolicy, attempt: int, key: str = "") -> float:
    """The deterministic sleep before retry ``attempt`` (1-based).

    Seeding :class:`random.Random` with a string hashes it through
    SHA-512, which is stable across processes and ``PYTHONHASHSEED``
    values — unlike ``hash()`` — so the jitter sequence is reproducible
    anywhere.
    """
    if attempt < 1:
        raise ValueError(f"attempt must be >= 1, got {attempt}")
    base = min(policy.max_delay, policy.backoff * policy.factor ** (attempt - 1))
    if policy.jitter == 0 or base == 0:
        return base
    u = random.Random(f"{policy.jitter_seed}:{key}:{attempt}").random()
    return base * (1.0 + policy.jitter * u)
