"""Retry schedule: exponential backoff with deterministic jitter.

The campaign runner retries a failed candidate a bounded number of times,
sleeping an exponentially growing delay between attempts, with a little
jitter so that many retried candidates do not come due in lockstep.  The
jitter here is *deterministic* — seeded from ``(JITTER_SEED, key,
attempt)`` — so retry schedules are reproducible run to run and testable
to the exact float.  :func:`backoff_delay` is the schedule; only its base
delay varies between callers.
"""

from __future__ import annotations

import random

#: Growth of the delay per attempt.
FACTOR = 2.0

#: Cap on the delay before jitter, in seconds.
MAX_DELAY = 30.0

#: Largest jitter, as a fraction of the delay.
JITTER = 0.25

#: Seed of the jitter draws.
JITTER_SEED = 0


def backoff_delay(base: float, attempt: int, key: str = "") -> float:
    """The deterministic sleep before retry ``attempt`` (1-based: the
    sleep after the ``attempt``-th failure), ``base`` seconds at first:

        ``min(MAX_DELAY, base * FACTOR**(attempt-1)) * (1 + JITTER * u)``

    where ``u`` is a uniform [0, 1) draw seeded by ``(JITTER_SEED, key,
    attempt)`` — deterministic per retrier and attempt, decorrelated
    across retriers via ``key``.  Seeding :class:`random.Random` with a
    string hashes it through SHA-512, which is stable across processes
    and ``PYTHONHASHSEED`` values — unlike ``hash()`` — so the jitter
    sequence is reproducible anywhere.
    """
    if attempt < 1:
        raise ValueError(f"attempt must be >= 1, got {attempt}")
    delay = min(MAX_DELAY, base * FACTOR ** (attempt - 1))
    if delay == 0:
        return delay
    u = random.Random(f"{JITTER_SEED}:{key}:{attempt}").random()
    return delay * (1.0 + JITTER * u)
