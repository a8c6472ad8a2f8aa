"""Retry with exponential backoff + jitter, and deadline propagation.

The runtime's failure taxonomy has three tiers:

1. **deterministic task errors** (a solver ``ValueError``, a bad
   instance): retrying replays the same failure -- never retried;
2. **transient infrastructure failures** (a ``BrokenProcessPool`` after
   a worker crash, an injected I/O fault): retrying
   against healthy infrastructure usually succeeds -- retried with
   exponential backoff and seeded jitter, bounded by the caller's
   deadline;
3. **deadline exhaustion**: the client's time budget is spent --
   surfaced as :class:`DeadlineExceededError` immediately, because a
   retry nobody is waiting for is pure waste.

:func:`classify` implements the taxonomy; :class:`RetryPolicy` holds
the backoff schedule.  Jitter is seeded (each policy instance draws
from its own ``random.Random``), so two runs of the same chaos test
sleep the same amounts -- determinism is a feature even in failure
handling.

Deadlines are absolute ``time.monotonic()`` timestamps, computed once
at the edge (the HTTP handler's ``request_timeout``) and passed *down*
through batcher -> executor -> pool.  Every layer shrinks its own
timeout to the remaining budget, so retries can never stretch a
request past what the client agreed to wait.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Optional

from repro.obs import events as obs_events
from repro.obs.registry import get_registry

_RETRIES_HELP = "Transient-failure retries attempted, by site"
_EXHAUSTED_HELP = "Retry budgets exhausted (the error propagated), by site"


class DeadlineExceededError(TimeoutError):
    """The caller's time budget is spent; do not retry, answer now."""


def remaining_budget(deadline: Optional[float]) -> Optional[float]:
    """Seconds left until ``deadline`` (monotonic), or ``None`` if
    unbounded; raises :class:`DeadlineExceededError` once it is gone."""
    if deadline is None:
        return None
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise DeadlineExceededError(
            f"deadline exceeded by {-remaining:.3f}s"
        )
    return remaining


def is_retryable(error: BaseException) -> bool:
    """Tier 2 of the taxonomy: transient infrastructure failures.

    Deliberately narrower than the pool's own serial-fallback
    classification (:func:`repro.runtime.pool._is_task_error` treats
    any ``OSError`` as infrastructural): a retry re-runs work, so only
    failure modes with a credible transient story qualify -- broken
    pools (a worker crashed) and injected I/O faults (transient by
    construction).  Deadline
    exhaustion is explicitly *not* retryable.
    """
    from concurrent.futures.process import BrokenProcessPool

    from repro.faults.injector import InjectedFaultError

    if isinstance(error, DeadlineExceededError):
        return False
    return isinstance(
        error,
        (
            BrokenProcessPool,
            InjectedFaultError,
            ConnectionResetError,
            BrokenPipeError,
        ),
    )


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with seeded jitter.

    Attempt ``k`` (0-based) sleeps ``base_delay * multiplier**k``
    capped at ``max_delay``, then jittered down by up to ``jitter``
    (a fraction): the sleep lands in ``[raw * (1 - jitter), raw]``.
    Jittering *down* keeps the policy's worst-case wall time equal to
    the un-jittered schedule, which is what deadline math wants.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError(
                f"multiplier must be >= 1, got {self.multiplier}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def rng(self) -> random.Random:
        """A fresh seeded jitter stream (one per retry loop)."""
        return random.Random(self.seed)

    def backoff(self, attempt: int, rng: random.Random) -> float:
        """The sleep before retry number ``attempt`` (0-based)."""
        raw = min(self.max_delay, self.base_delay * self.multiplier**attempt)
        if self.jitter == 0.0 or raw == 0.0:
            return raw
        return raw * (1.0 - self.jitter * rng.random())


#: The serving stack's default: three attempts, 50 ms first backoff.
DEFAULT_RETRY = RetryPolicy()


def record_retry(site: str, attempt: int, error: BaseException) -> None:
    """Count + narrate one retry decision."""
    get_registry().counter(
        "repro_retry_attempts_total", _RETRIES_HELP, site=site
    ).inc()
    obs_events.emit(
        "runtime.retry",
        site=site,
        attempt=attempt,
        error=type(error).__name__,
    )


def record_exhausted(site: str, error: BaseException) -> None:
    """Count + narrate a retry budget running out."""
    get_registry().counter(
        "repro_retry_exhausted_total", _EXHAUSTED_HELP, site=site
    ).inc()
    obs_events.emit(
        "runtime.retry_exhausted", site=site, error=type(error).__name__
    )
