"""Typed error taxonomy and retry policy for the serving layer.

Fault-tolerant serving needs to distinguish *how* an operation failed before
deciding what to do about it:

* :class:`TransientServingError` — the operation may succeed if repeated
  (a flaky disk, an injected I/O fault).  The scheduler retries these with
  capped exponential backoff and deterministic jitter
  (:class:`RetryPolicy`), and only dead-letters a request once the retry
  budget is exhausted.
* :class:`PermanentServingError` — repeating cannot help (a deadline
  already blown, a request poisoned by repeated failures).  These go
  straight to the dead-letter queue.

Everything derives from :class:`ServingError` so callers can catch the whole
family, and *injected* faults share the same taxonomy as real ones — the
code under test cannot tell chaos from genuine hardware misbehaviour.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.rng import as_generator


class ServingError(RuntimeError):
    """Base class of every typed serving-layer failure."""


class TransientServingError(ServingError):
    """A failure that may resolve on retry (I/O hiccup, injected fault)."""


class PermanentServingError(ServingError):
    """A failure retrying cannot fix; the request is dead-lettered."""


class StoreIOError(TransientServingError):
    """An adapter-store disk operation failed (real or injected)."""


class InjectedFaultError(TransientServingError):
    """A transient fault raised by the fault-injection harness."""


class DeadlineExceededError(PermanentServingError):
    """A request blew its per-request deadline and must not be retried."""


class PoisonRequestError(PermanentServingError):
    """A request that exhausted its retry budget on transient failures."""


#: Backoff before the first retry, in seconds; each further retry doubles it
#: (:data:`BACKOFF_MULTIPLIER`) up to :data:`MAX_RETRY_DELAY`.
BASE_RETRY_DELAY = 0.005
BACKOFF_MULTIPLIER = 2.0
MAX_RETRY_DELAY = 0.1
#: Largest fraction of a delay the jitter removes.
RETRY_JITTER = 0.5


@dataclass
class RetryPolicy:
    """Capped exponential backoff with deterministic jitter.

    ``max_attempts`` counts the first try: ``max_attempts=3`` means one
    initial attempt plus at most two retries.  The ``attempt``-th retry
    sleeps ``BASE_RETRY_DELAY * BACKOFF_MULTIPLIER**(attempt-1)`` seconds
    (capped at ``MAX_RETRY_DELAY``: 5, 10, 20, 40, 80, 100, 100 ... ms),
    scaled down by up to ``RETRY_JITTER`` drawn from the *caller's* seeded
    generator — so two runs from the same seed retry on an identical
    schedule, which keeps chaos runs digest-stable.
    """

    max_attempts: int = 3

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")

    def delay(self, attempt: int, rng=None) -> float:
        """Backoff before retry number ``attempt`` (1-based), with jitter."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        raw = min(BASE_RETRY_DELAY * BACKOFF_MULTIPLIER ** (attempt - 1), MAX_RETRY_DELAY)
        fraction = float(as_generator(rng).random()) if rng is not None else 0.0
        return raw * (1.0 - RETRY_JITTER * fraction)
