"""Per-flow admission control and backpressure.

The pool is bounded twice: ``max_active`` flows may be in flight and at
most ``max_queued`` more may *wait* for a slot, for at most
``queue_timeout_s``. Everything beyond that is shed immediately with an
explicit decision — the service never queues unboundedly, so overload
degrades to fast 503s instead of collapsing into ever-growing latency:
explicit shedding, never unbounded queueing.

Shed reasons form a tiny vocabulary of their own (they label the
``service.shed`` metric and the detail of ``overload-shed``
degradations): ``overload`` (pool and queue both full),
``queue-timeout`` (a slot never freed up in time), ``draining`` (the
service is shutting down).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "SHED_DRAINING",
    "SHED_OVERLOAD",
    "SHED_QUEUE_TIMEOUT",
]

SHED_OVERLOAD = "overload"
SHED_QUEUE_TIMEOUT = "queue-timeout"
SHED_DRAINING = "draining"


@dataclass(frozen=True)
class AdmissionDecision:
    """The controller's answer for one flow."""

    admitted: bool
    #: Shed reason when refused (empty when admitted).
    reason: str = ""


class AdmissionController:
    """Bounded flow pool with a bounded, deadline-bounded wait queue."""

    def __init__(
        self,
        max_active: int,
        max_queued: int = 0,
        queue_timeout_s: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_active < 1:
            raise ValueError(f"max_active must be >= 1, got {max_active}")
        if max_queued < 0:
            raise ValueError(f"max_queued must be >= 0, got {max_queued}")
        if queue_timeout_s < 0.0:
            raise ValueError("queue_timeout_s must be >= 0")
        self.max_active = max_active
        self.max_queued = max_queued
        self.queue_timeout_s = queue_timeout_s
        self._clock = clock
        self._lock = threading.Lock()
        self._freed = threading.Condition(self._lock)
        self._active = 0
        self._queued = 0
        self._draining = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def active(self) -> int:
        """Flows currently holding a pool slot."""
        with self._lock:
            return self._active

    @property
    def queued(self) -> int:
        """Flows currently waiting for a slot."""
        with self._lock:
            return self._queued

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def _grant(self) -> AdmissionDecision:
        self._active += 1
        return AdmissionDecision(admitted=True)

    def try_admit(self) -> AdmissionDecision:
        """Decide one flow; may block up to ``queue_timeout_s``.

        Never blocks longer: a flow either gets a slot, or an explicit
        shed decision with a reason.
        """
        deadline = self._clock() + self.queue_timeout_s
        with self._freed:
            if self._draining:
                return AdmissionDecision(False, SHED_DRAINING)
            if self._active < self.max_active:
                return self._grant()
            if self._queued >= self.max_queued:
                return AdmissionDecision(False, SHED_OVERLOAD)
            self._queued += 1
            try:
                while True:
                    if self._draining:
                        return AdmissionDecision(False, SHED_DRAINING)
                    if self._active < self.max_active:
                        return self._grant()
                    remaining = deadline - self._clock()
                    if remaining <= 0.0:
                        return AdmissionDecision(False, SHED_QUEUE_TIMEOUT)
                    self._freed.wait(remaining)
            finally:
                self._queued -= 1

    def release(self) -> None:
        """Return an admitted flow's slot to the pool."""
        with self._freed:
            if self._active <= 0:
                raise RuntimeError("release() without a matching admit")
            self._active -= 1
            self._freed.notify_all()

    # ------------------------------------------------------------------
    # Drain
    # ------------------------------------------------------------------
    def begin_drain(self) -> None:
        """Stop admitting: queued flows shed now, new flows shed fast."""
        with self._freed:
            self._draining = True
            self._freed.notify_all()

    def wait_idle(self, timeout: float) -> bool:
        """Block until no flow holds a slot; False on timeout."""
        deadline = self._clock() + timeout
        with self._freed:
            while self._active > 0:
                remaining = deadline - self._clock()
                if remaining <= 0.0:
                    return False
                self._freed.wait(remaining)
            return True
