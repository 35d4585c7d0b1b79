"""Service lifecycle: the state machine and deadline budgets.

The long-running onload service moves through exactly four states::

    starting -> serving -> draining -> stopped
        \\__________________________/^
         (a service that fails to start stops directly)

:class:`Lifecycle` enforces those edges under a lock; the service
journals every transition it makes as a ``service.state`` event.
:class:`Deadline` is the service's time budget primitive: a monotonic
expiry that clamps per-read socket timeouts (via
:func:`repro.proto.httpwire.clamp_timeout`) and renders itself into the
propagated deadline header.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

from repro.proto import httpwire

__all__ = [
    "DRAINING",
    "Deadline",
    "Lifecycle",
    "LifecycleError",
    "SERVING",
    "STARTING",
    "STOPPED",
]

STARTING = "starting"
SERVING = "serving"
DRAINING = "draining"
STOPPED = "stopped"

#: Legal edges of the state machine.
_TRANSITIONS = {
    STARTING: frozenset({SERVING, STOPPED}),
    SERVING: frozenset({DRAINING}),
    DRAINING: frozenset({STOPPED}),
    STOPPED: frozenset(),
}


class LifecycleError(RuntimeError):
    """An illegal lifecycle transition was attempted."""


class Lifecycle:
    """Thread-safe service state machine."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._state = STARTING

    @property
    def state(self) -> str:
        """The current lifecycle state."""
        with self._lock:
            return self._state

    def transition(self, to: str) -> str:
        """Move to state ``to``; returns the state left.

        Raises :class:`LifecycleError` for an edge the machine does not
        have — a double drain, serving after stop, and so on — so a
        lifecycle bug fails loudly instead of leaving a half-stopped
        service.
        """
        with self._lock:
            allowed = _TRANSITIONS.get(self._state, frozenset())
            if to not in allowed:
                raise LifecycleError(
                    f"illegal transition {self._state!r} -> {to!r}"
                )
            previous = self._state
            self._state = to
            return previous


class Deadline:
    """A monotonic time budget, propagated hop to hop.

    ``Deadline(None)`` is the unbounded budget: never expired, clamps
    nothing, renders no header. The budget is a local one or a peer's
    propagated header value (:func:`repro.proto.httpwire.parse_deadline`).
    """

    def __init__(
        self,
        budget_s: Optional[float],
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._clock = clock
        self._expires_at = (
            None if budget_s is None else clock() + budget_s
        )

    def remaining(self) -> Optional[float]:
        """Seconds left in the budget (``None``: unbounded)."""
        if self._expires_at is None:
            return None
        return self._expires_at - self._clock()

    @property
    def expired(self) -> bool:
        """True once the budget is spent."""
        remaining = self.remaining()
        return remaining is not None and remaining <= 0.0

    def clamp(self, timeout: float) -> float:
        """Bound a per-read socket timeout by the remaining budget."""
        return httpwire.clamp_timeout(timeout, self.remaining())

    def header_value(self) -> Optional[str]:
        """The value to forward in the deadline header, or ``None``."""
        remaining = self.remaining()
        if remaining is None:
            return None
        return f"{remaining:.3f}"
