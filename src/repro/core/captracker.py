"""Device-side cap tracking (§6).

In the multi-provider architecture "the component running on the cellular
device can track 3GOL data usage U(t) and estimate the 3GOL allowance
3GOLa(t). If the available quota A(t) = 3GOLa(t) − U(t) is greater than
zero, the device advertises itself. […] Thus, we need no input from the
network."

:class:`CapTracker` is that component: it holds the device's daily budget,
meters every byte the 3GOL proxy moves, and answers the single question the
discovery layer asks — *may this device advertise right now?*
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional

from repro.util.validate import check_non_negative

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.obs.capture import Instrumentation

_SECONDS_PER_DAY = 86_400.0


@dataclass
class CapTracker:
    """Tracks 3GOL usage against a per-day budget, with daily reset.

    Safe under concurrent mutation: the simulator meters from a single
    engine thread, but the long-running onload service meters many
    relay flows against one shared tracker at once, so every read and
    write of the counters goes through an internal lock. The lock adds
    no nondeterminism in sim mode — with one thread the interleaving is
    unchanged.
    """

    daily_budget_bytes: float
    #: Usage already metered today (bytes).
    used_today_bytes: float = 0.0
    #: Day index (simulation time // 86400) the counter belongs to.
    current_day: int = 0
    #: Total usage per day index, kept for analysis.
    usage_by_day: Dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_non_negative("daily_budget_bytes", self.daily_budget_bytes)
        check_non_negative("used_today_bytes", self.used_today_bytes)
        # Instrumentation and the lock live in instance attributes (not
        # dataclass fields) so serializers walking `dataclasses.fields`
        # never see the handles.
        self._obs: Optional["Instrumentation"] = None
        self._obs_device: str = ""
        self._lock = threading.RLock()

    def bind_obs(
        self, obs: Optional["Instrumentation"], device: str = ""
    ) -> None:
        """Attach an instrumentation handle, labelled with ``device``.

        The :class:`~repro.core.resilience.FlowLedger` binds each
        tracker it meters so metered bytes and remaining quota surface as
        ``cap.metered_bytes`` / ``cap.available_bytes``.
        """
        self._obs = obs
        self._obs_device = device

    def _roll(self, now: float) -> None:
        day = int(now // _SECONDS_PER_DAY)
        if day != self.current_day:
            if day < self.current_day:
                raise ValueError("time went backwards in CapTracker")
            self.current_day = day
            self.used_today_bytes = 0.0

    def available_bytes(self, now: float) -> float:
        """A(t): remaining 3GOL quota for the current day."""
        with self._lock:
            self._roll(now)
            return max(
                0.0, self.daily_budget_bytes - self.used_today_bytes
            )

    def may_advertise(self, now: float) -> bool:
        """Paper rule: advertise iff A(t) > 0."""
        return self.available_bytes(now) > 0.0

    def record_usage(self, nbytes: float, now: float) -> None:
        """Meter ``nbytes`` of 3GOL traffic at time ``now``.

        Usage may overshoot the budget: the device only *stops offering*
        once over budget, it does not abort an in-flight transfer (same as
        the prototype). The overshoot shows up in ``usage_by_day``.
        """
        check_non_negative("nbytes", nbytes)
        with self._lock:
            self._roll(now)
            self.used_today_bytes += nbytes
            day = self.current_day
            self.usage_by_day[day] = (
                self.usage_by_day.get(day, 0.0) + nbytes
            )
            remaining = max(
                0.0, self.daily_budget_bytes - self.used_today_bytes
            )
        if self._obs is not None:
            self._obs.count(
                "cap.metered_bytes", amount=nbytes, device=self._obs_device
            )
            self._obs.gauge(
                "cap.available_bytes",
                remaining,
                device=self._obs_device,
            )

    @property
    def total_used_bytes(self) -> float:
        """All 3GOL bytes ever metered by this tracker."""
        with self._lock:
            return sum(self.usage_by_day.values())
