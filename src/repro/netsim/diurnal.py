"""Diurnal traffic profiles.

Fig. 1 of the paper plots normalized 24-hour traffic volume on a cellular
network and on a DSLAM and makes two observations that 3GOL relies on:
cellular traffic is strongly diurnal (so there *are* off-peak windows), and
the two peaks are not aligned (mobile peaks during the day/evening commute,
wired peaks late in the evening). The profiles below are parametric curves
with those shapes; they drive both the Fig. 1 reproduction and the
free-capacity modulation of cellular links in the throughput experiments.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence, Tuple

from repro.util.validate import check_fraction

_SECONDS_PER_HOUR = 3600.0
_HOURS_PER_DAY = 24


class DiurnalProfile:
    """A periodic 24-hour profile defined by hourly samples.

    Values are normalized so the peak is 1.0; between hourly samples the
    profile is interpolated linearly (periodically, so hour 23 connects
    back to hour 0).
    """

    def __init__(self, hourly: Sequence[float], name: str = "profile") -> None:
        if len(hourly) != _HOURS_PER_DAY:
            raise ValueError(
                f"need {_HOURS_PER_DAY} hourly samples, got {len(hourly)}"
            )
        values = [float(v) for v in hourly]
        if any(v < 0.0 for v in values):
            raise ValueError("hourly samples must be non-negative")
        peak = max(values)
        if peak <= 0.0:
            raise ValueError("profile must have a positive peak")
        self.name = name
        self.hourly = tuple(v / peak for v in values)

    def value_at_hour(self, hour: float) -> float:
        """Interpolated normalized value at fractional ``hour`` of day."""
        hour = hour % _HOURS_PER_DAY
        low = int(math.floor(hour))
        high = (low + 1) % _HOURS_PER_DAY
        frac = hour - low
        return self.hourly[low] * (1.0 - frac) + self.hourly[high] * frac

    def value_at(self, time_seconds: float) -> float:
        """Interpolated normalized value at simulation time (s since 00:00)."""
        return self.value_at_hour(time_seconds / _SECONDS_PER_HOUR)

    @property
    def peak_hour(self) -> int:
        """Hour (0-23) of the maximum sample."""
        return max(range(_HOURS_PER_DAY), key=lambda h: self.hourly[h])

    @property
    def trough_hour(self) -> int:
        """Hour (0-23) of the minimum sample."""
        return min(range(_HOURS_PER_DAY), key=lambda h: self.hourly[h])

    def free_capacity_curve(
        self, peak_utilization: float
    ) -> Callable[[float], float]:
        """Return ``f(t) -> fraction of capacity free`` at time ``t``.

        The network is assumed ``peak_utilization`` loaded at the profile's
        peak and proportionally less elsewhere: the curve returned is
        ``1 - peak_utilization * value_at(t)``, which modulates a cell
        link's available capacity.
        """
        peak_utilization = check_fraction("peak_utilization", peak_utilization)

        def free(time_seconds: float) -> float:
            return 1.0 - peak_utilization * self.value_at(time_seconds)

        return free


def _bump(hour: float, center: float, width: float) -> float:
    """Periodic Gaussian bump on the 24-hour circle."""
    delta = min(abs(hour - center), _HOURS_PER_DAY - abs(hour - center))
    return math.exp(-0.5 * (delta / width) ** 2)


def _build(
    name: str,
    base: float,
    bumps: Sequence[Tuple[float, float, float]],
) -> DiurnalProfile:
    hourly = []
    for hour in range(_HOURS_PER_DAY):
        value = base
        for center, width, weight in bumps:
            value += weight * _bump(float(hour), center, width)
        hourly.append(value)
    return DiurnalProfile(hourly, name=name)


#: Cellular data traffic: ramps up with the morning commute, stays high
#: through the working day, peaks in the early evening (~18h), deep trough
#: around 04h. Matches the diurnal shape of Fig. 1 and [Sommers-Barford].
MOBILE_PROFILE = _build(
    "mobile",
    base=0.15,
    bumps=[(12.0, 3.5, 0.55), (18.0, 2.5, 0.85), (9.0, 1.5, 0.30)],
)

#: Residential wired traffic: quiet during the working day, steep evening
#: peak around 21-22h when households stream video. Matches Fig. 1's wired
#: curve (peak later than mobile).
WIRED_PROFILE = _build(
    "wired",
    base=0.12,
    bumps=[(21.5, 2.2, 1.0), (13.0, 3.0, 0.25)],
)
