"""Per-household day plans for the pilot.

Workload shape follows the paper's data: video sessions arrive through
the day on the residential diurnal profile (§6's DSLAM statistics, scaled
to a single household's plausible evening), and most households upload a
photo batch once a day, in the evening (the §5.2 use case).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

import numpy as np

from repro.netsim.diurnal import WIRED_PROFILE
from repro.netsim.topology import EVALUATION_LOCATIONS, LocationProfile
from repro.util.rng import SeedLike, spawn_rng

_SECONDS_PER_DAY = 86_400.0

#: Bipbop qualities a household's player picks between.
VIDEO_QUALITIES: Tuple[str, ...] = ("Q1", "Q2", "Q3", "Q4")


@dataclass(frozen=True)
class VideoEvent:
    """One video session: a start time and a chosen rendition."""

    time_s: float
    quality: str


@dataclass(frozen=True)
class PhotoUploadEvent:
    """One photo-batch upload."""

    time_s: float
    photo_count: int


Event = Union[VideoEvent, PhotoUploadEvent]


@dataclass(frozen=True)
class HouseholdPlan:
    """One household's day: where it lives and what it does."""

    household_id: str
    location: LocationProfile
    n_phones: int
    events: Tuple[Event, ...]

    @property
    def upload_events(self) -> Tuple[PhotoUploadEvent, ...]:
        """The plan's upload sessions, time-ordered."""
        return tuple(
            e for e in self.events if isinstance(e, PhotoUploadEvent)
        )


def _sample_times(
    count: int, rng: np.random.Generator
) -> np.ndarray:
    """Event times over the day, on the wired diurnal profile."""
    weights = np.array(WIRED_PROFILE.hourly, dtype=float)
    weights = weights / weights.sum()
    hours = rng.choice(24, size=count, p=weights)
    return np.sort(hours * 3600.0 + rng.uniform(0.0, 3600.0, size=count))


def generate_household_workloads(
    n_households: int = 30,
    seed: SeedLike = 0,
    locations: Sequence[LocationProfile] = EVALUATION_LOCATIONS,
    mean_videos: float = 3.0,
    upload_probability: float = 0.7,
) -> List[HouseholdPlan]:
    """Generate the pilot fleet's day plans.

    ``mean_videos`` is per household per day (Poisson); qualities skew
    toward the higher renditions (households on 3GOL were recruited for
    wanting better video). Uploads, when present, happen in the evening
    with the paper's 30-photo batch size, give or take.
    """
    if n_households < 1:
        raise ValueError(f"n_households must be >= 1, got {n_households}")
    if mean_videos < 0.0:
        raise ValueError(f"mean_videos must be >= 0, got {mean_videos}")
    if not 0.0 <= upload_probability <= 1.0:
        raise ValueError(
            f"upload_probability must be in [0, 1], got {upload_probability}"
        )
    rng = spawn_rng(seed)
    quality_weights = np.array([0.1, 0.2, 0.3, 0.4])
    plans: List[HouseholdPlan] = []
    for index in range(n_households):
        location = locations[int(rng.integers(0, len(locations)))]
        n_phones = int(rng.integers(1, 3))  # 1 or 2 phones at home
        events: List[Event] = []
        n_videos = int(rng.poisson(mean_videos))
        if n_videos > 0:
            times = _sample_times(n_videos, rng)
            qualities = rng.choice(
                VIDEO_QUALITIES, size=n_videos, p=quality_weights
            )
            events.extend(
                VideoEvent(time_s=float(t), quality=str(q))
                for t, q in zip(times, qualities)
            )
        if rng.random() < upload_probability:
            # Evening upload: 19h-23h.
            upload_time = float(rng.uniform(19.0, 23.0) * 3600.0)
            count = int(np.clip(round(rng.normal(30.0, 8.0)), 5, 60))
            events.append(
                PhotoUploadEvent(time_s=upload_time, photo_count=count)
            )
        events.sort(key=lambda e: e.time_s)
        plans.append(
            HouseholdPlan(
                household_id=f"home-{index:02d}",
                location=location,
                n_phones=n_phones,
                events=tuple(events),
            )
        )
    return plans
