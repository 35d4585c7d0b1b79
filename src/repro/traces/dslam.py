"""Synthetic DSLAM flow-level trace (§6, Fig. 11).

The paper's trace covers "all subscribers connected to one DSLAM in a
major European city" over 24 hours (April 2011), with 3 Mbps ADSL lines.
Reported statistics, all matched by this generator:

* 68% of subscribers watched at least one video;
* a video user views 14.12 videos/day on average (median 6, sd 30.13) —
  a lognormal count fits those three moments almost exactly;
* video sizes average ~50 MB (the paper cites [Finamore et al.]);
* request times follow the residential wired diurnal profile (Fig. 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.netsim.diurnal import WIRED_PROFILE, DiurnalProfile
from repro.util.rng import SeedLike, spawn_rng
from repro.util.units import MB, mbps

#: Line speed of the §6 trace.
DSLAM_ADSL_DOWN_BPS = mbps(3.0)

#: Videos-per-day lognormal: median 6 => mu = ln 6; mean 14.12 =>
#: sigma^2 = 2 ln(14.12/6). This also lands the sd near the reported 30.13.
_VIDEOS_MU = math.log(6.0)
_VIDEOS_SIGMA = math.sqrt(2.0 * math.log(14.12 / 6.0))

#: Fraction of subscribers with at least one video session.
VIDEO_USER_FRACTION = 0.68

#: Video size lognormal: mean 50 MB. The spread (sigma 0.35 in log space,
#: median ~47 MB) is calibrated jointly with the video-count distribution
#: so the Fig. 11a speedup CDF matches the paper's tail: only ~5% of users
#: have so little daily demand that the 40 MB budget doubles their speed.
_SIZE_SIGMA = 0.35
_SIZE_MU = math.log(50.0 * MB) - _SIZE_SIGMA**2 / 2.0

_SECONDS_PER_DAY = 86_400.0


@dataclass(frozen=True)
class VideoRequest:
    """One HTTP video session from the trace."""

    user_id: str
    time_s: float
    size_bytes: float
    url: str


@dataclass(frozen=True)
class DslamTrace:
    """The 24-hour trace: subscribers and their video requests."""

    n_subscribers: int
    requests: Tuple[VideoRequest, ...]
    adsl_down_bps: float = DSLAM_ADSL_DOWN_BPS

    @property
    def video_users(self) -> Tuple[str, ...]:
        """Ids of subscribers with at least one video request."""
        return tuple(sorted({r.user_id for r in self.requests}))

    def requests_by_user(self) -> dict:
        """Requests grouped per user, each list time-ordered."""
        grouped: dict = {}
        for request in self.requests:
            grouped.setdefault(request.user_id, []).append(request)
        for requests in grouped.values():
            requests.sort(key=lambda r: r.time_s)
        return grouped

    def hourly_volume_bytes(self) -> np.ndarray:
        """Requested video bytes per hour of day (24 bins)."""
        volumes = np.zeros(24)
        for request in self.requests:
            hour = int(request.time_s // 3600) % 24
            volumes[hour] += request.size_bytes
        return volumes


#: Draw counts from which the hour bins are found by counting edges
#: rather than by binary search (see :func:`_sample_request_times`).
_COUNT_EDGES_MIN = 1024


def _sample_request_times(
    count: int, profile: DiurnalProfile, rng: np.random.Generator
) -> np.ndarray:
    """Draw request times over the day, weighted by the diurnal profile.

    Each time is an hour bin drawn by profile weight plus a uniform
    offset within the hour. The hour draw is exactly
    ``rng.choice(24, size=count, p=weights)``: the same cdf
    (``cumsum``, then ``/= cdf[-1]``), the same ``rng.random(count)``
    draws, and the bin ``cdf.searchsorted(u, side="right")``, which is
    by definition the number of edges ``cdf[:-1]`` at or below ``u``
    (``cdf[-1]`` is 1.0, above every draw). From ``_COUNT_EDGES_MIN``
    draws on, that count is 23 dense comparisons, several times faster
    than numpy's per-draw binary search. Below it, the fixed cost of 23
    numpy calls outweighs the search, so ``searchsorted`` runs as
    ``choice`` would run it, minus ``choice``'s checks of ``p``: it
    rejects negative or all-zero weights, which
    :class:`DiurnalProfile` already does.
    """
    weights = np.array(profile.hourly, dtype=float)
    weights = weights / weights.sum()
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    u = rng.random(count)
    hours: np.ndarray
    if count < _COUNT_EDGES_MIN:
        hours = cdf.searchsorted(u, side="right")
    else:
        hours = np.zeros(count, dtype=np.uint8)
        for edge in cdf[:-1]:
            hours += u >= edge
    return hours * 3600.0 + rng.uniform(0.0, 3600.0, size=count)


def generate_dslam_trace(
    n_subscribers: int = 2000,
    seed: SeedLike = 0,
    profile: DiurnalProfile = WIRED_PROFILE,
    max_videos_per_user: int = 400,
    min_videos_per_user: int = 2,
) -> DslamTrace:
    """Generate one synthetic DSLAM day.

    ``n_subscribers`` defaults to 2 000 rather than the paper's 18 000 to
    keep experiment runtimes sensible; every §6 analysis is per-user or
    per-byte normalised, so the population size only affects smoothing.
    ``min_videos_per_user`` defaults to 2: a "video user" in the paper's
    24-hour trace almost never has a single session, and the floor is what
    keeps the Fig. 11a speedup tail (users whose whole demand fits the
    budget) at the paper's ~5% rather than inflated by one-video users.
    """
    if n_subscribers < 1:
        raise ValueError(f"n_subscribers must be >= 1, got {n_subscribers}")
    rng = spawn_rng(seed)
    requests: List[VideoRequest] = []
    n_video_users = int(round(n_subscribers * VIDEO_USER_FRACTION))
    for i in range(n_video_users):
        user_id = f"dsl-{i:05d}"
        count = int(
            np.clip(
                round(float(rng.lognormal(_VIDEOS_MU, _VIDEOS_SIGMA))),
                min_videos_per_user,
                max_videos_per_user,
            )
        )
        times = _sample_request_times(count, profile, rng)
        sizes = rng.lognormal(_SIZE_MU, _SIZE_SIGMA, size=count)
        for k in range(count):
            requests.append(
                VideoRequest(
                    user_id=user_id,
                    time_s=float(times[k] % _SECONDS_PER_DAY),
                    size_bytes=float(sizes[k]),
                    url=f"http://video.example/{user_id}/{k}",
                )
            )
    requests.sort(key=lambda r: (r.time_s, r.user_id))
    return DslamTrace(n_subscribers=n_subscribers, requests=tuple(requests))
