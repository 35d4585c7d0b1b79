"""Fig. 9 — photo-upload times, ADSL vs one and two phones (§5.2).

The paper uploads a 30-photo set (2.5 MB ± 0.74 MB) at the five evaluation
locations, phones starting from idle. The constrained ADSL uplinks
(0.58-2.77 Mbps) make the gains large: one device cuts total upload time
by 31-75% (×1.5-×4.0), two devices by 54-84% (×2.2-×6.2), and gains are
not proportional to the device count. §5 pools them into "uploads up to
×6 faster".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.experiments import wild
from repro.experiments.formatting import fmt, render_table
from repro.experiments.registry import Check, experiment, jsonable
from repro.netsim.topology import EVALUATION_LOCATIONS, LocationProfile
from repro.traces.pictures import generate_photo_set
from repro.util.stats import RunningStats

PHONE_COUNTS: Tuple[int, ...] = (0, 1, 2)  # 0 = ADSL alone


@dataclass(frozen=True)
class UploadTimesResult:
    """Mean upload time per (location, phone count)."""

    times: Dict[Tuple[str, int], float]

    def time(self, location: str, n_phones: int) -> float:
        """One bar of the figure (seconds)."""
        return self.times[(location, n_phones)]

    def speedup(self, location: str, n_phones: int) -> float:
        """ADSL time over 3GOL time for a phone count."""
        return self.time(location, 0) / self.time(location, n_phones)

    def reduction_percent(self, location: str, n_phones: int) -> float:
        """Percentage reduction relative to ADSL alone."""
        base = self.time(location, 0)
        return 100.0 * (base - self.time(location, n_phones)) / base

    def max_speedup(self) -> float:
        """§5's "up to" upload speedup: the best 3GOL bar."""
        return max(
            self.speedup(loc, n) for (loc, n) in self.times if n > 0
        )

    def to_dict(self) -> dict:
        """JSON-ready payload of every field (``repro run --json``)."""
        return jsonable(self)

    def render(self) -> str:
        """One row per location, then the §5 maximum."""
        locations = sorted({loc for loc, _ in self.times})
        rows = [
            [location]
            + [fmt(self.times[(location, n)], 0) for n in PHONE_COUNTS]
            for location in locations
        ]
        bars = render_table(
            ["location", "ADSL (s)", "1PH (s)", "2PH (s)"],
            rows,
            title="Fig. 9 — total upload time of 30 photos",
        )
        headline = render_table(
            ["metric", "measured", "paper"],
            [("max upload speedup", fmt(self.max_speedup()), "x6")],
            title="§5 — upload speedup",
        )
        return bars + "\n\n" + headline


_LOCATIONS = ("loc1", "loc2", "loc3", "loc4", "loc5")


@experiment(
    "fig09",
    title="Fig. 9 — upload times (30 photos)",
    description="photo-upload times (Fig. 9)",
    paper_ref="Fig. 9",
    claims=(
        "Paper: ADSL 183-894 s; one device x1.5-x4.0, two devices "
        "x2.2-x6.2; gains sublinear in devices; §5 quotes uploads up "
        "to x6 faster.\n"
        "Measured: ADSL ~210-1000 s; x1.4-x3.3 and x1.7-x5.3; "
        "sublinear. The closest quantitative match of the §5 "
        "experiments, since uplink is dominated by the (faithful) "
        "ADSL asymmetry."
    ),
    bench_params={"repetitions": 4},
    quick_params={"repetitions": 1},
    checks=(
        Check("one_phone_speedup_1_25_to_4_5",
              "Fig. 9: uploads speed up x1.5-x4.0 with one device",
              lambda r: all(1.25 < r.speedup(loc, 1) < 4.5
                            for loc in _LOCATIONS)),
        Check("two_phone_speedup_1_6_to_7",
              "Fig. 9: uploads speed up x2.2-x6.2 with two devices",
              lambda r: all(1.6 < r.speedup(loc, 2) < 7.0
                            for loc in _LOCATIONS)),
        Check("gains_sublinear",
              "Fig. 9: the gain is sublinear in the number of devices",
              lambda r: all(r.speedup(loc, 2) < 2.0 * r.speedup(loc, 1)
                            for loc in _LOCATIONS)),
        Check("slow_uplink_600_to_1200_s",
              "Fig. 9: 30 photos take hundreds of seconds on ~0.6 Mbps",
              lambda r: 600.0 < r.time("loc5", 0) < 1200.0),
        Check("max_upload_speedup_2_to_7",
              "§5: uploads up to x6 faster",
              lambda r: 2.0 < r.max_speedup() < 7.0),
    ),
    order=110,
)
def run(
    locations: Sequence[LocationProfile] = EVALUATION_LOCATIONS,
    repetitions: int = 5,
    photo_count: int = 30,
) -> UploadTimesResult:
    """Upload the photo set at every location with 0/1/2 phones."""
    times: Dict[Tuple[str, int], float] = {}
    for location in locations:
        for n_phones in PHONE_COUNTS:
            stats = RunningStats()
            for seed in range(repetitions):
                photos = generate_photo_set(count=photo_count, seed=seed)
                session = wild.make_session(
                    location, n_phones=max(n_phones, 1), seed=seed
                )
                report = session.upload_photos(
                    photos,
                    use_3gol=n_phones > 0,
                    max_phones=n_phones or None,
                )
                stats.add(report.total_time)
            times[(location.name, n_phones)] = stats.mean
    return UploadTimesResult(times=times)
