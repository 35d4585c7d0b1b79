"""Fig. 1 — traffic pattern over a day on cellular and wired networks.

The paper's figure plots normalized hourly volume for a 3G network and a
DSLAM and draws two conclusions 3GOL rests on: the cellular network has a
strong diurnal pattern (so off-peak capacity exists) and the two peaks are
not aligned. Here the wired series comes from the synthetic DSLAM trace's
actual video request volumes and the mobile series from the 3G web-traffic
generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.experiments.formatting import fmt, render_table
from repro.experiments.registry import Check, experiment, jsonable
from repro.netsim.diurnal import MOBILE_PROFILE
from repro.traces.dslam import generate_dslam_trace
from repro.traces.webtraffic import hourly_volume_series, normalized
from repro.util.units import GB


@dataclass(frozen=True)
class DiurnalResult:
    """The two normalized 24-hour series and their peak structure."""

    mobile: Tuple[float, ...]
    wired: Tuple[float, ...]

    @property
    def mobile_peak_hour(self) -> int:
        """Hour of the cellular network's peak."""
        return int(np.argmax(self.mobile))

    @property
    def wired_peak_hour(self) -> int:
        """Hour of the wired network's peak."""
        return int(np.argmax(self.wired))

    @property
    def peak_misalignment_hours(self) -> int:
        """Circular distance between the two peaks (hours)."""
        delta = abs(self.mobile_peak_hour - self.wired_peak_hour)
        return min(delta, 24 - delta)

    @property
    def mobile_peak_to_trough(self) -> float:
        """Peak/trough ratio of the cellular series (diurnality strength)."""
        trough = min(self.mobile)
        return max(self.mobile) / trough if trough > 0 else float("inf")

    def to_dict(self) -> dict:
        """JSON-ready payload of every field (``repro run --json``)."""
        return jsonable(self)

    def render(self) -> str:
        """Table of both normalized series by hour."""
        rows = [
            (hour, fmt(self.mobile[hour]), fmt(self.wired[hour]))
            for hour in range(24)
        ]
        return render_table(
            ["hour", "mobile (norm)", "wired (norm)"],
            rows,
            title="Fig. 1 — normalized daily traffic, cellular vs wired",
        )


@experiment(
    "fig01",
    title="Fig. 1 — diurnal traffic, cellular vs wired",
    description="diurnal wired vs mobile traffic (Fig. 1)",
    paper_ref="Fig. 1",
    claims=(
        "Paper: cellular traffic is strongly diurnal; the wired and "
        "mobile peaks are not aligned.\n"
        "Measured: mobile peaks at 18h, wired at 21-22h (3-4 h apart); "
        "mobile peak/trough ratio > 2."
    ),
    bench_params={"seed": 0, "n_subscribers": 1500},
    quick_params={"n_subscribers": 300},
    checks=(
        Check("peaks_misaligned",
              "Fig. 1: the cellular and wired peaks are not aligned",
              lambda r: r.peak_misalignment_hours >= 2),
        Check("mobile_diurnal",
              "Fig. 1: cellular traffic has a strong diurnal pattern",
              lambda r: r.mobile_peak_to_trough > 2.0),
    ),
    order=10,
)
def run(seed: int = 0, n_subscribers: int = 1000) -> DiurnalResult:
    """Generate one day of both networks and normalize."""
    mobile_series = hourly_volume_series(
        total_daily_bytes=1.0 * GB,
        profile=MOBILE_PROFILE,
        noise_sigma=0.05,
        seed=seed,
    )
    trace = generate_dslam_trace(n_subscribers=n_subscribers, seed=seed)
    wired_series = trace.hourly_volume_bytes()
    return DiurnalResult(
        mobile=tuple(normalized(mobile_series)),
        wired=tuple(normalized(wired_series)),
    )
