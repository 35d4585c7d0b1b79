"""Fig. 11 (b) — load 3GOL puts on the cellular network (§6).

Over the DSLAM trace (a population matching two cell towers' coverage,
§2.1), the onloaded traffic is computed in 5-minute bins for two regimes:
budgeted (first eligible video per user-day, at most 40 MB) and unbudgeted
(full cellular share of every video). Paper claims: without caps the 3G
network "will be guaranteed to be overloaded"; within caps the additional
load is reasonable (the budgeted curve stays below the 2 × 40 Mbps
backhaul line); the average budgeted user onloads 29.78 MB/day.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.load import OnloadLoadSeries, onloaded_load_series
from repro.experiments.formatting import fmt, render_table
from repro.experiments.registry import Check, experiment, jsonable
from repro.traces.dslam import generate_dslam_trace
from repro.util.units import bits_to_bytes, bytes_to_megabytes, rate_to_mbps


@dataclass(frozen=True)
class OnloadLoadResult:
    """The two load series plus summary claims."""

    series: OnloadLoadSeries
    mean_onload_mb_per_user: float
    n_video_users: int

    def to_dict(self) -> dict:
        """JSON-ready payload of every field (``repro run --json``)."""
        return jsonable(self)

    def render(self) -> str:
        """Hourly maxima of both regimes against the capacity line."""
        bins_per_hour = int(3600 / self.series.bin_seconds)
        rows = []
        for hour in range(24):
            lo = hour * bins_per_hour
            hi = lo + bins_per_hour
            rows.append(
                (
                    hour,
                    fmt(rate_to_mbps(max(self.series.budgeted_bps[lo:hi])), 1),
                    fmt(
                        rate_to_mbps(max(self.series.unbudgeted_bps[lo:hi])), 1
                    ),
                )
            )
        backhaul_mbps = rate_to_mbps(self.series.backhaul_bps)
        table = render_table(
            ["hour", "budgeted peak (Mbps)", "unbudgeted peak (Mbps)"],
            rows,
            title=(
                "Fig. 11b — onloaded cellular load "
                f"(backhaul capacity {backhaul_mbps:.0f} Mbps)"
            ),
        )
        claims = (
            "\nbudgeted peak: "
            f"{rate_to_mbps(self.series.budgeted_peak_bps):.1f} Mbps"
            f" | unbudgeted peak: "
            f"{rate_to_mbps(self.series.unbudgeted_peak_bps):.1f} Mbps"
            f"\nbudgeted bins over capacity: "
            f"{self.series.budgeted_overload_fraction():.1%}"
            f" | unbudgeted bins over capacity: "
            f"{self.series.unbudgeted_overload_fraction():.1%}"
            f"\nmean onload per user-day (budgeted): "
            f"{self.mean_onload_mb_per_user:.1f} MB (paper: 29.78 MB)"
        )
        return table + claims


@experiment(
    "fig11b",
    title="Fig. 11b — onloaded load vs backhaul",
    description="onloaded load vs backhaul (Fig. 11b)",
    paper_ref="Fig. 11b",
    claims=(
        "Paper: unbudgeted 3GOL overloads the 2x40 Mbps backhaul; "
        "budgeted stays reasonable; 29.78 MB/day mean onload.\n"
        "Measured: budgeted never exceeds capacity, unbudgeted peaks "
        "at ~2x capacity; 29.3 MB/day mean onload."
    ),
    bench_params={"n_subscribers": 2000, "seed": 0},
    quick_params={"n_subscribers": 300},
    checks=(
        Check("budgeted_fits_backhaul",
              "Fig. 11b: budgeted load stays under the 2x40 Mbps backhaul",
              lambda r: r.series.budgeted_overload_fraction() == 0.0),
        Check("unbudgeted_overloads_backhaul",
              "Fig. 11b: uncapped, 3G 'will be guaranteed to be overloaded'",
              lambda r: r.series.unbudgeted_peak_bps > r.series.backhaul_bps,
              quick=False),
        Check("mean_onload_near_29_78_mb",
              "Fig. 11b: the average user onloads 29.78 MB/day",
              lambda r: abs(r.mean_onload_mb_per_user - 29.78) <= 5.0),
    ),
    order=140,
)
def run(n_subscribers: int = 2000, seed: int = 0) -> OnloadLoadResult:
    """Generate the trace and compute both load series."""
    trace = generate_dslam_trace(n_subscribers=n_subscribers, seed=seed)
    series = onloaded_load_series(trace)
    total_budgeted_bytes = float(
        bits_to_bytes(series.budgeted_bps * series.bin_seconds).sum()
    )
    n_video_users = len(trace.video_users)
    return OnloadLoadResult(
        series=series,
        mean_onload_mb_per_user=bytes_to_megabytes(
            total_budgeted_bytes / n_video_users
        ),
        n_video_users=n_video_users,
    )
