"""Extension: covering the playout phase (§4.1.1 future work).

The paper's scheduler optimises the whole transaction; during *playout*
what matters is that each segment arrives before the playhead needs it.
This experiment streams a video whose bitrate is close to the ADSL line's
capacity — the regime where the unassisted player stalls — and compares
viewer-experience metrics (startup delay, stall count, stall time) for:

* the sequential player on ADSL alone;
* 3GOL with the paper's greedy scheduler (GRD);
* 3GOL with the deadline-aware extension (DLN), which duplicates the
  segment the player is about to need instead of the oldest one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from repro.core.items import Transaction, TransferItem
from repro.core.playback import PlayoutSimulator, completion_times_from_result
from repro.core.scheduler import make_policy
from repro.core.scheduler.runner import TransactionRunner
from repro.core.scheduler.deadline import attach_deadlines
from repro.experiments.formatting import fmt, render_table
from repro.experiments.registry import Check, experiment, jsonable
from repro.netsim.topology import Household, HouseholdConfig, LocationProfile
from repro.util.stats import RunningStats
from repro.util.units import kbps, mbps
from repro.web.hls import VideoAsset, VideoQuality

#: A line *below* the video bitrate: a 1.5 Mbps rendition on a 1.1 Mbps
#: line cannot stream unassisted (the regime that motivates onloading),
#: and even with one variable phone the aggregate occasionally dips, so
#: the scheduling policy visibly matters.
LOCATION = LocationProfile(
    name="playout-home",
    description="Playout-extension testbed (tight ADSL)",
    adsl_down_bps=mbps(1.1),
    adsl_up_bps=mbps(0.3),
    signal_dbm=-85.0,
    peak_utilization=0.5,
    measurement_hour=21.0,
)

CONFIGS = ("ADSL", "GRD", "DLN")


def make_tight_video() -> VideoAsset:
    """A 200 s rendition at 1.5 Mbps — above the line's 1.1 Mbps."""
    return VideoAsset(
        "tight",
        duration_s=200.0,
        segment_s=10.0,
        qualities=(VideoQuality("HD", kbps(1500.0)),),
    )


@dataclass(frozen=True)
class PlayoutCell:
    """Viewer metrics for one configuration."""

    startup_delay_s: float
    stall_count: float
    stall_time_s: float
    smooth_fraction: float


@dataclass(frozen=True)
class PlayoutComparisonResult:
    """Metrics per configuration."""

    cells: Dict[str, PlayoutCell]

    def to_dict(self) -> dict:
        """JSON-ready payload of every field (``repro run --json``)."""
        return jsonable(self)

    def render(self) -> str:
        """The comparison table."""
        rows = [
            (
                config,
                fmt(cell.startup_delay_s, 1),
                fmt(cell.stall_count, 1),
                fmt(cell.stall_time_s, 1),
                f"{cell.smooth_fraction:.0%}",
            )
            for config, cell in (
                (c, self.cells[c]) for c in CONFIGS
            )
        ]
        return render_table(
            [
                "configuration",
                "startup (s)",
                "stalls",
                "stall time (s)",
                "smooth runs",
            ],
            rows,
            title=(
                "Extension §4.1.1 — playout-phase metrics, 1.5 Mbps video "
                "on a 1.1 Mbps line (1 phone)"
            ),
        )


@experiment(
    "ext-playout",
    title="Extension §4.1.1 — playout-phase coverage",
    description="extension: playout-phase coverage",
    paper_ref="§4.1.1",
    claims=(
        "Paper (future work): extend the scheduler over the playout "
        "phase.\n"
        "Measured: a 1.5 Mbps rendition on a 1.1 Mbps line stalls "
        "~16 times unassisted; 3GOL (GRD or the deadline-aware DLN) "
        "plays it smoothly with ~2x faster startup."
    ),
    bench_params={"seeds": (0, 1, 2, 3, 4, 5, 6, 7)},
    quick_params={"seeds": (0, 1)},
    checks=(
        Check("adsl_alone_stalls",
              "§4.1.1: a rendition above the line rate stalls on ADSL",
              lambda r: r.cells["ADSL"].stall_count > 3),
        Check("onload_plays_smoothly",
              "§4.1.1 (future work): cover the playout phase too",
              lambda r: all(r.cells[c].stall_time_s < 5.0
                            for c in ("GRD", "DLN"))),
        Check("onload_starts_faster",
              "Fig. 7: 3GOL shortens the pre-buffering phase",
              lambda r: all(r.cells[c].startup_delay_s
                            < r.cells["ADSL"].startup_delay_s
                            for c in ("GRD", "DLN"))),
        Check("deadline_never_worse",
              "§4.1.1: a deadline-aware scheduler for the playout phase",
              lambda r: r.cells["DLN"].stall_time_s
              <= r.cells["GRD"].stall_time_s + 2.0),
    ),
    order=200,
)
def run(
    seeds: Sequence[int] = tuple(range(8)),
    prebuffer_fraction: float = 0.1,
) -> PlayoutComparisonResult:
    """Stream the tight video under each configuration."""
    video = make_tight_video()
    playlist = video.playlists["HD"]
    cells: Dict[str, PlayoutCell] = {}
    for config in CONFIGS:
        startup = RunningStats()
        stall_count = RunningStats()
        stall_time = RunningStats()
        smooth = RunningStats()
        for seed in seeds:
            household = Household(
                LOCATION, HouseholdConfig(n_phones=1, seed=seed)
            )
            items = attach_deadlines(
                [
                    TransferItem(
                        s.uri,
                        s.size_bytes,
                        {"index": s.index, "duration_s": s.duration_s},
                    )
                    for s in playlist.segments
                ]
            )
            if config == "ADSL":
                paths = [household.adsl_down_path()]
                policy = make_policy("GRD")
            else:
                paths = household.download_paths(n_phones=1)
                policy = make_policy(config)
            runner = TransactionRunner(household.network, paths, policy)
            result = runner.run(Transaction(items, name=f"{config}-{seed}"))
            report = PlayoutSimulator(
                playlist, prebuffer_fraction=prebuffer_fraction
            ).replay(completion_times_from_result(result))
            startup.add(report.startup_delay)
            stall_count.add(report.stall_count)
            stall_time.add(report.total_stall_time)
            smooth.add(1.0 if report.smooth else 0.0)
        cells[config] = PlayoutCell(
            startup_delay_s=startup.mean,
            stall_count=stall_count.mean,
            stall_time_s=stall_time.mean,
            smooth_fraction=smooth.mean,
        )
    return PlayoutComparisonResult(cells=cells)
