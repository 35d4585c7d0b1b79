"""Extension: 3GOL under DSLAM oversubscription.

§2.1 notes that "wired networks tend to be oversubscribed at the access";
the paper never evaluates that regime directly. This experiment does: K
households hang off one DSLAM whose backhaul is oversubscribed, all
streaming at the evening peak, and one of them runs 3GOL. As contention
grows, the wired share per home shrinks while the cellular paths are
unaffected — so 3GOL's relative benefit *grows* with oversubscription,
strengthening the paper's case exactly where DSL hurts most.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.items import Transaction, TransferItem
from repro.core.scheduler import TransactionRunner, make_policy
from repro.experiments.formatting import fmt, render_table
from repro.experiments.registry import Check, experiment, jsonable
from repro.netsim.fluid import Flow
from repro.netsim.link import Link
from repro.netsim.topology import Household, HouseholdConfig, LocationProfile
from repro.util.stats import RunningStats
from repro.util.units import MB, mbps, rate_to_mbps
from repro.web.hls import make_bipbop_video

LOCATION = LocationProfile(
    name="dslam-home",
    description="Oversubscription testbed (3 Mbps ADSL, evening)",
    adsl_down_bps=mbps(3.0),
    adsl_up_bps=mbps(0.4),
    signal_dbm=-84.0,
    peak_utilization=0.55,
    measurement_hour=21.0,
)

#: Number of concurrently-streaming neighbour households.
DEFAULT_NEIGHBOURS: Tuple[int, ...] = (0, 4, 8, 16)
#: DSLAM backhaul serving this neighbourhood segment.
BACKHAUL_BPS = mbps(12.0)


@dataclass(frozen=True)
class ContentionCell:
    """Download times at one contention level."""

    adsl_alone_s: float
    onload_s: float

    @property
    def speedup(self) -> float:
        """ADSL-alone over 3GOL download time."""
        return self.adsl_alone_s / self.onload_s


@dataclass(frozen=True)
class DslamContentionResult:
    """Cells per neighbour count."""

    cells: Dict[int, ContentionCell]
    backhaul_bps: float

    def speedup_grows_with_contention(self) -> bool:
        """The extension's claim."""
        counts = sorted(self.cells)
        speedups = [self.cells[k].speedup for k in counts]
        return speedups[-1] > speedups[0]

    def to_dict(self) -> dict:
        """JSON-ready payload of every field (``repro run --json``)."""
        return jsonable(self)

    def render(self) -> str:
        """One row per contention level."""
        rows = [
            (
                neighbours,
                fmt(cell.adsl_alone_s, 1),
                fmt(cell.onload_s, 1),
                f"x{cell.speedup:.1f}",
            )
            for neighbours, cell in sorted(self.cells.items())
        ]
        return render_table(
            ["neighbours", "ADSL (s)", "3GOL (s)", "speedup"],
            rows,
            title=(
                "Extension — Q4 download under DSLAM oversubscription "
                f"({rate_to_mbps(self.backhaul_bps):.0f} Mbps backhaul, "
                f"2 phones)"
            ),
        )


def _background_traffic(
    household: Household, backhaul: Link, neighbours: int, seed: int
) -> None:
    """Neighbour homes streaming through the shared backhaul.

    Each neighbour is a long-lived flow over its own (identical) ADSL
    line plus the shared backhaul — enough to model the contention
    without simulating whole households.
    """
    for i in range(neighbours):
        line = Link(f"neighbour{i}-adsl", LOCATION.adsl_down_bps)
        household.network.add_flow(
            Flow(
                10_000 * MB,  # effectively endless for the experiment
                [household.origin_down, backhaul, line],
                label=f"neighbour-{i}",
            )
        )


@experiment(
    "ext-dslam",
    title="Extension — DSLAM oversubscription",
    description="extension: DSLAM oversubscription",
    paper_ref="§2.1",
    claims=(
        "Paper (§2.1, unevaluated): wired access is oversubscribed.\n"
        "Measured: with 16 streaming neighbours on a 12 Mbps DSLAM "
        "backhaul, the 3GOL speedup grows from ~x2 to ~x6 — the "
        "benefit is largest exactly where DSL hurts most."
    ),
    bench_params={"seeds": (0, 1, 2)},
    quick_params={"seeds": (0,)},
    checks=(
        Check("speedup_grows_with_contention",
              "§2.1: wired access is oversubscribed; 3GOL helps there",
              lambda r: r.speedup_grows_with_contention()),
        Check("speedup_above_3_with_16_neighbours",
              "§2.1: 16 streaming neighbours on a shared DSLAM backhaul",
              lambda r: r.cells[16].speedup > 3.0),
        Check("speedup_above_1_5_uncontended",
              "Table 2: an uncontended line still gains from 3GOL",
              lambda r: r.cells[0].speedup > 1.5),
    ),
    order=210,
)
def run(
    neighbour_counts: Sequence[int] = DEFAULT_NEIGHBOURS,
    seeds: Sequence[int] = (0, 1, 2),
    quality: str = "Q4",
) -> DslamContentionResult:
    """Measure the 3GOL speedup at each contention level."""
    video = make_bipbop_video()
    playlist = video.playlist(quality)
    items = [
        TransferItem(s.uri, s.size_bytes, {"index": s.index})
        for s in playlist.segments
    ]
    cells: Dict[int, ContentionCell] = {}
    for neighbours in neighbour_counts:
        adsl_stats, onload_stats = RunningStats(), RunningStats()
        for seed in seeds:
            for use_3gol in (False, True):
                household = Household(
                    LOCATION, HouseholdConfig(n_phones=2, seed=seed)
                )
                backhaul = Link("dslam-backhaul", BACKHAUL_BPS)
                _background_traffic(household, backhaul, neighbours, seed)
                # Thread the household's own wired path through the
                # shared backhaul too.
                wired = household.adsl_down_path()
                contended = type(wired)(
                    wired.name,
                    (household.origin_down, backhaul)
                    + tuple(
                        link
                        for link in wired.links
                        if link is not household.origin_down
                    ),
                    rtt=wired.rtt,
                )
                paths: List = [contended]
                if use_3gol:
                    paths += [
                        household.phone_down_path(p)
                        for p in household.phones
                    ]
                runner = TransactionRunner(
                    household.network, paths, make_policy("GRD")
                )
                result = runner.run(
                    Transaction(items, name=f"dslam-{neighbours}-{seed}"),
                    until=household.network.time + 3600.0,
                )
                if use_3gol:
                    onload_stats.add(result.total_time)
                else:
                    adsl_stats.add(result.total_time)
        cells[neighbours] = ContentionCell(
            adsl_alone_s=adsl_stats.mean, onload_s=onload_stats.mean
        )
    return DslamContentionResult(cells=cells, backhaul_bps=BACKHAUL_BPS)
