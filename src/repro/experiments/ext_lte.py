"""Extension: 3GOL over 4G/LTE (§2.3).

"If 4G is available, the concept of 3GOL is even more compelling. With
the reduced latency, and the large increase of bandwidth, the period of
powerboosting time might be extremely short, reducing the overhead added
on the cellular network."

This experiment quantifies that claim: the same household and video, with
the phones' cellular substrate swapped from HSPA to early-LTE parameters
(and LTE's much faster RRC), comparing pre-buffer and total download
times plus the time the phones spend occupying the cellular network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.core.items import Transaction, TransferItem
from repro.core.scheduler import make_policy
from repro.core.scheduler.runner import TransactionRunner
from repro.experiments.formatting import fmt, render_table
from repro.experiments.registry import Check, experiment, jsonable
from repro.netsim.cellular import (
    HspaParameters,
    LTE_PARAMETERS,
    LTE_RRC_PARAMETERS,
)
from repro.netsim.radio import RrcParameters
from repro.netsim.topology import Household, HouseholdConfig, LocationProfile
from repro.util.stats import RunningStats
from repro.util.units import mbps
from repro.web.hls import make_bipbop_video

#: The household of the comparison: a mid-range ADSL home.
LOCATION = LocationProfile(
    name="lte-home",
    description="LTE extension testbed (6 Mbps ADSL)",
    adsl_down_bps=mbps(6.0),
    adsl_up_bps=mbps(0.6),
    signal_dbm=-85.0,
    peak_utilization=0.5,
    measurement_hour=20.0,
)


@dataclass(frozen=True)
class GenerationCell:
    """Results for one radio generation."""

    total_time_s: float
    prebuffer_time_s: float
    cell_busy_s: float


@dataclass(frozen=True)
class LteComparisonResult:
    """HSPA vs LTE powerboost of the same video."""

    cells: Dict[str, GenerationCell]
    adsl_alone_s: float
    adsl_prebuffer_s: float

    def speedup(self, generation: str) -> float:
        """Total-download speedup over ADSL alone."""
        return self.adsl_alone_s / self.cells[generation].total_time_s

    def to_dict(self) -> dict:
        """JSON-ready payload of every field (``repro run --json``)."""
        return jsonable(self)

    def render(self) -> str:
        """The comparison table."""
        rows = [
            (
                "ADSL alone",
                fmt(self.adsl_alone_s, 1),
                fmt(self.adsl_prebuffer_s, 1),
                "-",
                "x1.0",
            )
        ]
        for generation, cell in sorted(self.cells.items()):
            rows.append(
                (
                    generation,
                    fmt(cell.total_time_s, 1),
                    fmt(cell.prebuffer_time_s, 1),
                    fmt(cell.cell_busy_s, 1),
                    f"x{self.speedup(generation):.1f}",
                )
            )
        return render_table(
            [
                "configuration",
                "total (s)",
                "pre-buffer (s)",
                "cell busy (s)",
                "speedup",
            ],
            rows,
            title="Extension §2.3 — 3GOL over HSPA vs LTE (Q4, 2 phones)",
        )


def _run_one(
    params: HspaParameters,
    rrc: RrcParameters,
    n_phones: int,
    seeds: Sequence[int],
) -> Tuple[RunningStats, RunningStats, RunningStats]:
    video = make_bipbop_video()
    playlist = video.playlist("Q4")
    items = [
        TransferItem(s.uri, s.size_bytes, {"index": s.index})
        for s in playlist.segments
    ]
    prebuffer_uris = [
        s.uri for s in playlist.segments_for_prebuffer(0.2)
    ]
    totals, prebuffers, busy = RunningStats(), RunningStats(), RunningStats()
    for seed in seeds:
        config = HouseholdConfig(n_phones=n_phones, seed=seed, hspa=params)
        household = Household(LOCATION, config)
        for phone in household.phones:
            phone.radio.params = rrc
        paths = household.download_paths() if n_phones else [
            household.adsl_down_path()
        ]
        runner = TransactionRunner(
            household.network, paths, make_policy("GRD")
        )
        result = runner.run(Transaction(items))
        totals.add(result.total_time)
        prebuffers.add(result.time_to_complete(prebuffer_uris))
        # Cellular occupancy: the window during which phones delivered
        # winning copies — §2.3's "period of powerboosting time".
        cellular_names = {p.name for p in paths if p.is_cellular}
        cellular_records = [
            r for r in result.records.values()
            if r.path_name in cellular_names
        ]
        if cellular_records:
            busy.add(
                max(r.completed_at for r in cellular_records)
                - result.started_at
            )
        else:
            busy.add(0.0)
    return totals, prebuffers, busy


@experiment(
    "ext-lte",
    title="Extension §2.3 — 3GOL over LTE",
    description="extension: 3GOL over LTE (S2.3)",
    paper_ref="§2.3",
    claims=(
        "Paper (prose only): with 4G 'the period of powerboosting "
        "time might be extremely short'.\n"
        "Measured: LTE halves the download again over HSPA-3GOL and "
        "shrinks the cellular-occupancy window by >2x."
    ),
    bench_params={"seeds": (0, 1, 2, 3)},
    quick_params={"seeds": (0,)},
    checks=(
        Check("lte_beats_hspa",
              "§2.3: 4G makes 3GOL even more compelling",
              lambda r: r.speedup("3GOL over LTE")
              > r.speedup("3GOL over HSPA")),
        Check("lte_busy_window_shorter",
              "§2.3: powerboosting time 'might be extremely short'",
              lambda r: r.cells["3GOL over LTE"].cell_busy_s
              < r.cells["3GOL over HSPA"].cell_busy_s * 0.7),
    ),
    order=180,
)
def run(seeds: Sequence[int] = (0, 1, 2, 3)) -> LteComparisonResult:
    """Compare ADSL alone, HSPA 3GOL and LTE 3GOL."""
    adsl_totals, adsl_prebuffers, _ = _run_one(
        HspaParameters(), RrcParameters(), n_phones=0, seeds=seeds
    )
    hspa = _run_one(HspaParameters(), RrcParameters(), 2, seeds)
    lte = _run_one(LTE_PARAMETERS, LTE_RRC_PARAMETERS, 2, seeds)
    return LteComparisonResult(
        cells={
            "3GOL over HSPA": GenerationCell(
                hspa[0].mean, hspa[1].mean, hspa[2].mean
            ),
            "3GOL over LTE": GenerationCell(
                lte[0].mean, lte[1].mean, lte[2].mean
            ),
        },
        adsl_alone_s=adsl_totals.mean,
        adsl_prebuffer_s=adsl_prebuffers.mean,
    )
