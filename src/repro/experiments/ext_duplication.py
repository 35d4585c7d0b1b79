"""Ablation: what the greedy scheduler's duplication actually buys.

§4.1.1's design accepts up to (N−1)·S_max of duplicate bytes in exchange
for never waiting on a slow path's last item. This ablation isolates that
trade: GRD with and without endgame duplication, on two regimes —

* **steady paths** (the scheduler-comparison testbed at night): the
  endgame is short, duplication buys little and wastes a few hundred kB;
* **a degrading path** (one phone's radio collapses mid-transaction):
  without duplication the transaction waits for the dying path; with it,
  the stalled item is rescued.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from repro.core.items import Transaction, TransferItem
from repro.core.scheduler import TransactionRunner
from repro.core.scheduler.greedy import GreedyPolicy
from repro.experiments.formatting import fmt, render_table
from repro.experiments.registry import Check, experiment, jsonable
from repro.netsim.fluid import FluidNetwork
from repro.netsim.latency import RttModel
from repro.netsim.link import Link, PiecewiseLink
from repro.netsim.path import NetworkPath
from repro.netsim.topology import TESTBED_LOCATION, Household, HouseholdConfig
from repro.util.stats import RunningStats
from repro.util.units import MB, bytes_to_megabytes, kbps, mbps
from repro.web.hls import make_bipbop_video


@dataclass(frozen=True)
class DuplicationCell:
    """One regime, with/without duplication."""

    time_with_s: float
    time_without_s: float
    waste_with_mb: float

    @property
    def rescue_benefit(self) -> float:
        """Fraction of time saved by duplication."""
        return 1.0 - self.time_with_s / self.time_without_s


@dataclass(frozen=True)
class DuplicationAblationResult:
    """Both regimes."""

    cells: Dict[str, DuplicationCell]

    def to_dict(self) -> dict:
        """JSON-ready payload of every field (``repro run --json``)."""
        return jsonable(self)

    def render(self) -> str:
        """One row per regime."""
        rows = [
            (
                regime,
                fmt(cell.time_with_s, 1),
                fmt(cell.time_without_s, 1),
                fmt(cell.waste_with_mb, 2),
                f"{cell.rescue_benefit:+.0%}",
            )
            for regime, cell in sorted(self.cells.items())
        ]
        return render_table(
            [
                "regime",
                "GRD (s)",
                "GRD no-dup (s)",
                "waste (MB)",
                "benefit",
            ],
            rows,
            title="Ablation §4.1.1 — endgame duplication on vs off",
        )


def _steady_regime(seeds: Sequence[int]) -> DuplicationCell:
    video = make_bipbop_video()
    playlist = video.playlist("Q4")
    items = [
        TransferItem(s.uri, s.size_bytes, {"index": s.index})
        for s in playlist.segments
    ]
    with_dup, without_dup, waste = (
        RunningStats(),
        RunningStats(),
        RunningStats(),
    )
    for seed in seeds:
        for enable in (True, False):
            household = Household(
                TESTBED_LOCATION, HouseholdConfig(n_phones=2, seed=seed)
            )
            runner = TransactionRunner(
                household.network,
                household.download_paths(),
                GreedyPolicy(enable_duplication=enable),
            )
            result = runner.run(Transaction(items))
            if enable:
                with_dup.add(result.total_time)
                waste.add(bytes_to_megabytes(result.wasted_bytes))
            else:
                without_dup.add(result.total_time)
    return DuplicationCell(
        time_with_s=with_dup.mean,
        time_without_s=without_dup.mean,
        waste_with_mb=waste.mean,
    )


def _degrading_regime(seeds: Sequence[int]) -> DuplicationCell:
    """One path's radio collapses to GPRS-class rates mid-transaction."""
    items = [TransferItem(f"seg-{i}", 1 * MB) for i in range(12)]
    with_dup, without_dup, waste = (
        RunningStats(),
        RunningStats(),
        RunningStats(),
    )
    for seed in seeds:
        for enable in (True, False):
            network = FluidNetwork()
            healthy = NetworkPath(
                "adsl", [Link("adsl", mbps(3.0))], rtt=RttModel(0.02)
            )
            dying = NetworkPath(
                "phone",
                [
                    PiecewiseLink(
                        "phone-3g",
                        # Fine for ~8 s, then the radio drops to 40 kbps
                        # (cell-edge GPRS fallback).
                        [(0.0, mbps(2.0)), (8.0 + seed, kbps(40.0))],
                    )
                ],
                rtt=RttModel(0.09),
            )
            runner = TransactionRunner(
                network,
                [healthy, dying],
                GreedyPolicy(enable_duplication=enable),
            )
            result = runner.run(Transaction(items), until=600.0)
            if enable:
                with_dup.add(result.total_time)
                waste.add(bytes_to_megabytes(result.wasted_bytes))
            else:
                without_dup.add(result.total_time)
    return DuplicationCell(
        time_with_s=with_dup.mean,
        time_without_s=without_dup.mean,
        waste_with_mb=waste.mean,
    )


@experiment(
    "ext-duplication",
    title="Ablation §4.1.1 — endgame duplication",
    description="ablation: endgame duplication",
    paper_ref="§4.1.1",
    claims=(
        "Paper: duplication bounded by (N-1)*S_max, 'generally much "
        "smaller'.\n"
        "Measured: on steady paths duplication costs <1 MB and buys "
        "~nothing; when a path degrades mid-transaction it cuts the "
        "transaction time by ~85% — it is cheap insurance against "
        "exactly the radio behaviour §3 documents."
    ),
    bench_params={"seeds": (0, 1, 2, 3)},
    quick_params={"seeds": (0,)},
    checks=(
        Check("steady_rescue_negligible",
              "§4.1.1: on steady paths duplication changes little",
              lambda r: abs(r.cells["steady paths"].rescue_benefit) < 0.15),
        Check("steady_waste_below_2_mb",
              "§4.1.1: waste <= (N-1)*S_max, 'generally much smaller'",
              lambda r: r.cells["steady paths"].waste_with_mb < 2.0),
        Check("degrading_path_rescued",
              "§4.1.1: an idle path re-fetches the oldest in-flight item",
              lambda r: r.cells["degrading path"].rescue_benefit > 0.5),
    ),
    order=250,
)
def run(seeds: Sequence[int] = (0, 1, 2, 3)) -> DuplicationAblationResult:
    """Both regimes with/without duplication."""
    return DuplicationAblationResult(
        cells={
            "steady paths": _steady_regime(seeds),
            "degrading path": _degrading_regime(seeds),
        }
    )
