"""Fig. 8 — total video download-time reduction per location (§5.2).

For all five evaluation locations and the four configurations (one/two
phones, idle/connected start), the paper reports the percentage reduction
in downloading the *entire* 200 s video, averaged over the four qualities:
reductions span 38% to 72% (speedups ×1.5 to ×4.1), the second device
always helps (+5.9% to +26%), and connected-mode starts bring mostly
marginal gains. §5 pools these bars into "downloads up to ×4 faster" and
"transactions take 47% less time on average".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.analysis.stats import reduction_percent
from repro.experiments import wild
from repro.experiments.wild import CONFIGS, QUALITIES, config_label
from repro.experiments.formatting import fmt, render_table
from repro.experiments.registry import Check, experiment, jsonable
from repro.netsim.topology import EVALUATION_LOCATIONS, LocationProfile
from repro.util.stats import RunningStats


@dataclass(frozen=True)
class DownloadReductionResult:
    """Mean % download-time reduction per (location, config)."""

    reductions: Dict[Tuple[str, str], float]
    configs: Tuple[str, ...]

    def reduction(self, location: str, config: str) -> float:
        """One bar of the figure (percent)."""
        return self.reductions[(location, config)]

    def speedup(self, location: str, config: str) -> float:
        """The same bar expressed as a speedup factor."""
        return 100.0 / (100.0 - self.reduction(location, config))

    def second_phone_benefit(self, location: str, connected: bool) -> float:
        """Percentage-point gain of the second phone."""
        mode = "H" if connected else "3G"
        return self.reduction(location, f"{mode}_2PH") - self.reduction(
            location, f"{mode}_1PH"
        )

    def max_speedup(self) -> float:
        """§5's "up to" download speedup: the best bar."""
        return max(self.speedup(loc, cfg) for (loc, cfg) in self.reductions)

    def mean_reduction(self) -> float:
        """§5's average transaction-time reduction over every bar (%)."""
        return sum(self.reductions.values()) / len(self.reductions)

    def to_dict(self) -> dict:
        """JSON-ready payload of every field (``repro run --json``)."""
        return jsonable(self)

    def render(self) -> str:
        """One row per location, then the §5 pooled numbers."""
        locations = sorted({loc for loc, _ in self.reductions})
        rows = []
        for location in locations:
            rows.append(
                [location]
                + [
                    fmt(self.reductions[(location, config)], 1)
                    for config in self.configs
                ]
            )
        bars = render_table(
            ["location"] + list(self.configs),
            rows,
            title="Fig. 8 — total video download time reduction (%)",
        )
        headline = render_table(
            ["metric", "measured", "paper"],
            [
                ("max download speedup", fmt(self.max_speedup()), "x4"),
                ("avg transaction reduction %",
                 fmt(self.mean_reduction(), 1), "47%"),
            ],
            title="§5 — download speedup and transaction reduction",
        )
        return bars + "\n\n" + headline


_LOCATIONS = ("loc1", "loc2", "loc3", "loc4", "loc5")


@experiment(
    "fig08",
    title="Fig. 8 — total download-time reduction per location",
    description="download-time reductions (Fig. 8)",
    paper_ref="Fig. 8",
    claims=(
        "Paper: 38-72% reductions (x1.5-x4.1); §5 quotes downloads up "
        "to x4 faster and a 47% average transaction reduction.\n"
        "Measured: ~28-57% (x1.4-x2.3) — same structure (every config "
        "gains, 2nd phone always helps, H marginal, best location is "
        "the good-signal one) but compressed magnitudes: our HSPA "
        "model is calibrated to Tables 2-3, which caps what two "
        "phones can add. The average over every bar is a ~41% "
        "reduction."
    ),
    bench_params={"repetitions": 4},
    quick_params={"repetitions": 1},
    checks=(
        Check("reductions_above_20pct",
              "Fig. 8: download time falls 38-72% (x1.5-x4.1)",
              lambda r: min(r.reductions.values()) > 20.0),
        Check("reductions_below_75pct",
              "Fig. 8: download time falls 38-72% (x1.5-x4.1)",
              lambda r: max(r.reductions.values()) < 75.0),
        Check("second_phone_helps",
              "Fig. 8: the second device always helps",
              lambda r: all(r.second_phone_benefit(loc, connected=False)
                            > 0.0 for loc in _LOCATIONS)),
        Check("connected_start_marginal",
              "Fig. 8: a connected-mode start brings marginal gains",
              lambda r: all(r.reduction(loc, "H_1PH")
                            - r.reduction(loc, "3G_1PH") < 12.0
                            for loc in _LOCATIONS)),
        Check("two_phone_speedup_above_1_5",
              "Fig. 8: speedups of x1.5-x4.1",
              lambda r: all(r.speedup(loc, "3G_2PH") > 1.5
                            for loc in _LOCATIONS)),
        Check("max_download_speedup_1_5_to_5",
              "§5: downloads up to x4 faster",
              lambda r: 1.5 < r.max_speedup() < 5.0),
        Check("avg_reduction_25_to_60pct",
              "§5: transactions take 47% less time on average",
              lambda r: 25.0 < r.mean_reduction() < 60.0),
    ),
    order=100,
)
def run(
    locations: Sequence[LocationProfile] = EVALUATION_LOCATIONS,
    repetitions: int = 5,
) -> DownloadReductionResult:
    """Average the per-quality reductions at each location/config."""
    config_labels = tuple(config_label(n, c) for n, c in CONFIGS)
    reductions: Dict[Tuple[str, str], float] = {}
    for location in locations:
        baselines: Dict[str, float] = {}
        for quality in QUALITIES:
            stats = RunningStats()
            for seed in range(repetitions):
                session = wild.make_session(location, n_phones=1, seed=seed)
                session.host_bipbop()
                report = session.download_video(
                    "bipbop", quality, use_3gol=False, prebuffer_fraction=None
                )
                stats.add(report.total_time)
            baselines[quality] = stats.mean
        for n_phones, connected in CONFIGS:
            per_quality = RunningStats()
            for quality in QUALITIES:
                stats = RunningStats()
                for seed in range(repetitions):
                    session = wild.make_session(
                        location,
                        n_phones=n_phones,
                        seed=seed,
                        connected_start=connected,
                    )
                    session.host_bipbop()
                    report = session.download_video(
                        "bipbop", quality, prebuffer_fraction=None
                    )
                    stats.add(report.total_time)
                per_quality.add(
                    reduction_percent(baselines[quality], stats.mean)
                )
            reductions[(location.name, config_label(n_phones, connected))] = (
                per_quality.mean
            )
    return DownloadReductionResult(
        reductions=reductions, configs=config_labels
    )
