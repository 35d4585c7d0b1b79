"""Fig. 11 (c) — 3G traffic increase vs fraction of users adopting 3GOL.

Using the MNO population's existing demand and 20 MB/day of 3GOL use per
adopter (uniformly spread over the customer base), the figure plots the
relative increase of total and of peak-hour traffic. Paper claims: the
increase is modest at low adoption and reaches ~100% at full adoption
(20 MB/day happens to match the population's average daily demand); the
peak-hour increase is smaller than the total thanks to the misaligned
diurnal peaks, though not by much.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.analysis.load import AdoptionImpact, adoption_traffic_increase
from repro.experiments.formatting import fmt, render_table
from repro.experiments.registry import Check, experiment, jsonable
from repro.traces.mno import generate_mno_dataset

DEFAULT_ADOPTION_GRID: Tuple[float, ...] = tuple(
    round(0.1 * i, 1) for i in range(0, 11)
)


@dataclass(frozen=True)
class AdoptionResult:
    """Impact per adoption fraction."""

    impacts: Tuple[AdoptionImpact, ...]

    def at(self, fraction: float) -> AdoptionImpact:
        """The impact row closest to ``fraction``."""
        return min(
            self.impacts,
            key=lambda i: abs(i.adoption_fraction - fraction),
        )

    def is_monotone(self) -> bool:
        """Both curves increase with adoption."""
        totals = [i.total_increase for i in self.impacts]
        peaks = [i.peak_increase for i in self.impacts]
        return all(a <= b + 1e-12 for a, b in zip(totals, totals[1:])) and all(
            a <= b + 1e-12 for a, b in zip(peaks, peaks[1:])
        )

    def to_dict(self) -> dict:
        """JSON-ready payload of every field (``repro run --json``)."""
        return jsonable(self)

    def render(self) -> str:
        """The two curves as a table."""
        rows = [
            (
                fmt(i.adoption_fraction, 1),
                fmt(i.total_increase),
                fmt(i.peak_increase),
            )
            for i in self.impacts
        ]
        return render_table(
            ["adoption", "total increase", "peak-hour increase"],
            rows,
            title="Fig. 11c — relative 3G traffic increase due to 3GOL",
        )


@experiment(
    "fig11c",
    title="Fig. 11c — traffic increase vs adoption",
    description="traffic increase vs adoption (Fig. 11c)",
    paper_ref="Fig. 11c",
    claims=(
        "Paper: modest at low adoption, ~100% at full adoption; "
        "peak-hour increase smaller than total but not by much.\n"
        "Measured: +105% total / +99% peak at full adoption, "
        "monotone, ~+10% at 10% adoption."
    ),
    bench_params={"n_users": 3000, "seed": 0},
    quick_params={"n_users": 400},
    checks=(
        Check("monotone_in_adoption",
              "Fig. 11c: 3G traffic grows with 3GOL adoption",
              lambda r: r.is_monotone()),
        Check("full_adoption_doubles_traffic",
              "Fig. 11c: at 100% adoption 'the increase ... around 100%'",
              lambda r: abs(r.at(1.0).total_increase - 1.0) <= 0.3),
        Check("peak_increase_below_total",
              "Fig. 11c: the peak-hour increase is smaller than the total",
              lambda r: r.at(1.0).peak_increase < r.at(1.0).total_increase),
        Check("peak_increase_above_half_total",
              "Fig. 11c: the peak-hour increase is smaller than the total",
              lambda r: r.at(1.0).peak_increase
              > 0.5 * r.at(1.0).total_increase),
        Check("low_adoption_modest",
              "Fig. 11c: low adoption adds little traffic",
              lambda r: r.at(0.1).total_increase < 0.15),
    ),
    order=150,
)
def run(
    n_users: int = 3000,
    seed: int = 0,
    adoption_grid: Sequence[float] = DEFAULT_ADOPTION_GRID,
) -> AdoptionResult:
    """Generate the MNO population and sweep adoption."""
    dataset = generate_mno_dataset(n_users=n_users, seed=seed)
    impacts = adoption_traffic_increase(dataset, adoption_grid)
    return AdoptionResult(impacts=tuple(impacts))
