"""§2.1 — back-of-envelope capacity comparison.

Reproduces the paper's arithmetic: one downtown cell covers 4 375
subscribers → 875 ADSL connections → 5.863 Gbps aggregate downlink, vs a
40-50 Mbps cell backhaul: the cellular network is 1-2 orders of magnitude
smaller; on the uplink (1/10 ADSL asymmetry) the gap is smaller.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.capacity import (
    CapacityComparison,
    CellAreaAssumptions,
    compare_capacity,
)
from repro.experiments.formatting import fmt, render_table
from repro.experiments.registry import Check, experiment, jsonable
from repro.util.units import rate_to_gbps, rate_to_mbps


@dataclass(frozen=True)
class CapacityResult:
    """The comparison under the paper's assumptions."""

    comparison: CapacityComparison

    def to_dict(self) -> dict:
        """JSON-ready payload of every field (``repro run --json``)."""
        return jsonable(self)

    def render(self) -> str:
        """The calculation's lines, paper-style."""
        c = self.comparison
        rows = [
            ("subscribers in cell area", fmt(c.subscribers_in_cell, 0)),
            ("ADSL connections", fmt(c.adsl_connections, 0)),
            (
                "ADSL aggregate downlink",
                f"{rate_to_gbps(c.adsl_aggregate_down_bps):.3f} Gbps",
            ),
            (
                "ADSL aggregate uplink",
                f"{rate_to_gbps(c.adsl_aggregate_up_bps):.3f} Gbps",
            ),
            (
                "cell backhaul",
                f"{rate_to_mbps(c.cell_backhaul_bps):.0f} Mbps",
            ),
            ("down ratio (ADSL/cell)", fmt(c.down_ratio, 1)),
            ("orders of magnitude", fmt(c.down_orders_of_magnitude, 2)),
        ]
        return render_table(
            ["quantity", "value"],
            rows,
            title="§2.1 — back-of-envelope capacity comparison",
        )


@experiment(
    "sec21",
    title="§2.1 — back-of-envelope capacity comparison",
    description="capacity back-of-envelope (S2.1)",
    paper_ref="§2.1",
    claims=(
        "Paper: 4375 subscribers/cell -> 875 ADSL lines -> 5.863 Gbps "
        "vs a 40-50 Mbps cell backhaul: 1-2 orders of magnitude.\n"
        "Measured: identical arithmetic (differences <2% from the "
        "paper's rounding)."
    ),
    checks=(
        Check("subscribers_4375",
              "§2.1: a downtown cell covers 4375 subscribers",
              lambda r: abs(r.comparison.subscribers_in_cell - 4375)
              <= 0.02 * 4375),
        Check("adsl_lines_875",
              "§2.1: 875 ADSL connections",
              lambda r: abs(r.comparison.adsl_connections - 875)
              <= 0.02 * 875),
        Check("adsl_aggregate_5_863_gbps",
              "§2.1: 5.863 Gbps aggregate ADSL downlink",
              lambda r: abs(r.comparison.adsl_aggregate_down_bps - 5.863e9)
              <= 0.02 * 5.863e9),
        Check("one_to_two_orders_of_magnitude",
              "§2.1: the cell is 1-2 orders of magnitude smaller",
              lambda r: 1.0 <= r.comparison.down_orders_of_magnitude <= 2.5),
    ),
    order=160,
)
def run(
    assumptions: CellAreaAssumptions = CellAreaAssumptions(),
) -> CapacityResult:
    """Evaluate the calculation."""
    return CapacityResult(comparison=compare_capacity(assumptions))
