"""Table 4 — the five in-the-wild evaluation locations (§5.2).

The table reports each location's repeatedly-measured ADSL speed and 3G
signal strength. Here the "measurement" is a short speed test run on the
simulated line (which should land on the configured rate) plus the
location's signal strength in dBm and ASU, as Android reports it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.experiments.formatting import fmt_mbps, render_table
from repro.experiments.registry import Check, experiment, jsonable
from repro.netsim.cellular import dbm_to_asu
from repro.netsim.fluid import Flow
from repro.netsim.topology import (
    EVALUATION_LOCATIONS,
    Household,
    HouseholdConfig,
    LocationProfile,
)
from repro.util.units import MB, mbps, transfer_rate


@dataclass(frozen=True)
class EvalLocationRow:
    """One row of Table 4."""

    name: str
    measured_down_bps: float
    measured_up_bps: float
    signal_dbm: float
    signal_asu: int


@dataclass(frozen=True)
class EvalLocationsResult:
    """All rows."""

    rows: Tuple[EvalLocationRow, ...]

    def to_dict(self) -> dict:
        """JSON-ready payload of every field (``repro run --json``)."""
        return jsonable(self)

    def render(self) -> str:
        """The table in the paper's layout."""
        table = [
            [
                row.name,
                f"{fmt_mbps(row.measured_down_bps)}/{fmt_mbps(row.measured_up_bps)}",
                f"{row.signal_dbm:.0f}/{row.signal_asu}",
            ]
            for row in self.rows
        ]
        return render_table(
            ["location", "DSL Mbps (d/u)", "3G signal (dBm/ASU)"],
            table,
            title="Table 4 — in-the-wild evaluation locations",
        )


def _speedtest(household: Household, direction: str) -> float:
    """One-flow speed test on the ADSL line (a la speedtest.com)."""
    if direction == "down":
        path = household.adsl_down_path()
    else:
        path = household.adsl_up_path()
    size = 5.0 * MB if direction == "down" else 1.0 * MB
    finished = []
    flow = Flow(
        size, path.links, on_complete=lambda f, t: finished.append(t)
    )
    start = household.network.time
    household.network.add_flow(flow, delay=path.start_delay(start))
    household.network.run()
    if not finished:
        raise RuntimeError(f"speed test on {path.name} never completed")
    # Subtract the request overhead the way speed-test tools do.
    overhead = path.rtt.request_overhead(fresh_connection=True)
    return transfer_rate(size, finished[0] - start - overhead)


#: Table 4 as printed: name, downlink Mbps, uplink Mbps, signal dBm.
_TABLE4 = (
    ("loc1", 6.48, 0.83, -81),
    ("loc2", 21.64, 2.77, -95),
    ("loc3", 8.67, 0.62, -97),
    ("loc4", 6.20, 0.65, -89),
    ("loc5", 6.82, 0.58, -89),
)


@experiment(
    "table04",
    title="Table 4 — evaluation locations",
    description="evaluation locations (Table 4)",
    paper_ref="Table 4",
    claims=(
        "Paper: the five homes' measured ADSL speeds and signal "
        "strengths.\n"
        "Measured: simulated speed tests recover the configured rates; "
        "signal strengths are inputs (reported for completeness)."
    ),
    checks=(
        Check("location_names",
              "Table 4: the five evaluation locations",
              lambda r: all(row.name == paper[0]
                            for row, paper in zip(r.rows, _TABLE4))),
        Check("downlink_within_5pct",
              "Table 4: downlink 6.48/21.64/8.67/6.20/6.82 Mbps",
              lambda r: all(abs(row.measured_down_bps - mbps(paper[1]))
                            <= 0.05 * mbps(paper[1])
                            for row, paper in zip(r.rows, _TABLE4))),
        Check("uplink_within_5pct",
              "Table 4: uplink 0.83/2.77/0.62/0.65/0.58 Mbps",
              lambda r: all(abs(row.measured_up_bps - mbps(paper[2]))
                            <= 0.05 * mbps(paper[2])
                            for row, paper in zip(r.rows, _TABLE4))),
        Check("signal_strengths",
              "Table 4: signal -81/-95/-97/-89/-89 dBm",
              lambda r: all(row.signal_dbm == paper[3]
                            for row, paper in zip(r.rows, _TABLE4))),
    ),
    order=80,
)
def run(
    locations: Sequence[LocationProfile] = EVALUATION_LOCATIONS,
) -> EvalLocationsResult:
    """Speed-test every evaluation location."""
    rows = []
    for location in locations:
        household = Household(location, HouseholdConfig(n_phones=0))
        down = _speedtest(household, "down")
        up = _speedtest(household, "up")
        rows.append(
            EvalLocationRow(
                name=location.name,
                measured_down_bps=down,
                measured_up_bps=up,
                signal_dbm=location.signal_dbm,
                signal_asu=dbm_to_asu(location.signal_dbm),
            )
        )
    return EvalLocationsResult(rows=tuple(rows))
