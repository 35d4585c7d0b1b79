"""Fig. 4 — aggregated throughput by hour of day, groups of 1/3/5 devices.

The paper runs hourly downloads/uploads over five days in groups of five,
three and one device and finds: single-device throughput up to ~2.5 Mbps
in both directions depending on the hour; higher per-device variability as
the group grows; per-device throughput between roughly 0.65 and 1.42 Mbps
with five devices; diurnal variation present but small (low congestion).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.experiments.formatting import fmt_mbps, render_table
from repro.experiments.registry import Check, experiment, jsonable
from repro.netsim.topology import MEASUREMENT_LOCATIONS, LocationProfile
from repro.traces.handsets import measure_cluster_throughput
from repro.util.units import mbps

DEFAULT_GROUP_SIZES: Tuple[int, ...] = (1, 3, 5)
DEFAULT_HOURS: Tuple[float, ...] = tuple(range(0, 24, 2))


@dataclass(frozen=True)
class TemporalThroughputResult:
    """Per-device throughput by hour for each group size and direction."""

    hours: Tuple[float, ...]
    group_sizes: Tuple[int, ...]
    #: ``per_device_bps[(direction, group)][h]`` = mean per-device rate
    #: across locations/days at hours[h].
    per_device_bps: Dict[Tuple[str, int], Tuple[float, ...]]
    #: Standard deviation, same indexing.
    per_device_sd_bps: Dict[Tuple[str, int], Tuple[float, ...]]

    def series(self, direction: str, group: int) -> Tuple[float, ...]:
        """One curve of the figure."""
        return self.per_device_bps[(direction, group)]

    def diurnal_swing(self, direction: str, group: int) -> float:
        """max/min of the hourly means — smallness = low congestion."""
        curve = self.series(direction, group)
        return max(curve) / min(curve)

    def single_device_peak_bps(self, direction: str) -> float:
        """Best hourly single-device throughput (paper: up to ~2.5 Mbps)."""
        return max(self.series(direction, 1))

    def to_dict(self) -> dict:
        """JSON-ready payload of every field (``repro run --json``)."""
        return jsonable(self)

    def render(self) -> str:
        """Per-device throughput table by hour."""
        rows = []
        for (direction, group), curve in sorted(self.per_device_bps.items()):
            rows.append(
                [direction, group] + [fmt_mbps(v) for v in curve]
            )
        headers = ["dir", "grp"] + [f"{int(h):02d}h" for h in self.hours]
        return render_table(
            headers,
            rows,
            title=(
                "Fig. 4 — per-device 3G throughput (Mbps) by hour, "
                "groups of 1/3/5"
            ),
        )


def _group_mean(
    result: TemporalThroughputResult, direction: str, group: int
) -> float:
    """Mean per-device rate of one group size over the sampled hours."""
    return sum(result.series(direction, group)) / len(result.hours)


@experiment(
    "fig04",
    title="Fig. 4 — throughput by hour, groups of 1/3/5",
    description="throughput by hour, groups of 1/3/5 (Fig. 4)",
    paper_ref="Fig. 4",
    claims=(
        "Paper: single device up to ~2.5 Mbps either direction; "
        "per-device rate 0.65-1.42 Mbps with five devices; diurnal "
        "variation present but small.\n"
        "Measured: single-device peaks ~2-2.5 Mbps; five-device "
        "per-device means within the paper's band; swing < 2.5x."
    ),
    bench_params={"days": 2},
    quick_params={"days": 1},
    checks=(
        Check("single_device_down_1_2_to_3_2_mbps",
              "Fig. 4: one device reaches ~2.5 Mbps depending on the hour",
              lambda r: mbps(1.2) < r.single_device_peak_bps("down")
              < mbps(3.2)),
        Check("single_device_up_0_9_to_3_mbps",
              "Fig. 4: one device reaches ~2.5 Mbps depending on the hour",
              lambda r: mbps(0.9) < r.single_device_peak_bps("up")
              < mbps(3.0)),
        Check("per_device_falls_with_group",
              "Fig. 4: per-device throughput falls for groups of 1/3/5",
              lambda r: all(_group_mean(r, d, 1) > _group_mean(r, d, 3)
                            > _group_mean(r, d, 5) for d in ("down", "up"))),
        Check("diurnal_swing_small",
              "Fig. 4: diurnal variations 'are rather small'",
              lambda r: 1.05 < r.diurnal_swing("down", 5) < 3.0),
    ),
    order=30,
)
def run(
    locations: Sequence[LocationProfile] = MEASUREMENT_LOCATIONS[:6],
    hours: Sequence[float] = DEFAULT_HOURS,
    group_sizes: Sequence[int] = DEFAULT_GROUP_SIZES,
    days: int = 2,
    repetitions: int = 1,
) -> TemporalThroughputResult:
    """Run the hourly campaign; one seed per simulated day."""
    means: Dict[Tuple[str, int], Tuple[float, ...]] = {}
    sds: Dict[Tuple[str, int], Tuple[float, ...]] = {}
    for direction in ("down", "up"):
        for group in group_sizes:
            hour_means = []
            hour_sds = []
            for hour in hours:
                values = []
                for day in range(days):
                    for location in locations:
                        samples = measure_cluster_throughput(
                            location,
                            group,
                            direction=direction,
                            hour=hour,
                            repetitions=repetitions,
                            seed=day * 101 + int(hour),
                        )
                        for sample in samples:
                            values.extend(sample.per_device_bps)
                hour_means.append(float(np.mean(values)))
                hour_sds.append(float(np.std(values)))
            means[(direction, group)] = tuple(hour_means)
            sds[(direction, group)] = tuple(hour_sds)
    return TemporalThroughputResult(
        hours=tuple(hours),
        group_sizes=tuple(group_sizes),
        per_device_bps=means,
        per_device_sd_bps=sds,
    )
