"""Extension: why not just MP-TCP? (§5's omitted experiment)

The paper tried MP-TCP over the same paths and found "no benefit due to
the issues probably related to the Coupled Congestion Control (CCC)
algorithm of MP-TCP that is not optimized for wireless use yet", omitting
the numbers for brevity. This experiment reconstructs that comparison
with the coupled-aggregate model of :mod:`repro.core.mptcp`: the same
video over (a) ADSL alone, (b) MP-TCP with coupled congestion control
across ADSL + phones, (c) an idealised *uncoupled* MP-TCP, and (d) the
3GOL greedy scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from repro.core.items import Transaction, TransferItem
from repro.core.mptcp import DEFAULT_COUPLING_EFFICIENCY, mptcp_transfer_time
from repro.core.scheduler import TransactionRunner, make_policy
from repro.experiments.formatting import fmt, render_table
from repro.experiments.registry import Check, experiment, jsonable
from repro.netsim.topology import Household, HouseholdConfig, LocationProfile
from repro.util.stats import RunningStats
from repro.util.units import mbps
from repro.web.hls import make_bipbop_video

LOCATION = LocationProfile(
    name="mptcp-home",
    description="MP-TCP comparison testbed (2 Mbps ADSL, night)",
    adsl_down_bps=mbps(2.0),
    adsl_up_bps=mbps(0.512),
    signal_dbm=-81.0,
    peak_utilization=0.35,
    measurement_hour=1.0,
    adsl_goodput_efficiency=0.55,
)

CONFIGS = ("ADSL", "MPTCP-CCC", "MPTCP-uncoupled", "3GOL-GRD")


@dataclass(frozen=True)
class MptcpComparisonResult:
    """Mean download times per transfer mode."""

    times: Dict[str, float]

    def benefit_over_adsl(self, config: str) -> float:
        """Fractional time saved vs ADSL alone."""
        return 1.0 - self.times[config] / self.times["ADSL"]

    def to_dict(self) -> dict:
        """JSON-ready payload of every field (``repro run --json``)."""
        return jsonable(self)

    def render(self) -> str:
        """The comparison table."""
        rows = [
            (
                config,
                fmt(self.times[config], 1),
                f"{self.benefit_over_adsl(config):+.0%}",
            )
            for config in CONFIGS
        ]
        return render_table(
            ["transfer mode", "download time (s)", "benefit"],
            rows,
            title=(
                "Extension §5 — MP-TCP (coupled CC) vs 3GOL, Q4 video, "
                "1 phone"
            ),
        )


@experiment(
    "ext-mptcp",
    title="Extension §5 — the omitted MP-TCP comparison",
    description="extension: the omitted MP-TCP comparison",
    paper_ref="§5",
    claims=(
        "Paper (prose only): MP-TCP 'provided no benefit' due to "
        "coupled congestion control on wireless.\n"
        "Measured: CCC-coupled MP-TCP gains ~10% where the 3GOL "
        "scheduler gains ~67%; an idealised uncoupled MP-TCP would "
        "match 3GOL — the gap *is* the coupling."
    ),
    bench_params={"seeds": (0, 1, 2, 3, 4)},
    quick_params={"seeds": (0,)},
    checks=(
        Check("ccc_no_benefit",
              "§5: MP-TCP with coupling 'provided no benefit'",
              lambda r: r.benefit_over_adsl("MPTCP-CCC") < 0.2),
        Check("grd_benefit_above_half",
              "§5: the application-level scheduler adds the paths up",
              lambda r: r.benefit_over_adsl("3GOL-GRD") > 0.5),
        Check("coupling_is_the_gap",
              "§5: the coupled congestion control costs the gain",
              lambda r: r.times["MPTCP-uncoupled"]
              < r.times["MPTCP-CCC"] / 2),
    ),
    order=190,
)
def run(
    seeds: Sequence[int] = (0, 1, 2, 3, 4),
    quality: str = "Q4",
    coupling_efficiency: float = DEFAULT_COUPLING_EFFICIENCY,
) -> MptcpComparisonResult:
    """Run the four transfer modes over identical conditions."""
    video = make_bipbop_video()
    playlist = video.playlist(quality)
    items = [
        TransferItem(s.uri, s.size_bytes, {"index": s.index})
        for s in playlist.segments
    ]
    stats = {config: RunningStats() for config in CONFIGS}
    for seed in seeds:
        for config in CONFIGS:
            household = Household(
                LOCATION, HouseholdConfig(n_phones=1, seed=seed)
            )
            paths = household.download_paths()
            transaction = Transaction(items, name=f"{config}-{seed}")
            if config == "ADSL":
                runner = TransactionRunner(
                    household.network, paths[:1], make_policy("GRD")
                )
                stats[config].add(runner.run(transaction).total_time)
            elif config == "3GOL-GRD":
                runner = TransactionRunner(
                    household.network, paths, make_policy("GRD")
                )
                stats[config].add(runner.run(transaction).total_time)
            else:
                efficiency = (
                    coupling_efficiency
                    if config == "MPTCP-CCC"
                    else 1.0
                )
                stats[config].add(
                    mptcp_transfer_time(
                        household.network,
                        paths,
                        transaction,
                        coupling_efficiency=efficiency,
                    )
                )
    return MptcpComparisonResult(
        times={config: stat.mean for config, stat in stats.items()}
    )
