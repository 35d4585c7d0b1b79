"""Extension: fleet-scale city day over the adoption ramp.

§6/§7 compare the multi-provider and network-integrated architectures
analytically — per-household caps vs a permit server — but the paper
never simulates them at population scale, where the interesting
dynamics live: caps exhaust household by household, busy sectors cross
the §2.4 acceptance threshold, and the permit server itself becomes a
bottleneck. This experiment runs the sharded fleet simulator
(:mod:`repro.fleet`) over a whole city day at increasing onload
adoption and measures, per policy,

* **onload volume and speedup** — bytes moved to 3G and the mean
  per-household backlog speedup vs the adsl-only baseline;
* **cap exhaustion** — households whose §6 daily budget ran dry;
* **sector congestion** — sector-rounds driven to full utilization
  (multi-provider has no network gate, so it can congest cells that
  the network-integrated permit server protects);
* **permit load** — requests, grants and denials (server capacity vs
  utilization threshold) under the §7 architecture.

The adsl-only baseline is adoption-independent, so it runs once and is
shared across the whole ramp. Everything derives from one seed through
the deterministic-merge contract (``docs/FLEET.md``): the rendered
report and its digest are byte-identical at any shard count.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.experiments.formatting import fmt, render_table
from repro.experiments.registry import experiment, jsonable
from repro.fleet.dispatcher import (
    DEFAULT_SHARDS,
    FleetOutcome,
    PolicyRun,
    run_policy,
)
from repro.fleet.population import FleetParameters
from repro.fleet.report import FleetReport
from repro.util.units import GB, mbps

#: The DSLAM backhaul for the stressed city: 128 households x 3 Mbps
#: lines sharing 16 Mbps is a 24x oversubscription — the "heavily
#: oversubscribed aggregation link" regime of §2.1, which is what gives
#: onloading something to relieve at peak hours.
DEFAULT_BACKHAUL_MBPS = 16.0


@dataclass(frozen=True)
class FleetSweepResult:
    """The adoption ramp: one merged fleet report per adoption level."""

    n_households: int
    seed: int
    backhaul_mbps: float
    reports: Tuple[FleetReport, ...]
    findings: Tuple[str, ...]

    def digest(self) -> str:
        """sha256 over every report's canonical lines, in ramp order."""
        lines = []
        for report in self.reports:
            lines.extend(report.lines())
        payload = "\n".join(lines).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()

    def to_dict(self) -> dict:
        """JSON-ready payload of every field (``repro run --json``)."""
        payload = jsonable(self)
        payload["digest"] = self.digest()
        return dict(payload)

    def render(self) -> str:
        """The ramp table: one row per (adoption, onload policy)."""
        rows = []
        for report in self.reports:
            for summary in report.summaries:
                if summary.policy == "adsl-only":
                    continue
                denials = summary.permit_denials
                rows.append(
                    (
                        fmt(report.adoption),
                        summary.policy,
                        fmt(summary.onload_bytes / GB, 1),
                        fmt(summary.speedup_mean),
                        summary.cap_exhaustions,
                        summary.congested_sector_rounds,
                        denials.get("capacity", 0),
                        denials.get("threshold", 0),
                        fmt(summary.sector_util_max),
                    )
                )
        table = render_table(
            (
                "adoption",
                "policy",
                "3G GB",
                "speedup",
                "cap dry",
                "congested",
                "deny cap",
                "deny util",
                "util max",
            ),
            rows,
            title=(
                "Extension §6/§7 — fleet-scale city day "
                f"({self.n_households} households, seed {self.seed}, "
                f"{fmt(self.backhaul_mbps, 0)} Mbps backhaul)"
            ),
        )
        lines = [table, "", f"digest: {self.digest()}"]
        lines.extend(f"FINDING {finding}" for finding in self.findings)
        return "\n".join(lines)


@experiment(
    "ext-fleet",
    title="Extension §6/§7 — fleet-scale city day (sharded)",
    description="extension: city-scale adoption ramp, sharded fleet",
    paper_ref="§2.4, §6, §7",
    claims=(
        "Paper (analytical only): §6 bounds 3G spending with "
        "per-household daily caps; §7 argues a network-integrated "
        "permit server is needed to protect busy cells.\n"
        "Measured (100k households, 24x oversubscribed backhaul): the "
        "multi-provider architecture onloads the most but drives busy "
        "sectors to full utilization and exhausts tens of thousands of "
        "daily caps by 50% adoption; the network-integrated permit "
        "server keeps every sector at or below its background peak "
        "(the 0.70 acceptance threshold gates admission), at the cost "
        "of denying permits — mostly on server signalling capacity, "
        "the §7 scaling concern — and a smaller mean speedup."
    ),
    bench_params={
        "n_households": 100_000,
        "seed": 0,
        "adoptions": (0.1, 0.25, 0.5, 1.0),
    },
    quick_params={
        "n_households": 1000,
        "seed": 0,
        "adoptions": (0.25, 1.0),
        "households_per_dslam": 128,
        "households_per_sector": 125,
    },
    order=270,
)
def run(
    n_households: int = 1000,
    seed: int = 0,
    adoptions: Sequence[float] = (0.25, 1.0),
    households_per_dslam: int = 512,
    households_per_sector: int = 500,
    backhaul_mbps: float = DEFAULT_BACKHAUL_MBPS,
    n_shards: int = DEFAULT_SHARDS,
) -> FleetSweepResult:
    """Run the adoption ramp; the baseline is shared across the grid."""
    params = FleetParameters(
        n_households=n_households,
        seed=seed,
        households_per_dslam=households_per_dslam,
        households_per_sector=households_per_sector,
        dslam_backhaul_bps=mbps(backhaul_mbps),
    )
    baseline = run_policy(params, "adsl-only", 0.0, n_shards)
    reports = []
    findings = []
    for adoption in adoptions:
        runs: Dict[str, PolicyRun] = {"adsl-only": baseline}
        for policy in ("multi-provider", "network-integrated"):
            runs[policy] = run_policy(params, policy, adoption, n_shards)
        outcome = FleetOutcome(
            params=params, adoption=adoption, runs=runs
        )
        report = FleetReport.from_outcome(outcome)
        reports.append(report)
        findings.extend(
            f"adoption {fmt(adoption)}: {finding}"
            for finding in report.check_conservation(outcome)
        )
    return FleetSweepResult(
        n_households=n_households,
        seed=seed,
        backhaul_mbps=backhaul_mbps,
        reports=tuple(reports),
        findings=tuple(findings),
    )
