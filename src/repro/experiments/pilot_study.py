"""The 30-household pilot as a registered experiment.

The pilot lives in :mod:`repro.pilot`; this wrapper gives it a place in
the experiment catalogue so the report and the CLI reach it, and gate
its checks, the same way as every table/figure reproduction. The pilot
itself loads when ``run()`` is called, so ``repro pilot`` can read the
registered parameters for its defaults without loading the simulator.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.experiments.registry import Check, experiment

if TYPE_CHECKING:
    from repro.pilot.simulation import PilotReport


@experiment(
    "pilot",
    title="Pilot — the 30-household deployment",
    description="the 30-household pilot deployment (S7)",
    paper_ref="§7",
    claims=(
        "Paper: announced ('currently being piloted in 30 "
        "households'), results never reported.\n"
        "Measured: across 30 homes and 112 transactions in one day, "
        "with each phone held to its 20 MB daily budget: mean video "
        "speedup ~x1.7, mean upload speedup ~x1.3, >90% of events "
        "boosted and ~30 MB/household/day onloaded. The evening uploads "
        "find the budgets nearly spent, so most are assisted only "
        "briefly (x1.03-x2.06); the x3 and ~56 MB/day of early builds "
        "were measured while a phone could keep uploading past its "
        "budget."
    ),
    bench_params={"n_households": 30, "seed": 1},
    quick_params={"n_households": 4},
    checks=(
        Check("video_speedup_above_1_3",
              "§7: 'currently being piloted in 30 households'",
              lambda r: r.mean_video_speedup > 1.3),
        Check("upload_speedup_above_1_2",
              "§7: the pilot's uploads gain within the daily budget",
              lambda r: r.mean_upload_speedup > 1.2),
        Check("boosted_fraction_above_60pct",
              "§7: most of the pilot's transactions are boosted",
              lambda r: r.boosted_event_fraction > 0.6),
        Check("onload_below_200_mb",
              "§7: the onloaded volume per household stays bounded",
              lambda r: r.mean_onloaded_mb_per_household < 200.0),
    ),
    order=260,
)
def run(n_households: int = 30, seed: int = 1) -> PilotReport:
    """Simulate the pilot fleet for one day."""
    from repro.pilot.simulation import PilotStudy
    from repro.pilot.workload import generate_household_workloads

    plans = generate_household_workloads(
        n_households=n_households, seed=seed
    )
    return PilotStudy(plans, seed=seed).run()
