#!/usr/bin/env python
"""Simulate the paper's 30-household pilot deployment.

The paper closes with "Our prototype is currently being piloted in 30
households of a large European city" — and reports nothing further. This
example runs that pilot: thirty homes across the five evaluation
locations, each with its own day of videos and photo uploads, phones
metering their 20 MB/day budgets, and a paired no-3GOL baseline for every
transaction.
"""

from collections import defaultdict

from repro.pilot.simulation import PilotStudy
from repro.pilot.workload import generate_household_workloads


def main() -> None:
    plans = generate_household_workloads(n_households=30, seed=42)
    print(
        f"Simulating {len(plans)} households, "
        f"{sum(len(p.events) for p in plans)} transactions...\n"
    )
    report = PilotStudy(plans, seed=42).run()
    print(report.render())

    # Per-location breakdown, the way a pilot operator would slice it.
    by_location = defaultdict(list)
    for outcome in report.outcomes:
        by_location[outcome.location_name].extend(outcome.speedups())
    print("\nmean speedup by location:")
    for location, speedups in sorted(by_location.items()):
        mean = sum(speedups) / len(speedups) if speedups else 1.0
        print(f"  {location:<6s} x{mean:.2f} over {len(speedups)} events")

    heavy = max(report.outcomes, key=lambda o: o.total_onloaded_bytes)
    print(
        f"\nheaviest 3GOL user: {heavy.household_id} "
        f"({heavy.total_onloaded_bytes / 1e6:.0f} MB onloaded)"
    )


if __name__ == "__main__":
    main()
