"""The 30-household pilot deployment.

The paper closes with "Our prototype is currently being piloted in 30
households of a large European city, with the intention of a larger scale
deployment later" — but reports no pilot results. This package is that
study: a day-scale simulation of a pilot fleet, each household running
its own workload (videos through the day, a photo upload in the evening)
with the full 3GOL machinery — discovery, cap tracking or permits, the
greedy scheduler — and a paired no-3GOL baseline for every transaction.

Entry points:

* :func:`repro.pilot.workload.generate_household_workloads` — seeded
  per-household day plans;
* :class:`repro.pilot.simulation.PilotStudy` — runs the fleet and
  aggregates the report a pilot operator would read.
"""
