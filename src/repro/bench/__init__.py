"""In-repo performance baselines (``BENCH_*.json``).

The repo's perf trajectory is tracked by small committed benchmark
records at the repository root, one JSON file per benchmark (schema in
``docs/PERFORMANCE.md``). ``repro-bench`` (or ``python -m repro.bench``)
measures them; CI re-measures and fails when a benchmark regresses more
than :data:`~repro.bench.harness.REGRESSION_THRESHOLD` against the
committed record.

Two benchmark kinds exist:

* **experiment-quick** — a registered experiment at its quick profile
  (``fig06``, ``ext-churn``), timed end to end through the normal
  experiment runner. These are pinned to the same seeds the golden
  traces use, so their event count cannot drift silently.
* **engine-scale** — a pure-:mod:`repro.netsim` workload with hundreds
  of concurrent flows (:mod:`repro.bench.scenarios`), isolating the
  discrete-event engine and the vectorized fluid stepper from scheduler
  and reporting overhead.

Wall-clock medians are not comparable across machines, so every record
also stores a *calibration* time (a fixed pure-Python workload measured
in the same session) and the dimensionless ``normalized`` ratio
``median / calibration`` the regression gate actually compares.
"""
