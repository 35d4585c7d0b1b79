"""Analysis helpers over the simulator's and traces' outputs.

* :mod:`repro.analysis.stats` — empirical CDFs, violin summaries and
  speedup/reduction arithmetic for the figures;
* :mod:`repro.analysis.capacity` — the §2.1 capacity back-of-envelope;
* :mod:`repro.analysis.economics` — cap economics of the guard (§6);
* :mod:`repro.analysis.load` — the §6 trace-driven load analyses.
"""
