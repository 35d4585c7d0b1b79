"""Deterministic observability: tracing, metrics, profiling.

The package is the cross-cutting substrate the evaluation leans on —
per-path utilisation, duplicate-transfer waste, stall/retry timing, cap
and permit churn — as first-class, schema-versioned records instead of
ad-hoc aggregates:

* :mod:`repro.obs.tracer` — a :class:`~repro.obs.tracer.Tracer` of
  typed events stamped with the **engine clock** (never wall clock), so
  a trace of a simulated run is byte-identical across runs and
  ``--jobs`` counts;
* :mod:`repro.obs.metrics` — a
  :class:`~repro.obs.metrics.MetricsRegistry` of counters, gauges and
  fixed-bucket histograms with deterministic snapshots;
* :mod:`repro.obs.capture` — the :class:`~repro.obs.capture.\
Instrumentation` handle instrumented components hold, plus the
  :func:`~repro.obs.capture.capture` context manager /
  :func:`~repro.obs.capture.current` module global that turn collection
  on. **Off is the default**: every instrumented hot path guards with
  ``if obs is not None``, so an un-captured run pays one attribute test
  per checkpoint (see ``benchmarks/test_obs_overhead.py``);
* :mod:`repro.obs.schema` — the event/metric catalogue, the stable
  contract documented in ``docs/TRACE_SCHEMA.md``;
* :mod:`repro.obs.export` — JSONL export, parse, summary and diff;
* :mod:`repro.obs.cli` — the ``repro-trace`` console entry point.
"""
