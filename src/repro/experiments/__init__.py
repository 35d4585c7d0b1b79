"""Experiment harness: one module per table/figure of the paper.

Every module exposes a ``run(...)`` function decorated with
:func:`repro.experiments.registry.experiment`, which registers it in the
shared catalogue with its description, benchmark-size and ``--quick``
parameter sets, the paper-vs-measured commentary EXPERIMENTS.md embeds,
and its ``checks``: the paper's claims as predicates over the result,
each bound written only there. The result object returned by ``run()``
honours the structured contract: ``render()`` (aligned text table) and
``to_dict()`` (JSON-ready payload).

The registry (:mod:`repro.experiments.registry`) is the single source of
truth: ``python -m repro list``/``run`` read it (``run`` exits 1 when a
check fails), and the report generator
(:mod:`repro.experiments.report`) renders it, verdicts included, into
EXPERIMENTS.md. Execution goes through the engine in
:mod:`repro.experiments.runner` — parallel across processes
(``--jobs``), failure-isolated, and cached on disk keyed by (experiment
id, parameters, source digest).

``python -m repro list`` prints the catalogue; DESIGN.md §4 maps it to
the paper.
"""
