"""repro-lint: AST-based invariant checks for the reproduction.

A self-contained static-analysis layer that enforces the conventions
the simulator's correctness rests on. Per-module rules see one file's
AST at a time:

* **RL001** — stochastic code draws from seeded RngFactory streams;
* **RL002** — unit conversions go through :mod:`repro.util.units`;
* **RL003** — experiment modules honour the ``@experiment`` contract;
* **RL004** — recovery paths never swallow exceptions;
* **RL005** — no exact ``==`` on simulated clocks or byte volumes;
* **RL007** — public surfaces carry one-line docstring summaries;
* **RL012** — blocking socket operations carry explicit timeouts.

Project rules see the whole tree at once — symbol table, call graph
and dataflow summaries (:mod:`repro.lint.graph`,
:mod:`repro.lint.project`):

* **RL008** — RNG seeds derive from a seeded RngFactory root,
  transitively through helpers;
* **RL009** — instrumentation sites emit only catalogued event/metric
  names and fields (obs/schema.py);
* **RL010** — CapTracker/PermitServer mutations happen only in the
  guard layer (the static twin of the hunt's authority oracle);
* **RL011** — only ProtocolError escapes wire parse paths, raised
  there or proven across call boundaries.

Run it with the ``repro-lint`` console script (see
:mod:`repro.lint.cli`), or programmatically via the
:mod:`repro.lint.core` functions ``lint_source`` / ``lint_paths`` /
``lint_sources``. Suppress a justified exception inline with
``# repro-lint: disable=<code>``; dead comments are flagged by
``--warn-unused-suppressions``.
"""
