"""Adversarial scenario search with an invariant oracle suite.

This package generalises the wire fuzzer from byte payloads to whole
*scenarios*: seeded fault schedules, cap budgets, permit revocations,
policy and workload choices, all captured in one JSON-serialisable
:class:`~repro.hunt.scenario.Scenario` spec. The
:class:`~repro.hunt.session.HuntSession` generates and mutates
scenarios deterministically, executes each through the full stack
(:func:`~repro.hunt.run.run_scenario`), and checks the registry of
invariant oracles (:mod:`repro.hunt.oracles`). Violations are
deduplicated, greedily minimised, and pinned as human-readable specs in
the replayable corpus under ``tests/corpus/scenarios/``. The campaign
loop and finding record are the ones the wire fuzzer uses too
(:mod:`repro.util.search`).

The ``repro-hunt`` CLI (:mod:`repro.hunt.cli`) fronts every seeded
search in the repository: this scenario target and the four wire fuzz
targets of :mod:`repro.fuzz`, all named in one campaign table
(:mod:`repro.hunt.targets`) that also loads and replays the whole
regression corpus.
"""
