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
loop, finding record and corpus codec are the ones the wire fuzzer uses
too (:mod:`repro.util.search`). The ``repro-hunt`` CLI fronts the whole
loop.
"""

from repro.hunt.oracles import (
    ORACLES,
    Oracle,
    Violation,
    check_outcome,
    oracle_ids,
)
from repro.hunt.run import HUNT_LOCATION, ScenarioOutcome, run_scenario
from repro.hunt.scenario import (
    FaultSpec,
    Scenario,
    generate_scenario,
    generous_cutoff_s,
    mutate_scenario,
)
from repro.hunt.session import HuntReport, HuntSession
from repro.hunt.session import ScenarioCase, load_corpus, replay_case, save_case

__all__ = [
    "FaultSpec",
    "HUNT_LOCATION",
    "HuntReport",
    "HuntSession",
    "ORACLES",
    "Oracle",
    "Scenario",
    "ScenarioCase",
    "ScenarioOutcome",
    "Violation",
    "check_outcome",
    "generate_scenario",
    "generous_cutoff_s",
    "load_corpus",
    "mutate_scenario",
    "oracle_ids",
    "replay_case",
    "run_scenario",
    "save_case",
]
