"""The hunt driver: seeded scenario search, dedup, minimisation.

A :class:`HuntSession` generalises the wire fuzzer's loop from byte
payloads to whole scenarios: each iteration draws a fresh scenario from
the seeded generator (or mutates a pool member), executes it through
the full stack, and checks the invariant oracle registry. A violation
is deduplicated by its ``(oracle, extra)`` signature — the same oracle
firing on the same site is the same bug — and the first scenario to
exhibit a new signature is greedily minimised: structural shrink
candidates (drop a fault, null the permit layer, halve the workload,
lose a phone, …) replace the scenario whenever they still reproduce
one of the finding's oracles.

The campaign loop is the shared :func:`repro.util.search.search`; the
session supplies the draw, the check, the pool and the shrink. The
executor is injectable, so inverse-control tests can plant a
violation behind a stub stack and assert the driver finds, dedups and
minimises it deterministically.

Every scenario that ever violated an invariant oracle is pinned, after
minimisation, in the scenario corpus — one human-readable ``.json``
spec per case plus a ``MANIFEST.json`` mapping case ids to the bug each
caught::

    tests/corpus/scenarios/MANIFEST.json
    tests/corpus/scenarios/<case_id>.json

The tier-1 suite replays every case: it "replays clean" when the full
oracle suite comes back empty, so a fixed bug that resurfaces fails the
build with its original witness scenario.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.hunt.oracles import Violation, check_outcome, oracle_ids
from repro.hunt.run import ScenarioOutcome, run_scenario
from repro.hunt.scenario import (
    Scenario,
    generate_scenario,
    generous_cutoff_s,
    mutate_scenario,
)
from repro.util.search import (
    Case,
    Codec,
    Key,
    Report,
    Verdict,
    load_cases,
    replay,
    save_case as _save_case,
    search,
)

__all__ = [
    "HuntReport",
    "HuntSession",
    "ScenarioCase",
    "load_corpus",
    "replay_case",
    "save_case",
]

#: How many recent scenarios the session keeps as mutation bases.
MAX_POOL = 32

#: Executor-call budget for minimising one finding.
MINIMIZE_BUDGET = 40

#: An executor maps a scenario to its outcome (injectable for tests).
Executor = Callable[[Scenario], ScenarioOutcome]

#: A check's detail: the violations the oracle suite reported.
Violations = Tuple[Violation, ...]


class HuntReport(Report[Scenario]):
    """Outcome of one :meth:`HuntSession.run` campaign.

    Each finding's keys are ``(oracle, extra)`` signatures, its case the
    minimised scenario and its detail that scenario's violations.
    """

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form — byte-identical for identical campaigns."""
        return {
            "seed": self.seed,
            "budget": self.budget,
            "runs": self.runs,
            "clean_runs": self.clean_runs,
            "executor_runs": self.executor_runs,
            "oracles": oracle_ids(),
            "findings": [
                {
                    "keys": [list(key) for key in finding.keys],
                    "scenario": finding.case.to_dict(),
                    "original": finding.original.to_dict(),
                    "violations": [v.to_dict() for v in finding.detail],
                    "iteration": finding.iteration,
                    "minimize_runs": finding.shrink_runs,
                    "duplicates": finding.duplicates,
                }
                for finding in self.findings
            ],
        }


def _complexity(scenario: Scenario) -> float:
    """Shrink objective: lower is simpler (drives greedy acceptance)."""
    return (
        len(scenario.faults) * 100.0
        + scenario.n_phones * 10.0
        + scenario.n_items
        + scenario.item_bytes / 10_000.0
        + (0.0 if scenario.cap_budget_bytes is None else 50.0)
        + (0.0 if scenario.permit_revoke_at_s is None else 50.0)
        + (0.0 if scenario.stall_timeout_s is None else 5.0)
        + scenario.cutoff_s / 1_000.0
    )


def _shrink_candidates(scenario: Scenario) -> List[Scenario]:
    """Structural shrink moves, most aggressive first."""
    out: List[Scenario] = []
    for index in range(len(scenario.faults)):
        out.append(
            replace(
                scenario,
                faults=tuple(
                    spec
                    for i, spec in enumerate(scenario.faults)
                    if i != index
                ),
            )
        )
    if scenario.permit_revoke_at_s is not None:
        out.append(replace(scenario, permit_revoke_at_s=None))
    if scenario.cap_budget_bytes is not None:
        out.append(replace(scenario, cap_budget_bytes=None))
    if scenario.n_phones > 1:
        fewer = scenario.n_phones - 1
        out.append(
            replace(
                scenario,
                n_phones=fewer,
                faults=tuple(
                    spec
                    for spec in scenario.faults
                    if spec.target_index <= fewer
                ),
            )
        )
    if scenario.n_items > 1:
        out.append(replace(scenario, n_items=scenario.n_items // 2))
    if scenario.item_bytes > 10_000.0:
        halved = float(int(scenario.item_bytes / 2.0) // 10_000 * 10_000)
        out.append(
            replace(scenario, item_bytes=max(10_000.0, halved))
        )
    if scenario.stall_timeout_s is not None:
        out.append(replace(scenario, stall_timeout_s=None))
    floor = generous_cutoff_s(scenario.n_items, scenario.item_bytes)
    shrunk_cutoff = float(round(max(floor, scenario.cutoff_s * 0.5)))
    if shrunk_cutoff < scenario.cutoff_s:
        out.append(replace(scenario, cutoff_s=shrunk_cutoff))
    return out


class HuntSession:
    """Deterministic adversarial scenario search.

    Everything downstream of ``seed`` is a pure function of it: the
    generator/mutator stream, the execution (seeded fault processes on
    the event engine), the oracle checks, and the minimiser's greedy
    walk — so the same seed and budget produce a byte-identical
    :class:`HuntReport`.
    """

    def __init__(
        self,
        seed: int = 0,
        executor: Optional[Executor] = None,
        only: Optional[Sequence[str]] = None,
    ) -> None:
        self.seed = int(seed)
        self.executor: Executor = executor or run_scenario
        #: Oracle-id subset to check (``None``: the whole registry).
        self.only = list(only) if only is not None else None
        self._rng = np.random.default_rng(self.seed & 0xFFFFFFFF)
        self._pool: List[Scenario] = []

    def draw(self, iteration: int) -> Scenario:
        """A fresh scenario, or (half the time) a mutated pool member."""
        name = f"hunt-{self.seed}-{iteration:04d}"
        if self._pool and self._rng.random() < 0.5:
            base = self._pool[
                int(self._rng.integers(0, len(self._pool)))
            ]
            return mutate_scenario(self._rng, base, name)
        return generate_scenario(self._rng, name)

    def check(self, scenario: Scenario) -> Verdict:
        """Execute one scenario and run the oracle suite over it."""
        violations = tuple(
            check_outcome(self.executor(scenario), only=self.only)
        )
        keys = tuple(sorted({(v.oracle, v.extra) for v in violations}))
        return keys, violations

    def keep(
        self, scenario: Scenario, violations: Violations, new: bool
    ) -> None:
        """Pool clean scenarios and new violators, first in first out.

        A violating scenario is prime mutation material; a duplicate
        adds nothing the pool does not already hold.
        """
        if new or not violations:
            self._pool.append(scenario)
            if len(self._pool) > MAX_POOL:
                del self._pool[0]

    def shrink(
        self, scenario: Scenario, keys: Tuple[Key, ...], violations: Violations
    ) -> Tuple[Scenario, Violations, int]:
        """Greedy structural shrink keeping one of ``keys``' oracles firing.

        Returns ``(minimised scenario, its violations, executor runs)``.
        A candidate is accepted when it is strictly simpler under
        :func:`_complexity` and at least one oracle of ``keys`` still
        fires on it. The witness is re-executed first; should it come
        back clean, the campaign's ``violations`` are kept.
        """
        target_oracles = {oracle for oracle, _ in keys}
        current = scenario
        _, current_violations = self.check(current)
        runs = 1
        improved = True
        while improved and runs < MINIMIZE_BUDGET:
            improved = False
            for candidate in _shrink_candidates(current):
                if _complexity(candidate) >= _complexity(current):
                    continue
                if runs >= MINIMIZE_BUDGET:
                    break
                _, candidate_violations = self.check(candidate)
                runs += 1
                if target_oracles & {v.oracle for v in candidate_violations}:
                    current = candidate
                    current_violations = candidate_violations
                    improved = True
                    break
        minimized = replace(current, name=f"{scenario.name}-min")
        return minimized, current_violations or violations, runs

    def run(self, budget: int) -> HuntReport:
        """Hunt for ``budget`` scenarios; returns the triaged report."""
        return HuntReport(**vars(search(self, self.seed, budget)))


# ---------------------------------------------------------------------------
# The checked-in scenario corpus
# ---------------------------------------------------------------------------

#: One pinned regression scenario (its manifest names no target).
ScenarioCase = Case[Scenario]

#: Specs are stored as their canonical JSON.
SCENARIOS: Codec[Scenario] = Codec(
    ".json",
    lambda scenario: (scenario.to_json() + "\n").encode("utf-8"),
    lambda raw: Scenario.from_json(raw.decode("utf-8")),
)


def save_case(case: ScenarioCase, root: Path) -> Path:
    """Pin one case in the corpus directory ``root``; returns its path."""
    return _save_case(case, root, SCENARIOS)


def load_corpus(root: Path) -> Tuple[ScenarioCase, ...]:
    """Every case pinned in ``root``, sorted by case id."""
    return load_cases(root, SCENARIOS)


def replay_case(
    case: ScenarioCase, executor: Optional[Executor] = None
) -> Optional[str]:
    """Replay one pinned scenario through the full oracle suite.

    ``None`` when no oracle fires; otherwise a failure naming every
    ``(oracle, extra)`` that fired — the old bug resurfacing.
    """
    return replay(HuntSession(executor=executor).check, case)
