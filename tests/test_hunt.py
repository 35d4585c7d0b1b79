"""The scenario hunter: specs, oracles, the driver, corpus, CLI.

Determinism is the load-bearing property — a campaign is a pure
function of its seed, so the same seed twice must produce byte-identical
reports. Every oracle gets an inverse-control pair: a hand-built outcome
with exactly one planted defect must fire exactly that oracle, and a
clean outcome must fire none. The checked-in corpus under
``tests/corpus/scenarios/`` is replayed case by case: each spec once
violated an invariant, so a replay failure is a fixed bug resurfacing.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.core.resilience import DegradationEvent
from repro.hunt.cli import main as hunt_main
from repro.hunt.oracles import ORACLES, check_outcome, oracle_ids
from repro.hunt.run import ScenarioOutcome, run_scenario
from repro.hunt.scenario import (
    FaultSpec,
    Scenario,
    generate_scenario,
    generous_cutoff_s,
    mutate_scenario,
)
from repro.hunt.session import HuntSession
from repro.hunt.targets import TARGETS, load_corpus, replay_case, save_case
from repro.util.search import Case, replay
from tests.test_trace_golden import _traced_lines

CORPUS_ROOT = Path(__file__).resolve().parent / "corpus" / "scenarios"


def golden_dict(report):
    """``report.to_dict()`` without the ``target`` key the digest predates."""
    return {
        key: value
        for key, value in report.to_dict().items()
        if key != "target"
    }


def spec(**overrides):
    """A small, fast, fault-free scenario (completes in seconds)."""
    base = dict(
        name="t",
        seed=1,
        policy="GRD",
        n_phones=1,
        n_items=4,
        item_bytes=50_000.0,
        cutoff_s=120.0,
    )
    base.update(overrides)
    return Scenario(**base)


def trace(*events):
    """Export-shaped lines: a header plus the given event payloads."""
    lines = [
        json.dumps(
            {
                "type": "header",
                "schema": 1,
                "experiment": "hunt:t",
                "params": {},
                "emitted": len(events),
                "dropped": 0,
            }
        )
    ]
    for seq, (name, time, fields) in enumerate(events):
        lines.append(
            json.dumps(
                {
                    "type": "event",
                    "seq": seq,
                    "name": name,
                    "time": time,
                    "fields": fields,
                }
            )
        )
    return tuple(lines)


# ---------------------------------------------------------------------------
# Scenario specs
# ---------------------------------------------------------------------------


class TestScenario:
    def test_json_round_trip(self):
        scenario = spec(
            cap_budget_bytes=1_000_000.0,
            permit_revoke_at_s=5.0,
            faults=(FaultSpec(kind="flap", target_index=1, seed=7),),
        )
        assert Scenario.from_json(scenario.to_json()) == scenario

    def test_to_json_is_stable(self):
        scenario = spec()
        assert scenario.to_json() == scenario.to_json()

    def test_unknown_keys_rejected(self):
        payload = json.loads(spec().to_json())
        payload["surprise"] = 1
        with pytest.raises(ValueError, match="surprise"):
            Scenario.from_dict(payload)

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            spec(policy="FIFO")

    def test_fault_target_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="target_index"):
            spec(faults=(FaultSpec(kind="flap", target_index=5, seed=1),))

    def test_generous_cutoff_scales_with_payload(self):
        assert generous_cutoff_s(10, 100_000.0) > generous_cutoff_s(
            5, 100_000.0
        )

    def test_generator_is_seed_deterministic(self):
        a = generate_scenario(np.random.default_rng(7), "s")
        b = generate_scenario(np.random.default_rng(7), "s")
        assert a == b

    def test_mutator_is_seed_deterministic(self):
        base = generate_scenario(np.random.default_rng(7), "s")
        a = mutate_scenario(np.random.default_rng(9), base, "m")
        b = mutate_scenario(np.random.default_rng(9), base, "m")
        assert a == b
        assert a != base


# ---------------------------------------------------------------------------
# Oracles: one planted defect per oracle, plus a clean control
# ---------------------------------------------------------------------------


class TestOracleInverseControls:
    def fired(self, outcome):
        return [v.oracle for v in check_outcome(outcome)]

    def test_clean_outcome_fires_nothing(self):
        outcome = ScenarioOutcome(scenario=spec(), completed=True)
        assert self.fired(outcome) == []

    def test_crash(self):
        outcome = ScenarioOutcome(
            scenario=spec(),
            error="ValueError('boom')",
            error_site="core/x.py:1:f",
        )
        assert self.fired(outcome) == ["crash"]

    def test_trace_schema(self):
        outcome = ScenarioOutcome(
            scenario=spec(), completed=True, trace_lines=("not json",)
        )
        assert self.fired(outcome) == ["trace-schema"]

    def test_clock_monotonic(self):
        outcome = ScenarioOutcome(
            scenario=spec(),
            completed=True,
            trace_lines=trace(
                ("copy.start", 2.0, {"path": "p"}),
                ("copy.start", 1.0, {"path": "p"}),
            ),
        )
        assert self.fired(outcome) == ["clock-monotonic"]

    def test_authority_discipline(self):
        outcome = ScenarioOutcome(
            scenario=spec(),
            completed=True,
            trace_lines=trace(
                (
                    "degradation",
                    1.0,
                    {"kind": "cap-exhausted", "path": "p", "item": ""},
                ),
                ("copy.start", 2.0, {"path": "p", "item": "item000"}),
            ),
        )
        violations = check_outcome(outcome)
        assert [v.oracle for v in violations] == ["authority-discipline"]
        assert violations[0].extra == "p"

    def test_authority_discipline_allows_prior_copies(self):
        outcome = ScenarioOutcome(
            scenario=spec(),
            completed=True,
            trace_lines=trace(
                ("copy.start", 0.5, {"path": "p", "item": "item000"}),
                (
                    "degradation",
                    1.0,
                    {"kind": "cap-exhausted", "path": "p", "item": ""},
                ),
            ),
        )
        assert self.fired(outcome) == []

    def test_cap_conservation(self):
        outcome = ScenarioOutcome(
            scenario=spec(cap_budget_bytes=1_000_000.0),
            completed=True,
            device_paths={"ph0": "p"},
            path_bytes={"p": 500_000.0},
            cap_used={"ph0": 100_000.0},
        )
        violations = check_outcome(outcome)
        assert [v.oracle for v in violations] == ["cap-conservation"]
        assert violations[0].extra == "ph0"

    def test_waste_bound(self):
        scenario = spec(n_items=8, item_bytes=100_000.0)
        outcome = ScenarioOutcome(
            scenario=scenario,
            completed=True,
            n_paths=2,
            # Allowance: (2-1) * (min(8,2)+0) * 100kB = 200kB.
            duplicate_waste_bytes=300_000.0,
        )
        assert self.fired(outcome) == ["waste-bound"]

    def test_waste_bound_disruptions_raise_allowance(self):
        scenario = spec(n_items=8, item_bytes=100_000.0)
        outcome = ScenarioOutcome(
            scenario=scenario,
            completed=True,
            n_paths=2,
            duplicate_waste_bytes=300_000.0,
            degradations=(
                DegradationEvent(time=1.0, kind="path-fault"),
                DegradationEvent(time=2.0, kind="path-rejoin"),
            ),
        )
        assert self.fired(outcome) == []

    def test_completion(self):
        scenario = spec(cutoff_s=generous_cutoff_s(4, 50_000.0) + 1.0)
        outcome = ScenarioOutcome(
            scenario=scenario, completed=False, end_time=10.0
        )
        assert self.fired(outcome) == ["completion"]

    def test_completion_tolerates_faulty_scenarios(self):
        scenario = spec(
            cutoff_s=generous_cutoff_s(4, 50_000.0) + 1.0,
            faults=(FaultSpec(kind="flap", target_index=1, seed=1),),
        )
        outcome = ScenarioOutcome(scenario=scenario, completed=False)
        assert self.fired(outcome) == []

    def test_watchdog_storm(self):
        stalls = tuple(
            DegradationEvent(time=float(i), kind="stall")
            for i in range(5)
        )
        outcome = ScenarioOutcome(
            scenario=spec(stall_timeout_s=10.0),
            completed=True,
            n_paths=1,
            end_time=10.0,
            degradations=stalls,  # ceiling: 1 * (10/10 + 1) = 2
        )
        assert self.fired(outcome) == ["watchdog-storm"]

    def test_retry_discipline(self):
        outcome = ScenarioOutcome(
            scenario=spec(),
            completed=True,
            trace_lines=trace(
                ("retry.scheduled", 1.0, {"item": "item000", "attempt": 1}),
                ("retry.scheduled", 2.0, {"item": "item000", "attempt": 3}),
            ),
        )
        violations = check_outcome(outcome)
        assert [v.oracle for v in violations] == ["retry-discipline"]
        assert violations[0].extra == "item000"

    def test_drain_discipline_stranded_flow(self):
        outcome = ScenarioOutcome(
            scenario=spec(),
            completed=True,
            trace_lines=trace(
                (
                    "service.flow.admit",
                    1.0,
                    {"flow": "f0", "leg": "adsl"},
                ),
                (
                    "service.state",
                    2.0,
                    {"state": "stopped", "previous": "draining"},
                ),
            ),
        )
        violations = check_outcome(outcome)
        assert [v.oracle for v in violations] == ["drain-discipline"]
        assert violations[0].extra == "f0"

    def test_drain_discipline_clean_pairing(self):
        outcome = ScenarioOutcome(
            scenario=spec(),
            completed=True,
            trace_lines=trace(
                (
                    "service.flow.admit",
                    1.0,
                    {"flow": "f0", "leg": "adsl"},
                ),
                (
                    "service.flow.end",
                    2.0,
                    {
                        "flow": "f0",
                        "outcome": "aborted",
                        "reason": "drain-aborted",
                        "status": 0,
                        "transferred_bytes": 0,
                        "latency_s": 1.0,
                    },
                ),
                (
                    "service.state",
                    3.0,
                    {"state": "stopped", "previous": "draining"},
                ),
            ),
        )
        assert self.fired(outcome) == []

    def test_drain_discipline_non_terminal_outcome(self):
        outcome = ScenarioOutcome(
            scenario=spec(),
            completed=True,
            trace_lines=trace(
                (
                    "service.flow.admit",
                    1.0,
                    {"flow": "f0", "leg": "adsl"},
                ),
                (
                    "service.flow.end",
                    2.0,
                    {"flow": "f0", "outcome": "in-flight"},
                ),
            ),
        )
        assert self.fired(outcome) == ["drain-discipline"]

    def test_drain_discipline_running_service_not_stranded(self):
        # No `stopped` state in the trace: an admitted flow without an
        # end event is simply still in flight, not a violation.
        outcome = ScenarioOutcome(
            scenario=spec(),
            completed=True,
            trace_lines=trace(
                (
                    "service.flow.admit",
                    1.0,
                    {"flow": "f0", "leg": "adsl"},
                ),
            ),
        )
        assert self.fired(outcome) == []

    def test_only_subset_and_unknown_id(self):
        outcome = ScenarioOutcome(
            scenario=spec(), error="x", error_site="s"
        )
        assert check_outcome(outcome, only=["completion"]) == []
        with pytest.raises(KeyError, match="unknown oracle"):
            check_outcome(outcome, only=["no-such-oracle"])

    def test_registry_ids_are_unique(self):
        assert len(set(oracle_ids())) == len(ORACLES)


class TestOracleCleanControls:
    """The oracle suite stays silent on known-good full-stack traces."""

    @pytest.mark.parametrize("experiment", ["fig06", "ext-churn"])
    def test_quick_experiment_traces_are_clean(self, experiment):
        lines = tuple(_traced_lines(experiment))
        whole = ScenarioOutcome(
            scenario=spec(), completed=True, trace_lines=lines
        )
        assert check_outcome(whole, only=["trace-schema"]) == []
        # The per-run oracles must hold within each transaction: the
        # export concatenates many runs (the clock resets and item
        # labels repeat at every ``txn.begin``), so segment it first.
        segments, current = [], []
        for event in whole.events():
            if event.get("name") == "txn.begin" and current:
                segments.append(current)
                current = []
            current.append(
                (event["name"], event.get("time"), event.get("fields", {}))
            )
        if current:
            segments.append(current)
        assert len(segments) > 1
        per_run = [
            "clock-monotonic",
            "authority-discipline",
            "retry-discipline",
        ]
        for segment in segments:
            outcome = ScenarioOutcome(
                scenario=spec(),
                completed=True,
                trace_lines=trace(*segment),
            )
            assert check_outcome(outcome, only=per_run) == []

    def test_small_live_scenario_is_clean(self):
        violations = check_outcome(run_scenario(spec()))
        assert violations == []


# ---------------------------------------------------------------------------
# The hunt driver
# ---------------------------------------------------------------------------


#: sha256 of the planted campaign in
#: ``test_planted_campaign_matches_golden_digest``, ``golden_dict()``
#: rendered with sorted keys.
PLANTED_CAMPAIGN_SHA256 = (
    "ee6057d80c1a459e4a55da326c84897de2096eb1a64a4bdfddb23d57069d9533"
)


def planted_executor(outcome_for):
    """An executor stub: ``outcome_for(scenario)`` decides the defect."""

    def execute(scenario):
        return outcome_for(scenario)

    return execute


class TestHuntSession:
    def test_same_seed_same_report_bytes(self):
        render = lambda report: json.dumps(  # noqa: E731
            report.to_dict(), sort_keys=True
        )
        first = HuntSession(seed=3).run(12)
        second = HuntSession(seed=3).run(12)
        assert render(first) == render(second)

    def test_different_seeds_differ(self):
        a = HuntSession(seed=0).draw(0)
        b = HuntSession(seed=1).draw(0)
        assert a != b

    def test_planted_violation_found_deduped_minimized(self):
        def outcome_for(scenario):
            outcome = ScenarioOutcome(scenario=scenario, completed=True)
            if scenario.n_items >= 4:
                outcome.completed = False
                outcome.error = "RuntimeError('planted')"
                outcome.error_site = "core/fake.py:1:boom"
            return outcome

        session = HuntSession(
            seed=0, executor=planted_executor(outcome_for)
        )
        report = session.run(20)
        # Generated scenarios draw n_items >= 4, so every run hits the
        # plant; dedup by (oracle, site) keeps exactly one finding.
        assert len(report.findings) == 1
        finding = report.findings[0]
        assert finding.keys == (("crash", "core/fake.py:1:boom"),)
        assert finding.duplicates > 0
        # Greedy shrink drove the witness to the smallest reproducer.
        assert finding.case.n_items in (4, 5, 6, 7)
        assert finding.case.faults == ()
        assert finding.case.cap_budget_bytes is None
        assert finding.case.permit_revoke_at_s is None
        assert finding.detail[0].oracle == "crash"

    def test_minimize_is_deterministic(self):
        def outcome_for(scenario):
            outcome = ScenarioOutcome(scenario=scenario, completed=True)
            if scenario.n_items >= 4:
                outcome.error = "x"
                outcome.error_site = "s"
            return outcome

        base = spec(
            n_items=24,
            cap_budget_bytes=2_000_000.0,
            faults=(FaultSpec(kind="flap", target_index=1, seed=3),),
        )
        results = [
            HuntSession(
                seed=0, executor=planted_executor(outcome_for)
            ).shrink(base, (("crash", "s"),), ())
            for _ in range(2)
        ]
        assert results[0] == results[1]
        minimized, violations, _runs = results[0]
        assert minimized.faults == ()
        assert minimized.cap_budget_bytes is None
        assert violations[0].oracle == "crash"

    def test_planted_campaign_matches_golden_digest(self):
        # Pinned across commits, not just across two runs: a changed
        # scenario stream, dedup rule or shrink walk moves the digest.
        # The plant yields clean runs, partially overlapping multi-key
        # findings and shrinks that exhaust their budget.
        def outcome_for(scenario):
            outcome = ScenarioOutcome(scenario=scenario, completed=True)
            if scenario.n_items >= 12 and scenario.faults:
                outcome.completed = False
                outcome.error = "RuntimeError('planted')"
                outcome.error_site = (
                    f"core/fake.py:{len(scenario.faults)}:boom"
                )
            elif scenario.n_items >= 8:
                outcome.completed = False
                outcome.trace_lines = trace(
                    ("copy.start", 2.0, {"path": "p"}),
                    ("copy.start", 1.0, {"path": "p"}),
                )
            return outcome

        report = HuntSession(
            seed=2, executor=planted_executor(outcome_for)
        ).run(30)
        assert 0 < report.clean_runs < report.runs
        assert (
            ("clock-monotonic", "copy.start"), ("completion", "")
        ) in [finding.keys for finding in report.findings]
        assert report.to_dict()["target"] == "scenario"
        rendered = json.dumps(golden_dict(report), sort_keys=True)
        assert (
            hashlib.sha256(rendered.encode("utf-8")).hexdigest()
            == PLANTED_CAMPAIGN_SHA256
        )

    def test_clean_campaign_reports_clean(self):
        def outcome_for(scenario):
            return ScenarioOutcome(scenario=scenario, completed=True)

        report = HuntSession(
            seed=5, executor=planted_executor(outcome_for)
        ).run(10)
        assert report.clean
        assert report.clean_runs == report.runs == 10
        assert report.executor_runs == 10


# ---------------------------------------------------------------------------
# Corpus replay: every pinned case is a fixed bug staying fixed
# ---------------------------------------------------------------------------


class TestCorpus:
    def test_corpus_is_checked_in_and_big_enough(self):
        cases = load_corpus(CORPUS_ROOT)
        assert len(cases) >= 5

    def test_every_case_is_pinned_to_a_bug(self):
        for case in load_corpus(CORPUS_ROOT):
            assert case.description, case.case_id
            assert case.witness.name == case.case_id

    @pytest.mark.parametrize(
        "case",
        load_corpus(CORPUS_ROOT),
        ids=lambda case: case.case_id,
    )
    def test_case_replays_clean(self, case):
        assert replay_case(case) is None

    def test_save_and_load_round_trip(self, tmp_path):
        case = Case(
            target="scenario",
            case_id="roundtrip",
            description="a bug description",
            witness=spec(name="roundtrip"),
        )
        save_case(case, tmp_path)
        loaded = load_corpus(tmp_path)
        assert loaded == (case,)

    def test_replay_reports_a_resurfaced_bug(self, tmp_path):
        case = Case(
            target="scenario",
            case_id="resurfaced",
            description="planted",
            witness=spec(name="resurfaced"),
        )

        def executor(scenario):
            return ScenarioOutcome(
                scenario=scenario, error="x", error_site="s"
            )

        failure = replay(HuntSession(executor=executor).check, case)
        assert failure is not None
        assert "resurfaced" in failure
        assert "crash" in failure


# ---------------------------------------------------------------------------
# The rejoin gate and drain migration, end to end through the hunter
# ---------------------------------------------------------------------------


class TestFixedBugsStayFixed:
    def test_cap_exhausted_path_never_rejoins(self):
        scenario = spec(
            name="veto",
            n_items=12,
            item_bytes=400_000.0,
            cutoff_s=800.0,
            cap_budget_bytes=500_000.0,
            faults=(
                FaultSpec(
                    kind="flap",
                    target_index=1,
                    seed=7,
                    mean_up_s=20.0,
                    mean_down_s=5.0,
                ),
            ),
        )
        outcome = run_scenario(scenario)
        assert outcome.completed
        kinds = [event.kind for event in outcome.degradations]
        assert "cap-exhausted" in kinds
        assert "rejoin-vetoed" in kinds
        assert check_outcome(outcome) == []

    @pytest.mark.parametrize("policy", ["RR", "MIN"])
    def test_cap_drain_never_strands_static_queues(self, policy):
        scenario = spec(
            name="drain",
            policy=policy,
            n_items=12,
            item_bytes=240_000.0,
            cutoff_s=479.0,
            stall_timeout_s=None,
            retry_max_attempts=4,
            cap_budget_bytes=1_123_330.0,
        )
        outcome = run_scenario(scenario)
        assert outcome.completed
        assert check_outcome(outcome) == []


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCli:
    def test_clean_run_exits_zero(self, capsys):
        assert hunt_main(["run", "--seed", "0", "--budget", "5"]) == 0
        out = capsys.readouterr().out
        for name in TARGETS:
            assert out.count(f"{name}: ") == 1
        assert "all clean" in out

    def test_json_format_is_parseable(self, capsys):
        assert (
            hunt_main(
                [
                    "run", "--target", "scenario", "--seed", "0",
                    "--budget", "5", "--format", "json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is True
        (report,) = payload["reports"]
        assert report["target"] == "scenario"
        assert report["seed"] == 0
        assert report["budget"] == 5
        assert report["findings"] == []

    def test_oracle_subset(self, capsys):
        assert (
            hunt_main(
                [
                    "run",
                    "--target",
                    "scenario",
                    "--seed",
                    "0",
                    "--budget",
                    "3",
                    "--oracles",
                    "crash,completion",
                ]
            )
            == 0
        )

    def test_unknown_oracle_is_usage_error(self, capsys):
        assert (
            hunt_main(
                ["run", "--budget", "3", "--oracles", "nope"]
            )
            == 2
        )
        # --oracles subsets the scenario suite; wire targets alone
        # cannot take it.
        assert (
            hunt_main(
                ["run", "--target", "m3u8", "--oracles", "crash"]
            )
            == 2
        )
        assert "needs the scenario target" in capsys.readouterr().err

    def test_bad_budget_is_usage_error(self):
        assert hunt_main(["run", "--budget", "0"]) == 2

    def test_replay_corpus_directory(self, capsys):
        assert hunt_main(["replay", str(CORPUS_ROOT)]) == 0
        out = capsys.readouterr().out
        assert "clean" in out
        # The whole corpus, wire and scenario cases alike.
        assert hunt_main(["replay", str(CORPUS_ROOT.parent)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 34
        assert all(line.endswith(": clean") for line in lines)
        assert {line.split("/")[0] for line in lines} == set(TARGETS)

    def test_replay_single_spec(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        path.write_text(spec(name="one").to_json(), encoding="utf-8")
        assert hunt_main(["replay", str(path)]) == 0
        assert "scenario/one: clean" in capsys.readouterr().out

    def test_replay_unreadable_spec_is_usage_error(self, tmp_path):
        assert hunt_main(["replay", str(tmp_path / "missing.json")]) == 2

    def test_minimize_clean_spec_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "clean.json"
        path.write_text(spec(name="clean").to_json(), encoding="utf-8")
        assert hunt_main(["minimize", str(path)]) == 0

    def test_list_oracles(self, capsys):
        assert hunt_main(["list"]) == 0
        out = capsys.readouterr().out
        for name in TARGETS:
            assert f"{name}: " in out
        for oracle in ORACLES:
            assert oracle.oracle_id in out


# ---------------------------------------------------------------------------
# Determinism of the full campaign through the real stack
# ---------------------------------------------------------------------------


class TestEndToEndDeterminism:
    def test_seed_zero_report_is_byte_identical(self):
        first = json.dumps(
            HuntSession(seed=0).run(8).to_dict(), sort_keys=True
        )
        second = json.dumps(
            HuntSession(seed=0).run(8).to_dict(), sort_keys=True
        )
        assert first == second

    def test_scenario_outcomes_replay_identically(self):
        scenario = replace(
            generate_scenario(np.random.default_rng(11), "replay"),
        )
        first = run_scenario(scenario)
        second = run_scenario(scenario)
        assert first.trace_lines == second.trace_lines
        assert first.completed == second.completed
        assert first.cap_used == second.cap_used
