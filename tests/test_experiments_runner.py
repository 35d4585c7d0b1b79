"""The parallel, cache-aware experiment runner."""

import json

import pytest

from repro.cli import main
from repro.experiments import registry, runner
from repro.experiments.registry import Check, ExperimentSpec
from repro.experiments.runner import ResultCache, run_experiments


#: Cheap experiments used throughout; quick sizes keep this suite fast.
IDS = ("sec21", "fig10", "fig11c", "table04")


def _run(ids=IDS, **kwargs):
    kwargs.setdefault("quick", True)
    return run_experiments(list(ids), **kwargs)


def _crashing_run():
    raise RuntimeError("deliberate crash for testing")


def _crash_spec():
    return ExperimentSpec(
        id="crash-test",
        title="crash",
        description="always raises",
        paper_ref="",
        claims="",
        bench_params={},
        quick_params={},
        order=999,
        func=_crashing_run,
    )


class TestSerial:
    def test_outcomes_in_request_order(self):
        outcomes = _run()
        assert [o.experiment_id for o in outcomes] == list(IDS)
        assert all(o.status == "ok" for o in outcomes)
        assert all(o.elapsed_s >= 0.0 for o in outcomes)

    def test_rendered_and_payload_populated(self):
        outcome = _run(["sec21"])[0]
        assert "back-of-envelope" in outcome.rendered
        json.dumps(outcome.payload)

    def test_unknown_id_raises_before_running(self):
        with pytest.raises(registry.UnknownExperimentError):
            _run(["sec21", "fig99"])

    def test_overrides_reach_run(self):
        outcome = _run(
            ["fig10"], overrides={"fig10": {"n_users": 123}}
        )[0]
        assert outcome.params["n_users"] == 123
        assert outcome.payload["ecdf"]["n"] == 123


class TestFailureIsolation:
    def test_crash_yields_error_entry_serial(self):
        with registry.temporary_experiment(_crash_spec()):
            outcomes = _run(["sec21", "crash-test", "fig10"])
        statuses = {o.experiment_id: o.status for o in outcomes}
        assert statuses == {
            "sec21": "ok", "crash-test": "error", "fig10": "ok",
        }
        failed = outcomes[1]
        assert "deliberate crash" in failed.error
        assert failed.payload is None
        assert not failed.ok

    def test_crash_yields_error_entry_parallel(self):
        with registry.temporary_experiment(_crash_spec()):
            outcomes = _run(["sec21", "crash-test", "fig10"], jobs=2)
        statuses = {o.experiment_id: o.status for o in outcomes}
        assert statuses == {
            "sec21": "ok", "crash-test": "error", "fig10": "ok",
        }
        assert "deliberate crash" in outcomes[1].error


class TestParallel:
    def test_parallel_matches_serial(self):
        serial = _run()
        parallel = _run(jobs=4)
        assert [o.rendered for o in serial] == [
            o.rendered for o in parallel
        ]
        assert [o.payload for o in serial] == [
            o.payload for o in parallel
        ]

    def test_report_identical_for_any_jobs(self):
        # The report assembles in registry order after completion, so
        # worker count cannot change the bytes. Proxy for the full
        # document: section bodies of the cheap subset.
        serial = _run()
        parallel = _run(jobs=3)
        for left, right in zip(serial, parallel):
            assert left.rendered == right.rendered


class TestCache:
    def test_second_run_is_cached(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        first = _run(["sec21"], cache=cache)[0]
        assert first.status == "ok"
        second = _run(["sec21"], cache=cache)[0]
        assert second.status == "cached"
        assert second.rendered == first.rendered
        assert second.payload == first.payload

    def test_param_change_misses(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        _run(["fig10"], cache=cache)
        changed = _run(
            ["fig10"],
            cache=cache,
            overrides={"fig10": {"n_users": 321}},
        )[0]
        assert changed.status == "ok"

    def test_key_includes_source_digest(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "cache")
        _run(["sec21"], cache=cache)
        monkeypatch.setattr(
            runner, "_source_digest", "f" * 64, raising=True
        )
        rerun = _run(["sec21"], cache=cache)[0]
        assert rerun.status == "ok"  # digest change invalidates

    def test_errors_are_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with registry.temporary_experiment(_crash_spec()):
            first = _run(["crash-test"], cache=cache)[0]
            assert first.status == "error"
            second = _run(["crash-test"], cache=cache)[0]
            assert second.status == "error"

    def test_corrupt_cache_entry_is_ignored(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        _run(["sec21"], cache=cache)
        for path in (tmp_path / "cache").glob("*.json"):
            path.write_text("{not json", encoding="utf-8")
        rerun = _run(["sec21"], cache=cache)[0]
        assert rerun.status == "ok"


class TestOutcomeSerialization:
    def test_to_dict_round_trips(self):
        outcome = _run(["sec21"])[0]
        record = json.loads(json.dumps(outcome.to_dict()))
        assert record["experiment"] == "sec21"
        assert record["status"] == "ok"
        assert record["error"] is None



class _Value(float):
    """A number honouring the result contract (render/to_dict)."""

    def render(self):
        return f"value {float(self)}"

    def to_dict(self):
        return {"value": float(self)}


def _value_run(seed=0, scale=1.0):
    return _Value(seed + scale)


def _checked_spec(*checks):
    return ExperimentSpec(
        id="checked-test", title="checked", description="d", paper_ref="",
        claims="", bench_params={"scale": 2.0}, quick_params={"scale": 1.0},
        order=999, func=_value_run, checks=checks,
    )


HOLDS = Check("holds", "always true", lambda r: r > 0)
FAILS = Check("fails", "never true", lambda r: r > 100)
BENCH_ONLY = Check("bench_only", "false at quick", lambda r: r < 1.5,
                   quick=False)


def _cli(capsys, *checks, args=()):
    with registry.temporary_experiment(_checked_spec(*checks)):
        code = main(["run", "checked-test", "--json", "--no-cache", *args])
    captured = capsys.readouterr()
    return code, json.loads(captured.out)["checks"], captured.err


class TestChecks:
    def test_failing_check_exits_1_and_passing_exits_0(self, capsys):
        code, checks, err = _cli(capsys, HOLDS, FAILS)
        assert (code, checks) == (1, {"holds": True, "fails": False})
        assert "[checked-test] check failed: fails" in err
        assert _cli(capsys, HOLDS)[:2] == (0, {"holds": True})

    def test_cached_outcome_keeps_verdicts(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with registry.temporary_experiment(_checked_spec(HOLDS, FAILS)):
            fresh = run_experiments(["checked-test"], cache=cache)[0]
            cached = run_experiments(["checked-test"], cache=cache)[0]
        assert (fresh.status, cached.status) == ("ok", "cached")
        assert cached.checks == fresh.checks == {
            "holds": True, "fails": False,
        }

    def test_seed_override_is_not_evaluated(self, capsys):
        code, checks, _ = _cli(capsys, HOLDS, FAILS, args=["--seed", "7"])
        assert (code, checks) == (0, {"holds": None, "fails": None})

    def test_quick_skips_bench_only_checks(self, capsys):
        code, checks, _ = _cli(capsys, HOLDS, BENCH_ONLY, args=["--quick"])
        assert (code, checks) == (0, {"holds": True, "bench_only": None})
        code, checks, _ = _cli(capsys, HOLDS, BENCH_ONLY)
        assert (code, checks) == (1, {"holds": True, "bench_only": False})
