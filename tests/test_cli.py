"""Command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.experiments import registry


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_catalogue_complete(self):
        # Every paper table/figure id plus the extensions, straight from
        # the registry.
        ids = registry.experiment_ids()
        for key in (
            "fig01", "fig03", "fig06", "table02", "table04",
            "fig10", "fig11a", "sec21", "sec6est", "pilot",
            "ext-lte", "ext-mptcp", "ext-duplication",
        ):
            assert key in ids


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig06" in out
        assert "schedulers" in out

    def test_list_json(self, capsys):
        assert main(["list", "--json"]) == 0
        catalogue = json.loads(capsys.readouterr().out)
        assert [entry["id"] for entry in catalogue] == list(
            registry.experiment_ids()
        )
        by_id = {entry["id"]: entry for entry in catalogue}
        assert by_id["fig06"]["bench_params"] == {"repetitions": 10}

    def test_locations(self, capsys):
        assert main(["locations"]) == 0
        out = capsys.readouterr().out
        assert "location1" in out and "loc4" in out

    def test_run_fast_experiment(self, capsys):
        assert main(["run", "sec21", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "back-of-envelope" in out

    def test_run_json(self, capsys):
        assert main(["run", "sec21", "--no-cache", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["experiment"] == "sec21"
        assert record["status"] == "ok"
        assert record["result"]["comparison"]["adsl_connections"] > 0

    def test_run_multiple_json(self, capsys):
        assert main(
            ["run", "sec21", "fig10", "--no-cache", "--json", "--quick"]
        ) == 0
        records = json.loads(capsys.readouterr().out)
        assert [r["experiment"] for r in records] == ["sec21", "fig10"]
        assert all(r["status"] == "ok" for r in records)

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err
        # The error names the valid ids.
        assert "fig06" in err and "ext-lte" in err

    def test_run_without_ids(self, capsys):
        assert main(["run"]) == 2
        assert "--all" in capsys.readouterr().err

    def test_run_seed_passthrough(self, capsys):
        assert main(
            ["run", "fig10", "--quick", "--no-cache", "--json",
             "--seed", "7"]
        ) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["params"]["seed"] == 7

    def test_run_seed_maps_to_seeds(self, capsys):
        # ext-lte's run() takes `seeds`; --seed becomes a 1-tuple.
        assert main(
            ["run", "ext-lte", "--no-cache", "--json", "--seed", "5"]
        ) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["params"]["seeds"] == [5]

    def test_run_seed_rejected_when_not_accepted(self, capsys):
        assert main(["run", "sec21", "--seed", "1"]) == 2
        assert "--seed" in capsys.readouterr().err

    def test_run_repetitions_rejected_when_not_accepted(self, capsys):
        assert main(["run", "fig10", "--repetitions", "2"]) == 2
        assert "--repetitions" in capsys.readouterr().err

    def test_run_uses_cache(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["run", "sec21", "--json"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["status"] == "ok"
        assert main(["run", "sec21", "--json"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["status"] == "cached"
        assert second["result"] == first["result"]

    def test_report_to_tmpfile(self, tmp_path, capsys):
        # The full report is slow; this only checks wiring by writing to
        # a temp file with the smallest experiment set... the report
        # generator has no size knob, so gate it behind a marker instead.
        pytest.skip("full report generation covered by the report module")
