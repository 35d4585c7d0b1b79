"""The ``repro-trace`` CLI: export, summary, diff, exit codes."""

import json

import pytest

from repro.obs.cli import EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE, main

#: A cheap registered experiment for live-run subcommands.
CHEAP = "sec21"


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    """One exported trace, shared by the read-only tests."""
    path = tmp_path_factory.mktemp("traces") / "trace.jsonl"
    assert main(["export", CHEAP, "--quick", "-o", str(path)]) == EXIT_CLEAN
    return path


class TestExport:
    def test_writes_valid_jsonl(self, trace_file):
        lines = trace_file.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["type"] == "header"
        assert header["experiment"] == CHEAP
        for line in lines[1:]:
            assert json.loads(line)["type"] in (
                "event", "counter", "gauge", "histogram",
            )

    def test_stdout_when_no_output(self, capsys):
        assert main(["export", CHEAP, "--quick"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        assert json.loads(out.splitlines()[0])["type"] == "header"

    def test_unknown_experiment_is_usage_error(self, capsys):
        assert main(["export", "fig99", "--quick"]) == EXIT_USAGE
        assert "fig99" in capsys.readouterr().err


class TestSummary:
    def test_summarises_saved_trace(self, trace_file, capsys):
        assert main(["summary", str(trace_file)]) == EXIT_CLEAN
        out = capsys.readouterr().out
        assert f"experiment={CHEAP}" in out
        assert "events:" in out

    def test_live_run_shows_profile(self, capsys):
        assert main(["summary", CHEAP, "--quick"]) == EXIT_CLEAN
        assert "profile" in capsys.readouterr().out

    def test_bad_target_is_usage_error(self, capsys):
        assert main(["summary", "no-such-thing"]) == EXIT_USAGE
        assert "no-such-thing" in capsys.readouterr().err

    def test_malformed_trace_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert main(["summary", str(bad)]) == EXIT_USAGE


class TestDiff:
    def test_identical_traces_exit_clean(self, trace_file, capsys):
        code = main(["diff", str(trace_file), str(trace_file)])
        assert code == EXIT_CLEAN
        assert "identical" in capsys.readouterr().out

    def test_different_traces_exit_findings(
        self, trace_file, tmp_path, capsys
    ):
        lines = trace_file.read_text().splitlines()
        header = json.loads(lines[0])
        header["emitted"] += 1  # pretend one more event was emitted
        lines[0] = json.dumps(header, sort_keys=True, separators=(",", ":"))
        other = tmp_path / "other.jsonl"
        other.write_text("\n".join(lines) + "\n")
        assert main(["diff", str(trace_file), str(other)]) == EXIT_FINDINGS
        assert "emitted" in capsys.readouterr().out

    def test_missing_file_is_usage_error(self, trace_file, capsys):
        code = main(["diff", str(trace_file), "/no/such/file.jsonl"])
        assert code == EXIT_USAGE


@pytest.mark.parametrize("command", ["export", "summary"])
def test_jobs_flag_is_gone(command, capsys):
    # One traced experiment runs in-process; the runner's own
    # across-jobs determinism is pinned in tests/test_obs.py.
    with pytest.raises(SystemExit) as exit_info:
        main([command, "fig06", "--jobs", "2"])
    assert exit_info.value.code == EXIT_USAGE
    assert "--jobs" in capsys.readouterr().err
