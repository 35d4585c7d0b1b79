"""Table rendering and the report scaffolding."""

import numpy as np
import pytest

from repro.experiments.formatting import fmt, fmt_mbps, render_table
from repro.experiments.registry import Check, ExperimentSpec
from repro.experiments.report import _section, _verdicts
from repro.experiments.runner import ExperimentOutcome
from repro.util.serialize import jsonable


class TestRenderTable:
    def test_alignment_and_structure(self):
        text = render_table(
            ["name", "value"],
            [("a", 1), ("longer-name", 22)],
            title="My table",
        )
        lines = text.splitlines()
        assert lines[0] == "My table"
        assert lines[1].startswith("name")
        assert set(lines[2]) <= {"-", " "}
        # All data rows padded to the same width.
        assert len(lines[3]) == len(lines[2]) or lines[3].rstrip()

    def test_mismatched_row_rejected(self):
        with pytest.raises(ValueError, match="cells"):
            render_table(["a", "b"], [("only-one",)])

    def test_no_title(self):
        text = render_table(["x"], [("1",)])
        assert text.splitlines()[0] == "x"

    def test_wide_cells_stretch_columns(self):
        text = render_table(["h"], [("wwwwwwwwwwww",)])
        assert "wwwwwwwwwwww" in text


class TestFormatters:
    def test_fmt(self):
        assert fmt(3.14159) == "3.14"
        assert fmt(3.14159, 0) == "3"

    def test_fmt_mbps(self):
        assert fmt_mbps(5_760_000.0) == "5.76"
        assert fmt_mbps(5_760_000.0, 1) == "5.8"


class TestReportScaffolding:
    def test_section_structure(self):
        text = _section("Title", "Claims here", "table body")
        assert "## Title" in text
        assert "Claims here" in text
        assert "```\ntable body\n```" in text

    def test_verdicts_follow_the_claims(self):
        checks = (Check("a", "Fig. 1: a", bool),
                  Check("b", "Fig. 2: b", bool, quick=False))
        spec = ExperimentSpec("x", "t", "d", "", "", {}, {}, 0, bool, checks)
        outcome = ExperimentOutcome("x", "ok", 0.0, checks={"a": False})
        assert _verdicts(spec, outcome) == (
            "\n\nChecks:\n\n- FAIL `a` — Fig. 1: a"
            "\n- not evaluated `b` — Fig. 2: b"
        )

    def test_registry_covers_extensions(self):
        # CLI, report and benchmarks all read the one registry, so an
        # experiment registered anywhere is visible everywhere.
        from repro.experiments import registry

        ids = registry.experiment_ids()
        assert "ext-neighborhood" in ids
        assert "ext-playout" in ids


class TestJsonable:
    def test_numpy_values_become_python_values(self):
        lowered = jsonable(
            {
                "flag": np.bool_(True),
                "n": np.int64(3),
                "x": np.float32(0.5),
                "arr": np.array([[1, 2], [3, 4]]),
            }
        )
        assert lowered == {
            "flag": True,
            "n": 3,
            "x": 0.5,
            "arr": [[1, 2], [3, 4]],
        }
        assert type(lowered["flag"]) is bool
        assert type(lowered["n"]) is int
