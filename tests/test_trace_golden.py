"""Trace-equivalence gate: quick experiments vs checked-in goldens.

The deterministic trace layer (``repro.obs``) promises that a registered
experiment exports byte-identical JSONL lines across runs, machines, and
worker counts. This file pins that promise to the checked-in digests in
``tests/golden/trace_digests.json``: any change to the simulation's step
sequence, RNG derivations, or event ordering shows up here as a digest
mismatch before it can silently alter published figures.

When a change is *intended* to alter the trace (a new event type, a
different stepping policy), refresh the goldens deliberately::

    PYTHONPATH=src python -m repro.obs.cli export fig06 --quick -o /tmp/t.jsonl
    sha256sum /tmp/t.jsonl   # update tests/golden/trace_digests.json

and say so in the commit message.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments.runner import run_experiments

GOLDEN_PATH = Path(__file__).parent / "golden" / "trace_digests.json"


def _digest(lines):
    """sha256 over newline-joined export lines (+trailing NL)."""
    text = "\n".join(lines) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def _traced_lines(experiment_id, jobs=1):
    outcome = run_experiments(
        [experiment_id], jobs=jobs, quick=True, cache=None, trace=True
    )[0]
    assert outcome.ok, outcome.error
    assert outcome.trace_lines is not None
    return outcome.trace_lines


class TestGoldenDigests:
    @pytest.mark.parametrize(
        "experiment_id", ["fig06", "ext-churn", "fig09", "pilot"]
    )
    def test_quick_trace_matches_golden(self, experiment_id, golden):
        expected = golden["quick"][experiment_id]
        lines = _traced_lines(experiment_id)
        assert len(lines) == expected["lines"]
        assert _digest(lines) == expected["sha256"]

    def test_jobs_count_does_not_change_trace(self, golden):
        # Worker fan-out must not leak into the export: the trace is
        # assembled in registry order, not completion order.
        serial = _traced_lines("ext-churn", jobs=1)
        fanned = _traced_lines("ext-churn", jobs=2)
        assert serial == fanned
        assert _digest(serial) == golden["quick"]["ext-churn"]["sha256"]
