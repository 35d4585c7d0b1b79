"""The §5 headline numbers, recomputed from the figures' JSON payloads.

The abstract's five numbers live in the figures that measure them:
fig07 renders the pre-buffer speedups, fig08 the download speedup and
the average transaction reduction, fig09 the upload speedup. Each is
recomputed here from the ``repro run --json`` result fields alone and
compared with the rendered "measured" cell.
"""

import re

import pytest

from repro.experiments.runner import run_experiments


@pytest.fixture(scope="module")
def outcomes():
    ran = run_experiments(["fig07", "fig08", "fig09"], quick=True)
    return {outcome.experiment_id: outcome for outcome in ran}


def payload(outcomes, experiment_id):
    """The ``result`` field of the experiment's ``--json`` record."""
    return outcomes[experiment_id].to_dict()["result"]


def measured(outcomes, experiment_id, metric):
    """The "measured" cell of one row of a rendered §5 block."""
    for line in outcomes[experiment_id].rendered.splitlines():
        if line.startswith(metric + "  "):
            return re.split(r"\s{2,}", line.strip())[1]
    raise AssertionError(f"{experiment_id} renders no {metric!r} row")


def prebuffer_speedups(result):
    """base / (base - gain) for every bar at the 20-80% settings."""
    speedups = []
    for key, gains in result["gains"].items():
        location, _, quality = key.split("/")
        bases = result["baselines"][f"{location}/{quality}"]
        speedups += [
            base / (base - gain)
            for fraction, base, gain in zip(result["fractions"], bases, gains)
            if 0.2 <= fraction <= 0.8
        ]
    return speedups


def download_speedups(result):
    return [100.0 / (100.0 - r) for r in result["reductions"].values()]


def upload_speedups(result):
    times = result["times"]
    return [
        times[f"{key.split('/')[0]}/0"] / value
        for key, value in times.items()
        if not key.endswith("/0")
    ]


def test_prebuffer_speedups_come_from_fig07(outcomes):
    speedups = prebuffer_speedups(payload(outcomes, "fig07"))
    avg = sum(speedups) / len(speedups)
    assert measured(outcomes, "fig07", "avg pre-buffer speedup") == (
        f"{avg:.2f}"
    )
    assert measured(outcomes, "fig07", "max pre-buffer speedup") == (
        f"{max(speedups):.2f}"
    )
    # Not fig08's download speedups under a pre-buffer label.
    best_download = max(download_speedups(payload(outcomes, "fig08")))
    assert max(speedups) != best_download
    assert measured(outcomes, "fig07", "max pre-buffer speedup") != (
        f"{best_download:.2f}"
    )


def test_download_numbers_come_from_fig08(outcomes):
    result = payload(outcomes, "fig08")
    reductions = list(result["reductions"].values())
    assert measured(outcomes, "fig08", "max download speedup") == (
        f"{max(download_speedups(result)):.2f}"
    )
    assert measured(outcomes, "fig08", "avg transaction reduction %") == (
        f"{sum(reductions) / len(reductions):.1f}"
    )


def test_upload_speedup_comes_from_fig09(outcomes):
    assert measured(outcomes, "fig09", "max upload speedup") == (
        f"{max(upload_speedups(payload(outcomes, 'fig09'))):.2f}"
    )
