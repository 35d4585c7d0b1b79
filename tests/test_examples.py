"""Smoke tests: every example script runs to completion.

Slow examples (the pilot, the loopback demo, the measurement campaign)
are exercised at reduced scale by importing their pieces rather than
executing the full script.
"""

import runpy
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

FAST_EXAMPLES = [
    "quickstart.py",
    "photo_upload.py",
    "capped_multiprovider.py",
    "network_integrated.py",
]


@pytest.mark.parametrize("name", FAST_EXAMPLES)
def test_fast_example_runs(name):
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.strip()


def test_video_powerboost_pieces():
    # The full sweep is slow; one cell proves the wiring.
    sys.path.insert(0, str(EXAMPLES))
    try:
        module = runpy.run_path(
            str(EXAMPLES / "video_powerboost.py"), run_name="not_main"
        )
        times = module["measure"](n_phones=1, use_3gol=True, quality="Q2")
        assert len(times) == 5
        assert all(t > 0 for t in times)
    finally:
        sys.path.pop(0)


def test_pilot_example_pieces():
    from repro.pilot.simulation import PilotStudy
    from repro.pilot.workload import generate_household_workloads

    plans = generate_household_workloads(n_households=3, seed=9)
    report = PilotStudy(plans, seed=9).run()
    assert "Pilot study" in report.render()


def test_loopback_example_pieces():
    module = runpy.run_path(
        str(EXAMPLES / "loopback_prototype.py"), run_name="not_main"
    )
    # The demo's asset is well-formed and small.
    video = module["VIDEO"]
    assert video.playlists["Q"].total_bytes == pytest.approx(4_000_000.0)


def test_measurement_campaign_pieces():
    from repro.traces.handsets import measure_cluster_throughput
    from repro.netsim.topology import LocationProfile
    from repro.util.units import mbps

    location = LocationProfile(
        name="smoke",
        description="example smoke",
        adsl_down_bps=mbps(4.0),
        adsl_up_bps=mbps(0.5),
        measurement_hour=23.0,
    )
    samples = measure_cluster_throughput(location, 2, repetitions=1)
    assert samples[0].aggregate_bps > 0
