"""The 30-household pilot study."""

import pytest

from repro.core.mobile import OperatingMode
from repro.core.permits import PermitServer
from repro.pilot.simulation import PilotStudy
from repro.pilot.workload import (
    HouseholdPlan,
    PhotoUploadEvent,
    VideoEvent,
    generate_household_workloads,
)
from repro.netsim.topology import EVALUATION_LOCATIONS
from repro.util.units import MB


class TestWorkloadGeneration:
    @pytest.fixture(scope="class")
    def plans(self):
        return generate_household_workloads(n_households=30, seed=7)

    def test_fleet_size(self, plans):
        assert len(plans) == 30
        assert len({p.household_id for p in plans}) == 30

    def test_phone_counts_realistic(self, plans):
        assert all(1 <= p.n_phones <= 2 for p in plans)

    def test_events_time_ordered(self, plans):
        for plan in plans:
            times = [e.time_s for e in plan.events]
            assert times == sorted(times)
            assert all(0.0 <= t < 86_400.0 for t in times)

    def test_most_households_upload(self, plans):
        with_upload = sum(1 for p in plans if p.upload_events)
        assert with_upload >= 15

    def test_uploads_in_the_evening(self, plans):
        for plan in plans:
            for event in plan.upload_events:
                assert 19 * 3600.0 <= event.time_s <= 23 * 3600.0

    def test_deterministic(self):
        a = generate_household_workloads(5, seed=3)
        b = generate_household_workloads(5, seed=3)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_household_workloads(0)
        with pytest.raises(ValueError):
            generate_household_workloads(5, upload_probability=1.5)


def tiny_plan(events, n_phones=2, household_id="home-xx"):
    return HouseholdPlan(
        household_id=household_id,
        location=EVALUATION_LOCATIONS[3],
        n_phones=n_phones,
        events=tuple(events),
    )


class TestPilotStudy:
    def test_single_household_video_and_upload(self):
        plan = tiny_plan(
            [
                VideoEvent(time_s=10 * 3600.0, quality="Q4"),
                PhotoUploadEvent(time_s=20 * 3600.0, photo_count=10),
            ]
        )
        report = PilotStudy([plan], seed=2).run()
        outcome = report.outcomes[0]
        assert len(outcome.events) == 2
        kinds = [e.kind for e in outcome.events]
        assert kinds == ["video", "upload"]
        # Both event kinds benefit.
        assert all(e.speedup > 1.0 for e in outcome.events)
        assert outcome.total_onloaded_bytes > 0.0

    def test_budget_exhaustion_disables_boosting(self):
        # A 1 MB daily budget dies on the first video; later events run
        # unassisted.
        plan = tiny_plan(
            [
                VideoEvent(time_s=9 * 3600.0, quality="Q4"),
                VideoEvent(time_s=12 * 3600.0, quality="Q4"),
                VideoEvent(time_s=15 * 3600.0, quality="Q4"),
            ]
        )
        report = PilotStudy(
            [plan], daily_budget_bytes=1 * MB, seed=2
        ).run()
        events = report.outcomes[0].events
        assert events[0].phones_used > 0
        assert events[-1].phones_used == 0
        assert events[-1].speedup == pytest.approx(1.0, abs=0.1)

    def test_overlapping_events_queue(self):
        # Two uploads 60 s apart: the second must start after the first
        # even though the baseline takes hundreds of seconds.
        plan = tiny_plan(
            [
                PhotoUploadEvent(time_s=10 * 3600.0, photo_count=20),
                PhotoUploadEvent(time_s=10 * 3600.0 + 60.0, photo_count=20),
            ]
        )
        report = PilotStudy([plan], seed=3).run()
        assert len(report.outcomes[0].events) == 2

    def test_network_integrated_mode(self):
        plan = tiny_plan([VideoEvent(time_s=4 * 3600.0, quality="Q2")])
        report = PilotStudy(
            [plan],
            mode=OperatingMode.NETWORK_INTEGRATED,
            permit_server_factory=lambda: PermitServer(
                lambda cell, now: 0.2
            ),
            seed=2,
        ).run()
        assert report.outcomes[0].events[0].phones_used > 0

    def test_network_integrated_requires_factory(self):
        plan = tiny_plan([])
        with pytest.raises(ValueError, match="factory"):
            PilotStudy([plan], mode=OperatingMode.NETWORK_INTEGRATED)

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError):
            PilotStudy([])


class TestPilotReport:
    @pytest.fixture(scope="class")
    def report(self):
        plans = generate_household_workloads(n_households=8, seed=5)
        return PilotStudy(plans, seed=5).run()

    def test_fleet_gains(self, report):
        assert report.mean_video_speedup > 1.2
        assert report.mean_upload_speedup > 1.5

    def test_most_events_boosted(self, report):
        assert report.boosted_event_fraction > 0.5

    def test_onloaded_volume_positive(self, report):
        assert report.mean_onloaded_mb_per_household > 1.0

    def test_render_summary(self, report):
        text = report.render()
        assert "households" in text
        assert "video speedup" in text
