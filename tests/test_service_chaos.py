"""Chaos harness plans and the service-under-attack integration suite.

The plan half checks seeded determinism (same seed, same schedule —
the property ``BENCH_service.json``'s plan section relies on). The
integration half is the ISSUE's acceptance gate: 200+ concurrent
adversarial connections against a live service, plus honest load
during the attack, asserting the robustness invariants — every
admitted flow sheds or completes (``stranded() == 0``), no worker
dies on an unstructured exception, and the drain finishes inside its
deadline.
"""

import threading
import time

import pytest

from repro.core.captracker import CapTracker
from repro.core.permits import PermitServer
from repro.core.resilience import FlowLedger, RetryBudget
from repro.core.scheduler.runner import RetryPolicy
from repro.obs.capture import capture
from repro.obs.export import export_lines, parse_lines
from repro.obs.schema import EVENTS
from repro.proto import LoopbackOrigin
from repro.service.chaos import (
    CHAOS_MODES,
    ChaosConnection,
    ChaosPlan,
    build_plan,
    run_plan,
)
from repro.service.loadgen import build_load_plan, run_load
from repro.service.server import OnloadService, ServiceLeg
from repro.util.units import MB

TERMINAL = {"completed", "shed", "aborted"}


# ---------------------------------------------------------------------------
# Plans are pure functions of the seed
# ---------------------------------------------------------------------------


class TestChaosPlan:
    def test_same_seed_same_plan(self):
        one = build_plan(7, duration_s=10.0, connections=50)
        two = build_plan(7, duration_s=10.0, connections=50)
        assert one == two

    def test_different_seed_different_plan(self):
        one = build_plan(7, duration_s=10.0, connections=50)
        two = build_plan(8, duration_s=10.0, connections=50)
        assert one != two

    def test_offsets_inside_the_run(self):
        plan = build_plan(3, duration_s=5.0, connections=40)
        assert len(plan.connections) == 40
        for conn in plan.connections:
            assert 0.0 <= conn.offset_s <= 5.0
            assert conn.mode in CHAOS_MODES
            assert conn.intensity >= 1

    def test_mode_counts_cover_the_plan(self):
        plan = build_plan(0, duration_s=10.0, connections=100)
        counts = plan.mode_counts()
        assert sum(counts.values()) == 100
        # With 100 draws at the default 40% weight, clean traffic is
        # present — the liveness control the harness depends on.
        assert counts.get("clean", 0) > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            build_plan(0, duration_s=1.0, connections=-1)
        with pytest.raises(ValueError):
            build_plan(0, duration_s=1.0, connections=1, weights=(1.0,))


class TestLoadPlan:
    def test_same_seed_same_digest(self):
        one = build_load_plan(5, duration_s=10.0, rate_per_s=4.0)
        two = build_load_plan(5, duration_s=10.0, rate_per_s=4.0)
        assert one == two
        assert one.digest() == two.digest()

    def test_different_seed_different_digest(self):
        one = build_load_plan(5, duration_s=10.0, rate_per_s=4.0)
        two = build_load_plan(6, duration_s=10.0, rate_per_s=4.0)
        assert one.digest() != two.digest()

    def test_flows_shaped_by_the_parameters(self):
        plan = build_load_plan(
            1,
            duration_s=20.0,
            rate_per_s=5.0,
            min_deadline_s=2.0,
            max_deadline_s=4.0,
        )
        assert plan.flows  # ~100 expected; at least one for sure
        for flow in plan.flows:
            assert 0.0 < flow.offset_s < 20.0
            assert flow.body_bytes >= 1
            assert 2.0 <= flow.deadline_s <= 4.0

    def test_validation(self):
        with pytest.raises(ValueError):
            build_load_plan(0, duration_s=0.0, rate_per_s=1.0)
        with pytest.raises(ValueError):
            build_load_plan(0, duration_s=1.0, rate_per_s=0.0)


# ---------------------------------------------------------------------------
# The service under attack
# ---------------------------------------------------------------------------


@pytest.fixture
def thread_failures(monkeypatch):
    """Collect unstructured exceptions escaping any worker thread."""
    failures = []
    monkeypatch.setattr(
        threading,
        "excepthook",
        lambda args: failures.append(args.exc_value),
    )
    return failures


def _assert_terminal_accounting(service, drain):
    report = service.report()
    assert report.stranded() == 0
    assert drain.met_deadline, (
        f"drain took {drain.elapsed_s:.2f}s past its deadline"
    )
    for flow in report.flows:
        assert flow.outcome in TERMINAL
    return report


class TestServiceUnderChaos:
    def test_200_concurrent_adversaries_all_reach_terminal_outcomes(
        self, thread_failures
    ):
        origin = LoopbackOrigin()
        plan = build_plan(11, duration_s=1.0, connections=200)
        with origin:
            service = OnloadService(
                legs=[ServiceLeg("adsl", origin.address)],
                max_active=48,
                max_queued=24,
                queue_timeout_s=0.1,
                recv_timeout=1.0,
                idle_timeout=1.0,
                flow_deadline_s=2.0,
                drain_deadline_s=3.0,
                abort_grace_s=3.0,
                retry_budget=RetryBudget(
                    policy=RetryPolicy(
                        max_attempts=2,
                        backoff_base_s=0.01,
                        backoff_max_s=0.05,
                    ),
                    obs=None,
                ),
                obs=None,
            )
            with service:
                report = run_plan(
                    plan,
                    service.address,
                    connect_timeout=5.0,
                    hold_s=0.5,
                    trickle_gap_s=0.05,
                )
                # The fleet got through (loopback never refuses 200
                # connects outright).
                assert sum(report.attempted.values()) == 200
            drain = service.report().drain
        service_report = _assert_terminal_accounting(service, drain)
        # The attack produced real admitted traffic, and the clean
        # connections got answered during it.
        assert service_report.admitted > 0
        assert sum(report.responses.values()) > 0
        assert thread_failures == []

    def test_honest_load_survives_the_attack_with_revocation(
        self, thread_failures
    ):
        chaos_plan = build_plan(3, duration_s=1.5, connections=80)
        load_plan = build_load_plan(
            3,
            duration_s=1.5,
            rate_per_s=20.0,
            mean_kbytes=4.0,
            min_deadline_s=3.0,
            max_deadline_s=6.0,
        )
        with capture() as handle:
            origin = LoopbackOrigin()
            with origin:
                tracker = CapTracker(daily_budget_bytes=64 * MB)
                permits = PermitServer(
                    lambda cell, now: 0.2, obs=handle
                )
                service = OnloadService(
                    legs=[
                        ServiceLeg("adsl", origin.address),
                        ServiceLeg(
                            "ph1",
                            origin.address,
                            device="ph1",
                            cell="c0",
                        ),
                    ],
                    max_active=48,
                    max_queued=24,
                    queue_timeout_s=0.2,
                    recv_timeout=1.5,
                    idle_timeout=1.5,
                    flow_deadline_s=3.0,
                    drain_deadline_s=3.0,
                    abort_grace_s=3.0,
                    ledger=FlowLedger(
                        {"ph1": tracker},
                        permit_server=permits,
                        obs=handle,
                    ),
                    obs=handle,
                )
                with service:
                    chaos_box = {}
                    attacker = threading.Thread(
                        target=lambda: chaos_box.update(
                            report=run_plan(
                                chaos_plan,
                                service.address,
                                hold_s=0.5,
                                trickle_gap_s=0.05,
                            )
                        ),
                        daemon=True,
                    )
                    attacker.start()
                    revoker = threading.Timer(
                        0.75, permits.revoke, args=("ph1",)
                    )
                    revoker.daemon = True
                    revoker.start()
                    load_report = run_load(load_plan, service.address)
                    attacker.join(timeout=30.0)
                    revoker.cancel()
                drain = service.report().drain
            lines = export_lines(handle, experiment_id="chaos-test")
        service_report = _assert_terminal_accounting(service, drain)
        # Honest clients completed during the attack.
        assert load_report.outcomes.get("completed", 0) > 0
        assert service_report.admitted > 0
        assert not attacker.is_alive()
        assert thread_failures == []
        # The flushed trace parses and stays inside the schema.
        parsed = parse_lines(lines)
        assert parsed["events"]
        for event in parsed["events"]:
            assert event["name"] in EVENTS

    def test_slow_loris_cannot_pin_a_slot_past_the_flow_deadline(
        self, thread_failures
    ):
        origin = LoopbackOrigin()
        loris = ChaosPlan(
            seed=0,
            duration_s=0.1,
            connections=tuple(
                ChaosConnection(
                    offset_s=0.0, mode="slow-loris", intensity=16
                )
                for _ in range(4)
            ),
        )
        with origin:
            service = OnloadService(
                legs=[ServiceLeg("adsl", origin.address)],
                max_active=4,
                max_queued=0,
                queue_timeout_s=0.1,
                recv_timeout=0.5,
                idle_timeout=0.5,
                flow_deadline_s=0.6,
                drain_deadline_s=2.0,
                abort_grace_s=2.0,
                obs=None,
            )
            with service:
                started = time.monotonic()
                run_plan(
                    loris,
                    service.address,
                    hold_s=3.0,
                    trickle_gap_s=0.1,
                )
                # Every slot frees well before the tricklers give up:
                # the flow deadline cut them off.
                assert service.admission.wait_idle(5.0)
                assert time.monotonic() - started < 10.0
            drain = service.report().drain
        report = _assert_terminal_accounting(service, drain)
        assert report.admitted == 4
        # Each trickler was cut off near the 0.6s flow deadline — far
        # sooner than the 3s it was prepared to drip for.
        for flow in report.flows:
            assert flow.latency_s < 2.0
        assert thread_failures == []
