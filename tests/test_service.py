"""Long-running onload service: lifecycle, admission, deadlines, relay.

The unit half drives the service's primitives with fake clocks where
the API allows it; the integration half stands up a real
:class:`OnloadService` on loopback and exercises each terminal outcome
— completed, shed (overload / authority / spent deadline / dry retry
budget) and aborted (permit revocation, drain straggler) — asserting
the drain-discipline invariant ``report().stranded() == 0`` throughout.
"""

import socket
import struct
import threading
import time

import pytest

from repro.core.captracker import CapTracker
from repro.core.permits import PermitServer
from repro.core.resilience import FlowLedger, RetryBudget, RetryPolicy
from repro.obs.capture import capture
from repro.obs.schema import EVENTS
from repro.proto import LoopbackOrigin, httpwire
from repro.service.admission import AdmissionController
from repro.service.lifecycle import (
    DRAINING,
    SERVING,
    STARTING,
    STOPPED,
    Deadline,
    Lifecycle,
    LifecycleError,
)
from repro.service.server import OnloadService, ServiceLeg, _Flow
from repro.util.units import MB


# ---------------------------------------------------------------------------
# Lifecycle and deadlines
# ---------------------------------------------------------------------------


class TestLifecycle:
    def test_full_legal_path(self):
        machine = Lifecycle()
        assert machine.state == STARTING
        assert machine.transition(SERVING) == STARTING
        assert machine.state == SERVING
        assert machine.transition(DRAINING) == SERVING
        assert machine.state == DRAINING
        assert machine.transition(STOPPED) == DRAINING
        assert machine.state == STOPPED

    def test_failed_start_stops_directly(self):
        machine = Lifecycle()
        assert machine.transition(STOPPED) == STARTING

    @pytest.mark.parametrize(
        "path, bad",
        [
            ((), DRAINING),            # cannot drain before serving
            ((SERVING,), SERVING),     # no self-loop
            ((SERVING,), STOPPED),     # must drain first
            ((SERVING, DRAINING), SERVING),  # no un-drain
            ((SERVING, DRAINING, STOPPED), SERVING),  # stopped is final
        ],
    )
    def test_illegal_edges_raise(self, path, bad):
        machine = Lifecycle()
        for state in path:
            machine.transition(state)
        with pytest.raises(LifecycleError):
            machine.transition(bad)


class TestDeadline:
    def test_unbounded_budget(self):
        deadline = Deadline(None, clock=lambda: 100.0)
        assert deadline.remaining() is None
        assert not deadline.expired
        assert deadline.clamp(7.0) == 7.0
        assert deadline.header_value() is None

    def test_counts_down_and_expires(self):
        ticks = [0.0]
        deadline = Deadline(2.0, clock=lambda: ticks[0])
        assert deadline.remaining() == pytest.approx(2.0)
        assert not deadline.expired
        ticks[0] = 1.5
        assert deadline.remaining() == pytest.approx(0.5)
        ticks[0] = 2.0
        assert deadline.expired

    def test_clamp_bounds_socket_timeout(self):
        ticks = [0.0]
        deadline = Deadline(1.0, clock=lambda: ticks[0])
        # Plenty of budget: the base timeout stands.
        assert deadline.clamp(0.2) == pytest.approx(0.2)
        ticks[0] = 0.9
        # Budget tighter than the base: clamp down to what is left.
        assert deadline.clamp(5.0) == pytest.approx(0.1)

    def test_clamp_has_a_floor_once_spent(self):
        deadline = Deadline(0.0, clock=lambda: 10.0)
        assert deadline.expired
        assert deadline.clamp(5.0) > 0.0

    def test_header_value_renders_remaining(self):
        deadline = Deadline(1.5, clock=lambda: 0.0)
        assert deadline.header_value() == "1.500"

    def test_from_header_value_zero_budget_is_spent(self):
        budget = httpwire.parse_deadline({httpwire.DEADLINE_HEADER: "0.000"})
        assert Deadline(budget).expired

    def test_effective_deadline_takes_the_tighter_budget(self):
        flow = Deadline(10.0, clock=lambda: 0.0)
        chosen = OnloadService._effective_deadline(flow, 2.0)
        assert chosen.remaining() == pytest.approx(2.0, abs=0.1)
        # A looser request budget defers to the flow's own.
        chosen = OnloadService._effective_deadline(flow, 60.0)
        assert chosen is flow
        assert OnloadService._effective_deadline(flow, None) is flow


class TestFlowAbort:
    def test_abort_wakes_recv_and_leaves_the_socket_to_its_owner(self):
        # The worker that owns a client socket is the only thread that
        # closes it: a close from the aborting thread would free the
        # descriptor number while the worker may still wait on it.
        owner, peer = socket.socketpair()
        try:
            flow = _Flow("f0", owner, ServiceLeg("ph1", ("127.0.0.1", 9)))
            parked = threading.Event()
            got = []

            def read():
                parked.set()
                got.append(owner.recv(64))

            reader = threading.Thread(target=read, daemon=True)
            reader.start()
            assert parked.wait(5.0)
            time.sleep(0.05)  # let the reader block in recv
            flow.abort("permit-revoked")
            reader.join(timeout=1.0)
            assert not reader.is_alive()
            assert got == [b""]
            assert flow.cancel.is_set()
            assert flow.abort_reason == "permit-revoked"
            assert owner.fileno() != -1
        finally:
            owner.close()
            peer.close()


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------


class TestAdmissionController:
    def test_admits_to_the_pool_bound(self):
        pool = AdmissionController(max_active=2, max_queued=0)
        assert pool.try_admit().admitted
        assert pool.try_admit().admitted
        decision = pool.try_admit()
        assert not decision.admitted
        assert decision.reason == "overload"
        assert pool.active == 2

    def test_release_frees_a_slot(self):
        pool = AdmissionController(max_active=1, max_queued=0)
        assert pool.try_admit().admitted
        assert not pool.try_admit().admitted
        pool.release()
        assert pool.try_admit().admitted

    def test_release_without_admit_raises(self):
        pool = AdmissionController(max_active=1)
        with pytest.raises(RuntimeError):
            pool.release()

    def test_queue_timeout_sheds_with_reason(self):
        pool = AdmissionController(
            max_active=1, max_queued=1, queue_timeout_s=0.05
        )
        assert pool.try_admit().admitted
        started = time.monotonic()
        decision = pool.try_admit()
        assert not decision.admitted
        assert decision.reason == "queue-timeout"
        assert time.monotonic() - started >= 0.05

    def test_queued_flow_gets_the_freed_slot(self):
        pool = AdmissionController(
            max_active=1, max_queued=1, queue_timeout_s=5.0
        )
        assert pool.try_admit().admitted
        results = []

        def wait_for_a_slot():
            started = time.monotonic()
            decision = pool.try_admit()
            results.append((decision, time.monotonic() - started))

        waiter = threading.Thread(target=wait_for_a_slot)
        waiter.start()
        deadline = time.monotonic() + 5.0
        while pool.queued == 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        pool.release()
        waiter.join(timeout=5.0)
        assert results and results[0][0].admitted
        assert results[0][1] > 0.0

    def test_queue_bound_sheds_overload(self):
        pool = AdmissionController(
            max_active=1, max_queued=0, queue_timeout_s=5.0
        )
        assert pool.try_admit().admitted
        # No queue slots: the decision is immediate, not a blocked wait.
        started = time.monotonic()
        decision = pool.try_admit()
        assert not decision.admitted
        assert decision.reason == "overload"
        assert time.monotonic() - started < 1.0

    def test_draining_sheds_everything(self):
        pool = AdmissionController(max_active=4, max_queued=4)
        pool.begin_drain()
        decision = pool.try_admit()
        assert not decision.admitted
        assert decision.reason == "draining"

    def test_drain_wakes_queued_waiters(self):
        pool = AdmissionController(
            max_active=1, max_queued=1, queue_timeout_s=10.0
        )
        assert pool.try_admit().admitted
        results = []
        waiter = threading.Thread(
            target=lambda: results.append(pool.try_admit())
        )
        waiter.start()
        deadline = time.monotonic() + 5.0
        while pool.queued == 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        pool.begin_drain()
        waiter.join(timeout=5.0)
        assert results and results[0].reason == "draining"

    def test_wait_idle(self):
        pool = AdmissionController(max_active=2)
        assert pool.wait_idle(0.01)
        pool.try_admit()
        assert not pool.wait_idle(0.05)
        pool.release()
        assert pool.wait_idle(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(max_active=0)
        with pytest.raises(ValueError):
            AdmissionController(max_active=1, max_queued=-1)
        with pytest.raises(ValueError):
            AdmissionController(max_active=1, queue_timeout_s=-0.1)


# ---------------------------------------------------------------------------
# Retry budget and flow ledger
# ---------------------------------------------------------------------------


class TestRetryBudget:
    def test_policy_attempt_bound(self):
        budget = RetryBudget(
            policy=RetryPolicy(max_attempts=2, backoff_base_s=0.0)
        )
        assert budget.acquire(1) is not None
        assert budget.acquire(2) is not None
        assert budget.acquire(3) is None
        assert budget.granted_count == 2
        assert budget.denied_count == 1

    def test_bucket_runs_dry_across_flows(self):
        budget = RetryBudget(
            policy=RetryPolicy(max_attempts=10, backoff_base_s=0.0),
            capacity=3.0,
        )
        assert [budget.acquire(1) is not None for _ in range(4)] == [
            True, True, True, False,
        ]
        assert budget.tokens == 0.0

    def test_success_refills_a_fraction(self):
        budget = RetryBudget(
            policy=RetryPolicy(max_attempts=10, backoff_base_s=0.0),
            capacity=2.0,
            refill_per_success=0.5,
        )
        budget.acquire(1)
        budget.acquire(1)
        assert budget.acquire(1) is None
        budget.record_success()
        assert budget.acquire(1) is None  # 0.5 tokens: still short of 1
        budget.record_success()
        assert budget.acquire(1) is not None

    def test_refill_caps_at_capacity(self):
        budget = RetryBudget(capacity=2.0, refill_per_success=5.0)
        budget.record_success()
        assert budget.tokens == 2.0

    def test_jitter_stream_is_seeded(self):
        policy = RetryPolicy(max_attempts=8, backoff_base_s=1.0)
        one = RetryBudget(policy=policy, seed=7)
        two = RetryBudget(policy=policy, seed=7)
        other = RetryBudget(policy=policy, seed=8)
        delays_one = [one.acquire(1) for _ in range(5)]
        delays_two = [two.acquire(1) for _ in range(5)]
        assert delays_one == delays_two
        assert delays_one != [other.acquire(1) for _ in range(5)]

    def test_jitter_stream_is_pinned(self):
        # The generator is created on the first jittered retry; its
        # stream is the one seed 7 always gave.
        budget = RetryBudget(
            policy=RetryPolicy(max_attempts=8, backoff_base_s=1.0), seed=7
        )
        assert [budget.acquire(1) for _ in range(5)] == [
            1.1562738666511667,
            1.224303450242394,
            1.1939214225612984,
            1.0563017974976479,
            1.0750415712278063,
        ]

    def test_jitter_bounded_by_fraction(self):
        budget = RetryBudget(
            policy=RetryPolicy(max_attempts=8, backoff_base_s=1.0),
            jitter_frac=0.25,
        )
        delay = budget.acquire(1)
        assert 1.0 <= delay <= 1.25

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryBudget(capacity=0.5)
        with pytest.raises(ValueError):
            RetryBudget(refill_per_success=-1.0)
        with pytest.raises(ValueError):
            RetryBudget(jitter_frac=1.5)
        with pytest.raises(ValueError):
            RetryBudget().acquire(0)


class TestFlowLedger:
    def test_meter_feeds_the_tracker(self):
        tracker = CapTracker(daily_budget_bytes=1 * MB)
        ledger = FlowLedger({"ph": tracker}, obs=None)
        ledger.open_flow("f0", "ph")
        ledger.meter("f0", 1000.0, 1.0)
        ledger.meter("f0", 500.0, 2.0)
        assert tracker.total_used_bytes == pytest.approx(1500.0)
        assert ledger.open_count() == 1

    def test_settle_trues_up_unmetered_bytes(self):
        tracker = CapTracker(daily_budget_bytes=1 * MB)
        ledger = FlowLedger({"ph": tracker}, obs=None)
        ledger.open_flow("f0", "ph")
        ledger.meter("f0", 1000.0, 1.0)
        # The flow moved 1800 bytes in total before its abort; the 800
        # never metered incrementally land at settlement.
        extra = ledger.settle("f0", 1800.0, 3.0)
        assert extra == pytest.approx(800.0)
        assert tracker.total_used_bytes == pytest.approx(1800.0)
        assert ledger.open_count() == 0

    def test_settle_with_nothing_outstanding(self):
        tracker = CapTracker(daily_budget_bytes=1 * MB)
        ledger = FlowLedger({"ph": tracker}, obs=None)
        ledger.open_flow("f0", "ph")
        ledger.meter("f0", 1000.0, 1.0)
        assert ledger.settle("f0", 1000.0, 2.0) == 0.0
        assert tracker.total_used_bytes == pytest.approx(1000.0)

    def test_double_open_raises(self):
        ledger = FlowLedger({}, obs=None)
        ledger.open_flow("f0", "ph")
        with pytest.raises(ValueError):
            ledger.open_flow("f0", "ph")

    def test_may_onload_requires_cap_headroom(self):
        dry = CapTracker(daily_budget_bytes=0.0)
        wet = CapTracker(daily_budget_bytes=1 * MB)
        ledger = FlowLedger({"dry": dry, "wet": wet}, obs=None)
        assert not ledger.may_onload("dry", "c0", 0.0)
        assert ledger.may_onload("wet", "c0", 0.0)

    def test_may_onload_asks_the_permit_backend(self):
        tracker = CapTracker(daily_budget_bytes=1 * MB)
        busy = PermitServer(lambda cell, now: 0.9, obs=None)
        quiet = PermitServer(lambda cell, now: 0.1, obs=None)
        assert not FlowLedger(
            {"ph": tracker}, permit_server=busy, obs=None
        ).may_onload("ph", "c0", 0.0)
        assert FlowLedger(
            {"ph": tracker}, permit_server=quiet, obs=None
        ).may_onload("ph", "c0", 0.0)

    def test_subscribe_revocations_forwards(self):
        permits = PermitServer(lambda cell, now: 0.1, obs=None)
        ledger = FlowLedger({}, permit_server=permits, obs=None)
        seen = []
        unsubscribe = ledger.subscribe_revocations(seen.append)
        permits.request_permit("ph", "c0", 0.0)
        permits.revoke("ph")
        assert seen == ["ph"]
        unsubscribe()
        permits.request_permit("ph", "c0", 1.0)
        permits.revoke("ph")
        assert seen == ["ph"]

    def test_subscribe_without_backend_is_a_noop(self):
        ledger = FlowLedger({}, obs=None)
        unsubscribe = ledger.subscribe_revocations(lambda name: None)
        unsubscribe()  # must not raise


# ---------------------------------------------------------------------------
# The service, end to end on loopback
# ---------------------------------------------------------------------------


def _request(
    address, path="/x", body=b"payload", headers=None, timeout=5.0
):
    """One client POST; returns (status, headers, body)."""
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.sendall(
            httpwire.render_request(
                "POST", path, "origin", headers=headers, body=body
            )
        )
        return httpwire.read_response(sock, timeout=timeout)


def _wait_until(condition, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if condition():
            return True
        time.sleep(0.01)
    return False


def _wait_active(service, count, timeout=5.0):
    return _wait_until(lambda: service.admission.active == count, timeout)


def _dead_address():
    """An address on which nothing listens (connect must fail fast)."""
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    address = probe.getsockname()
    probe.close()
    return address


@pytest.fixture
def origin():
    server = LoopbackOrigin()
    with server:
        yield server


def _service(origin, **overrides):
    kwargs = dict(
        legs=[ServiceLeg("adsl", origin.address)],
        max_active=8,
        max_queued=4,
        queue_timeout_s=0.2,
        recv_timeout=2.0,
        idle_timeout=2.0,
        flow_deadline_s=10.0,
        drain_deadline_s=2.0,
        abort_grace_s=2.0,
        obs=None,
    )
    kwargs.update(overrides)
    return OnloadService(**kwargs)


class TestOnloadService:
    def test_serves_and_completes(self, origin):
        with _service(origin) as service:
            status, _, body = _request(service.address, "/a", b"hello")
            assert status == 200
            assert body == b"stored"
            assert origin.uploads["/a"] == len(b"hello")
        report = service.report()
        assert report.admitted == 1
        assert report.outcome_counts() == {"completed": 1}
        assert (report.flows[0].reason, report.flows[0].status) == ("", 200)
        assert report.stranded() == 0
        assert service.lifecycle.state == STOPPED

    def test_keep_alive_serves_multiple_requests_per_flow(self, origin):
        with _service(origin) as service:
            with socket.create_connection(
                service.address, timeout=5.0
            ) as sock:
                for index in range(3):
                    sock.sendall(
                        httpwire.render_request(
                            "POST", f"/k{index}", "origin", body=b"v"
                        )
                    )
                    status, _, _ = httpwire.read_response(
                        sock, timeout=5.0
                    )
                    assert status == 200
        report = service.report()
        assert report.admitted == 1  # one connection, one flow
        assert report.outcome_counts() == {"completed": 1}

    def test_overload_sheds_with_503(self, origin):
        service = _service(
            origin, max_active=1, max_queued=0, queue_timeout_s=0.05
        )
        with service:
            holder = socket.create_connection(
                service.address, timeout=5.0
            )
            try:
                assert _wait_active(service, 1)
                status, _, _ = _request(service.address, "/late")
                assert status == 503
            finally:
                holder.close()
        report = service.report()
        shed = [f for f in report.flows if f.outcome == "shed"]
        assert len(shed) == 1
        assert shed[0].reason == "overload"
        assert not shed[0].admitted
        assert report.stranded() == 0
        assert service.degradations.of_kind("overload-shed")

    @pytest.mark.parametrize(
        "reason", ["overload", "queue-timeout", "draining"]
    )
    def test_admission_refusal_is_an_unadmitted_503_shed(
        self, origin, reason
    ):
        service = _service(
            origin,
            max_active=1,
            max_queued=0 if reason == "overload" else 1,
            queue_timeout_s=0.05,
        )
        with service:
            holder = socket.create_connection(
                service.address, timeout=5.0
            )
            try:
                assert _wait_active(service, 1)
                if reason == "draining":
                    service.admission.begin_drain()
                status, _, _ = _request(service.address, "/late")
            finally:
                holder.close()
        assert status == 503
        shed = [f for f in service.report().flows if f.outcome == "shed"]
        assert [(f.reason, f.status, f.admitted, f.leg) for f in shed] == [
            (reason, 503, False, ""),
        ]

    def test_spent_request_deadline_sheds_with_504(self, origin):
        with _service(origin) as service:
            status, _, _ = _request(
                service.address,
                "/spent",
                headers={httpwire.DEADLINE_HEADER: "0.000"},
            )
            assert status == 504
        report = service.report()
        assert report.shed_reasons() == {"deadline-expired": 1}
        assert (report.flows[0].outcome, report.flows[0].status) == (
            "shed", 504,
        )
        assert service.degradations.of_kind("deadline-expired")
        assert report.stranded() == 0

    def test_deadline_header_rewritten_with_remaining_budget(self):
        captured = {}
        ready = threading.Event()

        def upstream_once(server):
            conn, _ = server.accept()
            conn.settimeout(5.0)
            head, leftover = httpwire.read_until_blank_line(
                conn, b"", timeout=5.0
            )
            first, headers = httpwire.parse_head(head)
            httpwire.read_body(
                conn,
                leftover,
                httpwire.parse_content_length(headers),
                timeout=5.0,
            )
            captured["headers"] = headers
            conn.sendall(
                httpwire.render_response(200, "OK", b"ok")
            )
            conn.close()

        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.bind(("127.0.0.1", 0))
        server.listen(1)
        server.settimeout(5.0)
        worker = threading.Thread(
            target=upstream_once, args=(server,), daemon=True
        )
        worker.start()
        ready.set()
        service = _service(
            type("O", (), {"address": server.getsockname()})()
        )
        try:
            with service:
                status, _, _ = _request(
                    service.address,
                    "/fwd",
                    headers={httpwire.DEADLINE_HEADER: "5.000"},
                )
                assert status == 200
        finally:
            worker.join(timeout=5.0)
            server.close()
        forwarded = captured["headers"][httpwire.DEADLINE_HEADER]
        # Rewritten to the *remaining* budget: positive, and no larger
        # than what the client started with.
        assert 0.0 < float(forwarded) <= 5.0

    def test_dead_upstream_exhausts_retry_budget_and_sheds(self, origin):
        service = _service(
            origin,
            legs=[ServiceLeg("adsl", _dead_address())],
            retry_budget=RetryBudget(
                policy=RetryPolicy(
                    max_attempts=2,
                    backoff_base_s=0.01,
                    backoff_max_s=0.02,
                ),
                obs=None,
            ),
        )
        with service:
            status, _, _ = _request(service.address, "/dead")
            assert status == 503
        report = service.report()
        assert report.shed_reasons() == {"retry-budget-exhausted": 1}
        assert (report.flows[0].outcome, report.flows[0].status) == (
            "shed", 503,
        )
        assert report.stranded() == 0
        assert service.degradations.of_kind("peer-unreachable")
        assert service.degradations.of_kind("retry-budget-exhausted")

    def test_spent_flow_deadline_sheds_before_dialling(self, origin):
        with _service(origin, flow_deadline_s=0.0) as service:
            status, _, _ = _request(service.address, "/late")
            assert status == 503
        flow = service.report().flows[0]
        assert (flow.outcome, flow.reason, flow.status) == (
            "shed", "deadline-expired", 503,
        )
        assert flow.admitted

    def test_flow_outliving_its_deadline_aborts_with_504(self, origin):
        with _service(origin, flow_deadline_s=0.3) as service:
            with socket.create_connection(
                service.address, timeout=5.0
            ) as silent:
                status, _, _ = httpwire.read_response(silent, timeout=5.0)
            assert status == 504
        flow = service.report().flows[0]
        assert (flow.outcome, flow.reason, flow.status) == (
            "aborted", "deadline-expired", 504,
        )
        assert service.degradations.of_kind("deadline-expired")

    def test_client_reset_aborts_with_path_fault(self, origin):
        with _service(origin, idle_timeout=10.0) as service:
            client = socket.create_connection(service.address, timeout=5.0)
            assert _wait_until(lambda: service.report().active == 1)
            # Linger 0: close sends a reset, and the worker's read fails.
            client.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            client.close()
            assert service.admission.wait_idle(5.0)
        flow = service.report().flows[0]
        assert (flow.outcome, flow.reason) == ("aborted", "path-fault")

    @pytest.mark.parametrize(
        "reason, sent",
        [
            ("stall", b"POST /x HTTP/1.1\r\n"),
            ("bad-peer", b"POST /x HTTP/1.1\r\nno colon here\r\n\r\n"),
        ],
    )
    def test_client_wire_failure_completes_with_400(
        self, origin, reason, sent
    ):
        with _service(origin, idle_timeout=0.3) as service:
            with socket.create_connection(
                service.address, timeout=5.0
            ) as client:
                client.sendall(sent)
                status, _, _ = httpwire.read_response(client, timeout=5.0)
            assert status == 400
        flow = service.report().flows[0]
        assert (flow.outcome, flow.reason, flow.status) == (
            "completed", reason, 400,
        )
        assert service.degradations.of_kind(reason)

    def test_no_authorized_leg_sheds_with_503(self, origin):
        dry = CapTracker(daily_budget_bytes=0.0)
        service = _service(
            origin,
            legs=[
                ServiceLeg(
                    "ph1", origin.address, device="ph1", cell="c0"
                )
            ],
            ledger=FlowLedger({"ph1": dry}, obs=None),
        )
        with service:
            status, _, _ = _request(service.address, "/dry")
            assert status == 503
        report = service.report()
        assert report.shed_reasons() == {"authority": 1}
        assert (report.flows[0].outcome, report.flows[0].status) == (
            "shed", 503,
        )
        # Admitted (a pool slot was held), then shed on authority.
        assert report.flows[0].admitted
        assert report.stranded() == 0

    def test_cellular_leg_meters_into_the_tracker(self, origin):
        tracker = CapTracker(daily_budget_bytes=1 * MB)
        service = _service(
            origin,
            legs=[
                ServiceLeg(
                    "ph1", origin.address, device="ph1", cell="c0"
                )
            ],
            ledger=FlowLedger({"ph1": tracker}, obs=None),
        )
        with service:
            status, _, _ = _request(
                service.address, "/meter", b"x" * 2048
            )
            assert status == 200
        assert tracker.total_used_bytes >= 2048.0
        assert service.report().stranded() == 0

    def test_permit_revocation_aborts_in_flight_flow(self, origin):
        tracker = CapTracker(daily_budget_bytes=1 * MB)
        permits = PermitServer(lambda cell, now: 0.1, obs=None)
        service = _service(
            origin,
            legs=[
                ServiceLeg(
                    "ph1", origin.address, device="ph1", cell="c0"
                )
            ],
            ledger=FlowLedger(
                {"ph1": tracker}, permit_server=permits, obs=None
            ),
            idle_timeout=10.0,
        )
        with service:
            victim = socket.create_connection(
                service.address, timeout=5.0
            )
            try:
                # Admission counts the flow before it holds a leg; only
                # a registered flow is visible to the revocation.
                assert _wait_until(lambda: service.report().active == 1)
                permits.revoke("ph1")
                assert service.admission.wait_idle(5.0)
            finally:
                victim.close()
        report = service.report()
        assert report.outcome_counts() == {"aborted": 1}
        assert report.flows[0].reason == "permit-revoked"
        assert report.stranded() == 0
        assert service.degradations.of_kind("permit-revoked")

    def test_revocation_between_authority_check_and_registration(
        self, origin
    ):
        # The ledger parks the flow after may_onload said yes and before
        # the flow is visible to revocation; the backend revokes while
        # it is parked. Events only: the revocation must still abort it.
        permits = PermitServer(lambda cell, now: 0.1, obs=None)
        checked = threading.Event()
        release = threading.Event()
        revoking = threading.Event()

        class ParkingLedger(FlowLedger):
            def may_onload(self, device, cell, now):
                allowed = super().may_onload(device, cell, now)
                checked.set()
                release.wait(5.0)
                return allowed

            def subscribe_revocations(self, callback):
                def announce(device_name):
                    revoking.set()
                    callback(device_name)

                return super().subscribe_revocations(announce)

        service = _service(
            origin,
            legs=[
                ServiceLeg(
                    "ph1", origin.address, device="ph1", cell="c0"
                )
            ],
            ledger=ParkingLedger({}, permit_server=permits, obs=None),
            idle_timeout=10.0,
        )
        with service:
            victim = socket.create_connection(
                service.address, timeout=5.0
            )
            revoker = threading.Thread(
                target=permits.revoke, args=("ph1",), daemon=True
            )
            try:
                assert checked.wait(5.0)
                revoker.start()
                assert revoking.wait(5.0)
                release.set()
                assert service.admission.wait_idle(5.0)
            finally:
                release.set()
                victim.close()
                revoker.join(5.0)
        report = service.report()
        assert report.outcome_counts() == {"aborted": 1}
        assert report.flows[0].reason == "permit-revoked"
        assert report.stranded() == 0

    def test_drain_aborts_stragglers_within_deadline(self, origin):
        service = _service(
            origin,
            idle_timeout=30.0,
            drain_deadline_s=0.3,
            abort_grace_s=3.0,
        )
        service.start()
        straggler = socket.create_connection(
            service.address, timeout=5.0
        )
        try:
            assert _wait_active(service, 1)
            drain = service.stop()
        finally:
            straggler.close()
        assert drain.in_flight == 1
        assert drain.aborted == 1
        assert drain.drained == 0
        assert drain.met_deadline
        report = service.report()
        assert report.outcome_counts() == {"aborted": 1}
        assert report.flows[0].reason == "drain-aborted"
        assert report.stranded() == 0
        assert service.degradations.of_kind("drain-aborted")
        assert service.lifecycle.state == STOPPED

    def test_draining_service_sheds_new_arrivals(self, origin):
        service = _service(origin, drain_deadline_s=0.5)
        service.start()
        service.admission.begin_drain()
        status, _, _ = _request(service.address, "/late")
        assert status == 503
        service.stop()
        assert service.report().shed_reasons() == {"draining": 1}

    def test_stop_before_start(self, origin):
        service = _service(origin)
        drain = service.stop()
        assert drain.in_flight == 0
        assert drain.met_deadline
        assert service.lifecycle.state == STOPPED

    def test_double_stop_is_illegal(self, origin):
        service = _service(origin)
        service.start()
        service.stop()
        with pytest.raises(LifecycleError):
            service.stop()

    def test_requires_at_least_one_leg(self):
        with pytest.raises(ValueError):
            OnloadService(legs=[])

    def test_trace_flushes_schema_clean_events(self, origin):
        with capture() as handle:
            service = _service(origin, obs=handle)
            with service:
                status, _, _ = _request(service.address, "/t", b"v")
                assert status == 200
            names = {
                event.name for event in handle.tracer.events
            }
        assert "service.state" in names
        assert "service.flow.admit" in names
        assert "service.flow.end" in names
        assert "service.drain.begin" in names
        assert "service.drain.end" in names
        assert names <= set(EVENTS)
