"""Dynamic path membership, retry backoff and the stall watchdog."""

import pytest

from repro.core.items import Transaction, items_from_sizes
from repro.core.resilience import RetryPolicy
from repro.core.scheduler import make_policy
from repro.core.scheduler.runner import IMMEDIATE_RETRY, TransactionRunner
from repro.core.scheduler.deadline import attach_deadlines
from repro.netsim.fluid import FluidNetwork
from repro.netsim.latency import RttModel
from repro.netsim.link import Link
from repro.netsim.path import NetworkPath
from repro.util.units import MB, mbps

NO_RTT = RttModel(0.0)


def make_setup(rates, sizes, policy_name="GRD", **runner_kwargs):
    network = FluidNetwork()
    paths = [
        NetworkPath(f"p{i}", [Link(f"l{i}", rate)], rtt=NO_RTT)
        for i, rate in enumerate(rates)
    ]
    runner = TransactionRunner(
        network, paths, make_policy(policy_name), **runner_kwargs
    )
    items = items_from_sizes(sizes)
    if policy_name == "DLN":
        for item in items:
            item.metadata["duration_s"] = 10.0
        items = attach_deadlines(items)
    return network, paths, runner, Transaction(items)


def drive(network, runner, until=600.0):
    while not runner.finished:
        if not network.step(max_time=until):
            break
        if network.time >= until:
            break


class TestRemovePath:
    def test_remove_is_idempotent(self):
        network, paths, runner, txn = make_setup(
            [mbps(4), mbps(4)], [1 * MB] * 4
        )
        runner.start(txn)
        assert runner.remove_path("p1") is True
        assert runner.remove_path("p1") is False
        assert runner.active_path_names == ["p0"]

    def test_drain_lets_inflight_copy_finish(self):
        network, paths, runner, txn = make_setup(
            [mbps(4), mbps(4)], [1 * MB] * 4,
            retry_policy=IMMEDIATE_RETRY,
        )
        runner.start(txn)
        network.schedule(0.5, lambda: runner.remove_path("p1", drain=True))
        drive(network, runner)
        result = runner.collect_result()
        on_p1 = [r for r in result.records.values() if r.path_name == "p1"]
        # The copy in flight at t=0.5 (1 MB at 4 Mbps = 2 s) finished on
        # the draining path; nothing new was dispatched to it after.
        assert len(on_p1) == 1
        assert on_p1[0].completed_at == pytest.approx(2.0, abs=0.1)
        assert result.degradations_of_kind("path-fault") == []

    def test_remove_records_degradation_event(self):
        network, paths, runner, txn = make_setup(
            [mbps(4), mbps(4)], [1 * MB] * 4
        )
        runner.start(txn)
        runner.remove_path("p1", kind="permit-revoked", detail="operator")
        events = runner.degradations
        assert [e.kind for e in events] == ["permit-revoked"]
        assert events[0].path_name == "p1"
        assert events[0].detail == "operator"


class TestAddPath:
    @pytest.mark.parametrize("policy", ["GRD", "RR", "MIN", "DLN"])
    def test_rejoin_after_fault_carries_load_again(self, policy):
        network, paths, runner, txn = make_setup(
            [mbps(2), mbps(8)], [1 * MB] * 10, policy,
            retry_policy=IMMEDIATE_RETRY,
        )
        runner.start(txn)
        network.schedule(0.5, lambda: runner.fail_path("p1"))
        network.schedule(3.0, lambda: runner.add_path("p1"))
        drive(network, runner)
        result = runner.collect_result()
        assert len(result.records) == 10
        late_p1 = [
            r
            for r in result.records.values()
            if r.path_name == "p1" and r.completed_at > 3.0
        ]
        # The fast path rejoined and carried items again.
        assert late_p1
        kinds = [e.kind for e in result.degradations]
        assert "path-fault" in kinds and "path-rejoin" in kinds

    def test_add_brand_new_path_mid_transaction(self):
        network, paths, runner, txn = make_setup(
            [mbps(1)], [1 * MB] * 6, retry_policy=IMMEDIATE_RETRY
        )
        runner.start(txn)
        fresh = NetworkPath("late", [Link("ll", mbps(8))], rtt=NO_RTT)
        network.schedule(1.0, lambda: runner.add_path(fresh))
        drive(network, runner)
        result = runner.collect_result()
        assert len(result.records) == 6
        assert any(
            r.path_name == "late" for r in result.records.values()
        )
        assert [e.kind for e in result.degradations] == ["path-join"]
        # The late path's byte accounting starts from its join, not zero.
        assert result.path_bytes["late"] > 0.0

    def test_add_active_path_is_noop(self):
        network, paths, runner, txn = make_setup(
            [mbps(4), mbps(4)], [1 * MB] * 4
        )
        runner.start(txn)
        worker = runner.add_path("p1")
        assert worker.path.name == "p1"
        assert runner.degradations == []


class TestGracefulLeave:
    """A drained path's private queue migrates; vetoed re-joins stay out."""

    @pytest.mark.parametrize("policy", ["RR", "MIN"])
    def test_drain_settle_migrates_static_queues(self, policy):
        # Static policies pre-commit items to per-path queues. A drain
        # lets the in-flight copy *finish*, so no failure hook ever runs
        # — the queued items must migrate when the drain settles, or the
        # transaction strands with the engine dry.
        network, paths, runner, txn = make_setup(
            [mbps(4), mbps(4)], [500_000.0] * 8, policy,
            retry_policy=IMMEDIATE_RETRY,
        )
        runner.start(txn)
        network.schedule(
            1.5,
            lambda: runner.remove_path(
                "p1", drain=True, kind="cap-exhausted"
            ),
        )
        drive(network, runner)
        assert runner.finished
        result = runner.collect_result()
        assert len(result.records) == 8
        # Nothing new started on the drained path after it settled.
        settle = max(
            r.completed_at
            for r in result.records.values()
            if r.path_name == "p1"
        )
        late_p1 = [
            r
            for r in result.records.values()
            if r.path_name == "p1" and r.completed_at > settle
        ]
        assert late_p1 == []

    def test_authority_removal_between_copies_migrates_queue(self):
        # How TransferGuard actually drains on cap exhaustion: from the
        # completion callback, when the worker is momentarily idle. No
        # copy is in flight, so the removal disables the worker on the
        # spot — its queue must migrate right there.
        network, paths, runner, txn = make_setup(
            [mbps(4), mbps(4)], [500_000.0] * 8, "RR",
            retry_policy=IMMEDIATE_RETRY,
        )

        def on_complete(record):
            if record.path_name == "p1":
                runner.remove_path(
                    "p1", drain=True, kind="cap-exhausted"
                )

        runner.on_item_complete = on_complete
        runner.start(txn)
        drive(network, runner)
        assert runner.finished
        result = runner.collect_result()
        assert len(result.records) == 8
        on_p1 = [
            r for r in result.records.values() if r.path_name == "p1"
        ]
        assert len(on_p1) == 1

    def test_rejoin_gate_vetoes_and_records(self):
        network, paths, runner, txn = make_setup(
            [mbps(4), mbps(4)], [1 * MB] * 4
        )
        runner.rejoin_gate = lambda path, now: False
        runner.start(txn)
        runner.remove_path("p1", kind="permit-revoked")
        worker = runner.add_path("p1")
        assert not worker.available
        assert runner.degradations[-1].kind == "rejoin-vetoed"
        assert runner.degradations[-1].path_name == "p1"
        assert runner.active_path_names == ["p0"]

    def test_rejoin_gate_pass_re_enables(self):
        network, paths, runner, txn = make_setup(
            [mbps(4), mbps(4)], [1 * MB] * 4
        )
        runner.rejoin_gate = lambda path, now: True
        runner.start(txn)
        runner.remove_path("p1", kind="permit-revoked")
        worker = runner.add_path("p1")
        assert worker.available
        assert runner.degradations[-1].kind == "path-rejoin"


class TestRetryPolicy:
    def test_backoff_schedule(self):
        policy = RetryPolicy(
            max_attempts=3,
            backoff_base_s=1.0,
            backoff_multiplier=2.0,
            backoff_max_s=3.0,
        )
        assert policy.backoff(1) == 1.0
        assert policy.backoff(2) == 2.0
        assert policy.backoff(3) == 3.0  # capped
        assert policy.backoff(4) == 0.0  # past the budget: immediate
        with pytest.raises(ValueError):
            policy.backoff(0)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_multiplier=0.5)

    def test_recovery_waits_for_backoff(self):
        network, paths, runner, txn = make_setup(
            [mbps(4), mbps(4)], [1 * MB, 1 * MB],
            retry_policy=RetryPolicy(backoff_base_s=2.0),
        )
        runner.start(txn)
        network.schedule(0.5, lambda: runner.fail_path("p1"))
        drive(network, runner)
        result = runner.collect_result()
        recovered = result.records["item-1"]
        # item-1 was orphaned at t=0.5 and could restart only at t=2.5;
        # 1 MB at 4 Mbps then takes 2 s more.
        assert recovered.completed_at == pytest.approx(4.5, abs=0.1)

    def test_budget_exhaustion_logged_but_item_not_lost(self):
        network, paths, runner, txn = make_setup(
            [mbps(4), mbps(4)], [2 * MB, 2 * MB],
            retry_policy=RetryPolicy(max_attempts=1, backoff_base_s=0.1),
        )
        runner.start(txn)
        network.schedule(0.5, lambda: runner.fail_path("p1"))
        network.schedule(1.0, lambda: runner.add_path("p1"))
        network.schedule(1.5, lambda: runner.fail_path("p1"))
        drive(network, runner)
        result = runner.collect_result()
        assert len(result.records) == 2
        assert result.degradations_of_kind("retry-budget-exhausted")


class TestStallWatchdog:
    @pytest.mark.parametrize("policy", ["GRD", "RR", "MIN", "DLN"])
    def test_stalled_path_aborts_and_recovers(self, policy):
        # p1 is a black hole: capacity 0, so its copy never moves a byte.
        network, paths, runner, txn = make_setup(
            [mbps(8), 0.0], [1 * MB] * 4, policy,
            retry_policy=IMMEDIATE_RETRY,
            stall_timeout_s=2.0,
        )
        runner.start(txn)
        drive(network, runner)
        result = runner.collect_result()
        assert len(result.records) == 4
        assert all(r.path_name == "p0" for r in result.records.values())
        stalls = result.degradations_of_kind("stall")
        assert stalls and stalls[0].time == pytest.approx(2.0)

    @pytest.mark.parametrize("policy", ["GRD", "RR", "MIN", "DLN"])
    def test_completion_exactly_at_timeout_is_not_a_stall(self, policy):
        # 1 MB at 4 Mbps completes at exactly t=2.0 — the instant the
        # watchdog fires. Completions run before timers at the same
        # time, so the copy must survive.
        network, paths, runner, txn = make_setup(
            [mbps(4), mbps(4)], [1 * MB, 1 * MB], policy,
            stall_timeout_s=2.0,
        )
        runner.start(txn)
        drive(network, runner)
        result = runner.collect_result()
        assert result.degradations_of_kind("stall") == []
        assert all(
            r.completed_at == pytest.approx(2.0)
            for r in result.records.values()
        )

    def test_watchdog_rearms_on_progress(self):
        # A slow-but-moving path never trips the watchdog.
        network, paths, runner, txn = make_setup(
            [mbps(0.5)], [1 * MB], stall_timeout_s=1.0
        )
        runner.start(txn)
        drive(network, runner, until=60.0)
        result = runner.collect_result()
        assert result.degradations_of_kind("stall") == []
        assert result.records["item-0"].completed_at == pytest.approx(16.0)

    def test_invalid_timeout_rejected(self):
        network = FluidNetwork()
        path = NetworkPath("p0", [Link("l0", mbps(1))], rtt=NO_RTT)
        with pytest.raises(ValueError):
            TransactionRunner(
                network, [path], make_policy("GRD"), stall_timeout_s=0.0
            )
