"""Deadline-aware scheduler (DLN)."""

import pytest

from repro.core.items import Transaction, TransferItem
from repro.core.scheduler import make_policy
from repro.core.scheduler.runner import TransactionRunner
from repro.core.scheduler.base import PathWorker
from repro.core.scheduler.deadline import (
    DeadlinePolicy,
    attach_deadlines,
    item_deadline,
)
from repro.netsim.fluid import FluidNetwork
from repro.netsim.latency import RttModel
from repro.netsim.link import Link, PiecewiseLink
from repro.netsim.path import NetworkPath
from repro.util.units import MB, kbps, mbps


def make_items(n=4, size=1 * MB, duration=10.0):
    items = [
        TransferItem(f"seg-{i}", size, {"duration_s": duration})
        for i in range(n)
    ]
    return attach_deadlines(items)


class TestAttachDeadlines:
    def test_deadlines_are_cumulative_durations(self):
        items = make_items(3)
        assert [item_deadline(i) for i in items] == [0.0, 10.0, 20.0]

    def test_missing_deadline_is_infinite(self):
        import math
        assert item_deadline(TransferItem("x", 1.0)) == math.inf


class TestDeadlinePolicy:
    def make_workers(self, n=2):
        return [
            PathWorker(index=i, path=NetworkPath(f"p{i}", [Link(f"l{i}", mbps(2))]))
            for i in range(n)
        ]

    def test_initial_assignment_in_deadline_order(self):
        workers = self.make_workers()
        items = make_items(4)
        policy = DeadlinePolicy()
        policy.initialize(workers, list(reversed(items)))  # shuffled input
        first = policy.next_item(workers[0], 0.0)
        second = policy.next_item(workers[1], 0.0)
        assert first.item.label == "seg-0"
        assert second.item.label == "seg-1"

    def test_no_instant_duplication_thanks_to_grace(self):
        workers = self.make_workers()
        policy = DeadlinePolicy(urgency_margin=4.0, startup_grace=10.0)
        items = make_items(4)
        policy.initialize(workers, items)
        a = policy.next_item(workers[0], 0.0)
        workers[0].current_item = a.item
        b = policy.next_item(workers[1], 0.0)
        assert not b.duplicate
        assert b.item.label == "seg-1"

    def test_urgency_preemption_duplicates_late_item(self):
        workers = self.make_workers()
        policy = DeadlinePolicy(urgency_margin=4.0, startup_grace=10.0)
        items = make_items(6)
        policy.initialize(workers, items)
        a = policy.next_item(workers[0], 0.0)
        workers[0].current_item = a.item  # seg-0, deadline 0
        # 20 s in, seg-0 still in flight: past grace+margin -> rescue it.
        assignment = policy.next_item(workers[1], 20.0)
        assert assignment.duplicate
        assert assignment.item.label == "seg-0"

    def test_endgame_duplicates_earliest_deadline(self):
        workers = self.make_workers(3)
        policy = DeadlinePolicy(startup_grace=1000.0)  # disable urgency
        items = make_items(2)
        policy.initialize(workers, items)
        a = policy.next_item(workers[0], 0.0)
        workers[0].current_item = a.item
        b = policy.next_item(workers[1], 0.0)
        workers[1].current_item = b.item
        assignment = policy.next_item(workers[2], 0.0)
        assert assignment.duplicate
        assert assignment.item.label == "seg-0"

    def test_validation(self):
        with pytest.raises(ValueError):
            DeadlinePolicy(urgency_margin=-1.0)
        with pytest.raises(ValueError):
            DeadlinePolicy(startup_grace=-1.0)


class TestDeadlineEndToEnd:
    def test_rescues_urgent_segment_on_dying_path(self):
        network = FluidNetwork()
        healthy = NetworkPath(
            "fast", [Link("fast-l", mbps(4))], rtt=RttModel(0.0)
        )
        dying = NetworkPath(
            "dying",
            [PiecewiseLink("dying-l", [(0.0, mbps(2)), (1.0, kbps(5))])],
            rtt=RttModel(0.0),
        )
        items = make_items(6)
        runner = TransactionRunner(
            network,
            [dying, healthy],
            make_policy("DLN", urgency_margin=4.0, startup_grace=5.0),
        )
        result = runner.run(Transaction(items), until=200.0)
        assert len(result.records) == 6
        # The item stuck on the dying path was re-fetched.
        assert max(r.copies for r in result.records.values()) >= 2
        assert result.total_time < 60.0
