"""Failure injection: paths dying mid-transaction.

The prototype's reality: a phone walks out of Wi-Fi range, its battery
dies, or the radio drops — with an item in flight. The runner's
``fail_path`` models that; every policy must recover (no lost items, no
dispatch to the dead path), and the transaction must still complete on
the survivors.
"""

import pytest

from repro.core.items import Transaction, TransferItem, items_from_sizes
from repro.core.scheduler import make_policy
from repro.core.scheduler.runner import TransactionRunner
from repro.core.scheduler.deadline import attach_deadlines
from repro.netsim.fluid import FluidNetwork
from repro.netsim.latency import RttModel
from repro.netsim.link import Link
from repro.netsim.path import NetworkPath
from repro.util.units import MB, mbps

NO_RTT = RttModel(0.0)


def make_setup(rates, sizes, policy_name="GRD", **policy_kwargs):
    network = FluidNetwork()
    paths = [
        NetworkPath(f"p{i}", [Link(f"l{i}", rate)], rtt=NO_RTT)
        for i, rate in enumerate(rates)
    ]
    runner = TransactionRunner(
        network, paths, make_policy(policy_name, **policy_kwargs)
    )
    items = items_from_sizes(sizes)
    if policy_name == "DLN":
        for item in items:
            item.metadata["duration_s"] = 10.0
        items = attach_deadlines(items)
    return network, paths, runner, Transaction(items)


class TestFailPath:
    @pytest.mark.parametrize("policy", ["GRD", "RR", "MIN", "DLN"])
    def test_every_policy_recovers(self, policy):
        network, paths, runner, txn = make_setup(
            [mbps(4), mbps(4)], [1 * MB] * 8, policy
        )
        runner.start(txn)
        network.schedule(1.5, lambda: runner.fail_path("p1"))
        while not runner.finished:
            if not network.step(max_time=600.0):
                break
        result = runner.collect_result()
        assert len(result.records) == 8
        # Everything after the failure landed on the survivor.
        late = [r for r in result.records.values() if r.completed_at > 1.5]
        assert all(r.path_name == "p0" for r in late)

    def test_failed_item_retransferred(self):
        network, paths, runner, txn = make_setup(
            [mbps(4), mbps(4)], [2 * MB, 2 * MB], "GRD"
        )
        runner.start(txn)
        network.schedule(0.5, lambda: runner.fail_path("p1"))
        while not runner.finished:
            if not network.step(max_time=600.0):
                break
        result = runner.collect_result()
        assert set(result.records) == {"item-0", "item-1"}
        # The aborted partial transfer counts as waste.
        assert result.wasted_bytes > 0.0

    def test_failure_of_idle_path_is_benign(self):
        network, paths, runner, txn = make_setup(
            [mbps(8), mbps(8)], [1 * MB], "GRD"
        )
        runner.start(txn)  # single item: p1 idles
        runner.fail_path("p1")
        while not runner.finished:
            if not network.step(max_time=60.0):
                break
        assert len(runner.collect_result().records) == 1

    def test_double_failure_is_idempotent(self):
        network, paths, runner, txn = make_setup(
            [mbps(8), mbps(8)], [1 * MB] * 4, "GRD"
        )
        runner.start(txn)
        network.schedule(0.3, lambda: runner.fail_path("p1"))
        network.schedule(0.6, lambda: runner.fail_path("p1"))
        while not runner.finished:
            if not network.step(max_time=60.0):
                break
        assert len(runner.collect_result().records) == 4

    def test_unknown_path_rejected(self):
        network, paths, runner, txn = make_setup([mbps(8)], [1 * MB])
        with pytest.raises(KeyError):
            runner.fail_path("nope")

    def test_no_dispatch_to_dead_path(self):
        network, paths, runner, txn = make_setup(
            [mbps(2), mbps(8)], [1 * MB] * 6, "GRD"
        )
        runner.start(txn)
        network.schedule(0.2, lambda: runner.fail_path("p1"))
        while not runner.finished:
            if not network.step(max_time=600.0):
                break
        result = runner.collect_result()
        # p1 may have completed at most what finished before t=0.2.
        for record in result.records.values():
            if record.path_name == "p1":
                assert record.completed_at <= 0.2 + 1e-9

    def test_duplicate_copy_survives_path_failure(self):
        # An item duplicated on two paths keeps its surviving copy when
        # the other path dies: no unnecessary restart.
        network = FluidNetwork()
        paths = [
            NetworkPath("fast", [Link("fl", mbps(8))], rtt=NO_RTT),
            NetworkPath("slow", [Link("sl", mbps(1))], rtt=NO_RTT),
        ]
        runner = TransactionRunner(network, paths, make_policy("GRD"))
        # One item: fast takes it; slow duplicates it immediately.
        runner.start(Transaction(items_from_sizes([4 * MB])))
        network.schedule(0.5, lambda: runner.fail_path("slow"))
        while not runner.finished:
            if not network.step(max_time=60.0):
                break
        result = runner.collect_result()
        record = result.records["item-0"]
        assert record.path_name == "fast"
        # Completed at the fast path's natural pace (4 MB at 8 Mbps = 4 s).
        assert record.completed_at == pytest.approx(4.0, abs=0.2)

    def test_dln_failure_and_rejoin_still_completes_in_order(self):
        # The deadline policy under churn: its EDF duplication must keep
        # working across a fault + re-join cycle, and completion order
        # must stay consistent with the deadlines (HLS playout order).
        network, paths, runner, txn = make_setup(
            [mbps(4), mbps(4)], [1 * MB] * 8, "DLN"
        )
        runner.start(txn)
        network.schedule(1.0, lambda: runner.fail_path("p1"))
        network.schedule(4.0, lambda: runner.add_path("p1"))
        while not runner.finished:
            if not network.step(max_time=600.0):
                break
        result = runner.collect_result()
        assert len(result.records) == 8
        kinds = [e.kind for e in result.degradations]
        assert "path-fault" in kinds and "path-rejoin" in kinds
        # p1 carried load again after the re-join.
        assert any(
            r.path_name == "p1" and r.completed_at > 4.0
            for r in result.records.values()
        )
        completions = [
            result.records[f"item-{i}"].completed_at for i in range(8)
        ]
        assert completions == sorted(completions)

    def test_all_paths_failed_raises_on_collect(self):
        network, paths, runner, txn = make_setup(
            [mbps(8)], [4 * MB], "GRD"
        )
        runner.start(txn)
        runner.fail_path("p0")
        network.run(until=10.0)
        assert not runner.finished
        with pytest.raises(RuntimeError, match="incomplete"):
            runner.collect_result()
