"""The start()/collect_result() concurrent-transaction API."""

import pytest

from repro.core.items import Transaction, items_from_sizes
from repro.core.scheduler import make_policy
from repro.core.scheduler.runner import TransactionRunner
from repro.netsim.fluid import FluidNetwork
from repro.netsim.latency import RttModel
from repro.netsim.link import Link
from repro.netsim.path import NetworkPath
from repro.util.units import MB, mbps

NO_RTT = RttModel(0.0)


def make_runner(network, name, rate):
    return TransactionRunner(
        network,
        [NetworkPath(name, [Link(f"{name}-l", rate)], rtt=NO_RTT)],
        make_policy("GRD"),
    )


class TestConcurrentTransactions:
    def test_two_runners_one_network(self):
        network = FluidNetwork()
        a = make_runner(network, "a", mbps(8))
        b = make_runner(network, "b", mbps(4))
        a.start(Transaction(items_from_sizes([2 * MB], prefix="a")))
        b.start(Transaction(items_from_sizes([2 * MB], prefix="b")))
        alive = True
        while not (a.finished and b.finished):
            # step() returns False only once drained — so the step that
            # completes the last flow may return False, but the network
            # must never drain while a runner is still unfinished.
            assert alive
            alive = network.step(max_time=60.0)
        assert a.collect_result().total_time == pytest.approx(2.0)
        assert b.collect_result().total_time == pytest.approx(4.0)

    def test_shared_bottleneck_between_runners(self):
        network = FluidNetwork()
        shared = Link("shared", mbps(4))
        runners = []
        for name in ("a", "b"):
            path = NetworkPath(name, [shared], rtt=NO_RTT)
            runner = TransactionRunner(network, [path], make_policy("GRD"))
            runner.start(Transaction(items_from_sizes([1 * MB], prefix=name)))
            runners.append(runner)
        while not all(r.finished for r in runners):
            network.step(max_time=60.0)
        # 2 MB total through a 4 Mbps link: both finish at 4 s.
        for runner in runners:
            assert runner.collect_result().total_time == pytest.approx(4.0)

    def test_collect_before_start_rejected(self):
        runner = make_runner(FluidNetwork(), "a", mbps(8))
        with pytest.raises(RuntimeError, match="no transaction"):
            runner.collect_result()

    def test_collect_before_finish_rejected(self):
        network = FluidNetwork()
        runner = make_runner(network, "a", mbps(1))
        runner.start(Transaction(items_from_sizes([100 * MB])))
        assert not runner.finished
        with pytest.raises(RuntimeError, match="incomplete"):
            runner.collect_result()

    def test_double_start_rejected(self):
        network = FluidNetwork()
        runner = make_runner(network, "a", mbps(8))
        runner.start(Transaction(items_from_sizes([1 * MB])))
        with pytest.raises(RuntimeError, match="single-use"):
            runner.start(Transaction(items_from_sizes([1 * MB])))


class TestAdvanceTo:
    def test_advances_idle_clock(self):
        network = FluidNetwork(start_time=100.0)
        assert network.advance_to(500.0) == 500.0
        assert network.time == 500.0

    def test_processes_flows_on_the_way(self):
        network = FluidNetwork()
        done = []
        from repro.netsim.fluid import Flow

        network.add_flow(
            Flow(1 * MB, [Link("l", mbps(8))],
                 on_complete=lambda f, t: done.append(t))
        )
        network.advance_to(10.0)
        assert done == [pytest.approx(1.0)]
        assert network.time == 10.0

    def test_backwards_rejected(self):
        network = FluidNetwork(start_time=10.0)
        with pytest.raises(ValueError, match="backwards"):
            network.advance_to(5.0)


class TestPrototypeWithDeadlinePolicy:
    def test_dln_runs_over_real_sockets(self):
        from repro.core.items import TransferItem
        from repro.core.scheduler.deadline import attach_deadlines
        from repro.proto import LoopbackOrigin, MobileProxy, PrototypeClient
        from repro.proto.shaping import TokenBucket
        from repro.web.hls import VideoAsset, VideoQuality
        from repro.util.units import kbps

        video = VideoAsset(
            "tiny", duration_s=8.0, segment_s=2.0,
            qualities=(VideoQuality("Q", kbps(400.0)),),
        )
        origin = LoopbackOrigin()
        origin.host_video(video)
        with origin:
            gateway = MobileProxy(
                origin.address, down_bucket=TokenBucket(400_000.0),
                name="gw",
            ).start()
            try:
                items = attach_deadlines([
                    TransferItem(
                        s.uri, s.size_bytes,
                        {"index": s.index, "duration_s": s.duration_s},
                    )
                    for s in video.playlists["Q"].segments
                ])
                client = PrototypeClient([("gw", gateway.address)])
                report = client.run_download(
                    Transaction(items, name="dln-proto"),
                    make_policy("DLN"),
                    timeout=30.0,
                )
            finally:
                gateway.stop()
        assert len(report.records) == 4
