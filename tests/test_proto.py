"""Loopback prototype: real sockets, shaped paths, the same schedulers."""

import socket
import threading
import time

import pytest

from repro.core.items import Transaction, TransferItem
from repro.core.scheduler import (
    SchedulingPolicy,
    WorkAssignment,
    make_policy,
)
from repro.proto import LoopbackOrigin, MobileProxy, PrototypeClient
from repro.proto.httpwire import read_response, render_request
from repro.proto.shaping import TokenBucket
from repro.web.hls import VideoAsset, VideoQuality
from repro.util.units import kbps


def small_video():
    """A tiny asset so socket tests stay fast: 6 x 2 s x 400 kbps = 600 kB."""
    return VideoAsset(
        "tiny",
        duration_s=12.0,
        segment_s=2.0,
        qualities=(VideoQuality("Q", kbps(400.0)),),
    )


@pytest.fixture
def origin():
    server = LoopbackOrigin()
    server.host_video(small_video())
    with server:
        yield server


class TestTokenBucket:
    def test_paces_to_rate(self):
        ticks = [0.0]

        def clock():
            return ticks[0]

        def sleep(seconds):
            ticks[0] += seconds

        bucket = TokenBucket(
            1000.0, burst_bytes=100.0, clock=clock, sleep=sleep
        )
        bucket.consume(1100)  # 100 burst + 1000 at 1000 B/s
        assert ticks[0] == pytest.approx(1.0, abs=0.05)

    def test_burst_passes_instantly(self):
        ticks = [0.0]
        bucket = TokenBucket(
            1000.0, burst_bytes=500.0,
            clock=lambda: ticks[0],
            sleep=lambda s: ticks.__setitem__(0, ticks[0] + s),
        )
        bucket.consume(400)
        assert ticks[0] == 0.0

    def test_oversized_request_does_not_deadlock(self):
        ticks = [0.0]
        bucket = TokenBucket(
            1e6, burst_bytes=10.0,
            clock=lambda: ticks[0],
            sleep=lambda s: ticks.__setitem__(0, ticks[0] + s),
        )
        bucket.consume(1000)  # 100x the burst
        assert ticks[0] > 0.0

    def test_set_rate(self):
        bucket = TokenBucket(100.0)
        bucket.set_rate(200.0)
        assert bucket.rate == 200.0
        with pytest.raises(ValueError):
            bucket.set_rate(0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(0.0)


class TestLoopbackOrigin:
    def _get(self, address, path):
        with socket.create_connection(address, timeout=5.0) as sock:
            sock.sendall(render_request("GET", path, "origin"))
            return read_response(sock)

    def test_serves_playlist(self, origin):
        status, headers, body = self._get(
            origin.address, "/tiny/Q/index.m3u8"
        )
        assert status == 200
        assert body.startswith(b"#EXTM3U")

    def test_serves_segments_with_exact_size(self, origin):
        playlist = small_video().playlists["Q"]
        segment = playlist.segments[0]
        status, _, body = self._get(origin.address, segment.uri)
        assert status == 200
        assert len(body) == int(round(segment.size_bytes))

    def test_404_for_unknown(self, origin):
        status, _, _ = self._get(origin.address, "/nope")
        assert status == 404

    def test_accepts_posts(self, origin):
        with socket.create_connection(origin.address, timeout=5.0) as sock:
            sock.sendall(
                render_request("POST", "/upload/a", "origin", body=b"x" * 100)
            )
            status, _, _ = read_response(sock)
        assert status == 200
        assert origin.uploads["/upload/a"] == 100

    def test_persistent_connection(self, origin):
        with socket.create_connection(origin.address, timeout=5.0) as sock:
            for _ in range(3):
                sock.sendall(
                    render_request("GET", "/tiny/Q/index.m3u8", "origin")
                )
                status, _, _ = read_response(sock)
                assert status == 200


class TestMobileProxy:
    def test_relays_and_shapes(self, origin):
        # 100 kB/s downlink shaping: a ~100 kB segment takes >= ~0.7 s.
        bucket = TokenBucket(100_000.0, burst_bytes=20_000.0)
        with MobileProxy(origin.address, down_bucket=bucket) as proxy:
            segment = small_video().playlists["Q"].segments[0]
            start = time.monotonic()
            with socket.create_connection(proxy.address, timeout=10.0) as sock:
                sock.sendall(render_request("GET", segment.uri, "origin"))
                status, _, body = read_response(sock)
            elapsed = time.monotonic() - start
            assert status == 200
            assert len(body) == int(round(segment.size_bytes))
            assert elapsed > 0.5
            assert proxy.bytes_down >= len(body)

    def test_unshaped_relay_is_fast(self, origin):
        with MobileProxy(origin.address) as proxy:
            segment = small_video().playlists["Q"].segments[0]
            start = time.monotonic()
            with socket.create_connection(proxy.address, timeout=5.0) as sock:
                sock.sendall(render_request("GET", segment.uri, "origin"))
                status, _, body = read_response(sock)
            assert status == 200
            assert time.monotonic() - start < 0.5


class TestPrototypeClient:
    def make_transaction(self):
        playlist = small_video().playlists["Q"]
        items = [
            TransferItem(s.uri, s.size_bytes, {"index": s.index})
            for s in playlist.segments
        ]
        return Transaction(items, name="proto-dl")

    def test_greedy_download_end_to_end(self, origin):
        # Gateway at 400 kB/s, one phone at 300 kB/s: ~600 kB of segments
        # should land in roughly a second.
        gateway = MobileProxy(
            origin.address,
            down_bucket=TokenBucket(400_000.0),
            name="gateway",
        ).start()
        phone = MobileProxy(
            origin.address,
            down_bucket=TokenBucket(300_000.0),
            name="phone1",
        ).start()
        try:
            client = PrototypeClient(
                [("gateway", gateway.address), ("phone1", phone.address)]
            )
            report = client.run_download(
                self.make_transaction(), make_policy("GRD"), timeout=30.0
            )
        finally:
            gateway.stop()
            phone.stop()
        assert len(report.records) == 6
        assert report.payload_bytes == pytest.approx(600_000, rel=0.01)
        # Both paths carried traffic.
        assert report.path_bytes["gateway"] > 0
        assert report.path_bytes["phone1"] > 0

    def test_multipath_faster_than_gateway_alone(self, origin):
        def run(paths):
            proxies = []
            endpoints = []
            for name, rate in paths:
                proxy = MobileProxy(
                    origin.address, down_bucket=TokenBucket(rate), name=name
                ).start()
                proxies.append(proxy)
                endpoints.append((name, proxy.address))
            try:
                client = PrototypeClient(endpoints)
                report = client.run_download(
                    self.make_transaction(), make_policy("GRD"), timeout=60.0
                )
            finally:
                for proxy in proxies:
                    proxy.stop()
            return report.total_time

        alone = run([("gateway", 200_000.0)])
        multi = run([("gateway", 200_000.0), ("phone1", 200_000.0)])
        assert multi < alone * 0.75

    def test_upload_end_to_end(self, origin):
        gateway = MobileProxy(
            origin.address, up_bucket=TokenBucket(400_000.0), name="gateway"
        ).start()
        phone = MobileProxy(
            origin.address, up_bucket=TokenBucket(400_000.0), name="phone1"
        ).start()
        try:
            items = [
                TransferItem(f"photo-{i}", 50_000.0) for i in range(6)
            ]
            client = PrototypeClient(
                [("gateway", gateway.address), ("phone1", phone.address)]
            )
            report = client.run_upload(
                Transaction(items, name="proto-up"),
                make_policy("GRD"),
                timeout=30.0,
            )
        finally:
            gateway.stop()
            phone.stop()
        assert len(report.records) == 6
        assert sum(origin.uploads.values()) == 300_000

    def test_round_robin_policy_over_sockets(self, origin):
        gateway = MobileProxy(
            origin.address, down_bucket=TokenBucket(400_000.0), name="g"
        ).start()
        phone = MobileProxy(
            origin.address, down_bucket=TokenBucket(400_000.0), name="p"
        ).start()
        try:
            client = PrototypeClient(
                [("g", gateway.address), ("p", phone.address)]
            )
            report = client.run_download(
                self.make_transaction(), make_policy("RR"), timeout=30.0
            )
        finally:
            gateway.stop()
            phone.stop()
        # RR splits 6 items 3/3 deterministically, no duplication.
        assert report.wasted_bytes == 0
        assert len(report.records) == 6

    def test_dead_endpoint_raises(self):
        # A port nothing listens on.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_address = probe.getsockname()
        probe.close()
        client = PrototypeClient([("dead", dead_address)])
        items = [TransferItem("/x", 10.0)]
        with pytest.raises((RuntimeError, TimeoutError)):
            client.run_download(
                Transaction(items), make_policy("GRD"), timeout=5.0
            )

    def test_endpoint_names_must_be_unique(self):
        # The copy ledger names paths by endpoint name.
        with pytest.raises(ValueError, match="unique"):
            PrototypeClient([("p", ("127.0.0.1", 1)), ("p", ("127.0.0.1", 2))])

    def test_wrong_size_body_is_a_path_fault(self, origin):
        # The origin serves each segment at its hosted size; a playlist
        # that declares one byte more must not pass as delivered.
        items = [
            TransferItem(item.label, item.size_bytes + 1.0)
            for item in self.make_transaction().items
        ]
        client = PrototypeClient([("direct", origin.address)])
        with pytest.raises(RuntimeError, match="FramingError"):
            client.run_download(
                Transaction(items), make_policy("GRD"), timeout=30.0
            )
        faults = client.degradations.of_kind("path-fault")
        assert len(faults) == 1
        assert "100000 body bytes, 100001 declared" in faults[0].detail

    def test_worker_exception_fails_the_run_at_once(self, origin):
        # A policy that hands a completed item out again makes the
        # ledger raise inside a worker thread; the run must fail with
        # that error instead of waiting out its timeout.
        class Scripted(SchedulingPolicy):
            name = "scripted"

            def initialize(self, workers, items):
                self.items = {item.label: item for item in items}
                self.script = {"a": ["/x", "/x", "/y"], "b": []}

            def next_item(self, worker, now):
                queue = self.script[worker.path.name]
                if not queue:
                    return None
                return WorkAssignment(self.items[queue.pop(0)])

        client = PrototypeClient(
            [("a", origin.address), ("b", origin.address)]
        )
        items = [TransferItem("/x", 10.0), TransferItem("/y", 10.0)]
        started = time.monotonic()
        with pytest.raises(RuntimeError, match="completed item '/x'"):
            client.run_upload(Transaction(items), Scripted(), timeout=30.0)
        assert time.monotonic() - started < 5.0
