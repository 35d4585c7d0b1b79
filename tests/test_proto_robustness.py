"""Wire-robustness integration: stalling peers, bad peers, bounded reads.

The acceptance behaviour for the hardened data path: a peer that
accepts a connection and then goes silent costs exactly one timed-out
transfer — logged as a structured degradation — never a hung proxy or
client; a malformed peer degrades one connection and the server keeps
serving everyone else.
"""

import contextlib
import socket
import threading

import pytest

from repro.core.items import Transaction, TransferItem
from repro.core.resilience import DegradationEvent, DegradationLog
from repro.core.scheduler import make_policy
from repro.core.scheduler.greedy import GreedyPolicy
from repro.fuzz.targets import FakeSocket
from repro.proto import LoopbackOrigin, MobileProxy, PrototypeClient
from repro.proto.httpwire import (
    StallError,
    WireError,
    read_response,
    read_until_blank_line,
    render_request,
)
from repro.proto.shaping import TokenBucket
from repro.web.hls import VideoAsset, VideoQuality
from repro.util.units import kbps


@contextlib.contextmanager
def silent_server():
    """A peer that accepts connections and never sends a byte."""
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    server.bind(("127.0.0.1", 0))
    server.listen(8)
    accepted = []
    stopping = threading.Event()

    def accept_loop():
        while not stopping.is_set():
            try:
                conn, _ = server.accept()
            except OSError:
                return
            accepted.append(conn)  # hold it open, say nothing

    thread = threading.Thread(target=accept_loop, daemon=True)
    thread.start()
    try:
        yield server.getsockname()
    finally:
        stopping.set()
        with contextlib.suppress(OSError):
            server.close()
        for conn in accepted:
            with contextlib.suppress(OSError):
                conn.close()


def small_video():
    return VideoAsset(
        "tiny",
        duration_s=8.0,
        segment_s=2.0,
        qualities=(VideoQuality("Q", kbps(400.0)),),
    )


@pytest.fixture
def origin():
    server = LoopbackOrigin()
    server.host_video(small_video())
    with server:
        yield server


def segment_transaction():
    playlist = small_video().playlist("Q")
    return Transaction(
        [
            TransferItem(segment.uri, segment.size_bytes)
            for segment in playlist.segments
        ],
        name="robustness-dl",
    )


# ---------------------------------------------------------------------------
# Bounded header reads (the header-cap boundary regression)
# ---------------------------------------------------------------------------


class TestHeaderCapBoundary:
    def test_cap_enforced_on_coalesced_chunk(self):
        # The original bug: the cap was checked before each recv, so a
        # single buffered chunk that already contained the CRLFCRLF
        # separator sailed past it regardless of size.
        oversized = (
            b"HTTP/1.1 200 OK\r\nX-F: " + b"a" * 70_000 + b"\r\n\r\n"
        )
        with pytest.raises(WireError, match="header section exceeds"):
            read_until_blank_line(FakeSocket(b""), buffered=oversized)

    def test_exactly_at_cap_passes(self):
        cap = 256
        head = b"A: " + b"a" * (cap - 4 - 3)  # + CRLFCRLF = exactly cap
        data = head + b"\r\n\r\n"
        assert len(data) == cap
        parsed, leftover = read_until_blank_line(
            FakeSocket(b""), buffered=data, max_header_bytes=cap
        )
        assert parsed == data
        assert leftover == b""

    def test_one_byte_past_cap_rejected(self):
        cap = 256
        head = b"A: " + b"a" * (cap - 4 - 2)  # one byte over
        data = head + b"\r\n\r\n"
        assert len(data) == cap + 1
        with pytest.raises(WireError, match="header section exceeds"):
            read_until_blank_line(
                FakeSocket(b""), buffered=data, max_header_bytes=cap
            )

    def test_trickled_oversize_rejected_too(self):
        # The pre-existing path: cap still trips when the head arrives
        # in many small chunks with no separator in sight.
        stream = FakeSocket(b"X: " + b"b" * 1000, chunk=16)
        with pytest.raises(WireError, match="header section exceeds"):
            read_until_blank_line(stream, max_header_bytes=128)


class TestOverallReadBudget:
    """``overall_timeout``: the slow-loris defence on the wire readers."""

    def _trickler(self, payload, gap_s=0.05):
        """A peer that drips ``payload`` one byte per ``gap_s``."""
        ours, theirs = socket.socketpair()

        def drip():
            with contextlib.suppress(OSError):
                for i in range(len(payload)):
                    theirs.sendall(payload[i : i + 1])
                    if stop.wait(gap_s):
                        return

        stop = threading.Event()
        writer = threading.Thread(target=drip, daemon=True)
        writer.start()
        return ours, theirs, stop

    def test_header_trickle_stalls_out_under_the_budget(self):
        head = b"POST / HTTP/1.1\r\nHost: x\r\n" + b"X: " + b"a" * 256
        ours, theirs, stop = self._trickler(head)
        try:
            # Per-recv timeout (1s) never trips at a 0.05s drip; the
            # overall budget is what cuts the read off.
            with pytest.raises(StallError, match="budget"):
                read_until_blank_line(
                    ours, timeout=1.0, overall_timeout=0.3
                )
        finally:
            stop.set()
            ours.close()
            theirs.close()

    def test_body_trickle_stalls_out_under_the_budget(self):
        from repro.proto.httpwire import read_body

        ours, theirs, stop = self._trickler(b"b" * 256)
        try:
            with pytest.raises(StallError, match="budget"):
                read_body(
                    ours,
                    b"",
                    256,
                    timeout=1.0,
                    overall_timeout=0.3,
                )
        finally:
            stop.set()
            ours.close()
            theirs.close()

    def test_recv_cut_short_by_the_budget_reports_the_budget(self):
        # 10 ms of budget left: the recv waits the MIN_TIMEOUT_S floor
        # past it, so its timeout is the budget's, not a silent peer's.
        ours, theirs = socket.socketpair()
        try:
            with pytest.raises(StallError, match="budget"):
                read_until_blank_line(
                    ours, timeout=1.0, overall_timeout=0.01
                )
        finally:
            ours.close()
            theirs.close()

    def test_no_budget_keeps_the_per_recv_semantics(self):
        # A trickled but terminating head still parses when no overall
        # budget is set (the pre-existing behaviour).
        stream = FakeSocket(b"HTTP/1.1 200 OK\r\n\r\n", chunk=3)
        head, leftover = read_until_blank_line(stream)
        assert head.endswith(b"\r\n\r\n")
        assert leftover == b""


# ---------------------------------------------------------------------------
# Stalling peers: StallError, not a hang
# ---------------------------------------------------------------------------


class TestStallingPeer:
    def test_read_response_raises_stall_error(self):
        with silent_server() as address:
            sock = socket.create_connection(address, timeout=5.0)
            try:
                with pytest.raises(StallError):
                    read_response(sock, timeout=0.3)
            finally:
                sock.close()

    def test_proxy_times_out_single_transfer_and_keeps_serving(self):
        # The origin accepts the proxy's connection and never answers:
        # each LAN request costs one 504, one structured stall event
        # (the canonical kind — the proxy's old peer-stall spelling is
        # an alias now), and the proxy remains responsive for the next.
        with silent_server() as stalled_origin:
            proxy = MobileProxy(
                stalled_origin, name="ph-stall", recv_timeout=0.3
            ).start()
            try:
                for _ in range(2):  # a second round proves no hang
                    sock = socket.create_connection(proxy.address, timeout=5.0)
                    try:
                        sock.sendall(
                            render_request("GET", "/x", "origin")
                        )
                        status, _, _ = read_response(sock, timeout=5.0)
                    finally:
                        sock.close()
                    assert status == 504
            finally:
                proxy.stop()
            stalls = proxy.degradations.of_kind("stall")
            assert len(stalls) == 2
            assert all(
                isinstance(event, DegradationEvent) for event in stalls
            )
            assert stalls[0].path_name == "ph-stall"

    def test_client_degrades_stalled_path_and_finishes_on_live_one(
        self, origin
    ):
        # Two paths: one healthy proxy, one peer that accepts and goes
        # silent. The transaction must complete on the live path and the
        # dead one must cost exactly one stall event — the single
        # timed-out transfer the acceptance criteria allow.
        proxy = MobileProxy(origin.address, name="gateway").start()
        try:
            with silent_server() as stalled:
                client = PrototypeClient(
                    [("gateway", proxy.address), ("stalled", stalled)],
                    recv_timeout=0.5,
                )
                report = client.run_download(
                    segment_transaction(), make_policy("GRD"), timeout=30.0
                )
        finally:
            proxy.stop()
        assert len(report.records) == 4
        assert report.path_bytes["gateway"] > 0
        stalls = client.degradations.of_kind("stall")
        assert len(stalls) == 1
        assert stalls[0].path_name == "stalled"

    def test_duplicate_reports_its_own_copy_duration(self, origin):
        # GRD over a live gateway and a silent path: the silent path
        # holds its first item, the gateway finishes the rest and then
        # duplicates it. The policy must hear how long the duplicate
        # itself took, not the time since the silent copy was issued
        # (MIN's bandwidth estimator learns from this duration).
        class Spy(GreedyPolicy):
            def __init__(self):
                super().__init__()
                self.handed_at = {}
                self.windows = []

            def next_item(self, worker, now):
                assignment = super().next_item(worker, now)
                if assignment is not None:
                    self.handed_at[worker.path.name] = now
                return assignment

            def on_item_complete(self, worker, item, duration, now):
                window = now - self.handed_at[worker.path.name]
                self.windows.append((item.label, duration, window))

        policy = Spy()
        proxy = MobileProxy(
            origin.address,
            down_bucket=TokenBucket(1_000_000.0),
            name="gateway",
        ).start()
        try:
            with silent_server() as stalled:
                client = PrototypeClient(
                    [("gateway", proxy.address), ("stalled", stalled)],
                    recv_timeout=0.5,
                )
                report = client.run_download(
                    segment_transaction(), policy, timeout=30.0
                )
        finally:
            proxy.stop()
        duplicated = [r for r in report.records.values() if r.copies == 2]
        assert len(duplicated) == 1
        assert len(policy.windows) == 4
        for label, duration, window in policy.windows:
            assert 0.0 <= duration <= window, (label, duration, window)

    def test_client_fails_cleanly_when_every_path_stalls(self):
        with silent_server() as stalled:
            client = PrototypeClient(
                [("only", stalled)], recv_timeout=0.3
            )
            with pytest.raises(RuntimeError, match="transfer failed"):
                client.run_download(
                    Transaction([TransferItem("/x", 10.0)]),
                    make_policy("GRD"),
                    timeout=10.0,
                )
            assert len(client.degradations.of_kind("stall")) == 1


# ---------------------------------------------------------------------------
# Bad peers: one connection degraded, the server keeps serving
# ---------------------------------------------------------------------------


class TestBadPeer:
    def test_malformed_request_gets_400_and_proxy_survives(self, origin):
        proxy = MobileProxy(origin.address, name="ph").start()
        try:
            # A request whose header section can never parse.
            bad = socket.create_connection(proxy.address, timeout=5.0)
            try:
                bad.sendall(b"GET / HTTP/1.1\r\nBad Name: x\r\n\r\n")
                status, _, _ = read_response(bad, timeout=5.0)
            finally:
                bad.close()
            assert status == 400
            assert len(proxy.degradations.of_kind("bad-peer")) == 1
            # The proxy still serves a well-formed request afterwards.
            good = socket.create_connection(proxy.address, timeout=5.0)
            try:
                good.sendall(
                    render_request("GET", "/tiny/Q/index.m3u8", "origin")
                )
                status, _, body = read_response(good, timeout=5.0)
            finally:
                good.close()
            assert status == 200
            assert body.startswith(b"#EXTM3U")
        finally:
            proxy.stop()

    def test_unreachable_origin_gets_502(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_address = probe.getsockname()
        probe.close()
        proxy = MobileProxy(dead_address, name="ph").start()
        try:
            sock = socket.create_connection(proxy.address, timeout=5.0)
            try:
                status, _, _ = read_response(sock, timeout=5.0)
            finally:
                sock.close()
            assert status == 502
            assert len(proxy.degradations.of_kind("peer-unreachable")) == 1
        finally:
            proxy.stop()


# ---------------------------------------------------------------------------
# DegradationLog: the structured record both components share
# ---------------------------------------------------------------------------


class TestDegradationLog:
    def test_record_returns_the_runner_event_type(self):
        log = DegradationLog()
        event = log.record(
            kind="stall", time=1.5, path_name="p", item_label="/x",
            detail="d",
        )
        assert isinstance(event, DegradationEvent)
        assert log.events == (event,)
        assert len(log) == 1

    def test_of_kind_filters(self):
        log = DegradationLog()
        log.record(kind="stall", time=0.1)
        log.record(kind="bad-peer", time=0.2)
        log.record(kind="stall", time=0.3)
        assert [e.time for e in log.of_kind("stall")] == [0.1, 0.3]

    def test_thread_safe_appends(self):
        log = DegradationLog()
        threads = [
            threading.Thread(
                target=lambda: [
                    log.record(kind="stall", time=0.0) for _ in range(100)
                ]
            )
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(log) == 800
