"""The shared loopback server core and the readers built on it.

Covers what the origin, the phone proxy and the onload service share
(one accept loop with reused worker threads, one strict request-head
reader) and how the prototype client reads responses and cancels
losing duplicate copies. Every race here is driven by hand with events,
never by sleeps.
"""

import contextlib
import socket
import threading
import time

import pytest

from repro.core.items import Transaction, TransferItem
from repro.core.scheduler.base import SchedulingPolicy, WorkAssignment
from repro.proto import LoopbackOrigin, PrototypeClient, httpwire
from repro.proto.server import LoopbackServer

WAIT_S = 10.0


@contextlib.contextmanager
def running(server):
    server.start()
    try:
        yield server
    finally:
        server.stop()


class ScriptedPolicy(SchedulingPolicy):
    """Hands each path the labels scripted for it, in order."""

    name = "SCRIPT"

    def __init__(self, script):
        self.script = {path: list(labels) for path, labels in script.items()}
        self.aborted = []

    def initialize(self, workers, items):
        self.items = {item.label: item for item in items}

    def next_item(self, worker, now):
        queue = self.script[worker.path.name]
        if not queue:
            return None
        return WorkAssignment(self.items[queue.pop(0)], duplicate=True)

    def on_item_aborted(self, worker, item, now):
        self.aborted.append((worker.path.name, item.label))

    def on_item_failed(self, worker, item, now):
        pass


def parking(server):
    """A semaphore released each time one of ``server``'s workers goes idle.

    The worker has returned from the handler by then, so anything the
    handler raised has already reached ``threading.excepthook``.
    """
    parked = threading.Semaphore(0)
    park = server._park

    def signalling(inbox):
        idle = park(inbox)
        parked.release()
        return idle

    server._park = signalling
    return parked


def _post(address, path, headers, body):
    """Send one raw POST; returns the socket."""
    sock = socket.create_connection(address, timeout=WAIT_S)
    lines = [f"POST {path} HTTP/1.1", "Host: origin"]
    lines += [f"{name}: {value}" for name, value in headers.items()]
    sock.sendall(("\r\n".join(lines) + "\r\n\r\n").encode() + body)
    return sock


def _read_to_close(sock):
    """Everything the peer sends before it closes the connection."""
    data = b""
    with contextlib.closing(sock):
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return data
            data += chunk


# ---------------------------------------------------------------------------
# The accept skeleton
# ---------------------------------------------------------------------------


class _Echo(LoopbackServer):
    def _serve_connection(self, conn):
        with contextlib.closing(conn):
            conn.settimeout(WAIT_S)
            conn.sendall(conn.recv(64))


class TestAcceptSkeleton:
    def test_listener_and_handler_are_looked_up_per_accept(self):
        # A listener swapped onto the instance and a handler patched onto
        # the class after construction both take effect (the layered
        # benchmark wraps the service exactly this way).
        server = _Echo("echo")
        accepted = []

        class Listener:
            def __init__(self, sock):
                self._sock = sock

            def accept(self):
                conn, addr = self._sock.accept()
                accepted.append(conn)
                return conn, addr

            def __getattr__(self, name):
                return getattr(self._sock, name)

        server._server = Listener(server._server)
        original = _Echo._serve_connection
        served = []

        def wrapped(self, conn):
            served.append(conn)
            original(self, conn)

        _Echo._serve_connection = wrapped
        try:
            with running(server):
                sock = socket.create_connection(server.address, WAIT_S)
                sock.sendall(b"ping")
                assert _read_to_close(sock) == b"ping"
        finally:
            _Echo._serve_connection = original
        assert len(accepted) == 1
        assert served == accepted


class _Gate(LoopbackServer):
    """Echoes one read and notes each connection's thread.

    ``b"hold"`` holds the connection until :attr:`release` is set;
    ``b"boom"`` makes the handler raise.
    """

    def __init__(self, name):
        super().__init__(name)
        self.idents = []
        self.holding = threading.Event()
        self.release = threading.Event()

    def _serve_connection(self, conn):
        self.idents.append(threading.get_ident())
        with contextlib.closing(conn):
            conn.settimeout(WAIT_S)
            data = conn.recv(64)
            if data == b"hold":
                self.holding.set()
                assert self.release.wait(WAIT_S)
            elif data == b"boom":
                raise RuntimeError("boom")
            conn.sendall(data)


def _exchange(address, data):
    sock = socket.create_connection(address, WAIT_S)
    sock.sendall(data)
    return _read_to_close(sock)


def _workers(name):
    return [t for t in threading.enumerate() if t.name == f"{name}-worker"]


class TestWorkerPool:
    def test_sequential_connections_share_one_worker(self):
        server = _Gate("pool-reuse")
        parked = parking(server)
        with running(server):
            assert _exchange(server.address, b"one") == b"one"
            assert parked.acquire(timeout=WAIT_S)
            assert _exchange(server.address, b"two") == b"two"
        assert len(server.idents) == 2
        assert server.idents[0] == server.idents[1]

    def test_held_connection_does_not_delay_another(self):
        server = _Gate("pool-held")
        with running(server):
            held = socket.create_connection(server.address, WAIT_S)
            held.sendall(b"hold")
            assert server.holding.wait(WAIT_S)
            assert _exchange(server.address, b"free") == b"free"
            server.release.set()
            assert _read_to_close(held) == b"hold"
        assert server.idents[0] != server.idents[1]

    def test_stop_ends_idle_and_busy_workers(self):
        server = _Gate("pool-stop")
        parked = parking(server)
        with running(server):
            held = socket.create_connection(server.address, WAIT_S)
            held.sendall(b"hold")
            assert server.holding.wait(WAIT_S)
            assert _exchange(server.address, b"idle") == b"idle"
            assert parked.acquire(timeout=WAIT_S)
            workers = _workers("pool-stop")
            assert len(workers) == 2
        # One worker was idle at stop(), the other still held its
        # connection; both exit.
        server.release.set()
        assert _read_to_close(held) == b"hold"
        for worker in workers:
            worker.join(WAIT_S)
        assert not any(worker.is_alive() for worker in workers)
        assert _workers("pool-stop") == []

    def test_handler_exception_is_reported_and_the_worker_serves_on(
        self, monkeypatch
    ):
        uncaught = []
        monkeypatch.setattr(threading, "excepthook", uncaught.append)
        server = _Gate("pool-raise")
        parked = parking(server)
        with running(server):
            assert _exchange(server.address, b"boom") == b""
            assert parked.acquire(timeout=WAIT_S)
            assert _exchange(server.address, b"after") == b"after"
        assert [args.exc_type for args in uncaught] == [RuntimeError]
        assert uncaught[0].thread.name == "pool-raise-worker"
        assert server.idents[0] == server.idents[1]


# ---------------------------------------------------------------------------
# The origin reads requests through the strict reader
# ---------------------------------------------------------------------------


class TestOriginFraming:
    @pytest.mark.parametrize(
        "length",
        ["abc", "+3", "1_0", "9" * 5000],
        ids=["abc", "plus-3", "1_0", "5000-digits"],
    )
    def test_malformed_content_length_closes_only_that_connection(
        self, monkeypatch, length
    ):
        uncaught = []
        monkeypatch.setattr(
            threading, "excepthook", lambda args: uncaught.append(args)
        )
        origin = LoopbackOrigin()
        parked = parking(origin)
        with running(origin):
            bad = _post(
                origin.address, "/upload/bad",
                {"Content-Length": length}, b"abc",
            )
            assert _read_to_close(bad) == b""
            # Wait for the handler to return, so that an uncaught
            # exception in it has surfaced.
            assert parked.acquire(timeout=WAIT_S)
            assert origin.uploads == {}
            good = _post(
                origin.address, "/upload/good",
                {"Content-Length": "3"}, b"abc",
            )
            with contextlib.closing(good):
                status, _, body = httpwire.read_response(good, WAIT_S)
        assert (status, body) == (200, b"stored")
        assert origin.uploads == {"/upload/good": 3}
        assert uncaught == []


# ---------------------------------------------------------------------------
# The client reads through httpwire and cancels by shutdown
# ---------------------------------------------------------------------------


class _Holding(LoopbackOrigin):
    """An origin that holds the first request for ``path`` until released."""

    def __init__(self, path):
        super().__init__()
        self.path = path
        self.held = threading.Event()
        self.release = threading.Event()

    def _respond(self, method, path, body):
        if path == self.path and not self.held.is_set():
            self.held.set()
            self.release.wait(WAIT_S)
        return super()._respond(method, path, body)


class _FastAfterHold(PrototypeClient):
    """The "fast" path starts a transfer only once the origin holds one."""

    def __init__(self, origin, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.origin = origin

    def _transfer_one(self, endpoint, *args, **kwargs):
        if endpoint.name == "fast":
            assert self.origin.held.wait(WAIT_S)
        return super()._transfer_one(endpoint, *args, **kwargs)


class _Liar(LoopbackServer):
    """Answers every request with more body bytes than it declares."""

    def _serve_connection(self, conn):
        with contextlib.closing(conn):
            conn.settimeout(WAIT_S)
            httpwire.read_request_head(conn)
            conn.sendall(
                b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhelloEXTRA"
            )
            _read_to_close(conn)


def _uploads(*labels):
    return Transaction([TransferItem(label, 1000.0) for label in labels])


class TestClientCancel:
    def test_loser_whose_response_was_read_reconnects_and_carries_on(self):
        # The race shutdown-cancel opens: the slow copy of /a has read
        # its whole response when the fast copy wins and shuts its socket
        # down. The slow copy counts as waste, not as a fault, and the
        # slow path's next transfer succeeds on a fresh connection.
        slow_read = threading.Event()
        sockets = {}

        class Client(PrototypeClient):
            def _transfer_one(self, endpoint, method, host, item, *args,
                              **kwargs):
                if endpoint.name == "fast":
                    assert slow_read.wait(WAIT_S)
                size = super()._transfer_one(
                    endpoint, method, host, item, *args, **kwargs
                )
                sockets[endpoint.name, item.label] = endpoint.sock
                if endpoint.name == "slow" and item.label == "/a":
                    slow_read.set()
                    assert endpoint.cancel.wait(WAIT_S)
                return size

        policy = ScriptedPolicy({"fast": ["/a"], "slow": ["/a", "/b"]})
        with running(LoopbackOrigin()) as origin:
            client = Client(
                [("fast", origin.address), ("slow", origin.address)]
            )
            report = client.run_upload(_uploads("/a", "/b"), policy)
        assert len(client.degradations) == 0
        assert report.records["/a"].path_name == "fast"
        assert report.records["/b"].path_name == "slow"
        assert report.wasted_bytes == 1000
        assert report.path_bytes == {"fast": 1000, "slow": 2000}
        assert policy.aborted == []
        assert sockets["slow", "/b"] is not sockets["slow", "/a"]
        assert origin.uploads == {"/upload/a": 1000, "/upload/b": 1000}

    def _race(self, held_path, script):
        """Run ``script`` while the origin holds the slow copy of a path.

        The slow path's request for ``held_path`` goes unanswered (with a
        30 s recv timeout) until the fast path has won that item.
        """
        origin = _Holding(held_path)
        policy = ScriptedPolicy(script)
        with running(origin):
            client = _FastAfterHold(
                origin,
                [("slow", origin.address), ("fast", origin.address)],
                recv_timeout=30.0,
            )
            started = time.monotonic()
            report = client.run_upload(_uploads("/a", "/b"), policy)
            elapsed = time.monotonic() - started
            origin.release.set()
        return client, policy, report, elapsed

    def test_loser_blocked_in_read_is_cut_and_counted_aborted(self):
        # The winner's shutdown ends the slow copy's read at once: the
        # copy is aborted (no degradation) and the path goes on to /b.
        client, policy, report, elapsed = self._race(
            "/upload/a", {"fast": ["/a"], "slow": ["/a", "/b"]}
        )
        assert len(client.degradations) == 0
        assert policy.aborted == [("slow", "/a")]
        assert report.records["/a"].path_name == "fast"
        assert report.records["/b"].path_name == "slow"
        assert report.wasted_bytes == 0
        assert elapsed < WAIT_S

    def test_last_loser_on_a_proven_path_is_cut_too(self):
        # Nothing remains once /b is won, but the slow path has already
        # delivered /a, so its held copy of /b is cut, not waited out.
        client, policy, report, elapsed = self._race(
            "/upload/b", {"fast": ["/b"], "slow": ["/a", "/b"]}
        )
        assert len(client.degradations) == 0
        assert policy.aborted == [("slow", "/b")]
        assert report.records["/a"].path_name == "slow"
        assert report.records["/b"].path_name == "fast"
        assert elapsed < WAIT_S

    def test_extra_body_bytes_fail_the_path_as_framing(self):
        with running(_Liar("liar")) as liar:
            client = PrototypeClient([("liar", liar.address)])
            with pytest.raises(RuntimeError, match="transfer failed"):
                client.run_download(
                    Transaction([TransferItem("/x", 5.0)]),
                    ScriptedPolicy({"liar": ["/x"]}),
                    timeout=WAIT_S,
                )
        faults = client.degradations.of_kind("path-fault")
        assert len(faults) == 1
        assert "more body bytes than Content-Length" in faults[0].detail
