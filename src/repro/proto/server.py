"""The loopback server core shared by the origin, the phone proxy and
the onload service.

:class:`LoopbackServer` owns what the three servers have in common: a
listening socket on 127.0.0.1 at an ephemeral port, the running flag,
and an accept loop that serves each connection on its own daemon
thread. A subclass sets :attr:`LoopbackServer.BACKLOG` and implements
``_serve_connection(conn)``.
"""

from __future__ import annotations

import contextlib
import socket
import threading
import time
from typing import Tuple, TypeVar

__all__ = ["ACCEPT_TICK_S", "LoopbackServer"]

#: The accept loop wakes at this cadence to re-check its running flag,
#: so a stop() that races the accept call never strands the thread.
ACCEPT_TICK_S = 0.5

_S = TypeVar("_S", bound="LoopbackServer")


class LoopbackServer:
    """A threaded TCP server on 127.0.0.1, one daemon thread per connection."""

    #: listen() backlog; each server sizes it for its own load.
    BACKLOG = 64

    def __init__(self, name: str) -> None:
        self.name = name
        self._started_at = time.monotonic()
        self._server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._server.bind(("127.0.0.1", 0))
        self._server.listen(self.BACKLOG)
        self._server.settimeout(ACCEPT_TICK_S)
        self.host, self.port = self._server.getsockname()
        self._running = False

    @property
    def address(self) -> Tuple[str, int]:
        """(host, port) the server listens on."""
        return (self.host, self.port)

    def _now(self) -> float:
        """Seconds since the server was built (degradation timestamps)."""
        return time.monotonic() - self._started_at

    def start(self: _S) -> _S:
        """Start accepting connections (daemon threads)."""
        self._running = True
        threading.Thread(
            target=self._accept_loop, name=f"{self.name}-accept", daemon=True
        ).start()
        return self

    def stop(self) -> None:
        """Stop accepting and release the port."""
        self._running = False
        with contextlib.suppress(OSError):
            self._server.close()

    def __enter__(self: _S) -> _S:
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    def _accept_loop(self) -> None:
        # Both the listener and the handler are looked up per accept, so
        # a wrapper installed on either after construction takes effect.
        while self._running:
            try:
                conn, _ = self._server.accept()
            except socket.timeout:
                continue  # tick: re-check the running flag
            except OSError:
                return
            threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            ).start()

    def _serve_connection(self, conn: socket.socket) -> None:
        """Serve one accepted connection until it ends; closes it."""
        raise NotImplementedError
