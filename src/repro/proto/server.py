"""The loopback server core shared by the origin, the phone proxy and
the onload service.

:class:`LoopbackServer` owns what the three servers have in common: a
listening socket on 127.0.0.1 at an ephemeral port, the running flag,
and an accept loop that hands each connection to an idle worker
thread, starting a new worker only when none is idle. A subclass sets
:attr:`LoopbackServer.BACKLOG` and implements ``_serve_connection(conn)``.
"""

from __future__ import annotations

import contextlib
import queue
import socket
import sys
import threading
import time
from typing import List, Optional, Tuple, TypeVar

__all__ = ["ACCEPT_TICK_S", "LoopbackServer"]

#: The accept loop wakes at this cadence to re-check its running flag,
#: so a stop() that races the accept call never strands the thread.
ACCEPT_TICK_S = 0.5

_S = TypeVar("_S", bound="LoopbackServer")

#: A worker's inbox: the next connection it serves, or ``None`` to exit.
_Inbox = queue.SimpleQueue[Optional[socket.socket]]


class LoopbackServer:
    """A threaded TCP server on 127.0.0.1 that reuses its worker threads.

    Each accepted connection goes to an idle worker if one is waiting;
    otherwise a new daemon worker starts for it. Nothing ever queues
    behind a busy worker, so concurrency stays unbounded, and the idle
    workers never outnumber the most connections the server has served
    at once. A worker that finishes a connection goes back to the idle
    set; :meth:`stop` wakes every idle worker so it exits, and a busy
    one exits after its connection.
    """

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
        #: Guards the running flag's clearing and the idle set together,
        #: so a worker going idle while stop() runs is either woken by
        #: stop() or sees the server stopped and exits.
        self._pool_lock = threading.Lock()
        self._idle: List[_Inbox] = []

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
        """Stop accepting, release the port and wake the idle workers."""
        with self._pool_lock:
            self._running = False
            idle, self._idle = self._idle, []
        for inbox in idle:
            inbox.put(None)
        with contextlib.suppress(OSError):
            self._server.close()

    def __enter__(self: _S) -> _S:
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    def _accept_loop(self) -> None:
        # The listener is looked up per accept and the handler per
        # connection (in _work), so a wrapper installed on either after
        # construction takes effect.
        while self._running:
            try:
                conn, _ = self._server.accept()
            except socket.timeout:
                continue  # tick: re-check the running flag
            except OSError:
                return
            with self._pool_lock:
                inbox = self._idle.pop() if self._idle else None
            if inbox is not None:
                inbox.put(conn)
            else:
                threading.Thread(
                    target=self._work,
                    args=(queue.SimpleQueue(), conn),
                    name=f"{self.name}-worker",
                    daemon=True,
                ).start()

    def _work(self, inbox: _Inbox, conn: Optional[socket.socket]) -> None:
        """A worker: serve ``conn``, then each connection ``inbox`` brings."""
        while conn is not None:
            try:
                self._serve_connection(conn)
            except Exception:
                # Reported as an uncaught exception in a thread would
                # be; the worker lives on to serve the next connection.
                threading.excepthook(
                    threading.ExceptHookArgs(
                        (*sys.exc_info(), threading.current_thread())
                    )
                )
            conn = None  # an idle worker keeps no socket alive
            if not self._park(inbox):
                return
            conn = inbox.get()

    def _park(self, inbox: _Inbox) -> bool:
        """Put a worker back in the idle set; False once stopped."""
        with self._pool_lock:
            if self._running:
                self._idle.append(inbox)
            return self._running

    def _serve_connection(self, conn: socket.socket) -> None:
        """Serve one accepted connection until it ends; closes it."""
        raise NotImplementedError
