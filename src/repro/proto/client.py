"""The prototype's client component: real threads, real sockets.

Drives the *same* :class:`~repro.core.scheduler.base.SchedulingPolicy`
implementations and :class:`~repro.core.scheduler.ledger.CopyLedger` as
the simulator over actual TCP connections, and returns its
:class:`~repro.core.scheduler.runner.TransactionResult`: one worker
thread per path, each holding a persistent connection to its shaped proxy
(the gateway pipe or a phone's 3G proxy), drives the ledger under one
lock. The greedy policy's endgame duplication works exactly as in
§4.1.1 — when the first copy of an item completes, the ledger names the
losing copies and the winner cancels them: it sets each loser's cancel
flag and shuts its socket down, which ends the blocked read, and the
loser reconnects for its next transfer. Responses are read by
:func:`repro.proto.httpwire.read_response`, the same strict reader every
other hop uses.

A bad peer degrades one *path*, not the transaction: a stalling or
garbage-speaking endpoint times out / errors its single in-flight
transfer, the item is re-offered to the policy exactly as the
simulator's runner does after a path fault
(:meth:`~repro.core.scheduler.base.SchedulingPolicy.on_item_failed`),
a structured :class:`~repro.core.resilience.DegradationLog` entry is
recorded, and the transfer continues over the surviving paths. The
transaction fails only when *every* path is dead.
"""

from __future__ import annotations

import contextlib
import socket
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.items import Transaction, TransferItem
from repro.core.resilience import DegradationEvent, DegradationLog
from repro.core.scheduler.base import PathWorker, SchedulingPolicy
from repro.core.scheduler.ledger import CopyLedger
from repro.core.scheduler.runner import TransactionResult
from repro.netsim.link import Link
from repro.netsim.path import NetworkPath
from repro.obs.capture import Instrumentation, current as obs_current
from repro.proto import httpwire
from repro.proto.errors import StallError


class _Endpoint:
    """One path: a named, persistent connection target."""

    def __init__(
        self,
        name: str,
        address: Tuple[str, int],
        recv_timeout: float = httpwire.DEFAULT_RECV_TIMEOUT,
    ) -> None:
        self.name = name
        self.address = address
        self.recv_timeout = recv_timeout
        self.cancel = threading.Event()
        self.sock: Optional[socket.socket] = None

    def connect(self) -> socket.socket:
        """(Re)open the persistent connection.

        The timeout governs every subsequent recv on the socket, so a
        peer that accepts the connection and then goes silent raises
        ``socket.timeout`` instead of hanging the worker forever.
        """
        self.close()
        self.sock = socket.create_connection(
            self.address, timeout=self.recv_timeout
        )
        return self.sock

    def close(self) -> None:
        """Drop the connection."""
        if self.sock is not None:
            with contextlib.suppress(OSError):
                self.sock.close()
            self.sock = None

    def abort(self) -> None:
        """Cancel the in-flight copy: set the flag, then shut the socket.

        The shutdown is what unblocks a worker parked in ``recv``; the
        flag tells it that the failure which follows is a cancelled
        copy, not a path fault.
        """
        self.cancel.set()
        if self.sock is not None:
            with contextlib.suppress(OSError):
                self.sock.shutdown(socket.SHUT_RDWR)


class PrototypeClient:
    """Runs transactions over real shaped paths with a scheduling policy."""

    def __init__(
        self,
        endpoints: Sequence[Tuple[str, Tuple[str, int]]],
        recv_timeout: float = httpwire.DEFAULT_RECV_TIMEOUT,
        degradation_log: Optional[DegradationLog] = None,
        obs: Optional[Instrumentation] = None,
    ) -> None:
        if not endpoints:
            raise ValueError("need at least one endpoint")
        names = [name for name, _ in endpoints]
        if len(set(names)) != len(names):
            raise ValueError("endpoint names must be unique")
        self.recv_timeout = recv_timeout
        #: Structured log of per-path degradations across transactions.
        self.degradations = (
            degradation_log if degradation_log is not None else DegradationLog()
        )
        #: Instrumentation handle; worker threads only touch locked
        #: metric counters (never the tracer) through it.
        self._obs = obs if obs is not None else obs_current()
        self.endpoints = [
            _Endpoint(name, addr, recv_timeout=recv_timeout)
            for name, addr in endpoints
        ]

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------
    def run_download(
        self,
        transaction: Transaction,
        policy: SchedulingPolicy,
        host: str = "origin",
        timeout: float = 120.0,
        deadline_s: Optional[float] = None,
    ) -> TransactionResult:
        """Fetch every item (item labels are URL paths) via GET.

        ``deadline_s`` is an end-to-end budget: each request carries
        the remaining budget in the deadline header so every hop
        (proxy, service, origin) clamps its own reads to it, and per-
        socket recv timeouts shrink with the budget. ``None`` keeps
        the per-transfer timeouts alone.
        """
        return self._run(
            transaction, policy, "GET", host, timeout,
            deadline_s=deadline_s,
        )

    def run_upload(
        self,
        transaction: Transaction,
        policy: SchedulingPolicy,
        host: str = "origin",
        timeout: float = 120.0,
        upload_path: str = "/upload",
        deadline_s: Optional[float] = None,
    ) -> TransactionResult:
        """POST every item's payload (deterministic filler bytes)."""
        return self._run(
            transaction, policy, "POST", host, timeout, upload_path,
            deadline_s=deadline_s,
        )

    # ------------------------------------------------------------------
    # Machinery
    # ------------------------------------------------------------------
    def _run(
        self,
        transaction: Transaction,
        policy: SchedulingPolicy,
        method: str,
        host: str,
        timeout: float,
        upload_path: str = "/upload",
        deadline_s: Optional[float] = None,
    ) -> TransactionResult:
        lock = threading.Lock()
        work_available = threading.Condition(lock)
        started = time.monotonic()

        # PathWorker wants a NetworkPath; give it a nominal one (the
        # policies only read names/estimates, and MIN's prior covers the
        # missing capacity knowledge — as for a real client).
        wire = [Link("wire", 1.0)]
        workers = [
            PathWorker(index=i, path=NetworkPath(e.name, wire))
            for i, e in enumerate(self.endpoints)
        ]
        index_of = {e.name: i for i, e in enumerate(self.endpoints)}

        ledger = CopyLedger(transaction.items)
        path_bytes = {endpoint.name: 0.0 for endpoint in self.endpoints}
        events: List[DegradationEvent] = []
        failure: List[BaseException] = []

        policy.initialize(workers, transaction.items)

        def now() -> float:
            return time.monotonic() - started

        def degrade(kind: str, **fields: str) -> None:
            events.append(self.degradations.record(kind, now(), **fields))

        def fail_path(index: int, exc: Exception, label: str = "") -> None:
            """Take one dead path out of the transfer set (lock held).

            Mirrors the simulator runner's ``remove_path``: mark the
            worker disabled so policies stop counting it, log a
            structured event, and abort the whole transaction only when
            no live path remains to carry the residual work.
            """
            worker = workers[index]
            worker.disabled = True
            worker.current_item = None
            worker.remaining_bytes = 0.0
            stalled = isinstance(exc, (StallError, socket.timeout))
            degrade(
                "stall" if stalled else "path-fault",
                path_name=self.endpoints[index].name,
                item_label=label,
                detail=f"{type(exc).__name__}: {exc}",
            )
            if not any(w.available for w in workers) and not ledger.finished:
                failure.append(exc)
            work_available.notify_all()

        def worker_main(index: int) -> None:
            """Run one path's loop; an exception fails the run at once."""
            try:
                worker_loop(index)
            except Exception as exc:
                with lock:
                    failure.append(exc)
                    for endpoint in self.endpoints:
                        endpoint.abort()
                    work_available.notify_all()

        def worker_loop(index: int) -> None:
            endpoint = self.endpoints[index]
            worker = workers[index]
            try:
                endpoint.connect()
            except OSError as exc:
                with lock:
                    fail_path(index, exc)
                    # Re-deal this path's share of the work (the policy
                    # saw the full worker set at initialize time).
                    policy.on_membership_change(tuple(workers), now())
                return
            while True:
                with lock:
                    if failure or ledger.finished:
                        return
                    worker.current_item = None
                    worker.remaining_bytes = 0.0
                    assignment = policy.next_item(worker, now())
                    if assignment is None:
                        # Nothing for this path right now; wait for a
                        # state change (someone completing) and retry.
                        work_available.wait(timeout=0.2)
                        continue
                    item = assignment.item
                    copy = ledger.issue(item.label, endpoint.name, now())
                    worker.current_item = item
                    worker.remaining_bytes = item.size_bytes
                    if self._obs is not None:
                        self._obs.count("runner.copies", path=endpoint.name)
                    endpoint.cancel.clear()
                remaining: Optional[float] = None
                if deadline_s is not None:
                    remaining = deadline_s - now()
                    if remaining <= 0.0:
                        # The end-to-end budget is spent: stop cleanly
                        # with a structured event instead of burning a
                        # request the proxy would refuse anyway.
                        with lock:
                            degrade(
                                "deadline-expired",
                                path_name=endpoint.name,
                                item_label=item.label,
                                detail=(
                                    f"{deadline_s}s deadline spent "
                                    "before transfer"
                                ),
                            )
                        raise TimeoutError(f"deadline {deadline_s}s expired")
                try:
                    size = self._transfer_one(
                        endpoint, method, host, item, upload_path,
                        remaining_s=remaining,
                    )
                except (httpwire.WireError, OSError) as exc:
                    with lock:
                        # Read under the lock the winner cancels under:
                        # set means this copy lost the race and its
                        # socket was shut down, not that the path died.
                        lost = endpoint.cancel.is_set()
                        if lost:
                            # A cancelled copy's partial bytes are not
                            # observable here: it books no waste.
                            ledger.abort(copy, 0.0)
                            policy.on_item_aborted(worker, item, now())
                        else:
                            fail_path(index, exc, item.label)
                            if ledger.fault(copy):
                                # Re-offer the orphaned item, exactly as
                                # the simulator's runner does after a
                                # path fault.
                                policy.on_item_failed(worker, item, now())
                    endpoint.close()
                    if lost:
                        continue  # reconnects for the next transfer
                    return
                with lock:
                    path_bytes[endpoint.name] += size
                    at = now()
                    record, duration, losers = ledger.complete(copy, size, at)
                    policy.on_item_complete(worker, item, duration, at)
                    if self._obs is not None:
                        if record is None:
                            self._obs.count(
                                "runner.waste_bytes", float(size),
                                cause="duplicate",
                            )
                        else:
                            self._obs.count(
                                "runner.items_completed", path=endpoint.name
                            )
                    # Cancel the losing copies still in flight, releasing
                    # their workers first so no policy duplicates the
                    # finished item. Once no work remains, a loser whose
                    # path has not delivered yet is spared: that copy is
                    # the path's only verdict, so a silent path still
                    # times out and is logged as a stall.
                    for loser in losers:
                        other = index_of[loser.path]
                        workers[other].current_item = None
                        if not ledger.finished or path_bytes[loser.path]:
                            self.endpoints[other].abort()
                    worker.current_item = None
                    work_available.notify_all()
                    if ledger.finished:
                        return
                if endpoint.cancel.is_set():
                    # This copy lost after its response was read; the
                    # winner shut the connection down all the same.
                    endpoint.close()

        threads = [
            threading.Thread(
                target=worker_main, args=(i,), name=f"3gol-{e.name}",
                daemon=True,
            )
            for i, e in enumerate(self.endpoints)
        ]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + timeout
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        for endpoint in self.endpoints:
            endpoint.cancel.set()
            endpoint.close()
        if failure:
            raise RuntimeError(
                f"prototype transfer failed: {failure[0]!r}"
            ) from failure[0]
        if not ledger.finished:
            raise TimeoutError(
                f"transaction incomplete after {timeout}s: "
                f"missing {ledger.missing()[:5]}"
            )
        return TransactionResult(
            transaction_name=transaction.name,
            policy_name=policy.name,
            started_at=0.0,
            finished_at=max(r.completed_at for r in ledger.records.values()),
            records=dict(ledger.records),
            path_bytes=path_bytes,
            wasted_bytes=ledger.wasted_bytes,
            payload_bytes=transaction.total_bytes,
            degradations=events,
        )

    def _transfer_one(
        self,
        endpoint: _Endpoint,
        method: str,
        host: str,
        item: TransferItem,
        upload_path: str,
        remaining_s: Optional[float] = None,
    ) -> int:
        """One GET or POST over the endpoint's persistent connection.

        With a ``remaining_s`` deadline budget the request carries the
        budget in the deadline header (so downstream hops clamp to it)
        and this socket's own recv timeout shrinks to match.
        """
        sock = endpoint.sock or endpoint.connect()
        extra: Optional[Dict[str, str]] = None
        if remaining_s is not None:
            sock.settimeout(
                httpwire.clamp_timeout(endpoint.recv_timeout, remaining_s)
            )
            extra = {httpwire.DEADLINE_HEADER: f"{remaining_s:.3f}"}
        if method == "GET":
            request = httpwire.render_request(
                "GET", item.label, host, headers=extra
            )
        else:
            payload = (item.label.encode("ascii") + b"|") * (
                int(item.size_bytes) // (len(item.label) + 1) + 1
            )
            payload = payload[: int(item.size_bytes)]
            request = httpwire.render_request(
                "POST",
                f"{upload_path}/{item.label.strip('/')}",
                host,
                headers=extra,
                body=payload,
            )
        sock.sendall(request)
        status, _, body = httpwire.read_response(sock)
        if status != 200:
            raise httpwire.WireError(f"unexpected status {status}")
        if method == "GET" and len(body) != round(item.size_bytes):
            # The record books the declared size: any other is a fault.
            raise httpwire.FramingError(
                f"{item.label}: {len(body)} body bytes, "
                f"{item.size_bytes:g} declared"
            )
        return len(body) if method == "GET" else int(item.size_bytes)
