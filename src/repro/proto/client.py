"""The prototype's client component: real threads, real sockets.

Drives the *same* :class:`~repro.core.scheduler.base.SchedulingPolicy`
implementations as the simulator over actual TCP connections: one worker
thread per path, each holding a persistent connection to its shaped proxy
(the gateway pipe or a phone's 3G proxy). The greedy policy's endgame
duplication works exactly as in §4.1.1 — when the first copy of an item
completes, the losing copies are cancelled: the winner sets each loser's
cancel flag and shuts its socket down, which ends the blocked read, and
the loser reconnects for its next transfer.
Responses are read by :func:`repro.proto.httpwire.read_response`, the
same strict reader every other hop uses.

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
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.items import Transaction, TransferItem
from repro.core.resilience import DegradationLog
from repro.core.scheduler.base import PathWorker, SchedulingPolicy
from repro.netsim.link import Link
from repro.netsim.path import NetworkPath
from repro.obs.capture import Instrumentation, current as obs_current
from repro.proto import httpwire
from repro.proto.errors import StallError


@dataclass
class ItemTiming:
    """Completion record for one item fetched by the prototype."""

    label: str
    path_name: str
    size_bytes: int
    started_at: float
    completed_at: float
    copies: int = 1

    @property
    def duration(self) -> float:
        """Seconds from first scheduling of this item to completion."""
        return self.completed_at - self.started_at


@dataclass
class ThreadedTransferReport:
    """Outcome of one prototype transaction."""

    total_time: float
    records: Dict[str, ItemTiming]
    wasted_bytes: int
    bytes_by_path: Dict[str, int]

    @property
    def payload_bytes(self) -> int:
        """Bytes of the winning copies."""
        return sum(r.size_bytes for r in self.records.values())


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
        if self.sock is not None:
            with contextlib.suppress(OSError):
                self.sock.close()
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
    ) -> ThreadedTransferReport:
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
    ) -> ThreadedTransferReport:
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
    ) -> ThreadedTransferReport:
        lock = threading.Lock()
        work_available = threading.Condition(lock)
        started = time.monotonic()

        workers = []
        dummy_links = [Link("wire", 1.0)]
        for index, endpoint in enumerate(self.endpoints):
            # PathWorker wants a NetworkPath; give it a nominal one (the
            # policies only read names/estimates, and MIN's prior covers
            # the missing capacity knowledge — as for a real client).
            path = NetworkPath(endpoint.name, dummy_links)
            workers.append(PathWorker(index=index, path=path))

        items_total = len(transaction)
        completed: Dict[str, ItemTiming] = {}
        scheduled_at: Dict[str, float] = {}
        copies_inflight: Dict[str, List[int]] = {}
        copy_counts: Dict[str, int] = {}
        wasted = 0
        bytes_by_path: Dict[str, int] = {
            endpoint.name: 0 for endpoint in self.endpoints
        }
        failure: List[BaseException] = []

        policy.initialize(workers, transaction.items)

        def now() -> float:
            return time.monotonic() - started

        def fail_path(
            index: int,
            exc: Exception,
            item_label: str = "",
        ) -> None:
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
            self.degradations.record(
                kind="stall" if stalled else "path-fault",
                time=now(),
                path_name=self.endpoints[index].name,
                item_label=item_label,
                detail=f"{type(exc).__name__}: {exc}",
            )
            if not any(w.available for w in workers) and (
                len(completed) < items_total
            ):
                failure.append(exc)
            work_available.notify_all()

        def worker_loop(index: int) -> None:
            nonlocal wasted
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
                    if failure or len(completed) >= items_total:
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
                    if item.label in completed:
                        continue
                    worker.current_item = item
                    worker.remaining_bytes = item.size_bytes
                    scheduled_at.setdefault(item.label, now())
                    copies_inflight.setdefault(item.label, []).append(index)
                    copy_counts[item.label] = copy_counts.get(item.label, 0) + 1
                    if self._obs is not None:
                        self._obs.count("client.copies", path=endpoint.name)
                    endpoint.cancel.clear()
                remaining: Optional[float] = None
                if deadline_s is not None:
                    remaining = deadline_s - now()
                    if remaining <= 0.0:
                        # The end-to-end budget is spent: stop cleanly
                        # with a structured event instead of burning a
                        # request the proxy would refuse anyway.
                        with lock:
                            self._forget_copy(
                                copies_inflight, item.label, index
                            )
                            self.degradations.record(
                                kind="deadline-expired",
                                time=now(),
                                path_name=endpoint.name,
                                item_label=item.label,
                                detail=(
                                    f"{deadline_s}s deadline spent "
                                    "before transfer"
                                ),
                            )
                            failure.append(
                                TimeoutError(
                                    f"deadline {deadline_s}s expired"
                                )
                            )
                            work_available.notify_all()
                        return
                try:
                    size = self._transfer_one(
                        endpoint, method, host, item, upload_path,
                        remaining_s=remaining,
                    )
                except (httpwire.WireError, OSError) as exc:
                    with lock:
                        self._forget_copy(copies_inflight, item.label, index)
                        # Read under the lock the winner cancels under:
                        # set means this copy lost the race and its
                        # socket was shut down, not that the path died.
                        lost = endpoint.cancel.is_set()
                        if lost:
                            policy.on_item_aborted(worker, item, now())
                        else:
                            fail_path(index, exc, item_label=item.label)
                            if item.label not in completed:
                                # Re-offer the orphaned item, exactly as
                                # the simulator's runner does after a
                                # path fault (policies re-queue
                                # idempotently).
                                policy.on_item_failed(worker, item, now())
                    endpoint.close()
                    if lost:
                        continue  # reconnects for the next transfer
                    return
                with lock:
                    self._forget_copy(copies_inflight, item.label, index)
                    bytes_by_path[endpoint.name] += size
                    duration = now() - scheduled_at[item.label]
                    policy.on_item_complete(worker, item, duration, now())
                    if item.label in completed:
                        wasted += size
                        if self._obs is not None:
                            self._obs.count(
                                "client.waste_bytes", amount=float(size)
                            )
                    else:
                        if self._obs is not None:
                            self._obs.count(
                                "client.items_completed", path=endpoint.name
                            )
                        completed[item.label] = ItemTiming(
                            label=item.label,
                            path_name=endpoint.name,
                            size_bytes=size,
                            started_at=scheduled_at[item.label],
                            completed_at=now(),
                            copies=copy_counts[item.label],
                        )
                        # Cancel the losing copies still in flight. Once
                        # no work remains, a loser whose path has not
                        # delivered yet is spared: that copy is the
                        # path's only verdict, so a silent path still
                        # times out and is logged as a stall.
                        for other in copies_inflight.get(item.label, []):
                            loser = self.endpoints[other]
                            if len(completed) < items_total or (
                                bytes_by_path[loser.name]
                            ):
                                loser.abort()
                    worker.current_item = None
                    work_available.notify_all()
                    if len(completed) >= items_total:
                        return
                if endpoint.cancel.is_set():
                    # This copy lost after its response was read; the
                    # winner shut the connection down all the same.
                    endpoint.close()

        threads = [
            threading.Thread(
                target=worker_loop, args=(i,), name=f"3gol-{e.name}",
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
        if len(completed) < items_total:
            missing = sorted(
                item.label
                for item in transaction.items
                if item.label not in completed
            )
            raise TimeoutError(
                f"transaction incomplete after {timeout}s: missing {missing[:5]}"
            )
        total_time = max(r.completed_at for r in completed.values())
        return ThreadedTransferReport(
            total_time=total_time,
            records=completed,
            wasted_bytes=wasted,
            bytes_by_path=bytes_by_path,
        )

    @staticmethod
    def _forget_copy(
        copies: Dict[str, List[int]], label: str, index: int
    ) -> None:
        entries = copies.get(label, [])
        if index in entries:
            entries.remove(index)

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
        return len(body) if method == "GET" else int(item.size_bytes)
