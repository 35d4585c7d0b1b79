"""The long-running onload service.

:class:`OnloadService` promotes the one-shot proto components to a
service that serves heavy traffic and survives it: a real TCP relay on
127.0.0.1 that pipes client requests to one of several upstream *legs*
(the ADSL gateway or a phone's shaped 3G proxy), with

* **admission control and backpressure** — a bounded flow pool with a
  bounded, deadline-bounded wait queue; overload is shed explicitly
  with a 503 and a structured ``overload-shed`` degradation, never
  queued unboundedly;
* a shared :class:`~repro.core.resilience.RetryBudget` — upstream
  connect/relay retries spend from one token bucket with jittered
  backoff, so an upstream outage cannot fan out into a retry storm;
* **deadline propagation** — the client's deadline header clamps every
  per-read timeout on both sockets and is rewritten with the remaining
  budget when the request is forwarded;
* **cap/permit integration** — cellular legs are metered through a
  :class:`~repro.core.resilience.FlowLedger` into the shared (now
  lock-guarded) :class:`~repro.core.captracker.CapTracker`; a permit
  revocation aborts the leg's in-flight flows mid-transfer, and every
  abort is trued up on settlement;
* a **graceful drain state machine** — ``stop()`` moves the
  :class:`~repro.service.lifecycle.Lifecycle` to ``draining``, stops
  accepting, lets in-flight flows finish under a deadline, aborts the
  stragglers (``drain-aborted``), and only then reaches ``stopped``.

Every admitted flow ends in exactly one of three outcomes —
``completed``, ``shed`` or ``aborted`` — recorded in an in-memory
journal whose events (``service.flow.admit`` / ``service.flow.end`` /
lifecycle markers) are flushed to the tracer from a single thread after
the drain, keeping trace emission single-threaded as the obs layer
requires. The drain-discipline hunt oracle checks that pairing.
"""

from __future__ import annotations

import contextlib
import itertools
import socket
import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.core.resilience import DegradationLog, FlowLedger, RetryBudget
from repro.obs.capture import Instrumentation, current as obs_current
from repro.proto import httpwire
from repro.proto.errors import StallError, WireError
from repro.proto.server import LoopbackServer
from repro.service.admission import AdmissionController
from repro.service.lifecycle import (
    DRAINING,
    Deadline,
    Lifecycle,
    SERVING,
    STARTING,
    STOPPED,
)

__all__ = [
    "DrainReport",
    "FlowRecord",
    "OnloadService",
    "ServiceLeg",
    "ServiceReport",
]

#: Flow outcomes (the ``service.flow.end`` vocabulary).
COMPLETED = "completed"
SHED = "shed"
ABORTED = "aborted"

_UPSTREAM_UNAVAILABLE = httpwire.render_response(
    503, "Service Unavailable", b"upstream"
)
_EXPIRED = httpwire.render_response(504, "Deadline Expired")


@dataclass(frozen=True)
class ServiceLeg:
    """One upstream the service may relay through.

    ``device`` names the cellular phone whose cap meters the leg's
    bytes; ``None`` marks the unmetered ADSL leg. ``cell`` is the
    device's cell for permit requests.
    """

    name: str
    address: Tuple[str, int]
    device: Optional[str] = None
    cell: str = ""


@dataclass
class FlowRecord:
    """Terminal accounting for one flow."""

    flow_id: str
    leg: str
    admitted: bool
    outcome: str
    reason: str
    status: int
    transferred_bytes: int
    latency_s: float


@dataclass
class DrainReport:
    """What the drain state machine did."""

    in_flight: int
    drained: int
    aborted: int
    elapsed_s: float
    met_deadline: bool


@dataclass
class ServiceReport:
    """Aggregate view over every flow the service ever saw."""

    flows: List[FlowRecord]
    drain: Optional[DrainReport]
    active: int

    @property
    def admitted(self) -> int:
        """Flows that got a pool slot."""
        return sum(1 for f in self.flows if f.admitted)

    def outcome_counts(self) -> Dict[str, int]:
        """Flow count per terminal outcome (admitted and shed alike)."""
        counts: Dict[str, int] = {}
        for flow in self.flows:
            counts[flow.outcome] = counts.get(flow.outcome, 0) + 1
        return counts

    def shed_reasons(self) -> Dict[str, int]:
        """Shed/abort reasons, for the load report."""
        reasons: Dict[str, int] = {}
        for flow in self.flows:
            if flow.reason:
                reasons[flow.reason] = reasons.get(flow.reason, 0) + 1
        return reasons

    def stranded(self) -> int:
        """Admitted flows without a terminal outcome (must be zero)."""
        bad = sum(
            1
            for f in self.flows
            if f.outcome not in (COMPLETED, SHED, ABORTED)
        )
        return bad + self.active


class _Cancelled(Exception):
    """A flow's cancel event fired; it ends ``aborted`` with its reason."""


class _End(NamedTuple):
    """A flow's terminal ``(outcome, reason, status)`` and its reply."""

    outcome: str
    reason: str
    status: int
    #: Sent to the client after the end is journaled (empty: none).
    reply: bytes = b""


class _Flow:
    """In-flight state for one admitted flow."""

    def __init__(
        self, flow_id: str, client: socket.socket, leg: ServiceLeg
    ) -> None:
        self.flow_id = flow_id
        self.client = client
        self.leg = leg
        self.cancel = threading.Event()
        self.abort_reason = ""
        #: The last upstream status, and every byte relayed so far.
        self.status = 0
        self.moved = 0

    def abort(self, reason: str) -> None:
        """Cancel the flow; the worker observes it at its next step.

        The shutdown is what unblocks a worker in ``recv`` on the
        client socket: the read returns end-of-stream. The socket stays
        open, because only its worker closes it; a close from here
        would free the descriptor number while the worker may still be
        about to wait on it.
        """
        if not self.cancel.is_set():
            self.abort_reason = reason
            self.cancel.set()
        with contextlib.suppress(OSError):
            self.client.shutdown(socket.SHUT_RDWR)

    def check(self) -> None:
        """A cancellation point: raise :class:`_Cancelled` once aborted."""
        if self.cancel.is_set():
            raise _Cancelled


class OnloadService(LoopbackServer):
    """A long-running, overload-safe onloading relay service."""

    BACKLOG = 128

    def __init__(
        self,
        legs: List[ServiceLeg],
        max_active: int = 64,
        max_queued: int = 32,
        queue_timeout_s: float = 0.5,
        recv_timeout: float = 5.0,
        idle_timeout: float = 10.0,
        flow_deadline_s: Optional[float] = 30.0,
        drain_deadline_s: float = 5.0,
        abort_grace_s: float = 5.0,
        ledger: Optional[FlowLedger] = None,
        retry_budget: Optional[RetryBudget] = None,
        degradation_log: Optional[DegradationLog] = None,
        name: str = "onload",
        obs: Optional[Instrumentation] = None,
    ) -> None:
        if not legs:
            raise ValueError("need at least one upstream leg")
        self.legs = list(legs)
        self.recv_timeout = recv_timeout
        self.idle_timeout = idle_timeout
        #: Hard bound on one flow's total lifetime (``None``: unbounded).
        #: This is what ultimately defeats a slow-loris client: every
        #: read is clamped to the shrinking budget, so a trickler hits
        #: a stall instead of pinning a pool slot forever.
        self.flow_deadline_s = flow_deadline_s
        self.drain_deadline_s = drain_deadline_s
        self.abort_grace_s = abort_grace_s
        self.admission = AdmissionController(
            max_active=max_active,
            max_queued=max_queued,
            queue_timeout_s=queue_timeout_s,
        )
        self.retry_budget = (
            retry_budget if retry_budget is not None else RetryBudget()
        )
        self.ledger = ledger
        self.degradations = (
            degradation_log
            if degradation_log is not None
            else DegradationLog()
        )
        self._obs = obs if obs is not None else obs_current()
        self.lifecycle = Lifecycle()
        self._flow_ids = itertools.count()
        self._active: Dict[str, _Flow] = {}
        self._active_lock = threading.Lock()
        self._records: List[FlowRecord] = []
        self._records_lock = threading.Lock()
        #: (event name, service-relative time, fields) triples; flushed
        #: to the tracer single-threaded after the drain.
        self._journal: List[Tuple[str, float, Dict[str, object]]] = []
        self._journal_lock = threading.Lock()
        self._leg_index = 0
        self._leg_lock = threading.Lock()
        self._unsubscribe_revocations: Optional[Callable[[], None]] = None
        self._drain_report: Optional[DrainReport] = None
        super().__init__(name)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "OnloadService":
        """Move to ``serving`` and begin accepting flows."""
        self._enter(SERVING)
        if self.ledger is not None:
            self._unsubscribe_revocations = (
                self.ledger.subscribe_revocations(
                    self._on_permit_revoked
                )
            )
        return super().start()

    def stop(self) -> DrainReport:  # type: ignore[override]
        """Graceful drain: stop accepting, drain, abort stragglers.

        Always terminates within roughly ``drain_deadline_s +
        abort_grace_s`` and leaves the lifecycle in ``stopped``.
        """
        if self.lifecycle.state == STARTING:
            self._enter(STOPPED)
            super().stop()
            self._drain_report = DrainReport(0, 0, 0, 0.0, True)
            return self._drain_report
        began = self._now()
        self._enter(DRAINING)
        in_flight = self.admission.active
        self._journal_event(
            "service.drain.begin",
            deadline_s=self.drain_deadline_s,
            in_flight=in_flight,
        )
        self.admission.begin_drain()
        super().stop()
        drained_in_time = self.admission.wait_idle(self.drain_deadline_s)
        aborted = 0
        if not drained_in_time:
            aborted = self._abort_flows(
                "drain-aborted", "drain deadline expired", lambda flow: True
            )
            # The shutdowns unblock every straggler's socket op; give
            # the workers a bounded grace to run their terminal
            # accounting (journal, settle, release).
            self.admission.wait_idle(self.abort_grace_s)
        elapsed = self._now() - began
        self._journal_event(
            "service.drain.end",
            drained=in_flight - aborted,
            aborted=aborted,
            elapsed_s=elapsed,
        )
        self._enter(STOPPED)
        unsubscribe = self._unsubscribe_revocations
        if unsubscribe is not None:
            unsubscribe()
            self._unsubscribe_revocations = None
        self._drain_report = DrainReport(
            in_flight=in_flight,
            drained=in_flight - aborted,
            aborted=aborted,
            elapsed_s=elapsed,
            met_deadline=elapsed
            <= self.drain_deadline_s + self.abort_grace_s,
        )
        self.flush_trace()
        return self._drain_report

    def _enter(self, state: str) -> None:
        """Take one lifecycle edge and journal it (``service.state``)."""
        previous = self.lifecycle.transition(state)
        self._journal_event("service.state", state=state, previous=previous)

    def __exit__(self, *exc: object) -> None:
        if self.lifecycle.state not in (STOPPED,):
            self.stop()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self) -> ServiceReport:
        """Snapshot of every flow's terminal accounting."""
        with self._records_lock:
            flows = list(self._records)
        with self._active_lock:
            active = len(self._active)
        return ServiceReport(
            flows=flows, drain=self._drain_report, active=active
        )

    def _journal_event(self, name: str, **fields: object) -> None:
        with self._journal_lock:
            self._journal.append((name, self._now(), dict(fields)))

    def flush_trace(self) -> int:
        """Emit the journal to the tracer (single-threaded); idempotent.

        Returns the number of events flushed. Times are service-
        relative seconds, emitted in journal (arrival) order.
        """
        if self._obs is None:
            return 0
        with self._journal_lock:
            entries, self._journal = self._journal, []
        for event_name, event_time, fields in entries:
            self._obs.event(event_name, time=event_time, **fields)
        return len(entries)

    # ------------------------------------------------------------------
    # Accepting
    # ------------------------------------------------------------------
    def _serve_connection(self, conn: socket.socket) -> None:
        """Serve one accepted connection as one numbered flow."""
        self._serve_flow(conn, f"{self.name}-{next(self._flow_ids)}")

    def _gauge_pool(self) -> None:
        if self._obs is not None:
            self._obs.gauge(
                "service.active_flows", float(self.admission.active)
            )
            self._obs.gauge(
                "service.queue_depth", float(self.admission.queued)
            )

    def _serve_flow(self, client: socket.socket, flow_id: str) -> None:
        """One connection, admission to terminal outcome.

        Every flow leaves through the one ``finally`` below. It settles
        the ledger, journals the end, sends the terminal reply, closes
        the client (no other thread closes it) and releases the pool
        slot, in that order: terminal accounting comes *before* the
        release, so ``admission.wait_idle()`` returning True implies
        every admitted flow has journaled its end — the drain relies on
        that ordering.
        """
        started = self._now()
        client.settimeout(self.idle_timeout)
        decision = self.admission.try_admit()
        self._gauge_pool()
        flow: Optional[_Flow] = None
        end = _End(ABORTED, "internal", 0)
        try:
            if not decision.admitted:
                end = self._shed(
                    flow_id, decision.reason, decision.reason, b"shed"
                )
                return
            # Choosing a leg with authority and becoming visible to
            # revocation are one step: a revocation that lands after
            # may_onload said yes waits here, then finds this flow.
            # Lock order: _active_lock, then _leg_lock, then the
            # ledger's and the permit server's. The permit server fires
            # revocation listeners only after releasing its lock, and
            # request_permit fires none, so _on_permit_revoked never
            # runs on a thread that already holds _active_lock.
            with self._active_lock:
                leg = self._choose_leg()
                if leg is not None:
                    flow = self._active[flow_id] = _Flow(
                        flow_id, client, leg
                    )
            if flow is None:
                # Admitted, but no leg has authority to carry the flow
                # (caps dry or permits refused on every cellular leg,
                # and no ADSL fallback wired).
                end = self._shed(
                    flow_id, "authority", "no authorized leg", b"no leg"
                )
                return
            self._journal_event(
                "service.flow.admit", flow=flow_id, leg=flow.leg.name
            )
            if self.ledger is not None and flow.leg.device is not None:
                self.ledger.open_flow(flow_id, flow.leg.device)
            try:
                end = self._relay_flow(flow)
            except _Cancelled:
                end = _End(ABORTED, flow.abort_reason, flow.status)
        finally:
            moved = 0
            if flow is not None:
                # Once the flow leaves _active no abort can reach its
                # socket, so the close below never races a shutdown.
                with self._active_lock:
                    del self._active[flow_id]
                moved = flow.moved
                if self.ledger is not None and flow.leg.device is not None:
                    self.ledger.settle(flow_id, float(moved), self._now())
            latency = self._now() - started
            with self._records_lock:
                self._records.append(
                    FlowRecord(
                        flow_id=flow_id,
                        leg=flow.leg.name if flow is not None else "",
                        admitted=decision.admitted,
                        outcome=end.outcome,
                        reason=end.reason,
                        status=end.status,
                        transferred_bytes=moved,
                        latency_s=latency,
                    )
                )
            self._journal_event(
                "service.flow.end",
                flow=flow_id,
                outcome=end.outcome,
                reason=end.reason,
                status=end.status,
                transferred_bytes=moved,
                latency_s=latency,
            )
            if self._obs is not None:
                self._obs.count("service.flows", outcome=end.outcome)
                self._obs.observe("service.flow_latency_s", latency)
            if end.reply:
                with contextlib.suppress(OSError):
                    client.sendall(end.reply)
            with contextlib.suppress(OSError):
                client.close()
            if decision.admitted:
                self.admission.release()
                self._gauge_pool()

    def _shed(
        self, flow_id: str, reason: str, detail: str, body: bytes
    ) -> _End:
        """Refuse a flow before it relays anything: a 503, unserved."""
        if self._obs is not None:
            self._obs.count("service.shed", reason=reason)
        self.degradations.record(
            kind="overload-shed",
            time=self._now(),
            path_name=self.name,
            item_label=flow_id,
            detail=f"admission refused: {detail}",
        )
        return _End(
            SHED,
            reason,
            503,
            httpwire.render_response(503, "Service Unavailable", body),
        )

    # ------------------------------------------------------------------
    # Relaying
    # ------------------------------------------------------------------
    def _choose_leg(self) -> Optional[ServiceLeg]:
        """Round-robin over the legs that currently have authority."""
        now = self._now()
        with self._leg_lock:
            count = len(self.legs)
            for offset in range(count):
                index = (self._leg_index + offset) % count
                leg = self.legs[index]
                if leg.device is None or self.ledger is None or (
                    self.ledger.may_onload(leg.device, leg.cell, now)
                ):
                    self._leg_index = (index + 1) % count
                    return leg
        return None

    def _on_permit_revoked(self, device_name: str) -> None:
        """Backend order: abort this device's in-flight flows now."""
        self._abort_flows(
            "permit-revoked",
            f"backend revoked {device_name}'s permit",
            lambda flow: flow.leg.device == device_name,
        )

    def _abort_flows(
        self, reason: str, detail: str, match: Callable[[_Flow], bool]
    ) -> int:
        """Abort every registered flow ``match`` picks; returns how many.

        Runs under ``_active_lock``: a worker unregisters its flow
        before it closes the client socket, so no abort here can reach
        a socket that is already closed.
        """
        with self._active_lock:
            victims = [f for f in self._active.values() if match(f)]
            for flow in victims:
                self.degradations.record(
                    kind=reason,
                    time=self._now(),
                    path_name=flow.leg.name,
                    item_label=flow.flow_id,
                    detail=detail,
                )
                flow.abort(reason)
        return len(victims)

    def _meter(self, flow: _Flow, nbytes: int, direction: str) -> None:
        if nbytes <= 0:
            return
        if self._obs is not None:
            self._obs.count(
                "service.bytes", amount=float(nbytes), direction=direction
            )
        if self.ledger is not None and flow.leg.device is not None:
            self.ledger.meter(flow.flow_id, float(nbytes), self._now())

    def _backoff(
        self, flow: _Flow, attempt: int, kind: str, detail: str
    ) -> bool:
        """Record failed attempt ``attempt`` and wait out its backoff.

        False when the shared retry budget refuses another attempt.
        Either way this is a cancellation point, and the jittered wait
        ends early on a cancel.
        """
        self.degradations.record(
            kind=kind,
            time=self._now(),
            path_name=flow.leg.name,
            item_label=flow.flow_id,
            detail=detail,
        )
        delay = self.retry_budget.acquire(attempt)
        if delay is None:
            self.degradations.record(
                kind="retry-budget-exhausted",
                time=self._now(),
                path_name=flow.leg.name,
                item_label=flow.flow_id,
                detail=f"no retry token after attempt {attempt}",
            )
        else:
            flow.cancel.wait(delay)
        flow.check()
        return delay is not None

    def _dial(
        self, flow: _Flow, deadline: Deadline
    ) -> Optional[socket.socket]:
        """Connect to the flow's leg under the shared retry budget.

        Returns ``None`` when the budget (or the deadline) refuses
        another attempt; the caller sheds the flow.
        """
        attempt = 0
        while True:
            flow.check()
            if deadline.expired:
                return None
            try:
                upstream = socket.create_connection(
                    flow.leg.address,
                    timeout=deadline.clamp(self.recv_timeout),
                )
                self.retry_budget.record_success()
                return upstream
            except OSError as exc:
                attempt += 1
                if not self._backoff(
                    flow,
                    attempt,
                    "peer-unreachable",
                    f"upstream connect failed: {exc!r}",
                ):
                    return None

    def _relay_flow(self, flow: _Flow) -> _End:
        """Serve one flow's requests until its terminal outcome.

        Structured on the MobileProxy relay loop, with the service's
        extra machinery: flow deadline, propagated per-request
        deadline, retry budget on the upstream, cancellation points
        between every blocking step. A cancelled flow raises
        :class:`_Cancelled` from the first point that sees it;
        :meth:`_serve_flow` turns that into its ``aborted`` end.
        """
        flow_deadline = Deadline(self.flow_deadline_s)
        upstream = self._dial(flow, flow_deadline)
        if upstream is None:
            reason = (
                "deadline-expired"
                if flow_deadline.expired
                else "retry-budget-exhausted"
            )
            return _End(SHED, reason, 503, _UPSTREAM_UNAVAILABLE)
        try:
            while True:
                flow.check()
                if flow_deadline.expired:
                    return self._expire_flow(flow)
                try:
                    # The overall bounds are the slow-loris defence: a
                    # peer trickling bytes under the per-recv timeout
                    # still stalls out when the whole read outlives
                    # twice the idle/recv budget (or the flow deadline,
                    # whichever is tighter).
                    request = httpwire.read_request_head(
                        flow.client,
                        timeout=flow_deadline.clamp(self.idle_timeout),
                        overall_timeout=flow_deadline.clamp(
                            2.0 * self.idle_timeout
                        ),
                    )
                    body = httpwire.read_body(
                        flow.client,
                        request.leftover,
                        request.content_length,
                        timeout=flow_deadline.clamp(self.recv_timeout),
                        overall_timeout=flow_deadline.clamp(
                            4.0 * self.recv_timeout
                        ),
                    )
                except WireError as exc:
                    return self._end_on_client_error(
                        flow, exc, flow_deadline
                    )
                deadline = self._effective_deadline(
                    flow_deadline, request.deadline_s
                )
                if deadline.expired:
                    self.degradations.record(
                        kind="deadline-expired",
                        time=self._now(),
                        path_name=flow.leg.name,
                        item_label=flow.flow_id,
                        detail="request arrived with a spent budget",
                    )
                    return _End(SHED, "deadline-expired", 504, _EXPIRED)
                exchanged = self._exchange_upstream(
                    flow, upstream, request.first, request.headers, body,
                    deadline,
                )
                if exchanged is None:
                    return _End(
                        SHED,
                        "retry-budget-exhausted",
                        503,
                        _UPSTREAM_UNAVAILABLE,
                    )
                upstream, flow.status, response, up_bytes = exchanged
                flow.moved += up_bytes + len(response)
                self._meter(flow, up_bytes, "up")
                self._meter(flow, len(response), "down")
                flow.client.sendall(
                    httpwire.render_response(
                        flow.status,
                        "OK" if flow.status == 200 else "Err",
                        response,
                    )
                )
        except OSError:
            # The client socket failed under a read or a reply.
            flow.check()
            return _End(ABORTED, "path-fault", flow.status)
        finally:
            with contextlib.suppress(OSError):
                upstream.close()

    def _expire_flow(self, flow: _Flow) -> _End:
        self.degradations.record(
            kind="deadline-expired",
            time=self._now(),
            path_name=flow.leg.name,
            item_label=flow.flow_id,
            detail=f"flow outlived its {self.flow_deadline_s}s budget",
        )
        return _End(ABORTED, "deadline-expired", 504, _EXPIRED)

    def _end_on_client_error(
        self, flow: _Flow, exc: WireError, flow_deadline: Deadline
    ) -> _End:
        """Classify a client-side wire failure into a terminal outcome."""
        flow.check()
        if "closed before request" in str(exc):
            # Clean end of a keep-alive connection.
            return _End(COMPLETED, "", flow.status or 200)
        if flow_deadline.expired:
            return self._expire_flow(flow)
        kind = "stall" if isinstance(exc, StallError) else "bad-peer"
        self.degradations.record(
            kind=kind,
            time=self._now(),
            path_name=flow.leg.name,
            item_label=flow.flow_id,
            detail=f"client wire failure: {exc!r}",
        )
        return _End(
            COMPLETED,
            kind,
            400,
            httpwire.render_response(400, "Bad Request"),
        )

    @staticmethod
    def _effective_deadline(
        flow_deadline: Deadline, request_budget: Optional[float]
    ) -> Deadline:
        """The tighter of the flow's own budget and the request's."""
        remaining = flow_deadline.remaining()
        if request_budget is None:
            return flow_deadline
        if remaining is None or request_budget < remaining:
            return Deadline(request_budget)
        return flow_deadline

    def _exchange_upstream(
        self,
        flow: _Flow,
        upstream: socket.socket,
        first: str,
        headers: Dict[str, str],
        body: bytes,
        deadline: Deadline,
    ) -> Optional[Tuple[socket.socket, int, bytes, int]]:
        """Forward one request upstream; retry under the shared budget.

        Returns ``(upstream, status, response body, bytes sent up)``,
        with ``upstream`` possibly a fresh connection after a retry, or
        ``None`` when the retry budget or the deadline gave out.
        """
        request = self._forward_request(first, headers, body, deadline)
        attempt = 0
        while True:
            flow.check()
            if deadline.expired:
                return None
            try:
                upstream.settimeout(deadline.clamp(self.recv_timeout))
                upstream.sendall(request)
                status, _, response = httpwire.read_response(
                    upstream,
                    timeout=deadline.clamp(self.recv_timeout),
                )
                self.retry_budget.record_success()
                return (upstream, status, response, len(body))
            except (WireError, OSError) as exc:
                stalled = isinstance(exc, (StallError, socket.timeout))
                with contextlib.suppress(OSError):
                    upstream.close()
                attempt += 1
                if not self._backoff(
                    flow,
                    attempt,
                    "stall" if stalled else "path-fault",
                    f"upstream exchange failed: {exc!r}",
                ):
                    return None
                fresh = self._dial(flow, deadline)
                if fresh is None:
                    return None
                upstream = fresh

    def _forward_request(
        self,
        first: str,
        headers: Dict[str, str],
        body: bytes,
        deadline: Deadline,
    ) -> bytes:
        """Re-render the client's request for the upstream leg.

        The deadline header is rewritten with the *remaining* budget at
        forward time, so the upstream hop clamps to what is actually
        left rather than what the client started with.
        """
        parts = first.split(" ")
        method = parts[0] if parts else "GET"
        path = parts[1] if len(parts) > 1 else "/"
        host = headers.get("host", "origin")
        extra: Dict[str, str] = {}
        remaining = deadline.header_value()
        if remaining is not None:
            extra[httpwire.DEADLINE_HEADER] = remaining
        return httpwire.render_request(
            method, path, host, headers=extra or None, body=body
        )
