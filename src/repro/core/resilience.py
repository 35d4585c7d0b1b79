"""Mid-transfer reaction to revocation, cap exhaustion and churn.

The prototype's session layer must live with authority changing *while a
transaction runs*: the operator revokes a permit when congestion is
detected (§2.4), a phone's daily cap runs out mid-upload (§6), phones
flap in and out of Wi-Fi range (§3). This module owns every authority
mutation and ties those signals to the scheduler machinery:

* :class:`FlowLedger` — the one authority ledger: meters cellular bytes
  into the phones' cap trackers, trues up aborted bytes on settlement
  and answers "may this device onload now". The service holds one for
  days, the simulator one per transfer;
* :class:`TransferGuard` — the simulator's adapter from one
  :class:`~repro.core.scheduler.runner.TransactionRunner` to a ledger:
  it drains, aborts and vetoes re-joins of paths that lose authority;
* :func:`bind_fault_schedule` — arms a seeded
  :class:`~repro.netsim.faults.FaultSchedule` against a runner, mapping
  effective down/up transitions to ``remove_path`` / ``add_path``;
* :class:`RetryBudget` — a *shared* token-bucket retry budget layered
  over the per-flow :class:`RetryPolicy`, so a fleet of concurrent flows
  cannot turn one outage into a retry storm.

:class:`DegradationEvent` and :class:`RetryPolicy`, the vocabulary the
runner, the prototype and the service share, are defined here. The
simulator types (runner, paths, devices, fault schedules) are
annotation-only in this module: the live onload service imports it
without loading numpy, the scheduler or the fluid engine.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.captracker import CapTracker
from repro.core.permits import PermitServer
from repro.obs.capture import Instrumentation, current as obs_current

if TYPE_CHECKING:
    import numpy as np

    from repro.core.mobile import MobileComponent
    from repro.core.scheduler.ledger import ItemRecord
    from repro.core.scheduler.runner import (
        TransactionResult,
        TransactionRunner,
    )
    from repro.netsim.cellular import CellularDevice
    from repro.netsim.faults import FaultEvent, FaultSchedule
    from repro.netsim.path import NetworkPath


@dataclass(frozen=True)
class DegradationEvent:
    """One structured entry in a transfer's degradation log.

    ``kind`` is a small vocabulary shared across the stack:
    ``path-fault`` (flap/death), ``path-drain`` (graceful removal),
    ``path-rejoin`` / ``path-join`` (membership growth),
    ``rejoin-vetoed`` (a re-join refused by the runner's
    :attr:`~repro.core.scheduler.runner.TransactionRunner.rejoin_gate`),
    ``stall`` (watchdog abort), ``retry-budget-exhausted``,
    ``permit-revoked`` and ``cap-exhausted`` (session-layer reactions).
    """

    time: float
    kind: str
    path_name: str = ""
    item_label: str = ""
    detail: str = ""


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry budget with exponential backoff.

    An item's fault count increments every time a fault or stall orphans
    it with no sibling copy in flight. The ``k``-th recovery is delayed
    by ``backoff_base_s * backoff_multiplier**(k-1)`` capped at
    ``backoff_max_s``. Past ``max_attempts`` the item is *still*
    re-queued — the runner never loses items — but without backoff and
    with a ``retry-budget-exhausted`` event in the degradation log, so
    callers can see the path churn outran the budget.
    """

    max_attempts: int = 6
    backoff_base_s: float = 0.5
    backoff_multiplier: float = 2.0
    backoff_max_s: float = 30.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_base_s < 0.0:
            raise ValueError("backoff_base_s must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1")
        if self.backoff_max_s < 0.0:
            raise ValueError("backoff_max_s must be >= 0")

    def backoff(self, attempt: int) -> float:
        """Delay before recovery attempt ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        if attempt > self.max_attempts or self.backoff_base_s <= 0.0:
            return 0.0
        delay = self.backoff_base_s * self.backoff_multiplier ** (attempt - 1)
        return min(delay, self.backoff_max_s)


class DegradationLog:
    """Thread-safe collector of :class:`DegradationEvent` entries.

    The simulator's :class:`TransactionRunner` records degradations on
    its single-threaded engine; the loopback prototype's proxy and
    client react to bad peers from many worker threads at once. This
    log gives them the same structured vocabulary with the locking the
    threaded data path needs: a peer that stalls or speaks garbage
    fails one transfer, lands one event here, and the component keeps
    serving.

    The log never reads a clock — callers pass their own ``time`` (the
    proto layer uses seconds since the component started), keeping the
    type usable from simulated code bound by the determinism rules.
    """

    def __init__(self, obs: Optional[Instrumentation] = None) -> None:
        self._events: List[DegradationEvent] = []
        self._lock = threading.Lock()
        #: Instrumentation handle; threaded callers only touch locked
        #: counters (never the tracer — their clocks are wall-relative,
        #: which would break trace determinism).
        self._obs = obs if obs is not None else obs_current()

    def record(
        self,
        kind: str,
        time: float = 0.0,
        path_name: str = "",
        item_label: str = "",
        detail: str = "",
    ) -> DegradationEvent:
        """Append one event (returns it, for callers that also log).

        ``kind`` is stored as given. Every emitter names one of the
        schema's ``DEGRADATION_KINDS``, so hunt oracles, trace-diff and
        ``of_kind`` filters see one name per failure mode whichever
        layer recorded it.
        """
        event = DegradationEvent(
            time=time,
            kind=kind,
            path_name=path_name,
            item_label=item_label,
            detail=detail,
        )
        with self._lock:
            self._events.append(event)
        if self._obs is not None:
            self._obs.count("proto.degradations", kind=event.kind)
        return event

    @property
    def events(self) -> Tuple[DegradationEvent, ...]:
        """Snapshot of every recorded event, in arrival order."""
        with self._lock:
            return tuple(self._events)

    def of_kind(self, kind: str) -> Tuple[DegradationEvent, ...]:
        """Events matching one ``kind`` of the shared vocabulary."""
        return tuple(e for e in self.events if e.kind == kind)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)


class FlowLedger:
    """The one authority ledger: cap metering, true-up and admission.

    Every cellular byte is metered here and every "may this device
    onload now" is answered here. The onload service holds one ledger
    for days and relays many concurrent flows through it; the
    simulator's :class:`TransferGuard` holds one per transfer, one flow
    per guarded cellular path. A flow is metered incrementally and
    trued up from its total byte count on settlement, so aborted and
    partial transfers count too.
    """

    def __init__(
        self,
        trackers: Mapping[str, CapTracker],
        permit_server: Optional[PermitServer] = None,
        obs: Optional[Instrumentation] = None,
    ) -> None:
        self.trackers = dict(trackers)
        self.permit_server = permit_server
        self._obs = obs if obs is not None else obs_current()
        if self._obs is not None:
            # Authority wiring happens here, in the guard layer, so
            # service code never touches tracker internals (RL010).
            for device, tracker in self.trackers.items():
                tracker.bind_obs(self._obs, device=device)
        self._lock = threading.Lock()
        #: flow id -> (device name, bytes metered so far).
        self._flows: Dict[str, Tuple[str, float]] = {}

    def subscribe_revocations(
        self, callback: Callable[[str], None]
    ) -> Callable[[], None]:
        """Register for permit revocations through the guard layer.

        Forwards to the wired :class:`PermitServer`; a ledger without a
        permit backend returns a no-op unsubscribe. Exists so service
        code subscribes via the authority boundary (RL010) instead of
        reaching into the server.
        """
        if self.permit_server is None:
            return lambda: None
        return self.permit_server.subscribe_revocations(callback)

    def open_flow(self, flow_id: str, device: str) -> None:
        """Start accounting for ``flow_id`` on ``device``'s leg."""
        with self._lock:
            if flow_id in self._flows:
                raise ValueError(f"flow {flow_id!r} already open")
            self._flows[flow_id] = (device, 0.0)

    def meter(self, flow_id: str, nbytes: float, now: float) -> None:
        """Meter ``nbytes`` of relayed traffic for an open flow."""
        with self._lock:
            device, metered = self._flows[flow_id]
            self._flows[flow_id] = (device, metered + nbytes)
        tracker = self.trackers.get(device)
        if tracker is not None and nbytes > 0.0:
            tracker.record_usage(nbytes, now)

    def settle(
        self, flow_id: str, total_bytes: float, now: float
    ) -> float:
        """Close a flow, truing up unmetered bytes; returns the true-up.

        ``total_bytes`` is everything the flow moved over the cellular
        leg, including partial transfers cut off by an abort; the
        difference against what :meth:`meter` already recorded is
        metered now, so the tracker sees every cellular byte.
        """
        with self._lock:
            device, metered = self._flows.pop(flow_id)
        extra = total_bytes - metered
        tracker = self.trackers.get(device)
        if tracker is not None and extra > 1e-9:
            tracker.record_usage(extra, now)
            return extra
        return 0.0

    def may_onload(self, device: str, cell: str, now: float) -> bool:
        """May a new flow take ``device``'s cellular leg right now?

        Cap first (multi-provider rule: advertise iff A(t) > 0), then
        the permit backend when one is wired (network-integrated rule:
        hold or obtain a valid permit). Permit acquisition happens
        here, not in the service, so the RL010 authority boundary
        holds.
        """
        tracker = self.trackers.get(device)
        if tracker is not None and not tracker.may_advertise(now):
            return False
        if self.permit_server is not None:
            if self.permit_server.has_valid_permit(device, now):
                return True
            permit = self.permit_server.request_permit(
                device, cell, now
            )
            return permit is not None
        return True

    def open_count(self) -> int:
        """Flows currently open in the ledger."""
        with self._lock:
            return len(self._flows)


class TransferGuard:
    """Adapts one transfer's runner to a :class:`FlowLedger`.

    Build one per transfer, :meth:`attach` it to the runner before the
    transaction starts and :meth:`finalize` it after. Attach opens one
    ledger flow per guarded cellular path (its device has a component;
    the flow id is the path name). While attached the guard

    * meters every completed item through the ledger;
    * **drains** a path the moment its tracker's quota runs dry (the
      in-flight copy may finish: the prototype "does not abort an
      in-flight transfer");
    * **aborts** a path the moment the permit backend revokes its
      device's permit (an operator order: the radio must go quiet now);
    * **vetoes re-joins** as the runner's
      :attr:`~repro.core.scheduler.runner.TransactionRunner.rejoin_gate`:
      a fault schedule's ``up`` transition re-enables a path only if
      :meth:`FlowLedger.may_onload` agrees.

    The transfer degrades gracefully down to ADSL-only, each reaction
    lands in the runner's degradation log, and :meth:`finalize` settles
    every flow so the trackers see every cellular byte.
    """

    def __init__(
        self,
        components: Mapping[str, MobileComponent],
        permit_server: Optional[PermitServer] = None,
    ) -> None:
        self.components = dict(components)
        self.permit_server = permit_server
        self._runner: Optional[TransactionRunner] = None
        self._ledger: Optional[FlowLedger] = None
        #: Guarded path name (the ledger's flow id) -> its device.
        self._guarded: Dict[str, CellularDevice] = {}
        self._obs: Optional[Instrumentation] = None
        self._unsubscribe: Callable[[], None] = lambda: None
        self._chained: Optional[Callable[[ItemRecord], None]] = None
        self._chained_gate: Optional[
            Callable[[NetworkPath, float], bool]
        ] = None

    def attach(
        self, runner: TransactionRunner, paths: Sequence[NetworkPath]
    ) -> None:
        """Bind to ``runner`` for the coming transaction."""
        if self._runner is not None:
            raise RuntimeError("TransferGuard instances are single-use")
        self._runner = runner
        self._guarded = {
            path.name: path.device
            for path in paths
            if path.device is not None
            and path.device.name in self.components
        }
        trackers: Dict[str, CapTracker] = {}
        for device in self._guarded.values():
            tracker = self.components[device.name].cap_tracker
            if tracker is not None:
                trackers[device.name] = tracker
        self._obs = obs_current()
        self._ledger = FlowLedger(
            trackers, permit_server=self.permit_server, obs=self._obs
        )
        for name, device in self._guarded.items():
            self._ledger.open_flow(name, device.name)
        self._chained = runner.on_item_complete
        runner.on_item_complete = self._on_item_complete
        self._chained_gate = runner.rejoin_gate
        runner.rejoin_gate = self._may_rejoin
        self._unsubscribe = self._ledger.subscribe_revocations(
            self._on_permit_revoked
        )

    # ------------------------------------------------------------------
    # Reactions
    # ------------------------------------------------------------------
    def _on_permit_revoked(self, device_name: str) -> None:
        assert self._runner is not None
        for name, device in self._guarded.items():
            if device.name == device_name:
                self._runner.remove_path(
                    name,
                    drain=False,
                    kind="permit-revoked",
                    detail=f"backend revoked {device_name}'s permit",
                )

    def _may_rejoin(self, path: NetworkPath, now: float) -> bool:
        """Runner re-join gate: does ``path`` still have authority?

        A fault schedule's ``up`` transition means the *physical* link
        is back; it says nothing about the session layer. A cellular
        path whose cap ran dry stays out until the tracker's day rolls
        over, and one whose permit was revoked stays out until the
        backend grants a fresh permit (which it refuses while congested,
        §2.4). ADSL and unguarded paths always pass.
        """
        if self._chained_gate is not None and not self._chained_gate(
            path, now
        ):
            return False
        device = self._guarded.get(path.name)
        if device is None:
            return True
        assert self._ledger is not None
        return self._ledger.may_onload(
            device.name, device.sector.name, now
        )

    def _on_item_complete(self, record: ItemRecord) -> None:
        assert self._runner is not None and self._ledger is not None
        device = self._guarded.get(record.path_name)
        if device is not None:
            now = self._runner.network.time
            self._ledger.meter(record.path_name, record.size_bytes, now)
            tracker = self._ledger.trackers.get(device.name)
            if tracker is not None and not tracker.may_advertise(now):
                removed = self._runner.remove_path(
                    record.path_name,
                    drain=True,
                    kind="cap-exhausted",
                    detail=f"{device.name} exhausted today's quota",
                )
                if removed and self._obs is not None:
                    self._obs.count("cap.exhaustions", device=device.name)
        if self._chained is not None:
            self._chained(record)

    # ------------------------------------------------------------------
    # Settlement
    # ------------------------------------------------------------------
    def finalize(self, result: TransactionResult) -> None:
        """Settle every flow once the transaction is over.

        Incremental metering counts winning copies only; the bytes moved
        by aborted duplicates and fault-killed partial transfers are in
        ``result.path_bytes``, and :meth:`FlowLedger.settle` meters the
        difference so the cap trackers see every cellular byte.
        """
        assert self._runner is not None and self._ledger is not None
        now = self._runner.network.time
        for name in self._guarded:
            self._ledger.settle(name, result.path_bytes.get(name, 0.0), now)
        self._unsubscribe()
        self._runner.rejoin_gate = self._chained_gate
        self._chained_gate = None


class RetryBudget:
    """Shared token-bucket retry budget with jittered backoff.

    The per-flow :class:`RetryPolicy` bounds how often *one* item
    retries; it says nothing about a fleet.
    When an upstream outage hits a service with hundreds of concurrent
    flows, every flow's private policy happily retries, synchronised by
    the outage — a retry storm. The budget is the global brake: a
    token bucket that starts full at ``capacity`` tokens, spends one
    token per retry, and refills ``refill_per_success`` tokens per
    *successful* operation, so sustained retry volume is capped at a
    fraction of successful traffic. Backoff delays come from the
    wrapped policy with multiplicative jitter drawn from the seeded
    RNG, de-synchronising the survivors.

    Thread-safe; deterministic in single-threaded (sim) use because the
    jitter stream is seeded and consumed in call order. The seeded
    generator (and with it numpy) is created on the first jittered
    retry, not at construction, so a service that never retries never
    loads numpy.
    """

    def __init__(
        self,
        policy: Optional[RetryPolicy] = None,
        capacity: float = 20.0,
        refill_per_success: float = 0.1,
        jitter_frac: float = 0.25,
        seed: int = 0,
        obs: Optional[Instrumentation] = None,
    ) -> None:
        if capacity < 1.0:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if refill_per_success < 0.0:
            raise ValueError("refill_per_success must be >= 0")
        if not 0.0 <= jitter_frac <= 1.0:
            raise ValueError(
                f"jitter_frac must be in [0, 1], got {jitter_frac}"
            )
        self.policy = policy if policy is not None else RetryPolicy()
        self.capacity = float(capacity)
        self.refill_per_success = float(refill_per_success)
        self.jitter_frac = float(jitter_frac)
        self._tokens = float(capacity)
        self._seed = seed
        self._rng: Optional[np.random.Generator] = None
        self._lock = threading.Lock()
        self._obs = obs if obs is not None else obs_current()
        #: Grant/denial counters for observability.
        self.granted_count = 0
        self.denied_count = 0

    @property
    def tokens(self) -> float:
        """Tokens currently in the bucket (snapshot)."""
        with self._lock:
            return self._tokens

    def record_success(self) -> None:
        """A successful operation refills a fraction of a token."""
        with self._lock:
            self._tokens = min(
                self.capacity, self._tokens + self.refill_per_success
            )

    def acquire(self, attempt: int) -> Optional[float]:
        """Spend one retry token for recovery attempt ``attempt``.

        Returns the jittered backoff delay (seconds) to sleep before
        retrying, or ``None`` when the retry must not happen — either
        the per-flow policy's ``max_attempts`` is spent or the shared
        bucket is dry. Unlike the runner (which re-queues past budget,
        because losing items is worse), a service flow that gets
        ``None`` fails fast with a structured degradation.
        """
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        with self._lock:
            if attempt > self.policy.max_attempts or self._tokens < 1.0:
                self.denied_count += 1
                if self._obs is not None:
                    self._obs.count("service.retry_denials")
                return None
            self._tokens -= 1.0
            self.granted_count += 1
            delay = self.policy.backoff(attempt)
            if delay > 0.0 and self.jitter_frac > 0.0:
                if self._rng is None:
                    from repro.util.rng import spawn_rng

                    self._rng = spawn_rng(self._seed)
                delay += delay * self.jitter_frac * float(
                    self._rng.uniform()
                )
            return delay


def bind_fault_schedule(
    runner: TransactionRunner,
    schedule: FaultSchedule,
    horizon: float,
) -> List[FaultEvent]:
    """Arm ``schedule`` so its transitions drive ``runner`` membership.

    Every effective ``down`` transition becomes ``remove_path`` and
    every ``up`` becomes ``add_path`` (re-join); transitions for targets
    the runner does not know are ignored, and both calls are idempotent,
    so overlapping schedules compose safely. Returns the armed events.
    """
    known = {worker.path.name for worker in runner._workers}

    def on_down(event: FaultEvent) -> None:
        if event.target in known:
            runner.remove_path(
                event.target, kind="path-fault", detail=event.kind
            )

    def on_up(event: FaultEvent) -> None:
        if event.target in known:
            runner.add_path(event.target)

    return schedule.arm(runner.network, on_down, on_up, horizon=horizon)
