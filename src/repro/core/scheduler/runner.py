"""Transaction execution on the fluid simulator.

:class:`TransactionRunner` is the machinery shared by all scheduling
policies: it keeps one transfer in flight per path (HTTP, no pipelining),
asks the policy for work whenever a path goes idle, executes transfers as
fluid flows, aborts losing duplicate copies when an item completes, and
accounts bytes per path. Which copy won, the duplication *waste* whose
bound (N−1)·S_max the paper derives for the greedy scheduler, the losers
to abort and whether a fault re-offers an item are decided by the
:class:`~repro.core.scheduler.ledger.CopyLedger`, the same ledger the
loopback prototype's client drives over real sockets.

On top of the happy path the runner implements the churn-tolerance layer:

* **dynamic path membership** — :meth:`TransactionRunner.remove_path`
  takes a path out (flap, Wi-Fi departure, permit revocation) and
  :meth:`TransactionRunner.add_path` brings it back or adds a brand-new
  path mid-transaction;
* **bounded retries with exponential backoff** — an item orphaned by a
  fault is re-offered to the policy after a :class:`RetryPolicy` backoff
  that grows with the item's fault count;
* **a per-flow stall watchdog** — a copy that moves no bytes for
  ``stall_timeout_s`` seconds is aborted and its item reassigned;
* **structured degradation logging** — every fault, drain, stall and
  recovery is recorded as a :class:`DegradationEvent` on the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.core.items import Transaction, TransferItem
from repro.core.resilience import DegradationEvent, RetryPolicy
from repro.core.scheduler.base import PathWorker, SchedulingPolicy
from repro.core.scheduler.ledger import Copy, CopyLedger, ItemRecord
from repro.netsim.fluid import Flow, FluidNetwork
from repro.netsim.path import NetworkPath
from repro.obs.capture import Instrumentation, current as obs_current
from repro.util.units import transfer_rate


#: Retry behaviour of the original one-shot ``fail_path`` era: immediate
#: re-dispatch, effectively unbounded budget. Kept for callers that need
#: bit-compatible timings with pre-churn code.
IMMEDIATE_RETRY = RetryPolicy(
    max_attempts=1_000_000, backoff_base_s=0.0
)


@dataclass
class TransactionResult:
    """Outcome of one transaction run."""

    transaction_name: str
    policy_name: str
    started_at: float
    finished_at: float
    records: Dict[str, ItemRecord]
    #: Bytes moved per path name (completed + partial duplicate progress).
    path_bytes: Dict[str, float]
    #: Bytes transferred by copies that did not win (duplication overhead).
    wasted_bytes: float
    #: Total payload bytes of the transaction.
    payload_bytes: float
    #: Structured log of faults, drains, stalls and recoveries.
    degradations: List[DegradationEvent] = field(default_factory=list)

    @property
    def total_time(self) -> float:
        """Wall-clock time of the whole transaction."""
        return self.finished_at - self.started_at

    @property
    def goodput_bps(self) -> float:
        """Payload bits delivered per second of transaction time."""
        if self.total_time <= 0.0:
            return math.inf
        return transfer_rate(self.payload_bytes, self.total_time)

    @property
    def overhead_fraction(self) -> float:
        """Wasted bytes as a fraction of payload bytes."""
        if self.payload_bytes <= 0.0:
            return 0.0
        return self.wasted_bytes / self.payload_bytes

    def degradations_of_kind(self, kind: str) -> List[DegradationEvent]:
        """The degradation entries of one kind, in time order."""
        return [event for event in self.degradations if event.kind == kind]

    def time_to_complete(self, labels: Sequence[str]) -> float:
        """Seconds from transaction start until all ``labels`` completed.

        This is how pre-buffering time is measured: the player can start
        playout once the first k segments are all present (§5.2).
        """
        if not labels:
            raise ValueError("need at least one label")
        try:
            latest = max(self.records[label].completed_at for label in labels)
        except KeyError as exc:
            raise KeyError(f"no record for item {exc.args[0]!r}") from None
        return latest - self.started_at

    def cellular_bytes(self, paths: Sequence[NetworkPath]) -> float:
        """Bytes this transaction moved over the given paths' 3G devices."""
        return sum(
            self.path_bytes.get(path.name, 0.0)
            for path in paths
            if path.is_cellular
        )


class TransactionRunner:
    """Executes one transaction under one policy."""

    def __init__(
        self,
        network: FluidNetwork,
        paths: Sequence[NetworkPath],
        policy: SchedulingPolicy,
        on_item_complete: Optional[Callable[[ItemRecord], None]] = None,
        retry_policy: Optional[RetryPolicy] = None,
        stall_timeout_s: Optional[float] = None,
        obs: Optional[Instrumentation] = None,
    ) -> None:
        if not paths:
            raise ValueError("need at least one path")
        names = [path.name for path in paths]
        if len(set(names)) != len(names):
            raise ValueError("path names must be unique")
        if stall_timeout_s is not None and stall_timeout_s <= 0.0:
            raise ValueError(
                f"stall_timeout_s must be positive, got {stall_timeout_s}"
            )
        self.network = network
        self.paths = list(paths)
        self.policy = policy
        self.on_item_complete = on_item_complete
        self.retry_policy = retry_policy or RetryPolicy()
        self.stall_timeout_s = stall_timeout_s
        #: Instrumentation handle; ``None`` (no active capture) keeps
        #: every checkpoint on the one-attribute-test fast path.
        self.obs = obs if obs is not None else obs_current()
        self.policy.bind_obs(self.obs)
        #: Structured log of every fault/drain/stall/recovery.
        self.degradations: List[DegradationEvent] = []
        #: Session-layer veto over path re-joins. When set, a re-join of
        #: a removed path (``add_path`` with a name) only proceeds if the
        #: gate returns ``True`` for ``(path, now)``. A vetoed re-join
        #: records a ``rejoin-vetoed`` degradation and leaves the worker
        #: out of the set — this is how :class:`TransferGuard` keeps a
        #: fault schedule's ``up`` transition from silently re-enabling
        #: a path whose cap ran dry or whose permit was revoked.
        self.rejoin_gate: Optional[Callable[[NetworkPath, float], bool]] = (
            None
        )

        self._workers = [
            PathWorker(index=i, path=path) for i, path in enumerate(self.paths)
        ]
        #: The started transaction's copy ledger (an empty, finished one
        #: before :meth:`start`).
        self._ledger = CopyLedger(())
        #: The copy each path has in flight, and its flow.
        self._in_flight: Dict[str, Tuple[Copy, Flow]] = {}
        self._finished_at: Optional[float] = None
        self._transaction: Optional[Transaction] = None
        self._started_at = 0.0
        self._baseline_path_bytes: Dict[str, float] = {}
        #: Flows the runner is aborting on purpose (fault, drain, stall):
        #: their abort handlers must not treat the abort as a routine
        #: duplicate-loss. A *set* so concurrent faults in one engine
        #: tick (or re-entrant aborts from inside abort callbacks) each
        #: keep their own marker — the recovery path is re-entrant.
        self._fault_aborting: Set[int] = set()
        #: Items with a backoff-delayed recovery already scheduled, so two
        #: faults in the same tick cannot double-schedule a re-dispatch.
        self._requeue_pending: Set[str] = set()
        #: Fault count per item label (drives the retry backoff).
        self._fault_counts: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _worker_by_name(self, path_name: str) -> PathWorker:
        for worker in self._workers:
            if worker.path.name == path_name:
                return worker
        raise KeyError(f"no path named {path_name!r}")

    def _record(self, event: DegradationEvent) -> None:
        self.degradations.append(event)
        if self.obs is not None:
            self.obs.event(
                "degradation",
                time=event.time,
                kind=event.kind,
                path=event.path_name,
                item=event.item_label,
            )
            self.obs.count("runner.degradations", kind=event.kind)

    def _refresh_worker_snapshots(self) -> None:
        for worker in self._workers:
            entry = self._in_flight.get(worker.path.name)
            worker.remaining_bytes = entry[1].remaining_bytes if entry else 0.0

    def _dispatch(self, worker: PathWorker) -> None:
        if (
            self._finished_at is not None
            or worker.current_item is not None
            or not worker.available
        ):
            return
        self._refresh_worker_snapshots()
        assignment = self.policy.next_item(worker, self.network.time)
        if assignment is None:
            return
        item = assignment.item
        now = self.network.time
        # A policy must never hand out a completed item (the runner
        # clears worker state before re-dispatching): the ledger raises.
        copy = self._ledger.issue(item.label, worker.path.name, now)
        delay = worker.path.start_delay(
            now, fresh_connection=not worker.used_before
        )
        worker.used_before = True
        worker.current_item = item

        def complete(flow: Flow, when: float) -> None:
            self._on_copy_complete(worker, item, copy, flow, when)

        def aborted(flow: Flow, when: float) -> None:
            self._on_copy_aborted(worker, item, copy, flow, when)

        flow = Flow(
            item.size_bytes,
            worker.path.links,
            rate_cap_bps=worker.path.flow_rate_cap_bps,
            on_complete=complete,
            on_abort=aborted,
            label=f"{worker.path.name}:{item.label}",
        )
        self._in_flight[worker.path.name] = (copy, flow)
        if self.obs is not None:
            self.obs.event(
                "copy.start",
                time=now,
                path=worker.path.name,
                item=item.label,
                size_bytes=item.size_bytes,
                duplicate=assignment.duplicate,
            )
            self.obs.count("runner.copies", path=worker.path.name)
        self.network.add_flow(flow, delay=delay)
        if self.stall_timeout_s is not None:
            self._arm_watchdog(worker, item, copy, flow, flow.remaining_bytes)

    def _dispatch_idle(self) -> None:
        for worker in self._workers:
            if worker.current_item is None and worker.available:
                self._dispatch(worker)
                if self._finished_at is not None:
                    return

    def _release_worker(self, worker: PathWorker, copy: Copy) -> None:
        worker.current_item = None
        worker.remaining_bytes = 0.0
        entry = self._in_flight.get(worker.path.name)
        if entry is not None and entry[0] is copy:
            del self._in_flight[worker.path.name]
        if worker.draining:
            # The drained copy settled: the path now leaves the set. The
            # policy must hear about it — static policies (RR, MIN) keep
            # per-path queues, and without a membership notification the
            # drained worker's unstarted items would be stranded forever
            # (no copy failed, so ``on_item_failed`` never fires).
            worker.draining = False
            worker.disabled = True
            self.policy.on_membership_change(
                tuple(self._workers), self.network.time
            )
            self._dispatch_idle()

    def _on_copy_complete(
        self, worker: PathWorker, item: TransferItem, copy: Copy,
        flow: Flow, now: float,
    ) -> None:
        worker.path.record_usage(flow.transferred_bytes)
        worker.path.notify_activity(now)
        self._release_worker(worker, copy)
        record, duration, losers = self._ledger.complete(
            copy, flow.transferred_bytes, now
        )
        if record is None:
            # A sibling copy won in this same simulation step; everything
            # this copy moved is overhead.
            if self.obs is not None:
                self.obs.event(
                    "copy.waste",
                    time=now,
                    path=worker.path.name,
                    item=item.label,
                    transferred_bytes=flow.transferred_bytes,
                    cause="duplicate",
                )
                self.obs.count(
                    "runner.waste_bytes",
                    amount=flow.transferred_bytes,
                    cause="duplicate",
                )
            self.policy.on_item_complete(worker, item, duration, now)
            self._dispatch(worker)
            return
        worker.completed_bytes += flow.transferred_bytes
        if self.obs is not None:
            queue_s = record.scheduled_at - self._started_at
            self.obs.event(
                "item.complete",
                time=now,
                path=worker.path.name,
                item=item.label,
                copies=record.copies,
                elapsed_s=record.elapsed,
                queue_s=queue_s,
            )
            self.obs.count(
                "runner.items_completed", path=worker.path.name
            )
            self.obs.count(
                "runner.bytes_completed",
                amount=flow.transferred_bytes,
                path=worker.path.name,
            )
            self.obs.observe("runner.item_elapsed_s", record.elapsed)
            self.obs.observe("runner.item_queue_s", queue_s)
        self.policy.on_item_complete(worker, item, duration, now)
        if self.on_item_complete is not None:
            self.on_item_complete(record)
        # Abort ALL losing copies first — their workers must be fully
        # released before anyone re-dispatches, or a policy could see (and
        # try to duplicate) a stale in-flight copy of the finished item.
        for loser in losers:
            if loser.live:
                self.network.abort_flow(self._in_flight[loser.path][1])
        if self._ledger.finished:
            self._finished_at = now
            if self.obs is not None and self._transaction is not None:
                self.obs.event(
                    "txn.end",
                    time=now,
                    transaction=self._transaction.name,
                    policy=self.policy.name,
                    wasted_bytes=self._ledger.wasted_bytes,
                    payload_bytes=self._transaction.total_bytes,
                )
            return
        self._dispatch_idle()

    def _on_copy_aborted(
        self, worker: PathWorker, item: TransferItem, copy: Copy,
        flow: Flow, now: float,
    ) -> None:
        # Dispatching happens in _on_copy_complete once every losing copy
        # is settled; here we only account and release.
        worker.path.record_usage(flow.transferred_bytes)
        worker.path.notify_activity(now)
        self._ledger.abort(copy, flow.transferred_bytes)
        if self.obs is not None:
            cause = (
                "fault"
                if flow.flow_id in self._fault_aborting
                else "duplicate"
            )
            self.obs.event(
                "copy.abort",
                time=now,
                path=worker.path.name,
                item=item.label,
                transferred_bytes=flow.transferred_bytes,
                cause=cause,
            )
            self.obs.count(
                "runner.waste_bytes",
                amount=flow.transferred_bytes,
                cause=cause,
            )
            self.obs.observe("runner.copy_abort_age_s", now - copy.issued_at)
        self._release_worker(worker, copy)
        if flow.flow_id in self._fault_aborting:
            # remove_path / the stall watchdog drives recovery itself
            # (delayed re-queue + re-dispatch).
            return
        self.policy.on_item_aborted(worker, item, now)

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _abort_for_fault(self, flow: Flow) -> None:
        """Abort ``flow`` with the fault marker set (re-entrant safe)."""
        self._fault_aborting.add(flow.flow_id)
        try:
            self.network.abort_flow(flow)
        finally:
            self._fault_aborting.discard(flow.flow_id)

    def _recover_item(
        self, worker: PathWorker, item: TransferItem, copy: Copy
    ) -> None:
        """Re-offer ``item`` to the policy after a fault orphaned ``copy``.

        No-op when the ledger declines (the item completed, or a sibling
        copy is still in flight) or a recovery is already scheduled —
        which makes the path re-entrant: any number of faults in the
        same engine tick schedule at most one re-dispatch.
        """
        if not self._ledger.fault(copy) or item.label in self._requeue_pending:
            return
        now = self.network.time
        attempt = self._fault_counts.get(item.label, 0) + 1
        self._fault_counts[item.label] = attempt
        if attempt > self.retry_policy.max_attempts:
            self._record(
                DegradationEvent(
                    time=now,
                    kind="retry-budget-exhausted",
                    path_name=worker.path.name,
                    item_label=item.label,
                    detail=(
                        f"fault {attempt} exceeds budget of "
                        f"{self.retry_policy.max_attempts}; re-queueing "
                        "without backoff"
                    ),
                )
            )
        delay = self.retry_policy.backoff(attempt)
        if self.obs is not None:
            self.obs.event(
                "retry.scheduled",
                time=now,
                path=worker.path.name,
                item=item.label,
                attempt=attempt,
                delay_s=delay,
            )
            self.obs.count("runner.retries", policy=self.policy.name)

        def requeue() -> None:
            self._requeue_pending.discard(item.label)
            if item.label in self._ledger.records:
                return
            self.policy.on_item_failed(worker, item, self.network.time)
            self._dispatch_idle()

        if delay > 0.0:
            self._requeue_pending.add(item.label)
            self.network.engine.schedule_in(
                delay, requeue, label=f"requeue:{item.label}"
            )
        else:
            requeue()

    def _arm_watchdog(
        self,
        worker: PathWorker,
        item: TransferItem,
        copy: Copy,
        flow: Flow,
        last_remaining: float,
    ) -> None:
        timeout = self.stall_timeout_s
        assert timeout is not None

        def check() -> None:
            if flow.is_done or self._finished_at is not None:
                return
            if flow.remaining_bytes < last_remaining:
                # Progress since the last check: re-arm from here.
                self._arm_watchdog(
                    worker, item, copy, flow, flow.remaining_bytes
                )
                return
            self._record(
                DegradationEvent(
                    time=self.network.time,
                    kind="stall",
                    path_name=worker.path.name,
                    item_label=item.label,
                    detail=f"no progress for {timeout:g}s; reassigning",
                )
            )
            self._abort_for_fault(flow)
            self._recover_item(worker, item, copy)
            self._dispatch_idle()

        # Scheduled directly on the engine. Deliberately NOT cancelled when
        # the flow settles early: a due (no-op) watchdog is still a step
        # boundary, and the golden traces pin the step sequence.
        self.network.engine.schedule_in(
            timeout, check, label=f"watchdog:{flow.label}"
        )

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def start(self, transaction: Transaction) -> None:
        """Begin executing ``transaction`` without driving the network.

        Use this to run several transactions concurrently on one shared
        :class:`~repro.netsim.fluid.FluidNetwork` (e.g. a neighbourhood of
        households): start each runner, then step the network until every
        runner's :attr:`finished` is true, then :meth:`collect_result`.
        """
        if self._transaction is not None:
            raise RuntimeError("TransactionRunner instances are single-use")
        self._ledger = CopyLedger(transaction.items)
        self._transaction = transaction
        self._started_at = self.network.time
        self._baseline_path_bytes = {
            path.name: path.bytes_used for path in self.paths
        }
        if self.obs is not None:
            self.obs.event(
                "txn.begin",
                time=self._started_at,
                transaction=transaction.name,
                policy=self.policy.name,
                items=len(transaction),
                payload_bytes=transaction.total_bytes,
            )
            self.obs.count(
                "runner.transactions", policy=self.policy.name
            )
            self.obs.gauge(
                "runner.active_paths", float(len(self.active_path_names))
            )
        self.policy.initialize(self._workers, transaction.items)
        for worker in self._workers:
            self._dispatch(worker)
            if self._finished_at is not None:
                break

    # ------------------------------------------------------------------
    # Dynamic path membership
    # ------------------------------------------------------------------
    def remove_path(
        self,
        path_name: str,
        drain: bool = False,
        kind: str = "path-fault",
        detail: str = "",
    ) -> bool:
        """Take a path out of the transfer set (it may later re-join).

        ``drain=False`` (a fault: flap, Wi-Fi departure, radio loss)
        aborts the in-flight copy and re-offers the orphaned item to the
        policy after the retry backoff. ``drain=True`` (a graceful
        removal: permit drain, cap exhaustion) lets the current copy
        finish but dispatches no new work; the worker disables itself
        once idle. Returns ``True`` when the call changed the path's
        state, ``False`` when it was already out (idempotent).
        """
        worker = self._worker_by_name(path_name)
        if worker.disabled or (drain and worker.draining):
            return False
        now = self.network.time
        item = worker.current_item
        if drain and item is not None:
            worker.draining = True
            self._record(
                DegradationEvent(
                    time=now,
                    # A caller that didn't specialise the kind gets the
                    # vocabulary's graceful variant, not "path-fault".
                    kind="path-drain" if kind == "path-fault" else kind,
                    path_name=path_name,
                    item_label=item.label,
                    detail=detail or "draining: current copy may finish",
                )
            )
            if self.obs is not None:
                self.obs.gauge(
                    "runner.active_paths",
                    float(len(self.active_path_names)),
                )
            return True
        worker.draining = False
        worker.disabled = True
        self._record(
            DegradationEvent(
                time=now,
                kind=kind,
                path_name=path_name,
                item_label=item.label if item is not None else "",
                detail=detail,
            )
        )
        if self.obs is not None:
            self.obs.gauge(
                "runner.active_paths", float(len(self.active_path_names))
            )
        entry = self._in_flight.get(path_name)
        if entry is not None and not entry[1].is_done:
            self._abort_for_fault(entry[1])
        worker.current_item = None
        if item is not None and entry is not None:
            self._recover_item(worker, item, entry[0])
        elif kind != "path-fault":
            # An idle worker left for a session-layer reason (cap dry,
            # permit revoked): no copy failed, so ``on_item_failed``
            # will never run to migrate whatever the policy still had
            # queued for it, and — unlike a physical fault — no later
            # re-join will re-deal it either. Tell the policy the set
            # shrank instead. A ``path-fault`` keeps the deferred-
            # recovery semantics: the queue waits out the outage and
            # re-deals on re-join.
            self.policy.on_membership_change(tuple(self._workers), now)
        self._dispatch_idle()
        return True

    def add_path(
        self, path: Union[str, NetworkPath], kind: str = "path-rejoin"
    ) -> PathWorker:
        """Bring a path (back) into the transfer set mid-transaction.

        Given a name, re-enables the matching removed worker (re-join
        after a flap) — unless the :attr:`rejoin_gate` vetoes it, in
        which case a ``rejoin-vetoed`` degradation is recorded and the
        still-removed worker is returned. Given a new
        :class:`NetworkPath`, appends a fresh worker — the multipath
        set can grow while a transaction runs
        (e.g. a phone arriving home). Idempotent for already-active
        paths. The policy learns of the change via
        :meth:`~repro.core.scheduler.base.SchedulingPolicy.\
on_membership_change` and the path starts pulling work immediately.
        """
        now = self.network.time
        if isinstance(path, str):
            worker = self._worker_by_name(path)
            if worker.available:
                return worker
            if self.rejoin_gate is not None and not self.rejoin_gate(
                worker.path, now
            ):
                # The session layer says the path has no authority to
                # carry traffic (cap dry, permit revoked): the physical
                # link coming back does not re-enable it.
                self._record(
                    DegradationEvent(
                        time=now,
                        kind="rejoin-vetoed",
                        path_name=worker.path.name,
                        detail="session layer vetoed re-join",
                    )
                )
                return worker
            worker.disabled = False
            worker.draining = False
            self._record(
                DegradationEvent(
                    time=now, kind=kind, path_name=worker.path.name
                )
            )
        else:
            existing = next(
                (w for w in self._workers if w.path.name == path.name), None
            )
            if existing is not None:
                return self.add_path(path.name, kind=kind)
            worker = PathWorker(index=len(self._workers), path=path)
            self._workers.append(worker)
            self.paths.append(path)
            if self._transaction is not None:
                self._baseline_path_bytes[path.name] = path.bytes_used
            self._record(
                DegradationEvent(
                    time=now, kind="path-join", path_name=path.name
                )
            )
        if self.obs is not None:
            self.obs.gauge(
                "runner.active_paths", float(len(self.active_path_names))
            )
        self.policy.on_membership_change(tuple(self._workers), now)
        if self._transaction is not None and self._finished_at is None:
            self._dispatch(worker)
        return worker

    def fail_path(self, path_name: str) -> None:
        """A path died mid-transaction (phone left the LAN, radio lost).

        The worker is disabled, its in-flight copy aborted, and the
        policy's :meth:`~repro.core.scheduler.base.SchedulingPolicy.\
on_item_failed` hook re-queues the stranded item after the retry
        backoff; every idle surviving worker is then re-dispatched so
        recovery starts as soon as the backoff elapses. The path may
        still re-join later via :meth:`add_path`.
        """
        self.remove_path(path_name, kind="path-fault", detail="path failed")

    @property
    def finished(self) -> bool:
        """True once every item of the started transaction completed."""
        return self._finished_at is not None

    @property
    def active_path_names(self) -> List[str]:
        """Names of the paths currently accepting work."""
        return [w.path.name for w in self._workers if w.available]

    def collect_result(self) -> TransactionResult:
        """Build the result of a finished transaction."""
        if self._transaction is None:
            raise RuntimeError("no transaction was started")
        if self._finished_at is None:
            missing = self._ledger.missing()
            raise RuntimeError(
                f"transaction {self._transaction.name!r} incomplete at "
                f"t={self.network.time:.1f}s under {self.policy.name}: "
                f"{len(missing)} items missing ({missing[:5]}...)"
            )
        path_bytes = {
            path.name: path.bytes_used - self._baseline_path_bytes[path.name]
            for path in self.paths
        }
        return TransactionResult(
            transaction_name=self._transaction.name,
            policy_name=self.policy.name,
            started_at=self._started_at,
            finished_at=self._finished_at,
            records=dict(self._ledger.records),
            path_bytes=path_bytes,
            wasted_bytes=self._ledger.wasted_bytes,
            payload_bytes=self._transaction.total_bytes,
            degradations=list(self.degradations),
        )

    def run(
        self, transaction: Transaction, until: float = math.inf
    ) -> TransactionResult:
        """Execute ``transaction``; returns its result.

        Raises :class:`RuntimeError` if the transaction cannot finish by
        ``until`` (e.g. a static policy committed items to a dead path).
        """
        self.start(transaction)
        while self._finished_at is None:
            if not self.network.step(max_time=until):
                break
            if self.network.time >= until:
                break
        return self.collect_result()
