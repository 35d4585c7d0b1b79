"""Scheduler interfaces.

A :class:`SchedulingPolicy` decides *which item a path transfers next*;
the :class:`~repro.core.scheduler.ledger.CopyLedger` decides which copy
won, the waste, the losers and the re-offers; the executors (the
:class:`~repro.core.scheduler.runner.TransactionRunner` and the
prototype's ``PrototypeClient``) own the mechanics (flows or sockets,
aborts, byte metering). The split keeps each policy a small,
independently testable object and mirrors the paper's framing, where the
three compared schedulers differ only in their assignment rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional, Sequence

from repro.core.items import TransferItem
from repro.netsim.path import NetworkPath

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.obs.capture import Instrumentation


@dataclass
class PathWorker:
    """Runner-side view of one path: identity plus live status.

    Policies may read (never write) these fields when deciding; the runner
    keeps them current.
    """

    index: int
    path: NetworkPath
    #: Item currently being transferred on this path, if any.
    current_item: Optional[TransferItem] = None
    #: Remaining bytes of the current transfer (runner-updated snapshot).
    remaining_bytes: float = 0.0
    #: Whether this path has issued at least one transfer (connection reuse).
    used_before: bool = False
    #: Bytes fully delivered over this path within the transaction.
    completed_bytes: float = 0.0
    #: Set when the path failed mid-transaction (phone left the Wi-Fi,
    #: radio lost): the runner stops dispatching to it. A removed path
    #: may later re-join (see ``TransactionRunner.add_path``).
    disabled: bool = False
    #: Set while the path drains: its in-flight copy may finish but no
    #: new work is dispatched; once idle the worker becomes disabled.
    draining: bool = False

    @property
    def available(self) -> bool:
        """True when the runner may dispatch new work to this path."""
        return not self.disabled and not self.draining


@dataclass(frozen=True)
class WorkAssignment:
    """A policy decision: transfer ``item`` next on the asking path.

    ``duplicate`` marks endgame re-transfers of an item already in flight
    elsewhere (the greedy scheduler's mechanism); the runner aborts the
    losing copies when the first one completes.
    """

    item: TransferItem
    duplicate: bool = False


class SchedulingPolicy:
    """Decides the next item for an idle path.

    Lifecycle: the runner calls :meth:`initialize` once with the workers
    and the transaction's items (in order), then :meth:`next_item`
    whenever a path goes idle, and :meth:`on_item_complete` /
    :meth:`on_item_aborted` as transfers finish. A policy instance is
    single-use: it belongs to one transaction run.
    """

    #: Paper abbreviation, set by subclasses (GRD / RR / MIN).
    name: str = "?"
    #: Instrumentation handle the runner binds before the run starts;
    #: ``None`` keeps every policy checkpoint a no-op.
    obs: Optional["Instrumentation"] = None

    def bind_obs(self, obs: Optional["Instrumentation"]) -> None:
        """Attach (or, with ``None``, detach) an instrumentation handle.

        The :class:`~repro.core.scheduler.runner.TransactionRunner`
        calls this from its constructor, so policies built by
        experiments pick up an active capture without plumbing.
        """
        self.obs = obs

    def _count(
        self, metric: str, amount: float = 1.0, **labels: Any
    ) -> None:
        """Increment a policy metric (labelled with :attr:`name`).

        The no-op fast path when nothing captures — one attribute test.
        """
        if self.obs is not None:
            self.obs.count(
                metric, amount=amount, policy=self.name, **labels
            )

    def initialize(
        self, workers: Sequence[PathWorker], items: Sequence[TransferItem]
    ) -> None:
        """Receive the paths and the ordered item list before the run."""
        raise NotImplementedError

    def next_item(
        self, worker: PathWorker, now: float
    ) -> Optional[WorkAssignment]:
        """Pick the next item for ``worker`` (``None``: stay idle)."""
        raise NotImplementedError

    def on_item_complete(
        self,
        worker: PathWorker,
        item: TransferItem,
        duration: float,
        now: float,
    ) -> None:
        """An item copy finished on ``worker`` after ``duration`` seconds."""

    def on_item_aborted(
        self, worker: PathWorker, item: TransferItem, now: float
    ) -> None:
        """A duplicate copy on ``worker`` was aborted (item done elsewhere)."""

    def on_item_failed(
        self, worker: PathWorker, item: TransferItem, now: float
    ) -> None:
        """``worker``'s path died with ``item`` in flight.

        The policy must make the item schedulable again. Both executors
        call this hook only when the item is incomplete and no sibling
        copy is still in flight, as
        :meth:`~repro.core.scheduler.ledger.CopyLedger.fault` decides;
        a policy should still re-queue idempotently. The default
        raises: a policy that cannot recover must say so rather than
        silently lose items.
        """
        raise NotImplementedError(
            f"{type(self).__name__} cannot recover from a path failure"
        )

    def on_membership_change(
        self, workers: Sequence[PathWorker], now: float
    ) -> None:
        """The worker set changed mid-transaction.

        Called when a path joins (or re-joins after a flap) so the
        policy can track the new worker and create whatever per-path
        state it keeps — and when a path *leaves* gracefully (drain on
        cap exhaustion, idle removal) so a policy with per-path queues
        can migrate the departed worker's unstarted items to the
        survivors; a graceful leave aborts no copy, so
        :meth:`on_item_failed` never fires for it. Must be idempotent:
        a re-join of an existing worker calls this too. The default
        ignores membership changes — policies with per-path state
        override it.
        """
