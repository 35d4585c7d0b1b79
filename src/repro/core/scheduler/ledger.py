"""The copy ledger: which copy won, what was wasted, what to re-offer.

The paper's greedy rule (§4.1.1): the first copy of an item to finish
wins, the other copies are aborted, and what the losers moved is waste
(at most (N−1)·S_max). :class:`CopyLedger` keeps that rule's state and
nothing else. It is pure and clock-free — every call that needs a time
takes ``now`` — so the simulator's ``TransactionRunner`` drives it from
engine callbacks and the prototype's ``PrototypeClient`` from its
worker threads under one lock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.items import TransferItem


@dataclass
class ItemRecord:
    """Timing record for one item of a completed transaction."""

    label: str
    size_bytes: float
    #: Path that delivered the winning copy.
    path_name: str
    #: Time the item was first handed to a path.
    scheduled_at: float
    #: Time the first copy completed.
    completed_at: float
    #: Number of copies ever started (1 = never duplicated).
    copies: int = 1

    @property
    def elapsed(self) -> float:
        """Seconds from first scheduling to completion."""
        return self.completed_at - self.scheduled_at


@dataclass(eq=False)
class Copy:
    """One copy of an item issued on one path."""

    label: str
    path: str
    issued_at: float
    #: Cleared once the copy completed, was aborted or faulted.
    live: bool = True


class CopyLedger:
    """Copy bookkeeping for one transaction: winners, waste, re-offers."""

    def __init__(self, items: Sequence[TransferItem]) -> None:
        self._sizes = {item.label: item.size_bytes for item in items}
        #: Every copy ever issued, per item label, in issue order.
        self._copies: Dict[str, List[Copy]] = {}
        #: Winning copies' records, by item label, in completion order.
        self.records: Dict[str, ItemRecord] = {}
        #: Bytes moved by copies that did not win.
        self.wasted_bytes = 0.0

    def issue(self, label: str, path: str, now: float) -> Copy:
        """Start a copy of ``label`` on ``path``; a completed item raises."""
        if label in self.records:
            raise RuntimeError(
                f"copy of completed item {label!r} issued on {path!r}"
            )
        copy = Copy(label, path, now)
        self._copies.setdefault(label, []).append(copy)
        return copy

    def complete(
        self, copy: Copy, nbytes: float, now: float
    ) -> Tuple[Optional[ItemRecord], float, Tuple[Copy, ...]]:
        """``copy`` delivered ``nbytes``: ``(record, duration, losers)``.

        ``record`` is ``None`` when a sibling had already won (``nbytes``
        are waste); ``duration`` runs from this copy's own issue; the
        ``losers`` are the live siblings to cancel, in issue order.
        """
        copy.live = False
        duration = now - copy.issued_at
        if copy.label in self.records:
            self.wasted_bytes += nbytes
            return None, duration, ()
        siblings = self._copies[copy.label]
        record = ItemRecord(
            label=copy.label,
            size_bytes=self._sizes[copy.label],
            path_name=copy.path,
            scheduled_at=siblings[0].issued_at,
            completed_at=now,
            copies=len(siblings),
        )
        self.records[copy.label] = record
        return record, duration, tuple(c for c in siblings if c.live)

    def abort(self, copy: Copy, nbytes: float) -> None:
        """``copy`` was cancelled after moving ``nbytes``: all waste."""
        copy.live = False
        self.wasted_bytes += nbytes

    def fault(self, copy: Copy) -> bool:
        """``copy``'s path failed: re-offer its item?

        Only when the item is incomplete and no sibling copy is live.
        A copy already aborted (its bytes booked) may fault afterwards.
        """
        copy.live = False
        return copy.label not in self.records and not any(
            c.live for c in self._copies[copy.label]
        )

    @property
    def finished(self) -> bool:
        """True once every item has a winning copy."""
        return len(self.records) == len(self._sizes)

    def missing(self) -> List[str]:
        """Labels of the items without a winning copy, sorted."""
        return sorted(set(self._sizes) - set(self.records))
