"""CopyLedger: the first-finisher-wins rule, driven by hand.

No sockets and no engine: every copy is issued, completed, aborted or
faulted explicitly with the time passed in, the way the simulated
runner and the prototype client both drive the ledger.
"""

import pytest

from repro.core.items import TransferItem
from repro.core.scheduler.ledger import CopyLedger


def ledger(*sizes):
    return CopyLedger(
        [TransferItem(f"/i{n}", size) for n, size in enumerate(sizes)]
    )


class TestWinner:
    def test_first_finisher_wins_and_a_later_finisher_is_waste(self):
        book = ledger(100.0)
        slow = book.issue("/i0", "slow", now=0.0)
        fast = book.issue("/i0", "fast", now=1.0)
        record, _, losers = book.complete(fast, 100.0, now=2.0)
        assert losers == (slow,)
        assert record.path_name == "fast"
        assert record.scheduled_at == 0.0
        assert record.completed_at == 2.0
        assert book.records == {"/i0": record}
        assert book.complete(slow, 100.0, now=3.0) == (None, 3.0, ())
        assert book.records == {"/i0": record}
        assert book.wasted_bytes == 100.0

    def test_complete_returns_the_live_siblings_as_losers(self):
        book = ledger(100.0)
        first = book.issue("/i0", "a", now=0.0)
        second = book.issue("/i0", "b", now=0.5)
        third = book.issue("/i0", "c", now=0.6)
        book.abort(second, 10.0)
        _, _, losers = book.complete(third, 100.0, now=1.0)
        assert losers == (first,)
        book.abort(first, 40.0)
        assert book.wasted_bytes == 50.0

    def test_duration_is_the_copys_own(self):
        book = ledger(100.0)
        book.issue("/i0", "a", now=0.0)
        late = book.issue("/i0", "b", now=4.0)
        record, duration, _ = book.complete(late, 100.0, now=4.5)
        assert duration == 0.5
        assert record.elapsed == 4.5

    def test_copies_counts_every_copy_ever_issued(self):
        book = ledger(100.0, 100.0)
        faulted = book.issue("/i0", "a", now=0.0)
        assert book.fault(faulted)
        aborted = book.issue("/i0", "b", now=1.0)
        winner = book.issue("/i0", "c", now=1.0)
        book.abort(aborted, 5.0)
        record, _, _ = book.complete(winner, 100.0, now=2.0)
        assert record.copies == 3
        single = book.issue("/i1", "a", now=2.0)
        record, _, _ = book.complete(single, 100.0, now=3.0)
        assert record.copies == 1

    def test_finished_and_missing(self):
        book = ledger(1.0, 2.0)
        assert not book.finished
        assert book.missing() == ["/i0", "/i1"]
        book.complete(book.issue("/i1", "a", now=0.0), 2.0, now=1.0)
        assert book.missing() == ["/i0"]
        book.complete(book.issue("/i0", "a", now=1.0), 1.0, now=2.0)
        assert book.finished
        assert book.missing() == []
        assert list(book.records) == ["/i1", "/i0"]


class TestReoffer:
    def test_fault_reoffers_only_without_a_live_sibling(self):
        # A live sibling already covers the item: re-offering would let
        # the greedy policy start a third copy.
        book = ledger(100.0)
        first = book.issue("/i0", "a", now=0.0)
        second = book.issue("/i0", "b", now=1.0)
        assert not book.fault(first)
        assert book.fault(second)

    def test_fault_after_completion_does_not_reoffer(self):
        book = ledger(100.0)
        spared = book.issue("/i0", "silent", now=0.0)
        winner = book.issue("/i0", "live", now=1.0)
        book.complete(winner, 100.0, now=2.0)
        assert not book.fault(spared)

    def test_fault_after_abort_books_bytes_once(self):
        # The simulated runner aborts a faulted flow (booking its partial
        # bytes) and then asks whether to re-offer.
        book = ledger(100.0)
        copy = book.issue("/i0", "a", now=0.0)
        book.abort(copy, 30.0)
        assert book.fault(copy)
        assert book.wasted_bytes == 30.0


class TestIssue:
    def test_issuing_a_completed_label_raises(self):
        book = ledger(100.0)
        book.complete(book.issue("/i0", "a", now=0.0), 100.0, now=1.0)
        with pytest.raises(RuntimeError, match="completed item '/i0'"):
            book.issue("/i0", "b", now=2.0)
