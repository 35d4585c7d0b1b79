"""Event queue primitives."""

import math

import pytest

from repro.netsim.engine import EventQueue, run_callback


class TestEventQueue:
    def test_orders_by_time(self):
        queue = EventQueue()
        fired = []
        queue.schedule(2.0, lambda: fired.append("b"))
        queue.schedule(1.0, lambda: fired.append("a"))
        for _ in range(2):
            run_callback(queue.pop_due(10.0))
        assert fired == ["a", "b"]

    def test_fifo_for_equal_times(self):
        queue = EventQueue()
        fired = []
        for name in "abc":
            queue.schedule(5.0, lambda n=name: fired.append(n))
        while True:
            event = queue.pop_due(5.0)
            if event is None:
                break
            run_callback(event)
        assert fired == ["a", "b", "c"]

    def test_pop_due_respects_now(self):
        queue = EventQueue()
        queue.schedule(3.0, lambda: None)
        assert queue.pop_due(2.999) is None
        assert queue.pop_due(3.0) is not None

    def test_peek_time_empty_is_inf(self):
        assert EventQueue().peek_time() == math.inf

    def test_cancelled_events_skipped(self):
        queue = EventQueue()
        fired = []
        handle = queue.schedule(1.0, lambda: fired.append("x"))
        queue.schedule(2.0, lambda: fired.append("y"))
        handle.cancel()
        assert queue.peek_time() == 2.0
        run_callback(queue.pop_due(5.0))
        assert fired == ["y"]

    def test_cancelled_after_pop_not_run(self):
        queue = EventQueue()
        fired = []
        handle = queue.schedule(1.0, lambda: fired.append("x"))
        popped = queue.pop_due(1.0)
        handle.cancel()
        run_callback(popped)
        assert fired == []

    def test_len_counts_live_events(self):
        queue = EventQueue()
        a = queue.schedule(1.0, lambda: None)
        queue.schedule(2.0, lambda: None)
        assert len(queue) == 2
        a.cancel()
        assert len(queue) == 1

    def test_rejects_non_finite_time(self):
        queue = EventQueue()
        with pytest.raises(ValueError):
            queue.schedule(math.inf, lambda: None)
        with pytest.raises(ValueError):
            queue.schedule(math.nan, lambda: None)

    def test_compaction_drops_cancelled_entries(self):
        queue = EventQueue()
        handles = [queue.schedule(float(i), lambda: None) for i in range(32)]
        for handle in handles[:20]:
            handle.cancel()
        # Compaction fires once cancellations outnumber half the heap
        # (at the 17th cancel here), so the heap stays near the live
        # count instead of keeping all 32 entries; ordering is preserved.
        assert len(queue) == 12
        assert len(queue._heap) < 20
        times = []
        while True:
            event = queue.pop_due(math.inf)
            if event is None:
                break
            times.append(event.time)
        assert times == [float(i) for i in range(20, 32)]

    def test_equal_times_pop_in_sequence_order_after_compaction(self):
        # Forty events at one time, each with a callback that refuses to
        # be compared: the heap orders them by sequence alone. Cancelling
        # just over half of them compacts the heap, which must keep the
        # order.
        class Incomparable:
            def __eq__(self, other):
                raise TypeError("callbacks are never compared")

            __lt__ = __gt__ = __le__ = __ge__ = __eq__
            __hash__ = object.__hash__

            def __call__(self):
                pass

        queue = EventQueue()
        handles = [queue.schedule(7.0, Incomparable()) for _ in range(40)]
        doomed = handles[::2] + [handles[-1]]
        for handle in doomed:
            handle.cancel()
        assert len(queue._heap) < 40  # compacted
        popped = []
        while True:
            event = queue.pop_due(7.0)
            if event is None:
                break
            popped.append(event)
        survivors = [h for h in handles if h not in doomed]
        assert popped == survivors
        assert [e.sequence for e in popped] == sorted(
            e.sequence for e in popped
        )

    def test_len_is_constant_time_bookkeeping(self):
        queue = EventQueue()
        a = queue.schedule(1.0, lambda: None)
        b = queue.schedule(2.0, lambda: None)
        assert len(queue) == 2 and bool(queue)
        a.cancel()
        a.cancel()  # idempotent: counters must not drift
        assert len(queue) == 1
        assert queue.pop_due(5.0) is b
        assert len(queue) == 0 and not queue


class _FakeLink:
    """Link stub with a scripted sequence of next-change answers."""

    def __init__(self, changes):
        self.changes = list(changes)
        self.queries = 0

    def next_change_after(self, time):
        self.queries += 1
        for when in self.changes:
            if when > time:
                return when
        return math.inf


class TestLinkChangeTracker:
    def test_earliest_across_tracked_links(self):
        from repro.netsim.engine import LinkChangeTracker

        tracker = LinkChangeTracker()
        early = _FakeLink([5.0, 9.0])
        late = _FakeLink([7.0])
        tracker.track(early, now=0.0)
        tracker.track(late, now=0.0)
        assert tracker.next_change(0.0) == 5.0
        # Cached while unexpired: no re-query for the same answer.
        queries = early.queries
        assert tracker.next_change(3.0) == 5.0
        assert early.queries == queries

    def test_recomputes_when_boundary_reached(self):
        from repro.netsim.engine import LinkChangeTracker

        tracker = LinkChangeTracker()
        link = _FakeLink([5.0, 9.0])
        tracker.track(link, now=0.0)
        assert tracker.next_change(5.0) == 9.0  # 5.0 expired -> re-asked
        assert tracker.next_change(9.0) == math.inf

    def test_untrack_drops_link(self):
        from repro.netsim.engine import LinkChangeTracker

        tracker = LinkChangeTracker()
        link = _FakeLink([4.0])
        other = _FakeLink([6.0])
        tracker.track(link, now=0.0)
        tracker.track(other, now=0.0)
        assert tracker.tracked_count() == 2
        assert tracker.next_change(0.0) == 4.0
        tracker.untrack(link)
        assert tracker.tracked_count() == 1
        # The stale heap entry for the untracked link is dropped on sight.
        assert tracker.next_change(0.0) == 6.0
        tracker.untrack(other)
        assert tracker.tracked_count() == 0
        assert tracker.next_change(0.0) == math.inf
        # Tracked again, a link is asked afresh.
        queries = link.queries
        tracker.track(link, now=1.0)
        assert link.queries == queries + 1
        assert tracker.next_change(1.0) == 4.0

    def test_untracked_is_inf(self):
        from repro.netsim.engine import LinkChangeTracker

        assert LinkChangeTracker().next_change(0.0) == math.inf


class TestSimulationEngine:
    def test_next_boundary_is_min_of_sources(self):
        from repro.netsim.engine import SimulationEngine

        engine = SimulationEngine()
        engine.schedule_at(8.0, lambda: None)
        engine.links.track(_FakeLink([6.0]), now=0.0)
        engine.set_eta_source(lambda: 7.0)
        assert engine.next_boundary() == 6.0
        engine.set_eta_source(lambda: 2.5)
        assert engine.next_boundary() == 2.5
        engine.set_eta_source(None)
        assert engine.next_boundary() == 6.0

    def test_schedule_in_is_relative_and_validated(self):
        from repro.netsim.engine import SimulationEngine

        engine = SimulationEngine(start_time=10.0)
        event = engine.schedule_in(2.5, lambda: None)
        assert event.time == 12.5
        with pytest.raises(ValueError):
            engine.schedule_in(-0.1, lambda: None)

    def test_clock_is_monotonic(self):
        from repro.netsim.engine import SimulationEngine

        engine = SimulationEngine()
        engine.advance_clock(4.0)
        assert engine.time == 4.0
        with pytest.raises(RuntimeError):
            engine.advance_clock(3.9)

    def test_run_due_timers_skips_cancelled(self):
        from repro.netsim.engine import SimulationEngine

        engine = SimulationEngine()
        fired = []
        engine.schedule_at(1.0, lambda: fired.append("a"))
        doomed = engine.schedule_at(1.0, lambda: fired.append("b"))
        engine.schedule_at(2.0, lambda: fired.append("c"))
        doomed.cancel()
        engine.advance_clock(1.0)
        assert engine.run_due_timers() == 1
        assert fired == ["a"]
        assert engine.has_timers()
