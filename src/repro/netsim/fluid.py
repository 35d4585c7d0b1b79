"""Max-min fair fluid flow simulator on an incremental discrete-event engine.

TCP transfers are modelled as *fluid flows*: a flow has a remaining volume
and crosses a series chain of links; at any instant the set of active flows
is allocated rates by progressive filling (max-min fairness), which is the
standard flow-level abstraction of long-lived TCP sharing a bottleneck. The
simulator advances in variable-size steps bounded by the next of: a flow
completion, a link capacity change, or a scheduled timer event (deferred
flow start, radio promotion, …).

Since the engine refactor the boundary sources live in
:class:`repro.netsim.engine.SimulationEngine` (timers + an incremental
link-change index + the flow-ETA source installed here), per-flow state
(remaining volume, current rate) lives in numpy arrays keyed by a stable
slot index, and link membership for the allocator is maintained
incrementally as flows start and finish instead of being rebuilt from
scratch every step.

Determinism contract (load-bearing — see docs/ARCHITECTURE.md): every
refactored path must produce *bit-identical* floats to the original
rescan-everything stepper, because experiment traces are diffed against
golden digests. Concretely:

* the step **boundary sequence is pinned**: rates depend on the exact
  query time (diurnal modulation is continuous in ``t``), so rate
  allocation is asked for at every step, exactly like the original.
  Each allocation reads the capacity of every live link whose class
  overrides ``Link.capacity_at``; a link that keeps the stored value
  is read once, when its allocator column is created, and again only
  after some ``Link.set_capacity`` call (the only way that value
  changes), so the capacities seen are the ones a read of every link
  would see.
  While the last answer left every shared link unable to bind and no
  two distinct private bounds within the share tolerance, each flow's
  rate is its own bound, and the allocator applies only what changed
  since (arrivals, departures, capacities ``!=`` the last ones seen),
  re-checking each touched shared link with the water-fill's own sum;
  any change that could bind a link or tie two bounds re-runs the
  water-fill. Otherwise it re-runs the water-fill unless the membership
  is the last call's and every live link capacity ``==`` its value
  then: the rates are a pure function of membership, rate caps and
  capacities, so the rates it keeps are the ones it would recompute;
* flow ETAs are re-derived whenever a flow's rate changed or bytes moved
  (an unchanged ETA would differ by ulps from a re-derived one, shifting
  completion times), and the derivation arithmetic is unchanged;
* the vectorized advance/ETA/sweep paths use the same IEEE-754 double
  operations in the same order as the scalar loops they replace
  (elementwise multiply/divide/min over the whole slot arrays, and
  ``np.add.at`` over (slot, row) pairs kept in flow order for in-order
  link byte accumulation), so both paths are bit-equal. A free slot
  holds rate zero and remaining ``+inf``: it moves no bytes, its ETA
  quotient is ``inf`` like that of a live flow at rate zero, and no
  completion epsilon reaches it. The ETA is ``now + min(bits / rate)``
  rather than ``min(now + bits / rate)``: rounding is monotone, so
  ``min fl(now + x_i) == fl(now + min x_i)``;
* the event-driven water-filling allocator performs the same operations
  on the same values as brute-force progressive filling, in an order
  the result does not depend on — property-tested against a reference
  in ``tests/test_netsim_fluid.py``.

This is the substrate every 3GOL experiment runs on: the multipath
scheduler submits items as flows over paths, reacts to completion callbacks
and aborts duplicate flows, exactly mirroring the prototype's behaviour at
the granularity the paper's evaluation reports (seconds).
"""

from __future__ import annotations

import heapq
import itertools
import math
from bisect import bisect_left
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np
from numpy.typing import NDArray

from repro.netsim.engine import ScheduledEvent, SimulationEngine
from repro.netsim.link import Link, validate_chain
from repro.util.units import bits_to_bytes, bytes_to_bits
from repro.util.validate import check_non_negative

#: Residual volume (bytes) below which a flow counts as complete. The
#: threshold is relative to the flow size (see :func:`completion_epsilon`)
#: because the float error left after stepping exactly to a completion
#: boundary scales with the volume transferred; the absolute floor covers
#: tiny flows.
COMPLETION_EPSILON = 1e-3
_COMPLETION_RELATIVE = 1e-9


def completion_epsilon(size_bytes: float) -> float:
    """Residual volume below which a flow of ``size_bytes`` is complete."""
    return max(COMPLETION_EPSILON, _COMPLETION_RELATIVE * size_bytes)


#: Relative tolerance when comparing fair shares in the water-filling loop.
_SHARE_EPSILON = 1e-12

#: Relative slack by which a shared link's capacity must exceed its
#: members' summed private bounds to be left out of the water-fill (it
#: cannot bind; see ``FluidNetwork._water_fill``).
_SLACK_MARGIN = 1e-9

#: Active-flow count from which the stepper switches from the scalar
#: per-flow advance/ETA/sweep loops to the vectorized numpy paths. Both paths
#: are bit-identical; the threshold only picks whichever has less
#: overhead.
VECTOR_MIN_FLOWS = 8

#: Initial slot-array capacity; arrays double when full.
_INITIAL_SLOTS = 16

#: Byte-accounting row owned by no link name: retired pairs add there.
_DUMP_ROW = 0

#: Retired (slot, row) pairs below which the pair arrays are never
#: compacted, so a small network does not compact on every other exit.
_COMPACT_MIN_PAIRS = 64


class Flow:
    """A fluid flow: ``size_bytes`` to move across a chain of links.

    ``rate_cap_bps`` optionally caps the flow's own rate regardless of link
    shares (used for per-device channel category limits).
    ``on_complete(flow, time)`` fires when the last byte is delivered;
    ``on_abort(flow, time)`` fires if the flow is cancelled first.

    While a flow is active its remaining volume lives in the owning
    network's slot arrays (:attr:`remaining_bytes` reads through); before
    activation and after completion/abort the value is held locally.
    """

    _ids = itertools.count(1)

    @classmethod
    def _reset_ids(cls) -> None:
        """Restart the id stream (per-experiment isolation; see runner)."""
        cls._ids = itertools.count(1)

    def __init__(
        self,
        size_bytes: float,
        links: Sequence[Link],
        rate_cap_bps: Optional[float] = None,
        on_complete: Optional[Callable[["Flow", float], None]] = None,
        on_abort: Optional[Callable[["Flow", float], None]] = None,
        label: str = "",
    ) -> None:
        self.flow_id = next(Flow._ids)
        self.size_bytes = check_non_negative("size_bytes", size_bytes)
        self.links = validate_chain(links)
        if rate_cap_bps is not None:
            rate_cap_bps = check_non_negative("rate_cap_bps", rate_cap_bps)
        self.rate_cap_bps = rate_cap_bps
        self.on_complete = on_complete
        self.on_abort = on_abort
        self.label = label or f"flow-{self.flow_id}"

        self._remaining = self.size_bytes
        self.current_rate_bps = 0.0
        self.started_at: Optional[float] = None
        self.completed_at: Optional[float] = None
        self.aborted_at: Optional[float] = None

        #: Completion threshold, precomputed once (hot path).
        self._eps = completion_epsilon(self.size_bytes)
        #: Chain links deduplicated in first-seen order: a link appearing
        #: twice in a chain still counts its flow *once* for fair shares
        #: (set semantics of the reference allocator).
        self._alloc_links: Tuple[Link, ...] = tuple(
            dict.fromkeys(self.links)
        )
        #: Owning network and slot while active; ``None``/-1 otherwise.
        self._net: Optional["FluidNetwork"] = None
        self._slot = -1
        #: True while a delayed start is scheduled but has not run yet.
        self._pending = False
        #: Own rate bound when no link binds it (``inf`` when uncapped).
        self._cap_bound = math.inf if rate_cap_bps is None else rate_cap_bps
        #: Byte-accounting rows (per chain occurrence, duplicates kept)
        #: and the index of the first of them in the network's pair
        #: arrays while registered.
        self._link_rows: List[int] = []
        self._pair_start = -1
        #: Allocator columns while registered, split by how many live
        #: flows cross them: private (this flow alone) and shared (two or
        #: more), each once; ``_repeat_cols`` holds the extra occurrences
        #: of links the chain crosses more than once.
        self._private_cols: List[int] = []
        self._shared_cols: List[int] = []
        self._repeat_cols: List[int] = []
        #: Position in the network's flow list at the last allocator
        #: cache rebuild.
        self._pos = -1
        #: Private bound in the network's kept allocation (NaN until one
        #: holds it; see ``FluidNetwork._recompute_rates``).
        self._bound = math.nan

    @property
    def remaining_bytes(self) -> float:
        """Bytes still to transfer (reads the network slot when active)."""
        net = self._net
        if net is not None:
            return float(net._arr_remaining[self._slot])
        return self._remaining

    @remaining_bytes.setter
    def remaining_bytes(self, value: float) -> None:
        net = self._net
        if net is not None:
            net._arr_remaining[self._slot] = value
        else:
            self._remaining = value

    @property
    def transferred_bytes(self) -> float:
        """Bytes delivered so far (counts partial progress of aborts)."""
        return self.size_bytes - self.remaining_bytes

    @property
    def is_done(self) -> bool:
        """True once completed or aborted."""
        return self.completed_at is not None or self.aborted_at is not None

    def __repr__(self) -> str:
        return (
            f"Flow({self.label!r}, size={self.size_bytes:.0f}B, "
            f"remaining={self.remaining_bytes:.0f}B)"
        )


class _LinkUse:
    """Allocator-side state of one link while flows cross it."""

    __slots__ = ("link", "members", "col")

    def __init__(self, link: Link, col: int) -> None:
        self.link = link
        #: Active flows crossing the link (each at most once), in
        #: activation order.
        self.members: List[Flow] = []
        #: Persistent column id in the network's column space, stable for
        #: the lifetime of the use (assigned at creation, recycled when
        #: the last member leaves). The allocator indexes by it.
        self.col = col


class FluidNetwork:
    """The simulation loop: flows, timers, and stepped fluid transfer.

    The network owns a :class:`~repro.netsim.engine.SimulationEngine` (the
    clock plus the unified boundary sources) and the vectorized per-flow
    state arrays. The original scan-everything API (:meth:`step`,
    :meth:`run`, :meth:`advance_to`, :meth:`schedule`) is unchanged.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self.engine = SimulationEngine(start_time)
        self._flows: List[Flow] = []
        self._rates_dirty = True

        # Slot arrays: remaining volume, current rate and completion
        # epsilon per active flow, and the flow in each slot. A free slot
        # holds remaining ``+inf`` and rate zero (see the module
        # docstring), so the vectorized paths read the whole arrays.
        self._arr_remaining: NDArray[np.float64] = np.full(
            _INITIAL_SLOTS, math.inf
        )
        self._arr_rate: NDArray[np.float64] = np.zeros(_INITIAL_SLOTS)
        self._arr_eps: NDArray[np.float64] = np.zeros(_INITIAL_SLOTS)
        self._slot_flow: List[Optional[Flow]] = [None] * _INITIAL_SLOTS
        self._free_slots: List[int] = list(range(_INITIAL_SLOTS - 1, -1, -1))

        # Byte accounting, keyed by link *name* (two link objects sharing
        # a name share a row, as the original dict accounting did). Row
        # ``_DUMP_ROW`` belongs to no name: retired pairs point at it.
        self._link_row: Dict[str, int] = {}
        self._link_totals: NDArray[np.float64] = np.zeros(_INITIAL_SLOTS)

        # (slot, row) pairs for the vectorized advance, one per chain
        # occurrence, appended in registration order (which is flow-list
        # order). A leaving flow's pairs are retired to the dump row and
        # squeezed out once they make up half of the pairs (and at least
        # ``_COMPACT_MIN_PAIRS``).
        self._pair_slots: NDArray[np.intp] = np.zeros(
            _INITIAL_SLOTS, dtype=np.intp
        )
        self._pair_rows: NDArray[np.intp] = np.zeros(
            _INITIAL_SLOTS, dtype=np.intp
        )
        self._n_pairs = 0
        self._retired_pairs = 0

        # Incremental allocator membership, keyed by link object. Each
        # use owns a persistent column: ``_col_members`` holds its member
        # list and ``_col_live`` its member count, both maintained on
        # register/unregister; columns are recycled through ``_free_cols``
        # when a use dies. ``_shared`` holds the columns with two or more
        # members, in the order they became shared, and ``_repeating``
        # the flows whose chain crosses a link more than once.
        self._uses: Dict[int, _LinkUse] = {}
        self._col_members: List[List[Flow]] = []
        self._col_live: List[int] = []
        self._free_cols: List[int] = []
        self._shared: Dict[int, None] = {}
        self._repeating: Dict[Flow, None] = {}

        # Allocator state. ``_capacity`` holds each column's capacity as
        # the last allocation saw it (NaN: not seen yet). The uses in
        # ``_varying`` (links whose class overrides ``Link.capacity_at``)
        # are read at every allocation; a stored-value link is read when
        # its column is created, and the column is listed in
        # ``_fresh_cols`` as changed for the next allocation; every live
        # use is read again once ``Link.capacity_writes`` has moved past
        # ``_writes_seen``.
        # ``_alloc_dirty`` marks a membership change since the last
        # allocation, or flow positions that lag one (a water-fill
        # renumbers the flows first). ``_kept_bounds`` holds every live
        # flow's ``_bound``, sorted, while the last answer is one that
        # changes can be applied to (``None`` otherwise). The membership
        # changes since are logged: flows to re-bound (arrivals, and
        # owners that gained or lost a private column) and departures.
        self._alloc_dirty = True
        self._capacity: List[float] = []
        self._varying: Dict[int, _LinkUse] = {}
        self._fresh_cols: List[int] = []
        self._writes_seen = Link.capacity_writes
        self._kept_bounds: Optional[List[float]] = []
        self._rebound: Dict[Flow, None] = {}
        self._left: List[Flow] = []

        self.engine.set_eta_source(self._earliest_eta)

    # ------------------------------------------------------------------
    # Clock and public accounting views
    # ------------------------------------------------------------------
    @property
    def time(self) -> float:
        """Current simulation time (the engine clock)."""
        return self.engine.time

    @time.setter
    def time(self, value: float) -> None:
        self.engine.time = value

    @property
    def link_bytes(self) -> Dict[str, float]:
        """Total bytes moved, per link name, for load accounting."""
        totals = self._link_totals
        return {
            name: float(totals[row])
            for name, row in self._link_row.items()
        }

    # ------------------------------------------------------------------
    # Flow and timer management
    # ------------------------------------------------------------------
    @property
    def active_flows(self) -> Tuple[Flow, ...]:
        """Flows currently transferring."""
        return tuple(self._flows)

    def add_flow(self, flow: Flow, delay: float = 0.0) -> Flow:
        """Activate ``flow`` now, or after ``delay`` seconds.

        The delay models everything that happens before TCP bytes move:
        HTTP request RTTs, radio channel acquisition, proxy hops.
        """
        delay = check_non_negative("delay", delay)
        if flow.is_done:
            raise ValueError(f"cannot add finished flow {flow!r}")
        if flow._net is not None or flow._pending:
            raise ValueError(f"flow {flow!r} was already added")
        if delay > 0.0:
            flow._pending = True
            self.engine.schedule_at(
                self.engine.time + delay,
                lambda: self._activate(flow),
                label=f"start:{flow.label}",
            )
        else:
            self._activate(flow)
        return flow

    def _alloc_slot(self) -> int:
        if not self._free_slots:
            old = len(self._arr_remaining)
            grown = old * 2
            for name, free in (
                ("_arr_remaining", math.inf),
                ("_arr_rate", 0.0),
                ("_arr_eps", 0.0),
            ):
                arr = np.full(grown, free)
                arr[:old] = getattr(self, name)
                setattr(self, name, arr)
            self._slot_flow.extend([None] * old)
            self._free_slots = list(range(grown - 1, old - 1, -1))
        return self._free_slots.pop()

    def _new_use(self, link: Link) -> _LinkUse:
        if self._free_cols:
            col = self._free_cols.pop()
        else:
            col = len(self._col_members)
            self._col_members.append([])
            self._col_live.append(0)
            self._capacity.append(0.0)
        use = _LinkUse(link, col)
        self._col_members[col] = use.members
        self._uses[id(link)] = use
        if type(link).capacity_at is Link.capacity_at:
            # A stored value: read once here, again after a write.
            self._capacity[col] = link.capacity_at(self.engine.time)
            self._fresh_cols.append(col)
        else:
            self._capacity[col] = math.nan
            self._varying[col] = use
        return use

    def _row_for(self, name: str) -> int:
        row = self._link_row.get(name)
        if row is None:
            row = len(self._link_row) + 1  # after the dump row
            if row >= len(self._link_totals):
                grown = np.zeros(len(self._link_totals) * 2)
                grown[: len(self._link_totals)] = self._link_totals
                self._link_totals = grown
            self._link_row[name] = row
        return row

    def _append_pairs(self, slot: int, rows: List[int]) -> int:
        """Append ``(slot, row)`` pairs; returns the first one's index."""
        start = self._n_pairs
        end = start + len(rows)
        if end > len(self._pair_slots):
            size = max(end, 2 * len(self._pair_slots))
            for name in ("_pair_slots", "_pair_rows"):
                arr = np.zeros(size, dtype=np.intp)
                arr[:start] = getattr(self, name)[:start]
                setattr(self, name, arr)
        self._pair_slots[start:end] = slot
        self._pair_rows[start:end] = rows
        self._n_pairs = end
        return start

    def _retire_pairs(self, flow: Flow) -> None:
        """Point a leaving flow's pairs at the dump row; compact at half."""
        start = flow._pair_start
        count = len(flow._link_rows)
        self._pair_rows[start : start + count] = _DUMP_ROW
        self._retired_pairs += count
        if (
            self._retired_pairs < _COMPACT_MIN_PAIRS
            or 2 * self._retired_pairs < self._n_pairs
        ):
            return
        n = self._n_pairs
        keep = self._pair_rows[:n] != _DUMP_ROW
        live = int(np.count_nonzero(keep))
        self._pair_slots[:live] = self._pair_slots[:n][keep]
        self._pair_rows[:live] = self._pair_rows[:n][keep]
        # Live pairs stay in flow-list order, so the starts follow it.
        start = 0
        for other in self._flows:
            other._pair_start = start
            start += len(other._link_rows)
        self._n_pairs = live
        self._retired_pairs = 0

    def _register(self, flow: Flow) -> None:
        """Move the flow's state into the slot arrays and index its links."""
        slot = self._alloc_slot()
        self._arr_remaining[slot] = flow._remaining
        self._arr_rate[slot] = 0.0
        self._arr_eps[slot] = flow._eps
        self._slot_flow[slot] = flow
        flow._slot = slot
        flow._net = self
        flow._link_rows = [self._row_for(link.name) for link in flow.links]
        flow._pair_start = self._append_pairs(slot, flow._link_rows)
        now = self.engine.time
        uses = self._uses
        col_live = self._col_live
        for link in flow._alloc_links:
            use = uses.get(id(link))
            if use is None:
                use = self._new_use(link)
                flow._private_cols.append(use.col)
            else:
                col = use.col
                if col_live[col] == 1:
                    # The sole member stops having the link to itself.
                    owner = use.members[0]
                    owner._private_cols.remove(col)
                    owner._shared_cols.append(col)
                    self._shared[col] = None
                    self._rebound[owner] = None
                flow._shared_cols.append(col)
            use.members.append(flow)
            col_live[use.col] += 1
            self.engine.links.acquire(link, now)
        if len(flow._alloc_links) < len(flow.links):
            seen: Set[int] = set()
            for link in flow.links:
                col = uses[id(link)].col
                if col in seen:
                    flow._repeat_cols.append(col)
                seen.add(col)
            self._repeating[flow] = None
        self._flows.append(flow)
        self._rebound[flow] = None
        self._rates_dirty = True
        self._alloc_dirty = True

    def _unregister(self, flow: Flow) -> None:
        """Drop the flow from the network, its slot and its links."""
        self._flows.remove(flow)
        slot = flow._slot
        flow._remaining = float(self._arr_remaining[slot])
        flow._net = None
        self._arr_remaining[slot] = math.inf
        self._arr_rate[slot] = 0.0
        self._slot_flow[slot] = None
        self._free_slots.append(slot)
        flow._slot = -1
        self._retire_pairs(flow)
        self._left.append(flow)
        col_live = self._col_live
        for link in flow._alloc_links:
            use = self._uses[id(link)]
            col = use.col
            use.members.remove(flow)
            col_live[col] -= 1
            if col_live[col] == 1:
                # The last member left has the link to itself again.
                owner = use.members[0]
                owner._shared_cols.remove(col)
                owner._private_cols.append(col)
                del self._shared[col]
                self._rebound[owner] = None
            elif not col_live[col]:
                del self._uses[id(link)]
                self._varying.pop(col, None)
                self._free_cols.append(col)
            self.engine.links.release(link)
        if flow._repeat_cols:
            del self._repeating[flow]
        # The shared columns stay listed: the allocator's next update
        # re-checks the ones the flow left.
        flow._private_cols = []
        flow._repeat_cols = []
        self._rates_dirty = True
        self._alloc_dirty = True

    def _activate(self, flow: Flow) -> None:
        flow._pending = False
        if flow.is_done:
            return  # aborted while waiting to start
        flow.started_at = self.engine.time
        if flow._remaining <= flow._eps:
            # Zero-byte flow: complete instantly, still via the callback
            # path so schedulers see a uniform event sequence.
            self._finish(flow)
            return
        self._register(flow)

    def abort_flow(self, flow: Flow) -> None:
        """Cancel a flow; partial progress is kept in ``transferred_bytes``."""
        if flow.is_done:
            return
        flow.aborted_at = self.engine.time
        flow.current_rate_bps = 0.0
        if flow._net is self:
            self._unregister(flow)
        if flow.on_abort is not None:
            flow.on_abort(flow, self.engine.time)

    def schedule(
        self, delay: float, callback: Callable[[], None], label: str = ""
    ) -> ScheduledEvent:
        """Run ``callback`` after ``delay`` seconds of simulated time."""
        delay = check_non_negative("delay", delay)
        return self.engine.schedule_at(
            self.engine.time + delay, callback, label=label
        )

    def _finish(self, flow: Flow) -> None:
        if flow.is_done:
            # A completion callback earlier in the same sweep may have
            # aborted this flow (losing duplicate); do not also complete it.
            return
        flow.completed_at = self.engine.time
        flow.current_rate_bps = 0.0
        if flow._net is self:
            self._unregister(flow)
        flow._remaining = 0.0
        if flow.on_complete is not None:
            flow.on_complete(flow, self.engine.time)

    # ------------------------------------------------------------------
    # Rate allocation (event-driven water-filling)
    # ------------------------------------------------------------------
    def _recompute_rates(self) -> None:
        """Max-min fair rates for the active flows.

        A link column one live flow crosses alone acts on that flow like
        a rate cap, so each flow's rate cap and private columns fold into
        one *private bound*, their minimum (see :meth:`_water_fill`).

        Every call first notes the columns whose capacity differs from
        the one the last call saw. It reads every live link whose class
        overrides ``Link.capacity_at``, and every live link after a
        ``Link.set_capacity`` call anywhere (``Link.capacity_writes``
        moved); a stored-value link was read when its column was
        created, and that column counts as changed.
        While the last answer *left every shared column pruned* and its
        sorted bounds were *tie-free* (no two distinct bounds within a
        factor ``1 + _SHARE_EPSILON``), each flow's rate is its own
        bound, so the changes since then are applied to that answer
        (:meth:`_update_kept`) and the water-fill runs only when they
        break one of the two conditions. Otherwise the rates are a pure
        function of membership, rate caps and capacities: a call with
        the last one's membership and every capacity ``==`` to its value
        then keeps the last rates, and any other call water-fills.
        """
        self._rates_dirty = False
        changed = self._fresh_cols
        self._fresh_cols = []
        if not self._flows:
            # No flow: the empty answer is kept, with nothing to undo.
            self._keep([])
            return
        now = self.engine.time
        capacity = self._capacity
        if self._writes_seen == Link.capacity_writes:
            reads = self._varying.values()
        else:
            self._writes_seen = Link.capacity_writes
            reads = self._uses.values()
        for use in reads:
            cap = use.link.capacity_at(now)
            col = use.col
            if cap != capacity[col]:
                capacity[col] = cap
                changed.append(col)
        if self._kept_bounds is not None:
            if self._update_kept(self._kept_bounds, changed):
                self._alloc_dirty = False
                return
            self._alloc_dirty = True  # kept updates leave flows unnumbered
        elif not changed and not self._alloc_dirty:
            return
        self._water_fill()

    def _keep(self, kept_bounds: Optional[List[float]]) -> None:
        """Start a new change log after an answer (``None``: not kept)."""
        self._kept_bounds = kept_bounds
        self._rebound.clear()
        self._left.clear()

    def _update_kept(self, kept: List[float], changed: List[int]) -> bool:
        """Apply the changes since the last call to the kept answer.

        Departed flows' bounds leave the sorted ``kept`` list. Arrivals,
        owners that gained or lost a private column and owners of a
        private column whose capacity changed are re-bounded; a bound
        that changed moves in the list, where it must not lie within a
        factor ``1 + _SHARE_EPSILON`` of a distinct neighbour. Every
        shared column a change touched (a member arrived, left or
        changed its bound, or its capacity changed) must still be
        pruned by the water-fill's own test on the same ``sum`` of
        member bounds in member order. Then each flow whose bound
        changed gets the rate the water-fill's walk would give it.

        Returns ``False`` (and leaves the rates alone) when a check
        fails or a touched column is one a chain repeats: the caller
        then water-fills, which rebuilds the kept state.
        """
        capacity = self._capacity
        col_members = self._col_members
        rebound = self._rebound
        touched: List[int] = []
        for col in changed:
            members = col_members[col]
            if len(members) == 1:
                rebound[members[0]] = None
            else:
                touched.append(col)
        for flow in self._left:
            if not math.isnan(flow._bound):
                del kept[bisect_left(kept, flow._bound)]
            touched.extend(flow._shared_cols)
        self._left.clear()
        widen = 1 + _SHARE_EPSILON
        moved: List[Flow] = []
        for flow in rebound:
            if flow._net is not self:
                continue  # it left again since
            bound = flow._cap_bound
            for col in flow._private_cols:
                if capacity[col] < bound:
                    bound = capacity[col]
            old = flow._bound
            if bound == old:
                continue
            if not math.isnan(old):
                del kept[bisect_left(kept, old)]
            at = bisect_left(kept, bound)
            if at and not bound > kept[at - 1] * widen:
                return False  # a near-tie below
            if (
                at < len(kept)
                and kept[at] != bound
                and not kept[at] > bound * widen
            ):
                return False  # a near-tie above
            kept.insert(at, bound)
            flow._bound = bound
            moved.append(flow)
            touched.extend(flow._shared_cols)
        if touched:
            slack = 1 - _SLACK_MARGIN
            for col in set(touched):
                members = col_members[col]
                if len(members) < 2:
                    continue  # private again, or gone
                for flow in self._repeating:
                    if col in flow._repeat_cols:
                        return False
                need = sum([flow._bound for flow in members])
                if not need <= capacity[col] * slack:
                    return False  # it can bind
        arr_rate = self._arr_rate
        for flow in moved:
            bound = flow._bound
            rate = 0.0 if bound == math.inf else max(bound, 0.0)
            flow.current_rate_bps = rate
            arr_rate[flow._slot] = rate
        rebound.clear()
        return True

    def _water_fill(self) -> None:
        """Max-min fair rates for the active flows by progressive filling.

        Each flow's rate cap and private columns fold into its *private
        bound*: a column with one live member has share ``c / 1`` equal
        to ``c``, and only that flow's freeze changes it. The bounds
        never change during a call: they are sorted once and walked with
        a pointer. Only the *shared* columns (two or more live members)
        that can bind sit in a min-heap of ``(share, col)`` entries.

        A shared column *cannot bind* when its members' bounds (counted
        once per chain occurrence) sum to at most ``capacity * (1 -
        _SLACK_MARGIN)``: it is pruned, never enters the heap, and its
        ``rem``/``live``/``share`` bookkeeping is skipped. Every flow
        freezes at or below its bound (a round's bottleneck is at most
        the first unfrozen bound), so the pruned column's remainder
        stays at least the unfrozen members' bounds plus ``_SLACK_MARGIN
        * capacity``, and its share at least the smallest of those
        bounds plus ``_SLACK_MARGIN * capacity / live``. That clears any
        round's threshold ``bottleneck * (1 + _SHARE_EPSILON)`` by far
        more than the float error of thousands of clamped subtractions,
        so the reference never pops it either. (A zero-capacity column
        is pruned only when every member is bound at zero; those freeze
        at zero in the first round either way.)

        A round takes the smaller of the first unfrozen bound and the
        smallest valid shared share as the bottleneck, takes every bound
        and pops every valid entry within ``bottleneck * (1 +
        _SHARE_EPSILON)``, freezes their active flows at the bottleneck
        rate, subtracts that rate from the binding columns those flows
        cross and pushes only those columns' new shares. Entries a later
        change made stale are discarded when they surface: an entry is
        valid while its column has live members and its share is the
        current one. Once no valid entry is left (at the start when no
        shared column can bind, or after the last binding column is
        spent) no column can gain one again, and the remaining flows
        freeze in one walk over the sorted bounds, in the same threshold
        groups the rounds would take, each group at its first bound.

        The arithmetic is that of brute-force progressive filling: the same
        ``rem / live`` shares, threshold product and clamped subtraction
        ``max(0, rem - rate)`` on the same values. Every flow frozen in a
        round gets the same rate (no active cap lies below the bottleneck),
        so the order of the subtractions within a round cannot change a
        result, and the rates are bit-identical to the reference (see the
        property tests).

        When no shared column is left in the heap and the sorted bounds
        are tie-free, each group is one bound value and each flow's rate
        its own bound: the answer is kept for :meth:`_update_kept`.
        """
        if self._alloc_dirty:
            self._rebuild_alloc_caches()
        flows = self._flows
        capacity = self._capacity
        bounds: List[float] = []
        for flow in flows:
            bound = flow._cap_bound
            for col in flow._private_cols:
                if capacity[col] < bound:
                    bound = capacity[col]
            bounds.append(bound)
        n = len(flows)
        order = sorted(range(n), key=bounds.__getitem__)

        # What each shared column's members can take at most, counting
        # a member once per chain occurrence.
        col_members = self._col_members
        need = [0.0] * len(capacity)
        for col in self._shared:
            need[col] = sum([bounds[flow._pos] for flow in col_members[col]])
        for flow in self._repeating:
            for col in flow._repeat_cols:
                need[col] += bounds[flow._pos]

        live = self._col_live.copy()
        rem = capacity.copy()
        share = rem.copy()
        heap: List[Tuple[float, int]] = []
        slack = 1 - _SLACK_MARGIN
        for col in self._shared:
            if need[col] <= rem[col] * slack:
                live[col] = 0  # pruned: out of the water-fill
            else:
                share[col] = rem[col] / live[col]
                heap.append((share[col], col))
        heapq.heapify(heap)

        kept: Optional[List[float]] = None
        if not heap:
            ordered = [bounds[pos] for pos in order]
            widen = 1 + _SHARE_EPSILON
            if all(
                high == low or high > low * widen
                for low, high in zip(ordered, ordered[1:])
            ):
                kept = ordered
                for flow, bound in zip(flows, bounds):
                    flow._bound = bound
        self._keep(kept)

        heappop, heappush, heapreplace = (
            heapq.heappop, heapq.heappush, heapq.heapreplace
        )
        inf = math.inf
        rates = [0.0] * n
        frozen = [False] * n
        walk = 0
        n_active = n
        while n_active:
            # The first unfrozen bound and the smallest valid share.
            while walk < n and frozen[order[walk]]:
                walk += 1
            bottleneck = bounds[order[walk]] if walk < n else inf
            while heap:
                entry_share, col = heap[0]
                if live[col] and entry_share == share[col]:
                    if entry_share < bottleneck:
                        bottleneck = entry_share
                    break
                heappop(heap)
            if not heap:
                # No column can bind any more: the rest freeze at their
                # bounds, each threshold group at its first bound.
                threshold = -inf
                for pos in order[walk:]:
                    if frozen[pos]:
                        continue
                    bound = bounds[pos]
                    if bound > threshold:
                        if bound == inf:
                            break  # unconstrained: stays at rate zero
                        threshold = bound * (1 + _SHARE_EPSILON)
                        rate = max(bound, 0.0)
                    rates[pos] = rate
                break
            if bottleneck == inf:
                # No constraining link at all (all-frozen corner): active
                # flows stay at rate zero.
                break

            threshold = bottleneck * (1 + _SHARE_EPSILON)
            rate = max(bottleneck, 0.0)
            newly: List[int] = []
            while walk < n and bounds[order[walk]] <= threshold:
                pos = order[walk]
                walk += 1
                if not frozen[pos]:
                    frozen[pos] = True
                    newly.append(pos)
            while heap and heap[0][0] <= threshold:
                entry_share, col = heappop(heap)
                if live[col] and entry_share == share[col]:
                    for flow in col_members[col]:
                        pos = flow._pos
                        if not frozen[pos]:
                            frozen[pos] = True
                            newly.append(pos)
            n_active -= len(newly)
            for pos in newly:
                rates[pos] = rate
            if not n_active:
                break  # nothing left for the freed capacity to feed

            touched: Set[int] = set()
            for pos in newly:
                flow = flows[pos]
                for col in flow._shared_cols:
                    if live[col]:  # a pruned column counts no members
                        live[col] -= 1
                        reduced = rem[col] - rate
                        rem[col] = reduced if reduced > 0.0 else 0.0
                        touched.add(col)
                for col in flow._repeat_cols:
                    if col in touched:
                        reduced = rem[col] - rate
                        rem[col] = reduced if reduced > 0.0 else 0.0
            for col in touched:
                count = live[col]
                if count:
                    new_share = rem[col] / count
                    if new_share != share[col]:
                        # The column's valid entry at the top is replaced
                        # in place instead of surfacing later as stale.
                        if heap[0] == (share[col], col):
                            heapreplace(heap, (new_share, col))
                        else:
                            heappush(heap, (new_share, col))
                        share[col] = new_share

        arr_rate = self._arr_rate
        for flow, flow_rate in zip(flows, rates):
            flow.current_rate_bps = flow_rate
            arr_rate[flow._slot] = flow_rate

    def _rebuild_alloc_caches(self) -> None:
        """Number the flows for the water-fill after a membership change."""
        for pos, flow in enumerate(self._flows):
            flow._pos = pos
        self._alloc_dirty = False

    # ------------------------------------------------------------------
    # Boundaries and stepping
    # ------------------------------------------------------------------
    def _earliest_eta(self) -> float:
        """Earliest completion among flows currently moving bytes."""
        flows = self._flows
        if not flows:
            return math.inf
        now = self.engine.time
        if len(flows) >= VECTOR_MIN_FLOWS:
            # Free slots and live flows at rate zero give ``inf``.
            with np.errstate(divide="ignore"):
                waits = bytes_to_bits(self._arr_remaining) / self._arr_rate
            return now + float(waits.min())
        best = math.inf
        arr_rate = self._arr_rate
        arr_remaining = self._arr_remaining
        for flow in flows:
            slot = flow._slot
            rate = arr_rate[slot]
            if rate > 0.0:
                eta = now + bytes_to_bits(float(arr_remaining[slot])) / float(
                    rate
                )
                if eta < best:
                    best = eta
        return best

    def _flat(self) -> Tuple[NDArray[np.intp], NDArray[np.intp]]:
        """The (slot, link row) pairs, flow-major, chain order in a flow."""
        n = self._n_pairs
        return self._pair_slots[:n], self._pair_rows[:n]

    def _advance_transfer(self, until: float) -> None:
        now = self.engine.time
        dt = until - now
        if dt < 0.0:
            raise RuntimeError(f"time went backwards: {now} -> {until}")
        flows = self._flows
        if dt > 0.0 and flows:
            if len(flows) >= VECTOR_MIN_FLOWS:
                # Whole slot arrays: a free slot moves nothing.
                slots, rows = self._flat()
                remaining = self._arr_remaining
                moved = np.minimum(
                    remaining, bits_to_bytes(self._arr_rate * dt)
                )
                remaining -= moved
                # In-order accumulation (flow-major, chain order within a
                # flow): np.add.at applies elementwise in index order, so
                # the float sums match the scalar loop bit for bit.
                # Retired pairs add into the dump row.
                np.add.at(self._link_totals, rows, moved[slots])
            else:
                arr_rate = self._arr_rate
                arr_remaining = self._arr_remaining
                totals = self._link_totals
                for flow in flows:
                    slot = flow._slot
                    remaining_f = float(arr_remaining[slot])
                    moved_f = min(
                        remaining_f, bits_to_bytes(float(arr_rate[slot]) * dt)
                    )
                    arr_remaining[slot] = remaining_f - moved_f
                    for row in flow._link_rows:
                        totals[row] += moved_f
        self.engine.advance_clock(until)

    def _sweep_completions(self) -> None:
        """Finish every flow whose residual dropped below its epsilon.

        Completions run strictly before timers at the same instant: a
        scheduler reacting to a completion may cancel a timer.
        """
        flows = self._flows
        if not flows:
            return
        arr_remaining = self._arr_remaining
        arr_eps = self._arr_eps
        done: List[Flow] = []
        if len(flows) >= VECTOR_MIN_FLOWS:
            slot_flow = self._slot_flow
            for slot in (arr_remaining <= arr_eps).nonzero()[0].tolist():
                flow = slot_flow[slot]
                assert flow is not None  # a free slot's remaining is inf
                done.append(flow)
        else:
            for flow in flows:
                slot = flow._slot
                if arr_remaining[slot] <= arr_eps[slot]:
                    done.append(flow)
        if not done:
            return
        if len(done) > 1:
            done.sort(key=lambda f: f.flow_id)
        for flow in done:
            self._finish(flow)

    def step(self, max_time: float = math.inf) -> bool:
        """Advance to the next event (bounded by ``max_time``).

        Returns ``True`` if anything can still happen, ``False`` when the
        simulation has drained (no flows, no timers) — including when the
        clock stopped at ``max_time`` with nothing left to do.
        """
        if self._rates_dirty:
            self._recompute_rates()
        boundary = self.engine.next_boundary()
        if max_time < boundary:
            boundary = max_time
        if math.isinf(boundary):
            return False
        self._advance_transfer(boundary)
        self._sweep_completions()
        self.engine.run_due_timers()
        self._rates_dirty = True
        return bool(self._flows) or self.engine.has_timers()

    def advance_to(self, target_time: float) -> float:
        """Advance the clock to ``target_time``, processing whatever occurs.

        Unlike :meth:`run`, this also moves the clock across idle periods
        (no flows, no timers) — what a day-scale scenario needs between a
        household's transactions.
        """
        if target_time < self.engine.time:
            raise ValueError(
                f"cannot advance backwards: {self.engine.time} -> "
                f"{target_time}"
            )
        self.run(until=target_time)
        if self.engine.time < target_time:
            self.engine.advance_clock(target_time)
        return self.engine.time

    def run(self, until: float = math.inf, max_steps: int = 10_000_000) -> float:
        """Run until drained or ``until``; returns the final time.

        Unlike :meth:`step`, a drained network does not advance the clock
        to ``until`` here — :meth:`advance_to` handles idle-period skips.
        """
        engine = self.engine
        for _ in range(max_steps):
            if not self._flows and not engine.has_timers():
                break
            if engine.time >= until:
                break
            if self._rates_dirty:
                self._recompute_rates()
            boundary = engine.next_boundary()
            if until < boundary:
                boundary = until
            if math.isinf(boundary):
                break
            self._advance_transfer(boundary)
            self._sweep_completions()
            engine.run_due_timers()
            self._rates_dirty = True
        else:
            raise RuntimeError("simulation exceeded max_steps; runaway loop?")
        return self.engine.time
