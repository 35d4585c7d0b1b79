"""Link models for the fluid simulator.

A link is anything that constrains the aggregate rate of the flows crossing
it: an ADSL line direction, the Wi-Fi LAN, an HSDPA shared channel, a cell
backhaul or an origin server's NIC. Links expose two queries the fluid
stepper needs:

* ``capacity_at(t)`` — capacity in bits/second at simulation time ``t``;
* ``next_change_after(t)`` — the earliest time strictly after ``t`` at
  which the capacity may change (``inf`` for a fixed link), so the stepper
  never integrates across a capacity discontinuity.
"""

from __future__ import annotations

import bisect
import math
from typing import Callable, Iterable, Optional, Sequence, Tuple

from repro.netsim.stochastic import CapacityProcess, next_grid_time
from repro.util.validate import check_non_negative

#: Sentinel returned by ``next_change_after`` for links that never change.
TIME_INFINITY = math.inf


class Link:
    """A link with fixed capacity.

    ``capacity_bps`` may be zero to model a dead path (flows on it make no
    progress and the caller is expected to time them out).
    """

    #: ``set_capacity`` calls on any link so far, process-wide. A class
    #: that keeps :meth:`capacity_at` returns the stored value, which only
    #: ``set_capacity`` changes, so a reader that saw this count unchanged
    #: knows every such link still has the capacity it read last.
    capacity_writes = 0

    def __init__(self, name: str, capacity_bps: float) -> None:
        if not name:
            raise ValueError("link name must be non-empty")
        self.name = name
        self._capacity_bps = check_non_negative("capacity_bps", capacity_bps)

    def capacity_at(self, time: float) -> float:
        """Capacity in bits/second at ``time``."""
        return self._capacity_bps

    def next_change_after(self, time: float) -> float:
        """Next time the capacity may change (``inf``: it never does)."""
        return TIME_INFINITY

    def set_capacity(self, capacity_bps: float) -> None:
        """Update the fixed capacity.

        The call counts in :attr:`Link.capacity_writes`. A
        :class:`~repro.netsim.fluid.FluidNetwork` reads a stored-value
        link's capacity once, when the link's allocator column is
        created; seeing the count move, its next rate allocation (every
        step begins with one) reads every live link again.
        """
        self._capacity_bps = check_non_negative("capacity_bps", capacity_bps)
        Link.capacity_writes += 1

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, {self._capacity_bps:.4g} bps)"


class PiecewiseLink(Link):
    """A link whose capacity follows an explicit piecewise-constant profile.

    ``profile`` is a sequence of ``(start_time, capacity_bps)`` pairs sorted
    by start time; the first segment is extended backwards to ``-inf`` and
    the last forwards to ``+inf``. Used for scripted scenarios (e.g. a cell
    whose free capacity follows a diurnal curve sampled hourly).
    """

    def __init__(
        self, name: str, profile: Sequence[Tuple[float, float]]
    ) -> None:
        if not profile:
            raise ValueError("profile must contain at least one segment")
        starts = [float(start) for start, _ in profile]
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError("profile start times must be strictly increasing")
        capacities = [
            check_non_negative(f"profile[{i}] capacity", cap)
            for i, (_, cap) in enumerate(profile)
        ]
        super().__init__(name, capacities[0])
        self._starts = starts
        self._capacities = capacities

    def _segment_index(self, time: float) -> int:
        # bisect_right returns the insertion point; segment i covers
        # [starts[i], starts[i+1]).
        index = bisect.bisect_right(self._starts, time) - 1
        return max(index, 0)

    def capacity_at(self, time: float) -> float:
        return self._capacities[self._segment_index(time)]

    def next_change_after(self, time: float) -> float:
        index = bisect.bisect_right(self._starts, time)
        if index >= len(self._starts):
            return TIME_INFINITY
        return self._starts[index]


class StochasticLink(Link):
    """A link whose capacity is ``base * process.factor_at(t)``.

    ``base_bps`` is the nominal capacity and ``process`` a
    :class:`repro.netsim.stochastic.CapacityProcess` supplying a
    deterministic, seeded multiplicative factor per interval. An optional
    ``modulation`` callable (e.g. a diurnal free-capacity curve) is applied
    on top, letting one link combine slow scripted variation with fast
    stochastic variation.
    """

    def __init__(
        self,
        name: str,
        base_bps: float,
        process: CapacityProcess,
        modulation: Optional[Callable[[float], float]] = None,
        modulation_interval: float = 300.0,
    ) -> None:
        super().__init__(name, base_bps)
        self.base_bps = check_non_negative("base_bps", base_bps)
        self.process = process
        self.modulation = modulation
        self.modulation_interval = check_non_negative(
            "modulation_interval", modulation_interval
        )
        # Single-slot memo keyed on the exact query time: within one
        # simulation step every consumer (allocator, chain estimators)
        # asks at the same clock value. NaN never compares equal, so the
        # slot starts invalid.
        self._memo_time = math.nan
        self._memo_capacity = 0.0

    def capacity_at(self, time: float) -> float:
        # Exact == is the point: the memo is keyed on the precise clock
        # value consumers share within a step, not a tolerance window.
        if time == self._memo_time:  # repro-lint: disable=RL005
            return self._memo_capacity
        capacity = self.base_bps * self.process.factor_at(time)
        if self.modulation is not None:
            capacity *= max(0.0, float(self.modulation(time)))
        self._memo_time = time
        self._memo_capacity = capacity
        return capacity

    def next_change_after(self, time: float) -> float:
        next_change = self.process.next_change_after(time)
        if self.modulation is not None and self.modulation_interval > 0.0:
            next_change = min(
                next_change, next_grid_time(time, self.modulation_interval)
            )
        return next_change


def validate_chain(links: Iterable[object]) -> Tuple["Link", ...]:
    """Validate and freeze a link chain; chains must be non-empty."""
    chain = tuple(links)
    if not chain:
        raise ValueError("a path must traverse at least one link")
    for link in chain:
        if not isinstance(link, Link):
            raise TypeError(f"not a Link: {link!r}")
    return chain
