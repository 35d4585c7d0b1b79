"""Brute-force max-min reference allocator (test-only oracle).

The fluid stepper's event-driven allocator
(:meth:`repro.netsim.fluid.FluidNetwork._recompute_rates`) must give
bit-identical rates to this textbook progressive filling, which rebuilds
link membership from scratch and rescans every constraint each round.
"""

import math
from typing import Dict, Sequence

from repro.netsim.fluid import _SHARE_EPSILON, Flow
from repro.netsim.link import Link


def max_min_allocation(
    flows: Sequence[Flow], time: float
) -> Dict[Flow, float]:
    """Progressive-filling (water-filling) max-min fair rate allocation.

    Per-flow rate caps are honoured by treating each cap as a virtual
    single-flow link. Links with zero capacity freeze their flows at rate
    zero (the flows stay active but make no progress).
    """
    rates: Dict[Flow, float] = {}
    remaining_capacity: Dict[Link, float] = {}
    link_members: Dict[Link, set] = {}
    for flow in flows:
        for link in flow.links:
            if link not in remaining_capacity:
                remaining_capacity[link] = link.capacity_at(time)
                link_members[link] = set()
            link_members[link].add(flow)

    active_set = set(flows)
    while active_set:
        # Fair share offered by each constraint still in play.
        bottleneck_share = math.inf
        for link, members in link_members.items():
            live = members & active_set
            if not live:
                continue
            share = remaining_capacity[link] / len(live)
            bottleneck_share = min(bottleneck_share, share)
        for flow in active_set:
            if flow.rate_cap_bps is not None:
                bottleneck_share = min(bottleneck_share, flow.rate_cap_bps)
        if bottleneck_share is math.inf:
            # No constraining link at all; should not happen because chains
            # are non-empty, but guard against an all-frozen corner.
            for flow in active_set:
                rates[flow] = 0.0
            break

        # Freeze every flow pinned at the bottleneck share: flows whose own
        # cap equals it, plus all flows on saturated links.
        frozen = set()
        for flow in active_set:
            cap = flow.rate_cap_bps
            if cap is not None and cap <= bottleneck_share * (1 + _SHARE_EPSILON):
                frozen.add(flow)
        for link, members in link_members.items():
            live = members & active_set
            if not live:
                continue
            share = remaining_capacity[link] / len(live)
            if share <= bottleneck_share * (1 + _SHARE_EPSILON) or (
                share == 0.0 and bottleneck_share == 0.0
            ):
                frozen.update(live)
        if not frozen:
            # Numerical corner: freeze everything at the share to guarantee
            # termination.
            frozen = set(active_set)

        # Deterministic order (flow id) so capacity subtraction is a pure
        # function of the inputs, not of set iteration order.
        for flow in sorted(frozen, key=lambda f: f.flow_id):
            rate = bottleneck_share
            if flow.rate_cap_bps is not None:
                rate = min(rate, flow.rate_cap_bps)
            rates[flow] = max(rate, 0.0)
            for link in flow.links:
                remaining_capacity[link] = max(
                    0.0, remaining_capacity[link] - rates[flow]
                )
        active_set -= frozen
    return rates
