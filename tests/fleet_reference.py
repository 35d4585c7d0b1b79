"""Dense reference shard legs (test-only oracle).

The production legs in :mod:`repro.fleet.shard` touch only the rows a
formula can change: the onload-eligible rows in ``offer``, the
requesters in ``settle_onload`` and the rows with ADSL demand in
``finish_round``. These are the straightforward versions they replaced:
every formula runs over every row of the shard, so a skipped row in
production must come out exactly as it does here.
"""

from dataclasses import dataclass
from typing import Any

import numpy as np
from numpy.typing import NDArray

from repro.fleet.shard import (
    AdslVerdict,
    Offers,
    OnloadResult,
    OnloadVerdict,
    RoundAggregates,
    ShardFinal,
    ShardPopulation,
    dslam_sums,
)


def sector_sums(
    pop: ShardPopulation, values: NDArray[Any]
) -> NDArray[np.int64]:
    """Exact int64 sums of per-row ``values`` by cell sector."""
    out = np.zeros(pop.params.n_sectors, dtype=np.int64)
    np.add.at(out, pop.sector_of, values.astype(np.int64))
    return out


@dataclass
class DenseState:
    """Every per-household array at full shard width."""

    ceiling: NDArray[np.int64]
    backlog: NDArray[np.int64]
    cap_used: NDArray[np.int64]
    pending_want: NDArray[np.int64]
    pending_spill: NDArray[np.int64]
    pending_serve3g: NDArray[np.int64]
    served_adsl: NDArray[np.int64]
    served_3g: NDArray[np.int64]
    waste: NDArray[np.int64]
    backlog_integral: NDArray[np.int64]
    cap_exhausted: NDArray[np.bool_]


def initial_state(pop: ShardPopulation, adoption: float) -> DenseState:
    """Day-start state; the 3G ceiling is 0 for non-adopters."""
    n = pop.size
    adopters = pop.population.adopters(adoption)[pop.household_ids]

    def zeros() -> NDArray[np.int64]:
        return np.zeros(n, dtype=np.int64)

    return DenseState(
        ceiling=np.where(adopters, pop.params.home_round_bytes, 0),
        backlog=zeros(),
        cap_used=zeros(),
        pending_want=zeros(),
        pending_spill=zeros(),
        pending_serve3g=zeros(),
        served_adsl=zeros(),
        served_3g=zeros(),
        waste=zeros(),
        backlog_integral=zeros(),
        cap_exhausted=np.zeros(n, dtype=np.bool_),
    )


def offer(
    pop: ShardPopulation,
    state: DenseState,
    round_index: int,
    onload_enabled: bool,
    est_factor: NDArray[np.float64],
) -> Offers:
    """Leg 1 over every row."""
    params = pop.params
    line = params.line_round_bytes
    backlog = state.backlog
    backlog += pop.demand[round_index]
    np.minimum(backlog, line, out=state.pending_want)

    spill = state.pending_spill
    if onload_enabled:
        est_adsl = (line * est_factor).astype(np.int64)[pop.dslam_of]
        # spill = min(backlog - est_adsl, ceiling, cap left), floored
        # at 0.
        np.subtract(params.daily_cap_bytes, state.cap_used, out=spill)
        np.minimum(spill, state.ceiling, out=spill)
        np.subtract(backlog, est_adsl, out=est_adsl)
        np.minimum(spill, est_adsl, out=spill)
        np.maximum(spill, 0, out=spill)
    else:
        spill.fill(0)
    return Offers(
        shard=pop.shard,
        dslam_want=dslam_sums(pop, state.pending_want),
        sector_spill=sector_sums(pop, spill),
        sector_requests=sector_sums(pop, spill > 0),
    )


def settle_onload(
    pop: ShardPopulation, state: DenseState, verdict: OnloadVerdict
) -> OnloadResult:
    """Leg 2 over every row."""
    params = pop.params
    serve3g = state.pending_serve3g
    cap_exhaustions = 0
    if verdict.enabled and pop.size > 0:
        total = verdict.sector_spill_total
        pool = verdict.sector_pool
        fits = total <= pool
        numerator = np.where(
            verdict.sector_granted, np.where(fits, 1, pool), 0
        )
        denominator = np.where(fits, 1, np.maximum(total, 1))
        # Python ints: the product can pass 2**63.
        serve3g[:] = (
            state.pending_spill.astype(object)
            * numerator[pop.sector_of]
            // denominator[pop.sector_of]
        )

        cap = params.daily_cap_bytes
        had_left = state.cap_used < cap
        state.cap_used += serve3g
        newly_dry = had_left & (state.cap_used >= cap)
        cap_exhaustions = int(np.count_nonzero(newly_dry))
        state.cap_exhausted |= newly_dry
    else:
        serve3g.fill(0)

    relieved = state.backlog - serve3g
    np.maximum(relieved, 0, out=relieved)
    np.minimum(state.pending_want, relieved, out=state.pending_want)
    return OnloadResult(
        shard=pop.shard,
        dslam_want=dslam_sums(pop, state.pending_want),
        sector_served=sector_sums(pop, serve3g),
        cap_exhaustions=cap_exhaustions,
    )


def finish_round(
    pop: ShardPopulation,
    state: DenseState,
    round_index: int,
    verdict: AdslVerdict,
) -> RoundAggregates:
    """Leg 3 over every row."""
    params = pop.params
    want = state.pending_want
    backlog = state.backlog
    serve3g = state.pending_serve3g
    capacity = params.dslam_round_bytes
    total = verdict.dslam_want_total[pop.dslam_of]
    uncongested = total <= capacity
    # Python ints: the product can pass 2**63.
    adsl = want.astype(object) * capacity // np.maximum(total, 1)
    adsl = adsl.astype(np.int64)
    np.copyto(adsl, want, where=uncongested)

    unused = np.minimum(backlog, params.line_round_bytes)
    unused -= adsl
    np.maximum(unused, 0, out=unused)
    unused *= uncongested
    waste = np.minimum(serve3g, unused)

    delivered = adsl + serve3g
    np.minimum(backlog, delivered, out=delivered)
    backlog -= delivered

    state.served_adsl += adsl
    state.served_3g += serve3g
    state.waste += waste
    state.backlog_integral += backlog
    return RoundAggregates(
        shard=pop.shard,
        arrivals_bytes=int(pop.round_arrivals[round_index]),
        adsl_bytes=int(adsl.sum()),
        onload_bytes=int(serve3g.sum()),
        waste_bytes=int(waste.sum()),
        backlog_bytes=int(backlog.sum()),
    )


def shard_final(pop: ShardPopulation, state: DenseState) -> ShardFinal:
    """End-of-day accumulators, keyed by global household id."""
    return ShardFinal(
        shard=pop.shard,
        household_ids=pop.household_ids,
        served_adsl=state.served_adsl,
        served_3g=state.served_3g,
        waste=state.waste,
        backlog_integral=state.backlog_integral,
        backlog=state.backlog,
        cap_used=state.cap_used,
        cap_exhausted=state.cap_exhausted,
    )
