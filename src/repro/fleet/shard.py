"""Shard workers: vectorized per-round household dynamics for one shard.

A shard owns every household whose cell sector lands on it under
round-robin sector partitioning (``sector % n_shards == shard``), so
sector capacity is always shard-local; DSLAM backhauls and the permit
server span shards and are resolved by the dispatcher's per-round
exchange (``docs/FLEET.md``).

Every function here is **pure over its inputs**: shard state travels in
and out of worker processes explicitly, the shard's population slice is
recomputed from the seed (and cached per process), and all
cross-household sums are integer bytes — which is what makes the merged
report byte-identical at any ``--jobs`` and any shard count.

Each round runs three legs per shard (the bounded fixed-point
exchange):

1. :func:`offer` — absorb the round's arrivals, estimate the ADSL
   service from the *previous* round's realized DSLAM allocation
   factor, and offer the uncovered spill to the 3G leg (bounded by the
   household ceiling and the remaining daily cap).
2. :func:`settle_onload` — apply the dispatcher's onload verdict
   (grants, sector pools), meter caps, and report the DSLAM demand
   that *remains* after onload relief.
3. :func:`finish_round` — allocate the shared DSLAM backhaul
   proportionally from the global totals, drain backlogs, and account
   waste: onloaded bytes whose ADSL line share went unused (the §6
   critique — cap bytes burned while the fixed line had headroom).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Tuple

import numpy as np
from numpy.typing import NDArray

from repro.fleet.population import (
    FleetParameters,
    Population,
    sample_population,
)

__all__ = [
    "AdslVerdict",
    "Offers",
    "OnloadVerdict",
    "RoundAggregates",
    "ShardFinal",
    "ShardPopulation",
    "ShardState",
    "cached_population",
    "dslam_sums",
    "finish_round",
    "initial_state",
    "offer",
    "sector_sums",
    "settle_onload",
    "shard_final",
    "shard_population",
]

#: Onload policies. ``adsl-only`` is the no-onload baseline; the other
#: two are the paper's §6 (device-side caps only) and §7/§2.4
#: (network-integrated permit backend) architectures.
POLICIES = ("adsl-only", "multi-provider", "network-integrated")


@dataclass(frozen=True, eq=False)
class ShardPopulation:
    """One shard's slice of the city, laid out for the round legs.

    Rows are households stably ordered by (sector, DSLAM), so each
    sector is one contiguous block of rows and each (sector, DSLAM)
    group one contiguous *run*: group sums are ``np.add.reduceat`` over
    the block or run starts (:func:`sector_sums`, :func:`dslam_sums`).
    Demand is round-major: row ``r`` holds round ``r``'s arrivals
    contiguously.

    A slice pickles as its key (parameters, shard count, shard) and is
    rebuilt from the receiving process's cache
    (:func:`shard_population`), so a pool worker is never sent the
    arrays.
    """

    population: Population = field(repr=False)
    n_shards: int
    shard: int
    #: Global household ids of this shard's rows.
    household_ids: NDArray[np.int64] = field(repr=False)
    dslam_of: NDArray[np.int64] = field(repr=False)
    sector_of: NDArray[np.int64] = field(repr=False)
    #: (n_rounds, size) integer bytes requested per round.
    demand: NDArray[np.int64] = field(repr=False)
    #: Per-round total of ``demand``.
    round_arrivals: NDArray[np.int64] = field(repr=False)
    #: First row of each sector's block, and the block's sector.
    sector_starts: NDArray[np.intp] = field(repr=False)
    sector_keys: NDArray[np.int64] = field(repr=False)
    #: First row of each (sector, DSLAM) run, and the run's DSLAM.
    run_starts: NDArray[np.intp] = field(repr=False)
    run_dslam: NDArray[np.int64] = field(repr=False)
    #: Per-row 3G ceiling by adoption fraction, filled on first use.
    _ceilings: Dict[float, NDArray[np.int64]] = field(
        default_factory=dict, init=False, repr=False
    )

    @property
    def params(self) -> FleetParameters:
        """The city's parameters."""
        return self.population.params

    @property
    def size(self) -> int:
        """Households in this shard."""
        return int(self.household_ids.shape[0])

    def onload_ceiling(self, adoption: float) -> NDArray[np.int64]:
        """Per-row 3G bytes a round may onload: the home ceiling for
        adopters at ``adoption``, zero for everyone else.

        Cached on this slice by the adoption value, so a day computes it
        once, not once per round.
        """
        ceiling = self._ceilings.get(adoption)
        if ceiling is None:
            adopters = self.population.adopters(adoption)[self.household_ids]
            ceiling = np.where(adopters, self.params.home_round_bytes, 0)
            self._ceilings[adoption] = ceiling
        return ceiling

    def __reduce__(self) -> Tuple[Any, Tuple[FleetParameters, int, int]]:
        return shard_population, (self.params, self.n_shards, self.shard)


@dataclass
class ShardState:
    """Per-household dynamic state that travels between worker calls."""

    #: Bytes requested but not yet delivered.
    backlog: NDArray[np.int64]
    #: Daily onload cap already consumed.
    cap_used: NDArray[np.int64]
    #: Pending round: ADSL bytes the household wants this round.
    pending_want: NDArray[np.int64]
    #: Pending round: 3G bytes offered for onload this round.
    pending_spill: NDArray[np.int64]
    #: Pending round: 3G bytes actually granted this round.
    pending_serve3g: NDArray[np.int64]
    #: Day accumulators (integer bytes / byte-rounds).
    served_adsl: NDArray[np.int64]
    served_3g: NDArray[np.int64]
    waste: NDArray[np.int64]
    backlog_integral: NDArray[np.int64]
    #: Households whose cap ran dry at some round this day.
    cap_exhausted: NDArray[np.bool_]


@dataclass(frozen=True)
class Offers:
    """Leg-1 aggregates a shard sends the dispatcher (integer bytes)."""

    shard: int
    #: Per-DSLAM ADSL demand before onload relief (full-length array).
    dslam_want: NDArray[np.int64] = field(repr=False)
    #: Per-sector offered spill bytes.
    sector_spill: NDArray[np.int64] = field(repr=False)
    #: Per-sector requesting-household counts (permit-server load).
    sector_requests: NDArray[np.int64] = field(repr=False)


@dataclass(frozen=True)
class OnloadVerdict:
    """Leg-2 input: the dispatcher's global onload decision for a round."""

    #: False for the adsl-only baseline: no 3G leg at all.
    enabled: bool
    #: Per-sector: permit granted this round (always True for
    #: multi-provider — there is no network gate to deny).
    sector_granted: NDArray[np.bool_] = field(repr=False)
    #: Per-sector free-capacity pool, integer bytes.
    sector_pool: NDArray[np.int64] = field(repr=False)
    #: Per-sector global offered spill (the proportional-share divisor).
    sector_spill_total: NDArray[np.int64] = field(repr=False)


@dataclass(frozen=True)
class OnloadResult:
    """Leg-2 aggregates: relieved DSLAM demand plus sector service."""

    shard: int
    #: Per-DSLAM ADSL demand after onload relief (the real divisor).
    dslam_want: NDArray[np.int64] = field(repr=False)
    #: Per-sector 3G bytes served to this shard's households.
    sector_served: NDArray[np.int64] = field(repr=False)
    #: Households whose cap ran dry this round.
    cap_exhaustions: int = 0


@dataclass(frozen=True)
class AdslVerdict:
    """Leg-3 input: global per-DSLAM relieved demand totals."""

    dslam_want_total: NDArray[np.int64] = field(repr=False)


@dataclass(frozen=True)
class RoundAggregates:
    """Leg-3 output: one shard's integer round totals for the merge."""

    shard: int
    arrivals_bytes: int
    adsl_bytes: int
    onload_bytes: int
    waste_bytes: int
    backlog_bytes: int


@dataclass(frozen=True)
class ShardFinal:
    """End-of-day per-household accumulators, keyed by household id."""

    shard: int
    household_ids: NDArray[np.int64] = field(repr=False)
    served_adsl: NDArray[np.int64] = field(repr=False)
    served_3g: NDArray[np.int64] = field(repr=False)
    waste: NDArray[np.int64] = field(repr=False)
    backlog_integral: NDArray[np.int64] = field(repr=False)
    backlog: NDArray[np.int64] = field(repr=False)
    cap_used: NDArray[np.int64] = field(repr=False)
    cap_exhausted: NDArray[np.bool_] = field(repr=False)


#: Per-process caches, keyed by value: the city per parameter set, and
#: its slices per (parameter set, partition, shard). Only one city is
#: kept, and its slices go with it. With a fork-context pool, workers
#: inherit whatever the dispatcher process had cached.
_POPULATION_CACHE: Dict[FleetParameters, Population] = {}
_SHARD_CACHE: Dict[Tuple[FleetParameters, int, int], ShardPopulation] = {}


def cached_population(params: FleetParameters) -> Population:
    """The city of ``params``, sampled at most once per process."""
    cached = _POPULATION_CACHE.get(params)
    if cached is None:
        cached = sample_population(params)
        _POPULATION_CACHE.clear()
        _SHARD_CACHE.clear()
        _POPULATION_CACHE[params] = cached
    return cached


def shard_population(
    params: FleetParameters, n_shards: int, shard: int
) -> ShardPopulation:
    """This shard's population slice (process-cached, seed-derived)."""
    key = (params, n_shards, shard)
    cached = _SHARD_CACHE.get(key)
    if cached is None:
        cached = _slice(cached_population(params), n_shards, shard)
        if len(_SHARD_CACHE) > 64:
            _SHARD_CACHE.clear()
        _SHARD_CACHE[key] = cached
    return cached


def _slice(
    population: Population, n_shards: int, shard: int
) -> ShardPopulation:
    params = population.params
    ids = np.flatnonzero(population.sector_of % n_shards == shard)
    group = (
        population.sector_of[ids] * params.n_dslams
        + population.dslam_of[ids]
    )
    order = np.argsort(group, kind="stable")
    ids = ids[order].astype(np.int64)
    group = group[order]
    sector_of = population.sector_of[ids]
    dslam_of = population.dslam_of[ids]
    # A block starts wherever its key changes, and at row 0.
    sector_starts = np.flatnonzero(np.diff(sector_of, prepend=-1))
    run_starts = np.flatnonzero(np.diff(group, prepend=-1))
    demand = np.ascontiguousarray(population.demand[ids].T)
    return ShardPopulation(
        population=population,
        n_shards=n_shards,
        shard=shard,
        household_ids=ids,
        dslam_of=dslam_of,
        sector_of=sector_of,
        demand=demand,
        round_arrivals=demand.sum(axis=1),
        sector_starts=sector_starts,
        sector_keys=sector_of[sector_starts],
        run_starts=run_starts,
        run_dslam=dslam_of[run_starts],
    )


def sector_sums(
    pop: ShardPopulation, values: NDArray[Any]
) -> NDArray[np.int64]:
    """Exact int64 sums of per-row ``values`` by cell sector.

    Rows are sector-major, so each sector is one contiguous block.
    Integer arithmetic throughout (``np.bincount`` with weights would
    sum in float64): exact sums are what keep merged totals identical
    at any partitioning.
    """
    out = np.zeros(pop.params.n_sectors, dtype=np.int64)
    if pop.size:  # an empty shard has nothing to sum
        out[pop.sector_keys] = np.add.reduceat(
            values, pop.sector_starts, dtype=np.int64
        )
    return out


def dslam_sums(
    pop: ShardPopulation, values: NDArray[Any]
) -> NDArray[np.int64]:
    """Exact int64 sums of per-row ``values`` by DSLAM: a sum over each
    (sector, DSLAM) run, folded into the run's DSLAM."""
    out = np.zeros(pop.params.n_dslams, dtype=np.int64)
    if pop.size:
        runs = np.add.reduceat(values, pop.run_starts, dtype=np.int64)
        np.add.at(out, pop.run_dslam, runs)
    return out


def initial_state(pop: ShardPopulation) -> ShardState:
    """Fresh day-start state for ``pop``."""
    n = pop.size

    def zeros() -> NDArray[np.int64]:
        return np.zeros(n, dtype=np.int64)

    return ShardState(
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
    state: ShardState,
    round_index: int,
    adoption: float,
    onload_enabled: bool,
    est_factor: NDArray[np.float64],
) -> Offers:
    """Leg 1: absorb arrivals and offer spill to the 3G leg.

    ``est_factor`` is the previous round's realized per-DSLAM
    allocation factor (global floats derived from integer totals): the
    household modem's only view of backhaul contention. Overestimating
    the contention onloads bytes the line could have carried — that
    shows up later as waste, not as an extra exchange iteration.
    """
    params = pop.params
    line = params.line_round_bytes
    backlog = state.backlog
    backlog += pop.demand[round_index]
    np.minimum(backlog, line, out=state.pending_want)

    spill = state.pending_spill
    if onload_enabled:
        est_adsl = (line * est_factor).astype(np.int64)[pop.dslam_of]
        # spill = min(backlog - est_adsl, ceiling, cap left), floored at
        # 0; the ceiling is 0 for non-adopters.
        np.subtract(params.daily_cap_bytes, state.cap_used, out=spill)
        np.minimum(spill, pop.onload_ceiling(adoption), out=spill)
        np.subtract(backlog, est_adsl, out=est_adsl)
        np.minimum(spill, est_adsl, out=spill)
        np.maximum(spill, 0, out=spill)
        sector_spill = sector_sums(pop, spill)
        sector_requests = sector_sums(pop, spill > 0)
    else:
        spill.fill(0)
        sector_spill = np.zeros(params.n_sectors, dtype=np.int64)
        sector_requests = np.zeros(params.n_sectors, dtype=np.int64)
    return Offers(
        shard=pop.shard,
        dslam_want=dslam_sums(pop, state.pending_want),
        sector_spill=sector_spill,
        sector_requests=sector_requests,
    )


def settle_onload(
    pop: ShardPopulation,
    state: ShardState,
    verdict: OnloadVerdict,
) -> OnloadResult:
    """Leg 2: apply the onload verdict, meter caps, relieve DSLAM demand."""
    params = pop.params
    serve3g = state.pending_serve3g
    cap_exhaustions = 0
    if verdict.enabled and pop.size > 0:
        # Per sector: nothing unless granted; all of the spill when the
        # sector's total fits its free pool; else the floor-rounded
        # proportional share spill * pool // total. Integer arithmetic,
        # so the share depends only on (own spill, global totals) —
        # partition invariant by construction.
        total = verdict.sector_spill_total
        pool = verdict.sector_pool
        fits = total <= pool
        numerator = np.where(
            verdict.sector_granted, np.where(fits, 1, pool), 0
        )
        denominator = np.where(fits, 1, np.maximum(total, 1))
        np.multiply(
            state.pending_spill, numerator[pop.sector_of], out=serve3g
        )
        serve3g //= denominator[pop.sector_of]

        cap = params.daily_cap_bytes
        had_left = state.cap_used < cap
        state.cap_used += serve3g
        newly_dry = had_left & (state.cap_used >= cap)
        cap_exhaustions = int(np.count_nonzero(newly_dry))
        state.cap_exhausted |= newly_dry
    else:
        serve3g.fill(0)

    # The DSLAM only carries what the 3G leg did not: relieved demand.
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
    state: ShardState,
    round_index: int,
    verdict: AdslVerdict,
) -> RoundAggregates:
    """Leg 3: allocate the DSLAM backhaul, drain backlogs, count waste."""
    params = pop.params
    arrivals = int(pop.round_arrivals[round_index])
    if pop.size == 0:
        return RoundAggregates(
            shard=pop.shard,
            arrivals_bytes=arrivals,
            adsl_bytes=0,
            onload_bytes=0,
            waste_bytes=0,
            backlog_bytes=0,
        )
    want = state.pending_want
    backlog = state.backlog
    serve3g = state.pending_serve3g
    capacity = params.dslam_round_bytes
    total = verdict.dslam_want_total[pop.dslam_of]
    uncongested = total <= capacity
    adsl = want * capacity
    adsl //= np.maximum(total, 1, out=total)
    np.copyto(adsl, want, where=uncongested)

    # Waste: onloaded bytes whose ADSL line share went unused. The line
    # share actually available was min(line, what the DSLAM factor
    # would have granted the full want) — conservatively approximated
    # by the granted adsl plus the headroom up to the line rate when
    # the DSLAM was uncongested (a congested DSLAM leaves none).
    unused = np.minimum(backlog, params.line_round_bytes)
    unused -= adsl
    np.maximum(unused, 0, out=unused)
    unused *= uncongested
    waste = np.minimum(serve3g, unused, out=unused)

    delivered = adsl + serve3g
    np.minimum(backlog, delivered, out=delivered)
    backlog -= delivered

    state.served_adsl += adsl
    state.served_3g += serve3g
    state.waste += waste
    state.backlog_integral += backlog

    return RoundAggregates(
        shard=pop.shard,
        arrivals_bytes=arrivals,
        adsl_bytes=int(adsl.sum()),
        onload_bytes=int(serve3g.sum()),
        waste_bytes=int(waste.sum()),
        backlog_bytes=int(backlog.sum()),
    )


def shard_final(pop: ShardPopulation, state: ShardState) -> ShardFinal:
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
