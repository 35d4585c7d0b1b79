"""Shard workers: vectorized per-round household dynamics for one shard.

A shard owns every household whose cell sector lands on it under
round-robin sector partitioning (``sector % n_shards == shard``), so
sector capacity is always shard-local; DSLAM backhauls and the permit
server span shards and are resolved by the dispatcher's per-round
exchange (``docs/FLEET.md``).

Every leg reads only its shard's population slice (derived from the
seed and cached per process) and mutates only its shard's state, and
all cross-household sums are integer bytes — which is what makes the
merged report byte-identical at any shard count.

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

Settle and finish work on the rows their formulas can change: a mean
third of households have a backlog in a round, and about one in a
hundred offers 3G spill. Every skipped row would compute 0 and keep
its state, so skipping it is exact (``docs/FLEET.md``, "Active
rows").
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
    "settle_onload",
    "shard_final",
    "shard_population",
]

#: Onload policies. ``adsl-only`` is the no-onload baseline; the other
#: two are the paper's §6 (device-side caps only) and §7/§2.4
#: (network-integrated permit backend) architectures.
POLICIES = ("adsl-only", "multi-provider", "network-integrated")

#: Empty compact arrays: no rows, no bytes. Read-only, so sharing them
#: between states is safe.
_NO_ROWS: NDArray[np.intp] = np.zeros(0, dtype=np.intp)
_NO_BYTES: NDArray[np.int64] = np.zeros(0, dtype=np.int64)
_NO_ROWS.flags.writeable = False
_NO_BYTES.flags.writeable = False


@dataclass(frozen=True, eq=False)
class ShardPopulation:
    """One shard's slice of the city, laid out for the round legs.

    Rows are the shard's households in ascending id order. A DSLAM is
    a contiguous block of ids, so each DSLAM's rows are one contiguous
    *run*: per-DSLAM sums are ``np.add.reduceat`` over the run starts
    (:func:`dslam_sums`). Demand is round-major: row ``r`` holds round
    ``r``'s arrivals contiguously. A slice that holds every household
    shares the city's read-only demand matrix.
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
    #: First row of each DSLAM's run, the run's DSLAM (ascending) and
    #: its row count.
    run_starts: NDArray[np.intp] = field(repr=False)
    run_dslam: NDArray[np.int64] = field(repr=False)
    run_lengths: NDArray[np.intp] = field(repr=False)

    @property
    def params(self) -> FleetParameters:
        """The city's parameters."""
        return self.population.params

    @property
    def size(self) -> int:
        """Households in this shard."""
        return int(self.household_ids.shape[0])


@dataclass
class ShardState:
    """Per-household dynamic state, mutated in place by the legs.

    Dense arrays hold one entry per row. The pending onload arrays are
    compact: entry ``k`` belongs to row ``pending_requesters[k]``.
    """

    #: Bytes requested but not yet delivered.
    backlog: NDArray[np.int64]
    #: Daily onload cap already consumed.
    cap_used: NDArray[np.int64]
    #: Row mask of those that may still onload: adopters (3G ceiling
    #: above 0) whose daily cap has not run dry.
    eligible: NDArray[np.bool_]
    #: Pending round: ADSL bytes the household wants this round.
    pending_want: NDArray[np.int64]
    #: Pending round: per-DSLAM ``pending_want`` sums as offered,
    #: before onload relief.
    pending_dslam_want: NDArray[np.int64]
    #: Pending round: rows offering spill this round, ascending.
    pending_requesters: NDArray[np.intp]
    #: Pending round: 3G bytes each requester offered for onload.
    pending_spill: NDArray[np.int64]
    #: Pending round: 3G bytes each requester was granted.
    pending_serve3g: NDArray[np.int64]
    #: Day accumulators (integer bytes / byte-rounds). ADSL service is
    #: not accumulated: :func:`shard_final` derives it from the
    #: conservation identity.
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
#: kept, and its slices go with it.
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
    ids = np.flatnonzero(population.sector_of % n_shards == shard)
    ids = ids.astype(np.int64, copy=False)
    dslam_of = population.dslam_of[ids]
    # Ids ascend, so DSLAMs do: a run starts wherever the DSLAM
    # changes, and at row 0.
    run_starts = np.flatnonzero(np.diff(dslam_of, prepend=-1))
    if ids.size == population.params.n_households:
        demand = population.demand
    else:
        demand = np.take(population.demand, ids, axis=1)
    return ShardPopulation(
        population=population,
        n_shards=n_shards,
        shard=shard,
        household_ids=ids,
        dslam_of=dslam_of,
        sector_of=population.sector_of[ids],
        demand=demand,
        round_arrivals=demand.sum(axis=1),
        run_starts=run_starts,
        run_dslam=dslam_of[run_starts],
        run_lengths=np.diff(run_starts, append=ids.size),
    )


def dslam_sums(
    pop: ShardPopulation, values: NDArray[Any]
) -> NDArray[np.int64]:
    """Exact int64 sums of per-row ``values`` by DSLAM: one sum per
    run, each DSLAM's only one."""
    out = np.zeros(pop.params.n_dslams, dtype=np.int64)
    if pop.size:
        out[pop.run_dslam] = np.add.reduceat(
            values, pop.run_starts, dtype=np.int64
        )
    return out


def _group_sums(
    groups: NDArray[np.int64], values: Any, size: int
) -> NDArray[np.int64]:
    """Exact int64 sums of compact ``values`` by their ``groups``.

    For the few rows that onload in a round (under 1% of a city on
    average): a scatter-add over those rows costs less than a pass over
    the shard.
    """
    out = np.zeros(size, dtype=np.int64)
    if groups.size:
        np.add.at(out, groups, values)
    return out


def _floor_share(
    want: NDArray[np.int64], capacity: Any, total: NDArray[np.int64]
) -> NDArray[np.int64]:
    """Exact ``want * capacity // total`` for ``0 <= want <= total``.

    ``capacity`` is a non-negative int or int64 array. The product can
    pass 2**63 (1-hour rounds on a fast backhaul), so it is never
    formed as a quotient's numerator. A float estimate lands within 1
    of the quotient; the remainder ``want * capacity - q * total`` is
    then exact modulo 2**64 and lies in [-total, 2 * total), so one
    step either way corrects the estimate.
    """
    share = (want * (capacity / total)).astype(np.int64)
    rest = want * capacity
    rest -= share * total
    share -= rest < 0
    share += rest >= total
    return share


def initial_state(pop: ShardPopulation, adoption: float) -> ShardState:
    """Fresh day-start state for ``pop`` at ``adoption``.

    Every adopter starts onload-eligible, unless a zero 3G ceiling or a
    zero daily cap leaves no room to onload at all.
    """
    params = pop.params
    n = pop.size
    eligible = np.zeros(n, dtype=np.bool_)
    if params.home_round_bytes > 0 and params.daily_cap_bytes > 0:
        eligible = pop.population.adopters(adoption)[pop.household_ids]

    def zeros() -> NDArray[np.int64]:
        return np.zeros(n, dtype=np.int64)

    return ShardState(
        backlog=zeros(),
        cap_used=zeros(),
        eligible=eligible,
        pending_want=zeros(),
        pending_dslam_want=np.zeros(params.n_dslams, dtype=np.int64),
        pending_requesters=_NO_ROWS,
        pending_spill=_NO_BYTES,
        pending_serve3g=_NO_BYTES,
        served_3g=zeros(),
        waste=zeros(),
        backlog_integral=zeros(),
        cap_exhausted=np.zeros(n, dtype=np.bool_),
    )


def offer(
    pop: ShardPopulation,
    state: ShardState,
    round_index: int,
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
    state.pending_dslam_want = dslam_sums(pop, state.pending_want)

    # spill = min(backlog - est_adsl, 3G ceiling, cap left), kept where
    # positive. Only eligible rows can have any: every other row has a
    # zero ceiling or no cap left, and an eligible row's ceiling and
    # cap left are positive.
    rows = _NO_ROWS
    spill = _NO_BYTES
    if onload_enabled:
        est_adsl = np.repeat(
            (line * est_factor).astype(np.int64)[pop.run_dslam],
            pop.run_lengths,
        )
        asking = backlog > est_adsl
        asking &= state.eligible
        rows = asking.nonzero()[0]
        spill = backlog[rows] - est_adsl[rows]
        np.minimum(spill, params.home_round_bytes, out=spill)
        np.minimum(
            spill, params.daily_cap_bytes - state.cap_used[rows], out=spill
        )
    state.pending_requesters = rows
    state.pending_spill = spill
    sectors = pop.sector_of[rows]
    n_sectors = params.n_sectors
    return Offers(
        shard=pop.shard,
        dslam_want=state.pending_dslam_want,
        sector_spill=_group_sums(sectors, spill, n_sectors),
        sector_requests=_group_sums(sectors, 1, n_sectors),
    )


def settle_onload(
    pop: ShardPopulation,
    state: ShardState,
    verdict: OnloadVerdict,
) -> OnloadResult:
    """Leg 2: apply the onload verdict, meter caps, relieve DSLAM demand.

    Only requesters take part: a row that offered no spill is served
    nothing, so its cap, its want and its DSLAM's demand stay put.
    """
    params = pop.params
    rows = state.pending_requesters
    dslam_want = state.pending_dslam_want
    cap_exhaustions = 0
    if verdict.enabled and rows.size:
        # Per sector: nothing unless granted; all of the spill when the
        # sector's total fits its free pool; else the floor-rounded
        # proportional share spill * pool // total. Integer arithmetic,
        # so the share depends only on (own spill, global totals) —
        # partition invariant by construction. Capping the pool at the
        # total makes the fitting share spill * total // total. A
        # requester's sector total includes its own spill, so it is at
        # least 1.
        total = verdict.sector_spill_total
        pool = np.where(
            verdict.sector_granted, np.minimum(verdict.sector_pool, total), 0
        )
        sectors = pop.sector_of[rows]
        serve3g = _floor_share(
            state.pending_spill, pool[sectors], total[sectors]
        )

        # A requester had cap left (its spill fits in it), so it runs
        # dry this round iff it reaches the cap now, and then leaves
        # the eligible set.
        cap_used = state.cap_used[rows] + serve3g
        state.cap_used[rows] = cap_used
        dry = rows[cap_used >= params.daily_cap_bytes]
        cap_exhaustions = int(dry.size)
        state.cap_exhausted[dry] = True
        state.eligible[dry] = False

        # The DSLAM only carries what the 3G leg did not: relieved
        # demand (serve3g <= spill <= backlog, so it is not negative).
        # Totals are the offered ones minus the exact relief.
        want = state.pending_want[rows]
        relieved = state.backlog[rows] - serve3g
        np.minimum(want, relieved, out=relieved)
        state.pending_want[rows] = relieved
        want -= relieved
        dslam_want = np.subtract(
            dslam_want, _group_sums(pop.dslam_of[rows], want, params.n_dslams)
        )
        sector_served = _group_sums(sectors, serve3g, params.n_sectors)
    else:
        serve3g = np.zeros(rows.size, dtype=np.int64)
        sector_served = np.zeros(params.n_sectors, dtype=np.int64)
    state.pending_serve3g = serve3g
    return OnloadResult(
        shard=pop.shard,
        dslam_want=dslam_want,
        sector_served=sector_served,
        cap_exhaustions=cap_exhaustions,
    )


def finish_round(
    pop: ShardPopulation,
    state: ShardState,
    round_index: int,
    verdict: AdslVerdict,
) -> RoundAggregates:
    """Leg 3: allocate the DSLAM backhaul, drain backlogs, count waste.

    The allocation runs over the active rows (ADSL want above 0) only:
    any other row is allocated nothing. Waste runs over the requesters,
    the only rows served over 3G.
    """
    params = pop.params
    backlog = state.backlog
    capacity = params.dslam_round_bytes
    dslam_total = verdict.dslam_want_total
    active = (state.pending_want > 0).nonzero()[0]
    want = state.pending_want[active]
    # An uncongested DSLAM grants the whole want, a congested one the
    # proportional share. An active row's total includes its own want,
    # so it is at least 1.
    total = dslam_total[pop.dslam_of[active]]
    adsl = _floor_share(want, capacity, total)
    np.copyto(adsl, want, where=total <= capacity)

    # Waste: onloaded bytes whose ADSL line share went unused. The line
    # share actually available was min(line, what the DSLAM factor
    # would have granted the full want) — conservatively approximated
    # by the granted adsl plus the headroom up to the line rate when
    # the DSLAM was uncongested (a congested DSLAM leaves none). An
    # uncongested DSLAM grants a row its whole want.
    rows = state.pending_requesters
    serve3g = state.pending_serve3g
    waste = _NO_BYTES
    if rows.size:
        waste = np.minimum(backlog[rows], params.line_round_bytes)
        waste -= state.pending_want[rows]
        np.maximum(waste, 0, out=waste)
        waste *= dslam_total[pop.dslam_of[rows]] <= capacity
        np.minimum(waste, serve3g, out=waste)
        backlog[rows] -= serve3g
        state.served_3g[rows] += serve3g
        state.waste[rows] += waste

    # Delivery never exceeds the backlog: adsl <= want, and settle left
    # want <= backlog - serve3g.
    backlog[active] -= adsl
    state.backlog_integral += backlog

    return RoundAggregates(
        shard=pop.shard,
        arrivals_bytes=int(pop.round_arrivals[round_index]),
        adsl_bytes=int(adsl.sum()),
        onload_bytes=int(serve3g.sum()),
        waste_bytes=int(waste.sum()),
        backlog_bytes=int(backlog.sum()),
    )


def shard_final(pop: ShardPopulation, state: ShardState) -> ShardFinal:
    """End-of-day accumulators, keyed by global household id.

    Every byte a household requested was served over ADSL, served over
    3G, or is still queued, so its ADSL total is the exact remainder.
    """
    served_adsl = pop.demand.sum(axis=0)
    served_adsl -= state.served_3g
    served_adsl -= state.backlog
    return ShardFinal(
        shard=pop.shard,
        household_ids=pop.household_ids,
        served_adsl=served_adsl,
        served_3g=state.served_3g,
        waste=state.waste,
        backlog_integral=state.backlog_integral,
        backlog=state.backlog,
        cap_used=state.cap_used,
        cap_exhausted=state.cap_exhausted,
    )
