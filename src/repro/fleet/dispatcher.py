"""The fleet dispatcher: engine-clocked rounds, verdicts, merge.

The dispatcher owns the only :class:`~repro.netsim.engine.SimulationEngine`
in a fleet run. It schedules one timer per simulation round; each timer
drives the three-leg exchange with the shard workers
(:mod:`repro.fleet.shard`), computes the global verdicts in between —
the onload verdict (sector pools, permit-server admission) and the ADSL
verdict (relieved per-DSLAM demand totals) — and folds every shard's
integer aggregates into the run's round ledger. The legs run
in-process, shard after shard, and the merge consumes only integer
aggregates and id-indexed arrays, so the outcome is byte-identical at
any shard count (``docs/FLEET.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np
from numpy.typing import NDArray

from repro.fleet.population import FleetParameters
from repro.fleet.shard import (
    POLICIES,
    AdslVerdict,
    OnloadVerdict,
    cached_population,
    finish_round,
    initial_state,
    offer,
    settle_onload,
    shard_final,
    shard_population,
)
from repro.netsim.diurnal import MOBILE_PROFILE
from repro.netsim.engine import SimulationEngine
from repro.obs.capture import current as obs_current

__all__ = [
    "DEFAULT_SHARDS",
    "FleetOutcome",
    "PolicyRun",
    "run_city",
    "run_policy",
]

#: Default shard count. Every leg pays numpy call overhead once per
#: shard, so one shard is fastest; other counts prove the partition
#: invariance of the merge.
DEFAULT_SHARDS = 1

#: Permit-denial reasons (labels on ``fleet.permit_denials``).
DENY_CAPACITY = "capacity"
DENY_THRESHOLD = "threshold"


@dataclass(frozen=True)
class PolicyRun:
    """One policy's merged day: round ledger plus per-household finals."""

    policy: str
    adoption: float
    n_shards: int
    #: Round ledger (integer bytes, one entry per round).
    round_arrivals: Tuple[int, ...]
    round_adsl: Tuple[int, ...]
    round_onload: Tuple[int, ...]
    round_waste: Tuple[int, ...]
    round_backlog: Tuple[int, ...]
    #: Per-household finals, indexed by global household id.
    served_adsl: NDArray[np.int64] = field(repr=False)
    served_3g: NDArray[np.int64] = field(repr=False)
    waste: NDArray[np.int64] = field(repr=False)
    backlog_integral: NDArray[np.int64] = field(repr=False)
    backlog: NDArray[np.int64] = field(repr=False)
    cap_used: NDArray[np.int64] = field(repr=False)
    cap_exhausted: NDArray[np.bool_] = field(repr=False)
    #: (n_rounds, n_sectors) utilization incl. onload service.
    sector_util: NDArray[np.float64] = field(repr=False)
    #: Permit-server ledger (household-request granularity).
    permit_requests: int = 0
    permit_grants: int = 0
    permit_denials: Dict[str, int] = field(default_factory=dict)
    cap_exhaustions: int = 0

    @property
    def congested_sector_rounds(self) -> int:
        """Sector-rounds at or above full sector capacity."""
        return int(np.count_nonzero(self.sector_util >= 1.0))

    @property
    def total_adsl_bytes(self) -> int:
        """Day total delivered over ADSL."""
        return int(sum(self.round_adsl))

    @property
    def total_onload_bytes(self) -> int:
        """Day total delivered over 3G."""
        return int(sum(self.round_onload))

    @property
    def total_waste_bytes(self) -> int:
        """Day total of onloaded bytes the fixed line could have carried."""
        return int(sum(self.round_waste))


@dataclass(frozen=True)
class FleetOutcome:
    """One city day: the baseline plus every onload policy at one
    adoption fraction, all merged deterministically."""

    params: FleetParameters
    adoption: float
    runs: Dict[str, PolicyRun]

    @property
    def baseline(self) -> PolicyRun:
        """The adsl-only run the speedups are measured against."""
        return self.runs["adsl-only"]


class _Exchange:
    """Runs a leg across every shard, in shard order."""

    def __init__(self, params: FleetParameters, n_shards: int) -> None:
        self.pops = [
            shard_population(params, n_shards, shard)
            for shard in range(n_shards)
        ]

    def map(
        self, fn: Callable[..., Any], per_shard_args: Sequence[Tuple[Any, ...]]
    ) -> List[Any]:
        """``fn(pop, *args)`` per shard population slice, in shard order."""
        return [
            fn(pop, *args) for pop, args in zip(self.pops, per_shard_args)
        ]


def _background_bytes(
    params: FleetParameters,
    sector_peak_util: NDArray[np.float64],
    round_index: int,
) -> NDArray[np.int64]:
    """Per-sector background (non-onload) load this round, integer bytes.

    Each sector's diurnal curve is its peak utilization scaled by the
    mobile profile at the round's midpoint — downtown sectors stay
    busier than residential ones all day.
    """
    midpoint_s = (round_index + 0.5) * params.round_s
    shape = MOBILE_PROFILE.value_at(midpoint_s)
    load = sector_peak_util * shape * params.cell_round_bytes
    return load.astype(np.int64)


def _onload_verdict(
    params: FleetParameters,
    policy: str,
    round_index: int,
    background: NDArray[np.int64],
    sector_spill: NDArray[np.int64],
    sector_requests: NDArray[np.int64],
    ledger: Dict[str, int],
) -> OnloadVerdict:
    """The dispatcher's global onload decision for one round.

    ``multi-provider`` (§6) has no network gate: every sector grants,
    and the pool is whatever physical capacity the background load left
    — sectors can congest all the way to utilization 1.0.

    ``network-integrated`` (§7) adds the §2.4 permit server: admission
    is sector-granularity under the server's per-round signalling
    capacity (rotating start, so no sector is structurally starved),
    and admitted sectors are capped at the acceptance threshold.
    Denials are monotone within the round — a denied sector stays
    denied — so one pass is the fixed point's bound.
    """
    n_sectors = params.n_sectors
    if policy == "multi-provider":
        pool = np.maximum(params.cell_round_bytes - background, 0)
        return OnloadVerdict(
            enabled=True,
            sector_granted=np.ones(n_sectors, dtype=np.bool_),
            sector_pool=pool.astype(np.int64),
            sector_spill_total=sector_spill,
        )

    # network-integrated: permit-server admission + threshold gate.
    granted = np.zeros(n_sectors, dtype=np.bool_)
    pool = np.zeros(n_sectors, dtype=np.int64)
    threshold_bytes = int(
        params.acceptance_threshold * params.cell_round_bytes
    )
    capacity = params.permit_capacity
    admitted_requests = 0
    start = round_index % n_sectors
    for step in range(n_sectors):
        sector = (start + step) % n_sectors
        requests = int(sector_requests[sector])
        if requests == 0:
            continue
        ledger["requests"] += requests
        if admitted_requests + requests > capacity:
            ledger[DENY_CAPACITY] += requests
            continue
        admitted_requests += requests
        headroom = threshold_bytes - int(background[sector])
        if headroom <= 0:
            ledger[DENY_THRESHOLD] += requests
            continue
        granted[sector] = True
        pool[sector] = headroom
        ledger["grants"] += requests
    return OnloadVerdict(
        enabled=True,
        sector_granted=granted,
        sector_pool=pool,
        sector_spill_total=sector_spill,
    )


def run_policy(
    params: FleetParameters,
    policy: str,
    adoption: float,
    n_shards: int = DEFAULT_SHARDS,
) -> PolicyRun:
    """Simulate one policy's city day and merge the shards.

    The round loop runs on a :class:`SimulationEngine`: one timer per
    round at the round's start time, advanced boundary by boundary, so
    fleet trace events carry real engine clock times.
    """
    if policy not in POLICIES:
        raise ValueError(
            f"unknown policy {policy!r}; expected one of {POLICIES}"
        )
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    if not 0.0 <= adoption <= 1.0:
        raise ValueError(f"adoption must be in [0, 1], got {adoption}")
    population = cached_population(params)
    n_shards = min(n_shards, params.n_sectors)
    onload_enabled = policy != "adsl-only"
    obs = obs_current()

    exchange = _Exchange(params, n_shards)
    states = [initial_state(pop, adoption) for pop in exchange.pops]

    n_rounds = params.n_rounds
    n_sectors = params.n_sectors
    est_factor = np.ones(params.n_dslams, dtype=np.float64)
    round_arrivals: List[int] = []
    round_adsl: List[int] = []
    round_onload: List[int] = []
    round_waste: List[int] = []
    round_backlog: List[int] = []
    sector_util = np.zeros((n_rounds, n_sectors), dtype=np.float64)
    permit_ledger: Dict[str, int] = {
        "requests": 0,
        "grants": 0,
        DENY_CAPACITY: 0,
        DENY_THRESHOLD: 0,
    }
    cap_exhaustions = 0

    def run_round(round_index: int, now: float) -> None:
        nonlocal cap_exhaustions
        # Leg A: arrivals + offers.
        offers = exchange.map(
            offer,
            [
                (state, round_index, onload_enabled, est_factor)
                for state in states
            ],
        )
        sector_spill = np.zeros(n_sectors, dtype=np.int64)
        sector_requests = np.zeros(n_sectors, dtype=np.int64)
        for shard_offers in offers:
            sector_spill += shard_offers.sector_spill
            sector_requests += shard_offers.sector_requests

        # Dispatcher verdict: onload pools + permit admission.
        background = _background_bytes(
            params, population.sector_peak_util, round_index
        )
        if onload_enabled:
            verdict = _onload_verdict(
                params,
                policy,
                round_index,
                background,
                sector_spill,
                sector_requests,
                permit_ledger,
            )
        else:
            empty = np.zeros(n_sectors, dtype=np.int64)
            verdict = OnloadVerdict(
                enabled=False,
                sector_granted=np.zeros(n_sectors, dtype=np.bool_),
                sector_pool=empty,
                sector_spill_total=empty,
            )

        # Leg B: settle onload grants, meter caps, relieve DSLAMs.
        settled = exchange.map(
            settle_onload, [(state, verdict) for state in states]
        )
        dslam_want = np.zeros(params.n_dslams, dtype=np.int64)
        sector_served = np.zeros(n_sectors, dtype=np.int64)
        for result in settled:
            dslam_want += result.dslam_want
            sector_served += result.sector_served
            cap_exhaustions += result.cap_exhaustions

        # Leg C: allocate the DSLAM backhaul from global totals.
        adsl_verdict = AdslVerdict(dslam_want_total=dslam_want)
        finished = exchange.map(
            finish_round,
            [(state, round_index, adsl_verdict) for state in states],
        )
        arrivals = adsl = onload = waste = backlog = 0
        for aggregates in finished:
            arrivals += aggregates.arrivals_bytes
            adsl += aggregates.adsl_bytes
            onload += aggregates.onload_bytes
            waste += aggregates.waste_bytes
            backlog += aggregates.backlog_bytes
        round_arrivals.append(arrivals)
        round_adsl.append(adsl)
        round_onload.append(onload)
        round_waste.append(waste)
        round_backlog.append(backlog)

        # Next round's contention estimate: realized allocation
        # factor per DSLAM, derived from global integer totals.
        est_factor[:] = np.minimum(
            params.dslam_round_bytes
            / np.maximum(dslam_want, 1).astype(np.float64),
            1.0,
        )
        sector_util[round_index] = (background + sector_served) / float(
            params.cell_round_bytes
        )

        if obs is not None:
            obs.event(
                "fleet.round",
                time=now,
                policy=policy,
                round=round_index,
                adsl_bytes=adsl,
                onload_bytes=onload,
                backlog_bytes=backlog,
            )
            obs.count("fleet.demand_bytes", arrivals, policy=policy)
            obs.count("fleet.adsl_bytes", adsl, policy=policy)
            obs.count("fleet.onload_bytes", onload, policy=policy)
            obs.count("fleet.waste_bytes", waste, policy=policy)
            obs.gauge("fleet.backlog_bytes", backlog, policy=policy)

    engine = SimulationEngine()
    for round_index in range(n_rounds):
        when = round_index * params.round_s

        def callback(index: int = round_index, at: float = when) -> None:
            run_round(index, at)

        engine.schedule_at(when, callback, label=f"fleet-round-{round_index}")
    while engine.has_timers():
        engine.advance_clock(engine.next_boundary())
        engine.run_due_timers()

    finals = [
        shard_final(pop, state) for pop, state in zip(exchange.pops, states)
    ]

    n = params.n_households
    served_adsl = np.zeros(n, dtype=np.int64)
    served_3g = np.zeros(n, dtype=np.int64)
    waste_arr = np.zeros(n, dtype=np.int64)
    backlog_integral = np.zeros(n, dtype=np.int64)
    backlog_arr = np.zeros(n, dtype=np.int64)
    cap_used = np.zeros(n, dtype=np.int64)
    cap_exhausted = np.zeros(n, dtype=np.bool_)
    for final in finals:
        ids = final.household_ids
        served_adsl[ids] = final.served_adsl
        served_3g[ids] = final.served_3g
        waste_arr[ids] = final.waste
        backlog_integral[ids] = final.backlog_integral
        backlog_arr[ids] = final.backlog
        cap_used[ids] = final.cap_used
        cap_exhausted[ids] = final.cap_exhausted

    run = PolicyRun(
        policy=policy,
        adoption=adoption,
        n_shards=n_shards,
        round_arrivals=tuple(round_arrivals),
        round_adsl=tuple(round_adsl),
        round_onload=tuple(round_onload),
        round_waste=tuple(round_waste),
        round_backlog=tuple(round_backlog),
        served_adsl=served_adsl,
        served_3g=served_3g,
        waste=waste_arr,
        backlog_integral=backlog_integral,
        backlog=backlog_arr,
        cap_used=cap_used,
        cap_exhausted=cap_exhausted,
        sector_util=sector_util,
        permit_requests=permit_ledger["requests"],
        permit_grants=permit_ledger["grants"],
        permit_denials={
            DENY_CAPACITY: permit_ledger[DENY_CAPACITY],
            DENY_THRESHOLD: permit_ledger[DENY_THRESHOLD],
        },
        cap_exhaustions=cap_exhaustions,
    )
    if obs is not None:
        obs.count(
            "fleet.cap_exhaustions", run.cap_exhaustions, policy=policy
        )
        obs.count(
            "fleet.permit_requests", run.permit_requests, policy=policy
        )
        obs.count("fleet.permit_grants", run.permit_grants, policy=policy)
        for reason, count in sorted(run.permit_denials.items()):
            obs.count(
                "fleet.permit_denials",
                count,
                policy=policy,
                reason=reason,
            )
        obs.count(
            "fleet.congested_sector_rounds",
            run.congested_sector_rounds,
            policy=policy,
        )
    return run


def run_city(
    params: FleetParameters,
    adoption: float = 0.25,
    n_shards: int = DEFAULT_SHARDS,
) -> FleetOutcome:
    """The full comparison: baseline plus both onload policies."""
    runs: Dict[str, PolicyRun] = {}
    for policy in POLICIES:
        runs[policy] = run_policy(params, policy, adoption, n_shards)
    return FleetOutcome(params=params, adoption=adoption, runs=runs)
