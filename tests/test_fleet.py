"""Fleet-scale city simulation: sampling, merge determinism, CLI.

The headline contract under test is the deterministic merge
(docs/FLEET.md): the merged city-day result is byte-identical at any
shard count, pinned golden-digest style the way the trace goldens pin
the engine.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import ext_fleet
from repro.fleet import shard as fleet_shard
from repro.fleet.cli import main as fleet_main
from repro.fleet.dispatcher import (
    DENY_CAPACITY,
    DENY_THRESHOLD,
    PolicyRun,
    _background_bytes,
    _onload_verdict,
    run_city,
    run_policy,
)
from repro.fleet.population import FleetParameters, sample_population
from repro.fleet.report import FleetReport
from repro.fleet.shard import (
    AdslVerdict,
    OnloadVerdict,
    dslam_sums,
    shard_population,
)
from repro.util.units import mbps
from tests import fleet_reference as dense

#: Small-but-contended city: 16 Mbps backhaul over 128-household
#: DSLAMs (24x oversubscription, the paper's §2.1 regime) so onload,
#: cap exhaustion and permit traffic all actually happen at test size.
TEST_KW = dict(
    n_households=600,
    households_per_dslam=128,
    households_per_sector=75,
)


def _params(**overrides):
    merged = {
        **TEST_KW,
        "dslam_backhaul_bps": mbps(16.0),
        **overrides,
    }
    return FleetParameters(**merged)


#: Examples for the fleet property tests: 60 in tier-1, or the loaded
#: hypothesis profile's count when it is above the default's
#: (``--hypothesis-profile deep``, registered in ``tests/conftest.py``).
_LOADED_EXAMPLES = settings().max_examples
FLEET_EXAMPLES = (
    _LOADED_EXAMPLES
    if _LOADED_EXAMPLES > settings.get_profile("default").max_examples
    else 60
)


class TestPopulation:
    def test_same_seed_identical(self):
        a = sample_population(_params(seed=7))
        b = sample_population(_params(seed=7))
        assert np.array_equal(a.demand, b.demand)
        assert np.array_equal(a.dslam_of, b.dslam_of)
        assert np.array_equal(a.sector_of, b.sector_of)
        assert np.array_equal(a.adoption_rank, b.adoption_rank)
        assert np.array_equal(a.sector_peak_util, b.sector_peak_util)

    def test_different_seed_differs(self):
        a = sample_population(_params(seed=7))
        b = sample_population(_params(seed=8))
        assert not np.array_equal(a.demand, b.demand)

    def test_attachments_and_demand_well_formed(self):
        params = _params()
        pop = sample_population(params)
        assert pop.demand.dtype == np.int64
        assert pop.demand.min() >= 0
        assert pop.demand.shape == (params.n_rounds, params.n_households)
        assert pop.dslam_of.min() >= 0
        assert pop.dslam_of.max() < params.n_dslams
        assert pop.sector_of.min() >= 0
        assert pop.sector_of.max() < params.n_sectors

    def test_adopters_monotone_in_fraction(self):
        """adoption=0.25 households are a strict subset of 0.5's."""
        pop = sample_population(_params())
        quarter = pop.adopters(0.25)
        half = pop.adopters(0.5)
        everyone = pop.adopters(1.0)
        assert int(quarter.sum()) == round(0.25 * len(quarter))
        assert not (quarter & ~half).any()
        assert everyone.all()

    def test_city_is_read_only_and_one_shard_shares_it(self):
        params = _params()
        population = fleet_shard.cached_population(params)
        for f in dataclasses.fields(population):
            array = getattr(population, f.name)
            if isinstance(array, np.ndarray):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0
        one = shard_population(params, 1, 0)
        assert np.shares_memory(one.demand, population.demand)
        for shard in range(8):
            eighth = shard_population(params, 8, shard)
            assert not np.shares_memory(eighth.demand, population.demand)


class TestDeterministicMerge:
    """The ISSUE acceptance bar: byte-identical at any partition."""

    #: Golden digest of the quick-profile ext-fleet sweep below.
    #: Integer-exact dynamics make this stable across partitions and
    #: runs; it moves only when the model itself changes (update it
    #: like a golden trace, with a commit explaining why).
    GOLDEN = (
        "3fd7ae72f1eb6f332cc6854c67f903de"
        "e8c61e44dcc2c580be4a30a1098af9bd"
    )

    @pytest.fixture(scope="class")
    def reference(self):
        return ext_fleet.run(backhaul_mbps=16.0, **TEST_KW)

    def test_reference_matches_golden(self, reference):
        assert reference.digest() == self.GOLDEN
        assert reference.findings == ()

    def test_shard_count_invariant(self, reference):
        one = ext_fleet.run(backhaul_mbps=16.0, n_shards=1, **TEST_KW)
        eight = ext_fleet.run(backhaul_mbps=16.0, n_shards=8, **TEST_KW)
        assert one.digest() == reference.digest()
        assert eight.digest() == reference.digest()


def _reference_sums(index, values, size):
    """The oracle: an exact int64 scatter-add over households."""
    out = np.zeros(size, dtype=np.int64)
    np.add.at(out, index, values)
    return out


def _assert_group_sums_match(params, n_shards, value_seed):
    """Every shard's per-DSLAM sums equal the ``np.add.at`` oracle."""
    rng = np.random.default_rng(value_seed)
    covered = 0
    for shard in range(n_shards):
        pop = shard_population(params, n_shards, shard)
        covered += pop.size
        values = rng.integers(-(2**40), 2**40, size=pop.size)
        flags = values > 0
        for vals in (values, flags):
            got = dslam_sums(pop, vals)
            assert np.array_equal(
                got, _reference_sums(pop.dslam_of, vals, params.n_dslams)
            )
            assert got.dtype == np.int64
    assert covered == params.n_households


def _first_seed(kw, n_shards, predicate):
    """The first city seed whose partition satisfies ``predicate``."""
    for seed in range(200):
        params = FleetParameters(seed=seed, **kw)
        sizes = [
            shard_population(params, n_shards, shard).size
            for shard in range(n_shards)
        ]
        if predicate(sizes):
            return params
    raise AssertionError(f"no seed below 200 gives that partition: {kw}")


class TestGroupSums:
    """The reduceat group sums agree with the scatter-add oracle."""

    @given(
        n_households=st.integers(min_value=1, max_value=80),
        per_sector=st.integers(min_value=1, max_value=30),
        per_dslam=st.integers(min_value=1, max_value=30),
        n_shards=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=FLEET_EXAMPLES, deadline=None)
    def test_random_small_cities(
        self, n_households, per_sector, per_dslam, n_shards, seed
    ):
        params = FleetParameters(
            n_households=n_households,
            seed=seed,
            households_per_sector=per_sector,
            households_per_dslam=per_dslam,
        )
        n_shards = min(n_shards, params.n_sectors)
        _assert_group_sums_match(params, n_shards, seed)

    def test_empty_shard(self):
        """One shard per sector, one sector nobody lives in."""
        kw = dict(n_households=6, households_per_sector=1)
        params = _first_seed(kw, 6, lambda sizes: 0 in sizes)
        _assert_group_sums_match(params, params.n_sectors, 1)

    def test_single_household_shard(self):
        kw = dict(
            n_households=9, households_per_sector=3, households_per_dslam=2
        )
        params = _first_seed(kw, 3, lambda sizes: 1 in sizes)
        _assert_group_sums_match(params, 3, 2)

    def test_single_sector_city(self):
        params = _params(households_per_sector=1000)
        assert params.n_sectors == 1
        _assert_group_sums_match(params, 1, 3)

    def test_rows_are_household_id_ordered(self):
        params = _params()
        population = fleet_shard.cached_population(params)
        for n_shards in (1, 3, 8):
            arrivals = np.zeros(params.n_rounds, dtype=np.int64)
            for shard in range(n_shards):
                pop = shard_population(params, n_shards, shard)
                assert (np.diff(pop.household_ids) > 0).all()
                # Each run is one whole DSLAM, and the runs cover the
                # slice.
                assert (np.diff(pop.run_dslam) > 0).all()
                assert (pop.run_lengths > 0).all()
                assert int(pop.run_lengths.sum()) == pop.size
                assert np.array_equal(
                    np.repeat(pop.run_dslam, pop.run_lengths), pop.dslam_of
                )
                assert pop.demand.flags.c_contiguous
                assert np.array_equal(
                    pop.demand, population.demand[:, pop.household_ids]
                )
                arrivals += pop.round_arrivals
            assert np.array_equal(arrivals, population.demand.sum(axis=1))


def _assert_runs_identical(a: PolicyRun, b: PolicyRun):
    for name in (
        "round_arrivals",
        "round_adsl",
        "round_onload",
        "round_waste",
        "round_backlog",
        "permit_requests",
        "permit_grants",
        "permit_denials",
        "cap_exhaustions",
    ):
        assert getattr(a, name) == getattr(b, name), name
    for name in (
        "served_adsl",
        "served_3g",
        "waste",
        "backlog_integral",
        "backlog",
        "cap_used",
        "cap_exhausted",
        "sector_util",
    ):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


class TestFloorShare:
    """``want * capacity // total`` without forming the int64 product."""

    @given(
        capacity=st.integers(min_value=0, max_value=2**40),
        rows=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=2**40),
                st.floats(min_value=0.0, max_value=1.0),
            ),
            min_size=1,
            max_size=40,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_python_ints(self, capacity, rows):
        total = [t for t, _ in rows]
        want = [int(t * f) for t, f in rows]
        got = fleet_shard._floor_share(
            np.array(want, dtype=np.int64),
            capacity,
            np.array(total, dtype=np.int64),
        )
        assert got.dtype == np.int64
        assert got.tolist() == [
            w * capacity // t for w, t in zip(want, total)
        ]

    @given(
        rows=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=2**40),
                st.floats(min_value=0.0, max_value=1.0),
                st.floats(min_value=0.0, max_value=1.0),
            ),
            min_size=1,
            max_size=40,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_per_row_capacity_matches_python_ints(self, rows):
        """The onload settle's shape: each row its own pool, at most
        its sector's total."""
        total = [t for t, _, _ in rows]
        want = [int(t * f) for t, f, _ in rows]
        capacity = [int(t * g) for t, _, g in rows]
        got = fleet_shard._floor_share(
            np.array(want, dtype=np.int64),
            np.array(capacity, dtype=np.int64),
            np.array(total, dtype=np.int64),
        )
        assert got.tolist() == [
            w * c // t for w, c, t in zip(want, capacity, total)
        ]

    def test_products_past_int64(self):
        """Exact quotients and off-by-one float estimates, both sides
        of 2**63."""
        capacity = 7_200_000_000  # 16 Mbps over a 1-hour round
        total = np.array(
            [capacity + 1, 2**40, 3 * capacity, 2**40 - 1], dtype=np.int64
        )
        want = np.array(
            [capacity + 1, 2**40 - 1, capacity, 2**39], dtype=np.int64
        )
        assert max(int(w) * capacity for w in want) > 2**63
        got = fleet_shard._floor_share(want, capacity, total)
        assert got.tolist() == [
            int(w) * capacity // int(t) for w, t in zip(want, total)
        ]


class TestCachesKeyedByValue:
    """Process caches must never hand one city's data to another."""

    @staticmethod
    def _clear():
        fleet_shard._POPULATION_CACHE.clear()
        fleet_shard._SHARD_CACHE.clear()

    def test_ramp_over_two_cities(self):
        """The ext-fleet ramp pattern, twice: warm caches, then cold."""
        cities = (_params(seed=21), _params(seed=22))
        plan = [
            (params, policy, adoption)
            for params in cities
            for adoption in (0.25, 0.75)
            for policy in ("multi-provider", "network-integrated")
        ]
        self._clear()
        warm = [run_policy(*step) for step in plan]
        cold = []
        for step in plan:
            self._clear()
            cold.append(run_policy(*step))
        for a, b in zip(warm, cold):
            _assert_runs_identical(a, b)
        # And the cities really differ, so a crossed cache would show.
        assert warm[0].round_arrivals != warm[4].round_arrivals


def _assert_same(got, want):
    """Two leg outputs agree field by field, array dtypes included."""
    assert type(got) is type(want)
    for f in dataclasses.fields(got):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype, f.name
            assert np.array_equal(a, b), f.name
        else:
            assert a == b, f.name


def _long_round_city():
    """6-hour rounds on a 16 Mbps backhaul with a 10 GB daily cap: both
    ``line * backhaul`` and ``3G ceiling * cell`` bytes pass 2**63."""
    params = FleetParameters(
        n_households=2000,
        seed=0,
        round_s=21600.0,
        dslam_backhaul_bps=mbps(16.0),
        daily_cap_bytes=10**10,
    )
    assert params.line_round_bytes * params.dslam_round_bytes >= 2**63
    assert params.home_round_bytes * params.cell_round_bytes >= 2**63
    return params


def _lockstep_day(params, policy, adoption, n_shards):
    """One city day with the production and the dense reference legs
    side by side, compared after every leg of every round.

    The verdicts come from the dispatcher's own functions, fed with the
    (checked equal) shard aggregates. Returns the permit ledger.
    """
    population = fleet_shard.cached_population(params)
    n_shards = min(n_shards, params.n_sectors)
    pops = [
        shard_population(params, n_shards, shard)
        for shard in range(n_shards)
    ]
    fast = [fleet_shard.initial_state(pop, adoption) for pop in pops]
    slow = [dense.initial_state(pop, adoption) for pop in pops]
    onload = policy != "adsl-only"
    n_sectors = params.n_sectors
    est_factor = np.ones(params.n_dslams, dtype=np.float64)
    ledger = {"requests": 0, "grants": 0, DENY_CAPACITY: 0, DENY_THRESHOLD: 0}
    for r in range(params.n_rounds):
        spill = np.zeros(n_sectors, dtype=np.int64)
        requests = np.zeros(n_sectors, dtype=np.int64)
        for pop, f, d in zip(pops, fast, slow):
            offers = fleet_shard.offer(pop, f, r, onload, est_factor)
            _assert_same(offers, dense.offer(pop, d, r, onload, est_factor))
            spill += offers.sector_spill
            requests += offers.sector_requests
        if onload:
            background = _background_bytes(
                params, population.sector_peak_util, r
            )
            verdict = _onload_verdict(
                params, policy, r, background, spill, requests, ledger
            )
        else:
            empty = np.zeros(n_sectors, dtype=np.int64)
            verdict = OnloadVerdict(
                enabled=False,
                sector_granted=np.zeros(n_sectors, dtype=np.bool_),
                sector_pool=empty,
                sector_spill_total=empty,
            )
        dslam_want = np.zeros(params.n_dslams, dtype=np.int64)
        for pop, f, d in zip(pops, fast, slow):
            result = fleet_shard.settle_onload(pop, f, verdict)
            _assert_same(result, dense.settle_onload(pop, d, verdict))
            dslam_want += result.dslam_want
            # The eligible mask: rows with a 3G ceiling and cap left.
            expected = (d.ceiling > 0) & (d.cap_used < params.daily_cap_bytes)
            assert f.eligible.dtype == np.bool_
            assert np.array_equal(f.eligible, expected)
        adsl_verdict = AdslVerdict(dslam_want_total=dslam_want)
        for pop, f, d in zip(pops, fast, slow):
            _assert_same(
                fleet_shard.finish_round(pop, f, r, adsl_verdict),
                dense.finish_round(pop, d, r, adsl_verdict),
            )
        est_factor = np.minimum(
            params.dslam_round_bytes
            / np.maximum(dslam_want, 1).astype(np.float64),
            1.0,
        )
    for pop, f, d in zip(pops, fast, slow):
        _assert_same(
            fleet_shard.shard_final(pop, f), dense.shard_final(pop, d)
        )
    return ledger


class TestLegsMatchDenseReference:
    """The row-skipping legs equal the dense ones, leg by leg."""

    @given(
        n_households=st.integers(min_value=1, max_value=60),
        per_sector=st.integers(min_value=1, max_value=30),
        per_dslam=st.integers(min_value=1, max_value=30),
        n_shards=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        policy=st.sampled_from(fleet_shard.POLICIES),
        adoption=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
        cap=st.sampled_from([0, 3_000_000, 40_000_000]),
        home_mbps=st.sampled_from([0.0, 3.6]),
        backhaul_mbps=st.sampled_from([0.0, 1.0, 16.0]),
        permit_capacity=st.integers(min_value=0, max_value=4),
        threshold=st.sampled_from([0.0, 0.5, 0.7, 1.0]),
    )
    @settings(max_examples=FLEET_EXAMPLES, deadline=None)
    def test_random_small_cities(
        self,
        n_households,
        per_sector,
        per_dslam,
        n_shards,
        seed,
        policy,
        adoption,
        cap,
        home_mbps,
        backhaul_mbps,
        permit_capacity,
        threshold,
    ):
        params = FleetParameters(
            n_households=n_households,
            seed=seed,
            households_per_sector=per_sector,
            households_per_dslam=per_dslam,
            round_s=3600.0,
            daily_cap_bytes=cap,
            home_3g_bps=mbps(home_mbps),
            dslam_backhaul_bps=mbps(backhaul_mbps),
            permit_capacity_per_round=permit_capacity,
            acceptance_threshold=threshold,
        )
        _lockstep_day(params, policy, adoption, n_shards)

    @pytest.mark.parametrize("policy", fleet_shard.POLICIES)
    @pytest.mark.parametrize("adoption", [0.0, 1.0])
    def test_adoption_extremes(self, policy, adoption):
        """The empty and the full eligible set, in a contended city."""
        _lockstep_day(_params(daily_cap_bytes=5_000_000), policy, adoption, 4)

    @pytest.mark.parametrize(
        "override",
        [
            {"daily_cap_bytes": 0},
            {"home_3g_bps": 0.0},
            {"dslam_backhaul_bps": 0.0},
        ],
        ids=["zero-cap", "zero-3g-ceiling", "zero-backhaul"],
    )
    def test_zero_capacities(self, override):
        _lockstep_day(_params(**override), "multi-provider", 1.0, 4)

    def test_empty_shard(self):
        kw = dict(n_households=6, households_per_sector=1)
        params = _first_seed(kw, 6, lambda sizes: 0 in sizes)
        _lockstep_day(params, "multi-provider", 1.0, params.n_sectors)

    def test_single_household_shard(self):
        kw = dict(
            n_households=9, households_per_sector=3, households_per_dslam=2
        )
        params = _first_seed(kw, 3, lambda sizes: 1 in sizes)
        _lockstep_day(params, "multi-provider", 1.0, 3)

    def test_products_past_int64(self):
        """Both proportional shares against Python-int arithmetic, in a
        city whose products pass 2**63."""
        _lockstep_day(_long_round_city(), "multi-provider", 1.0, 2)

    def test_network_integrated_denials(self):
        """A tight permit server denies on capacity, a low threshold on
        headroom; granted and denied sectors share the round."""
        params = _params(
            permit_capacity_per_round=2, acceptance_threshold=0.2
        )
        ledger = _lockstep_day(params, "network-integrated", 1.0, 4)
        assert ledger["grants"] > 0
        assert ledger[DENY_CAPACITY] > 0
        assert ledger[DENY_THRESHOLD] > 0


class TestParameterValidation:
    """Bad city parameters fail at construction, naming the field."""

    @pytest.mark.parametrize(
        "name",
        [
            "adsl_down_bps",
            "dslam_backhaul_bps",
            "hsdpa_cell_bps",
            "home_3g_bps",
        ],
    )
    def test_negative_rate_rejected(self, name):
        with pytest.raises(ValueError, match=name):
            _params(**{name: -1.0})

    @pytest.mark.parametrize(
        "name", ["adsl_down_bps", "dslam_backhaul_bps", "home_3g_bps"]
    )
    def test_zero_rate_is_a_dead_link(self, name):
        _params(**{name: 0.0})

    @pytest.mark.parametrize("rate", [0.0, 1e-4])
    def test_cell_without_round_capacity_rejected(self, rate):
        """Sector utilization divides by the cell's bytes per round, so
        a cell must carry at least one byte per round."""
        with pytest.raises(ValueError, match="hsdpa_cell_bps"):
            _params(hsdpa_cell_bps=rate)
        assert _params(hsdpa_cell_bps=8.0 / 900.0).cell_round_bytes == 1

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError, match="daily_cap_bytes"):
            _params(daily_cap_bytes=-5)

    @pytest.mark.parametrize("threshold", [1.7, -0.1, float("nan")])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        with pytest.raises(ValueError, match="acceptance_threshold"):
            _params(acceptance_threshold=threshold)

    def test_negative_permit_capacity_rejected(self):
        with pytest.raises(ValueError, match="permit_capacity_per_round"):
            _params(permit_capacity_per_round=-1)


class TestCityDay:
    @pytest.fixture(scope="class")
    def outcome(self):
        return run_city(_params(), adoption=1.0)

    def test_conservation(self, outcome):
        """Every byte of demand ends as ADSL, 3G, or backlog — exactly."""
        report = FleetReport.from_outcome(outcome)
        assert report.check_conservation(outcome) == []
        for run in outcome.runs.values():
            delivered = (
                run.total_adsl_bytes
                + run.total_onload_bytes
                + int(run.backlog.sum())
            )
            assert delivered == report.demand_bytes

    def test_baseline_never_onloads(self, outcome):
        base = outcome.baseline
        assert base.total_onload_bytes == 0
        assert base.cap_exhaustions == 0
        assert base.permit_requests == 0

    def test_onload_relieves_backlog(self, outcome):
        base = outcome.baseline
        multi = outcome.runs["multi-provider"]
        assert multi.total_onload_bytes > 0
        assert int(multi.backlog.sum()) < int(base.backlog.sum())

    def test_caps_are_hard(self, outcome):
        params = outcome.params
        for run in outcome.runs.values():
            assert int(run.cap_used.max()) <= params.daily_cap_bytes
            dry = run.cap_used[run.cap_exhausted]
            assert (dry == params.daily_cap_bytes).all()
        assert outcome.runs["multi-provider"].cap_exhaustions > 0

    def test_network_integrated_asks_permission(self, outcome):
        gated = outcome.runs["network-integrated"]
        assert gated.permit_requests > 0
        assert gated.permit_grants <= gated.permit_requests

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown policy"):
            run_policy(_params(), "carrier-pigeon", 0.5)

    @pytest.mark.parametrize("adoption", [1.7, -0.5, float("nan")])
    def test_adoption_outside_unit_interval_rejected(self, adoption):
        with pytest.raises(ValueError, match="adoption"):
            run_policy(_params(), "multi-provider", adoption)
        with pytest.raises(ValueError, match="adoption"):
            run_city(_params(), adoption=adoption)

    def test_hour_rounds_on_fast_backhaul_conserve(self):
        """1-hour rounds make line * backhaul bytes pass 2**63; the
        proportional backhaul share must still be exact."""
        params = FleetParameters(
            n_households=4000,
            seed=0,
            round_s=3600.0,
            dslam_backhaul_bps=mbps(16.0),
        )
        assert params.line_round_bytes * params.dslam_round_bytes >= 2**63
        run = run_policy(params, "adsl-only", 0.0)
        assert int(run.served_adsl.min()) >= 0
        ledger = np.cumsum(
            np.subtract(run.round_arrivals, run.round_adsl), dtype=np.int64
        )
        assert np.array_equal(ledger, run.round_backlog)
        assert int(run.served_adsl.sum()) == run.total_adsl_bytes
        assert 0 <= min(run.round_adsl)

    def test_long_rounds_with_big_cap_conserve(self):
        """6-hour rounds and a 10 GB cap make spill * sector pool pass
        2**63 too; the onload share must stay exact."""
        params = _long_round_city()
        run = run_policy(params, "multi-provider", 1.0)
        assert int(run.served_3g.min()) >= 0
        assert int(run.served_adsl.min()) >= 0
        assert int(run.cap_used.max()) <= params.daily_cap_bytes
        ledger = np.cumsum(
            np.subtract(run.round_arrivals, run.round_adsl)
            - np.asarray(run.round_onload),
            dtype=np.int64,
        )
        assert np.array_equal(ledger, run.round_backlog)


class TestRegistry:
    def test_ext_fleet_registered(self):
        from repro.experiments.registry import get

        spec = get("ext-fleet")
        assert spec.bench_params["n_households"] == 100_000
        assert spec.quick_params["n_households"] == 1000


class TestCli:
    def _run(self, *argv):
        return fleet_main(list(argv))

    def test_run_and_summary_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "day.json"
        code = self._run(
            "run",
            "--households", "400",
            "--shards", "2",
            "--backhaul-mbps", "16",
            "-o", str(out),
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["findings"] == []
        assert json.loads(capsys.readouterr().out) == payload

        assert self._run("summary", str(out)) == 0
        rendered = capsys.readouterr().out
        assert payload["digest"] in rendered

    def test_run_rejects_bad_adoption(self, capsys):
        assert self._run("run", "--adoption", "1.5") == 2
        assert "adoption" in capsys.readouterr().err

    def test_jobs_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            self._run("run", "--jobs", "2")
        assert exit_info.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_run_rejects_negative_backhaul(self, capsys):
        assert self._run("run", "--backhaul-mbps", "-3") == 2
        assert "dslam_backhaul_bps" in capsys.readouterr().err

    def test_summary_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json", encoding="utf-8")
        assert self._run("summary", str(bad)) == 2
        capsys.readouterr()
        assert self._run("summary", str(tmp_path / "absent.json")) == 2

    def test_summary_rejects_wrong_shape(self, tmp_path, capsys):
        wrong = tmp_path / "wrong.json"
        wrong.write_text(json.dumps({"hello": 1}), encoding="utf-8")
        assert self._run("summary", str(wrong)) == 2
        assert "payload" in capsys.readouterr().err
