"""Fleet-scale city simulation: sampling, merge determinism, CLI.

The headline contract under test is the deterministic merge
(docs/FLEET.md): the merged city-day result is byte-identical at any
shard count and any ``--jobs``, pinned golden-digest style the way the
trace goldens pin the engine.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import ext_fleet
from repro.fleet import shard as fleet_shard
from repro.fleet.cli import main as fleet_main
from repro.fleet.dispatcher import PolicyRun, run_city, run_policy
from repro.fleet.population import FleetParameters, sample_population
from repro.fleet.report import FleetReport
from repro.fleet.shard import dslam_sums, sector_sums, shard_population
from repro.util.units import mbps

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
        assert pop.demand.shape == (params.n_households, params.n_rounds)
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

    def test_jobs_invariant(self, reference):
        fanned = ext_fleet.run(backhaul_mbps=16.0, jobs=4, **TEST_KW)
        assert fanned.digest() == reference.digest()

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
    """Every shard's group sums equal the ``np.add.at`` oracle."""
    rng = np.random.default_rng(value_seed)
    covered = 0
    for shard in range(n_shards):
        pop = shard_population(params, n_shards, shard)
        covered += pop.size
        values = rng.integers(-(2**40), 2**40, size=pop.size)
        flags = values > 0
        for got, index, size in (
            (sector_sums, pop.sector_of, params.n_sectors),
            (dslam_sums, pop.dslam_of, params.n_dslams),
        ):
            for vals in (values, flags):
                assert np.array_equal(
                    got(pop, vals), _reference_sums(index, vals, size)
                )
                assert got(pop, vals).dtype == np.int64
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
    @settings(max_examples=60, deadline=None)
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

    def test_rows_are_sector_then_dslam_ordered(self):
        params = _params()
        for shard in range(4):
            pop = shard_population(params, 4, shard)
            key = pop.sector_of * params.n_dslams + pop.dslam_of
            assert (np.diff(key) >= 0).all()
            # Stable: ids ascend within each (sector, DSLAM) run.
            same = np.diff(key) == 0
            assert (np.diff(pop.household_ids)[same] > 0).all()
            assert pop.demand.shape == (params.n_rounds, pop.size)
            assert pop.demand.flags.c_contiguous


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
