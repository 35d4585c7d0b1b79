"""Property-based tests (hypothesis) on the core invariants."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis.load import split_transfer
from repro.analysis.stats import Ecdf
from repro.core.allowance import AllowanceEstimator
from repro.core.items import Transaction, items_from_sizes
from repro.core.scheduler import make_policy
from repro.core.scheduler.runner import TransactionRunner
from repro.netsim.fluid import Flow, FluidNetwork
from repro.netsim.latency import RttModel
from repro.netsim.link import Link
from repro.netsim.path import NetworkPath
from repro.util.stats import RunningStats
from repro.util.units import bits_to_bytes, bytes_to_bits
from tests.maxmin_reference import max_min_allocation

rates = st.floats(min_value=1e4, max_value=1e8)
sizes = st.floats(min_value=1e3, max_value=5e7)


class TestMaxMinProperties:
    @given(
        capacities=st.lists(rates, min_size=1, max_size=4),
        n_flows=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_allocation_feasible_and_positive(self, capacities, n_flows, seed):
        """No link over capacity; every flow on live links gets rate > 0."""
        import random

        rng = random.Random(seed)
        links = [Link(f"l{i}", c) for i, c in enumerate(capacities)]
        flows = []
        for i in range(n_flows):
            chain = rng.sample(links, rng.randint(1, len(links)))
            flows.append(Flow(1e6, chain))
        allocation = max_min_allocation(flows, 0.0)
        for link in links:
            total = sum(
                allocation[f] for f in flows if link in f.links
            )
            assert total <= link.capacity_at(0.0) * (1 + 1e-6)
        for flow in flows:
            assert allocation[flow] > 0.0

    @given(
        capacity=rates,
        n_flows=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_single_link_split_equally(self, capacity, n_flows):
        link = Link("l", capacity)
        flows = [Flow(1e6, [link]) for _ in range(n_flows)]
        allocation = max_min_allocation(flows, 0.0)
        expected = capacity / n_flows
        for flow in flows:
            assert math.isclose(allocation[flow], expected, rel_tol=1e-9)

    @given(cap=st.floats(min_value=1e3, max_value=1e6))
    @settings(max_examples=30, deadline=None)
    def test_rate_cap_never_exceeded(self, cap):
        link = Link("l", 1e9)
        flow = Flow(1e6, [link], rate_cap_bps=cap)
        allocation = max_min_allocation([flow], 0.0)
        assert allocation[flow] <= cap * (1 + 1e-12)


class TestSchedulerProperties:
    @given(
        item_sizes=st.lists(sizes, min_size=1, max_size=12),
        path_rates=st.lists(rates, min_size=1, max_size=4),
        policy_name=st.sampled_from(["GRD", "RR", "MIN"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_item_delivered_exactly_once(
        self, item_sizes, path_rates, policy_name
    ):
        """Completeness: all items complete, accounting consistent."""
        net = FluidNetwork()
        paths = [
            NetworkPath(f"p{i}", [Link(f"l{i}", r)], rtt=RttModel(0.0))
            for i, r in enumerate(path_rates)
        ]
        runner = TransactionRunner(net, paths, make_policy(policy_name))
        txn = Transaction(items_from_sizes(item_sizes))
        result = runner.run(txn)
        assert set(result.records) == {i.label for i in txn}
        # Conservation: bytes moved across paths = payload + waste.
        moved = sum(result.path_bytes.values())
        assert math.isclose(
            moved, txn.total_bytes + result.wasted_bytes, rel_tol=1e-6
        )
        # Completion times are within the transaction window.
        for record in result.records.values():
            assert result.started_at <= record.completed_at <= result.finished_at

    @given(
        item_sizes=st.lists(sizes, min_size=2, max_size=10),
        rate_a=rates,
        rate_b=rates,
    )
    @settings(max_examples=30, deadline=None)
    def test_greedy_never_slower_than_single_path(
        self, item_sizes, rate_a, rate_b
    ):
        """Adding a second path must not hurt the greedy scheduler."""
        def run(path_rates):
            net = FluidNetwork()
            paths = [
                NetworkPath(f"p{i}", [Link(f"l{i}", r)], rtt=RttModel(0.0))
                for i, r in enumerate(path_rates)
            ]
            runner = TransactionRunner(net, paths, make_policy("GRD"))
            return runner.run(Transaction(items_from_sizes(item_sizes))).total_time

        single = run([rate_a])
        dual = run([rate_a, rate_b])
        assert dual <= single * (1 + 1e-6)


class TestEstimatorProperties:
    @given(
        cap=st.floats(min_value=1e8, max_value=1e10),
        history=st.lists(
            st.floats(min_value=0.0, max_value=1.2e10),
            min_size=1,
            max_size=12,
        ),
        alpha=st.floats(min_value=0.0, max_value=8.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_allowance_bounded(self, cap, history, alpha):
        """0 <= allowance <= mean free capacity <= cap."""
        estimator = AllowanceEstimator(tau=5, alpha=alpha)
        decision = estimator.estimate(cap, history)
        assert 0.0 <= decision.monthly_allowance_bytes
        assert decision.monthly_allowance_bytes <= decision.mean_free_bytes + 1e-6
        assert decision.mean_free_bytes <= cap + 1e-6

    @given(
        cap=st.floats(min_value=1e8, max_value=1e10),
        history=st.lists(
            st.floats(min_value=0.0, max_value=1.2e10), min_size=2, max_size=8
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_allowance_monotone_in_alpha(self, cap, history):
        low = AllowanceEstimator(tau=5, alpha=1.0).estimate(cap, history)
        high = AllowanceEstimator(tau=5, alpha=4.0).estimate(cap, history)
        assert high.monthly_allowance_bytes <= low.monthly_allowance_bytes + 1e-6


class TestSplitTransferProperties:
    @given(
        size=sizes,
        adsl=rates,
        cell=st.floats(min_value=0.0, max_value=1e8),
        budget=st.floats(min_value=0.0, max_value=1e8),
    )
    @settings(max_examples=80, deadline=None)
    def test_split_never_slower_than_dsl(self, size, adsl, cell, budget):
        boosted, used = split_transfer(size, adsl, cell, budget)
        baseline = size * 8.0 / adsl
        assert boosted <= baseline * (1 + 1e-9)
        assert 0.0 <= used <= min(budget, size) + 1e-9


class TestStatsProperties:
    @given(data=st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1))
    @settings(max_examples=50, deadline=None)
    def test_ecdf_bounds(self, data):
        ecdf = Ecdf(data)
        assert ecdf.fraction_below(min(data)) == 0.0
        assert ecdf.fraction_below(max(data) + 1.0) == 1.0
        assert ecdf.quantile(0.0) == min(data)
        assert ecdf.quantile(1.0) == max(data)

    @given(data=st.lists(st.floats(min_value=-1e9, max_value=1e9), min_size=2))
    @settings(max_examples=50, deadline=None)
    def test_running_stats_bounds(self, data):
        stats = RunningStats()
        stats.extend(data)
        assert stats.minimum <= stats.mean <= stats.maximum
        assert stats.variance >= 0.0


class TestUnitsProperties:
    @given(value=st.floats(min_value=0.0, max_value=1e15))
    @settings(max_examples=50, deadline=None)
    def test_bits_bytes_round_trip(self, value):
        assert math.isclose(
            bits_to_bytes(bytes_to_bits(value)), value, rel_tol=1e-12,
            abs_tol=1e-12,
        )


class TestPlayoutProperties:
    @given(
        pairs=st.lists(
            st.tuples(
                st.floats(min_value=1.0, max_value=20.0),   # duration
                st.floats(min_value=0.1, max_value=100.0),  # completion
            ),
            min_size=2,
            max_size=15,
        ),
        fraction=st.floats(min_value=0.05, max_value=1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_playout_accounting_identity(self, pairs, fraction):
        """playout_end == startup + video duration + total stall time."""
        from repro.core.playback import PlayoutSimulator
        from repro.web.hls import HlsPlaylist, MediaSegment, VideoQuality

        durations = [d for d, _ in pairs]
        delays = [t for _, t in pairs]
        segments = [
            MediaSegment(i, f"/s{i}", d, 1000.0 * d)
            for i, d in enumerate(durations)
        ]
        playlist = HlsPlaylist("v", VideoQuality("Q", 8000.0), segments)
        completion = {s.uri: t for s, t in zip(segments, delays)}
        report = PlayoutSimulator(playlist, fraction).replay(completion)
        assert report.playout_end == pytest.approx(
            report.startup_delay
            + playlist.duration_s
            + report.total_stall_time
        )
        assert report.total_stall_time >= 0.0
        assert report.startup_delay >= max(
            0.0, min(delays[: max(1, len(delays))])
        ) - 1e-9


class TestTokenBucketProperties:
    @given(
        rate=st.floats(min_value=100.0, max_value=1e7),
        burst=st.floats(min_value=1_000.0, max_value=1e6),
        volume=st.integers(min_value=1, max_value=100_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_pacing_never_exceeds_rate(self, rate, burst, volume):
        """Elapsed virtual time >= (volume - burst) / rate, always."""
        from repro.proto.shaping import TokenBucket

        ticks = [0.0]
        bucket = TokenBucket(
            rate,
            burst_bytes=burst,
            clock=lambda: ticks[0],
            sleep=lambda s: ticks.__setitem__(0, ticks[0] + s),
        )
        bucket.consume(volume)
        minimum = max(0.0, (volume - burst) / rate)
        assert ticks[0] >= minimum - 1e-9
        # And it is never pathologically slow (within 2x of ideal + 1 burst).
        assert ticks[0] <= (volume / rate) * 2.0 + burst / rate + 1e-6


class TestDiurnalProperties:
    @given(
        hourly=st.lists(
            st.floats(min_value=0.0, max_value=100.0),
            min_size=24,
            max_size=24,
        ),
        hour=st.floats(min_value=0.0, max_value=48.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_interpolation_bounded_by_samples(self, hourly, hour):
        from repro.netsim.diurnal import DiurnalProfile

        assume(max(hourly) > 0.0)
        profile = DiurnalProfile(hourly)
        value = profile.value_at_hour(hour)
        assert min(profile.hourly) - 1e-12 <= value <= 1.0 + 1e-12
