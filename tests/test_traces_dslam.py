"""Synthetic DSLAM trace: the §6 statistics."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.netsim.diurnal import WIRED_PROFILE, DiurnalProfile
from repro.traces.dslam import (
    _COUNT_EDGES_MIN,
    _sample_request_times,
    generate_dslam_trace,
)


@pytest.fixture(scope="module")
def trace():
    return generate_dslam_trace(n_subscribers=2000, seed=3)


class TestPaperStatistics:
    def test_video_user_fraction(self, trace):
        assert len(trace.video_users) / trace.n_subscribers == pytest.approx(
            0.68, abs=0.02
        )

    def test_videos_per_user_moments(self, trace):
        counts = [len(v) for v in trace.requests_by_user().values()]
        # Paper: mean 14.12, median 6, sd 30.13.
        assert 10.0 < np.mean(counts) < 19.0
        assert 4 <= np.median(counts) <= 9
        assert np.std(counts) > 12.0

    def test_video_sizes_average_50mb(self, trace):
        sizes = [r.size_bytes for r in trace.requests]
        assert 40e6 < np.mean(sizes) < 60e6

    def test_adsl_speed_of_the_trace(self, trace):
        assert trace.adsl_down_bps == 3e6


class TestStructure:
    def test_requests_sorted_by_time(self, trace):
        times = [r.time_s for r in trace.requests]
        assert times == sorted(times)

    def test_times_within_day(self, trace):
        assert all(0.0 <= r.time_s < 86_400.0 for r in trace.requests)

    def test_diurnal_shape(self, trace):
        volumes = trace.hourly_volume_bytes()
        peak_hour = int(np.argmax(volumes))
        # Requests follow the wired evening-peak profile.
        assert abs(peak_hour - WIRED_PROFILE.peak_hour) <= 2
        assert volumes.max() > 3 * volumes.min()

    def test_per_user_requests_time_ordered(self, trace):
        grouped = trace.requests_by_user()
        sample_users = list(grouped)[:20]
        for user in sample_users:
            times = [r.time_s for r in grouped[user]]
            assert times == sorted(times)

    def test_deterministic(self):
        a = generate_dslam_trace(100, seed=9)
        b = generate_dslam_trace(100, seed=9)
        assert a.requests[10] == b.requests[10]

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_dslam_trace(0)


def _choice_request_times(count, profile, rng):
    """The sampler as ``Generator.choice`` spells it: the oracle."""
    weights = np.array(profile.hourly, dtype=float)
    weights = weights / weights.sum()
    hours = rng.choice(24, size=count, p=weights)
    return hours * 3600.0 + rng.uniform(0.0, 3600.0, size=count)


class TestRequestTimeSampler:
    """The hour draw is ``Generator.choice(24, count, p)``, draw for
    draw, and leaves the generator where ``choice`` would."""

    @given(
        weights=st.lists(
            st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
            min_size=24,
            max_size=24,
        ).filter(any),
        trailing_zero=st.booleans(),
        count=st.one_of(
            st.integers(0, 40),
            st.integers(_COUNT_EDGES_MIN - 2, _COUNT_EDGES_MIN + 2),
            st.just(5000),
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(weights=[1.0] * 24, trailing_zero=True, count=0, seed=0)
    @example(weights=[0.0, 2.0] * 12, trailing_zero=True, count=3000, seed=1)
    @settings(max_examples=200, deadline=None)
    def test_matches_generator_choice(
        self, weights, trailing_zero, count, seed
    ):
        if trailing_zero:
            weights[-1] = 0.0
        if not any(weights):
            return
        profile = DiurnalProfile(weights)
        got_rng = np.random.default_rng(seed)
        want_rng = np.random.default_rng(seed)
        got = _sample_request_times(count, profile, got_rng)
        want = _choice_request_times(count, profile, want_rng)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert got_rng.random() == want_rng.random()

    def test_draws_on_the_bin_edges(self):
        """Draws at and beside each cdf edge land in the bin ``choice``'s
        ``cdf.searchsorted(u, side="right")`` gives them, in both the
        binary-search and the edge-counting branch."""
        profile = DiurnalProfile([0.0, 1.0, 0.0, 0.0] + [3.0, 0.5] * 10)
        weights = np.array(profile.hourly)
        cdf = (weights / weights.sum()).cumsum()
        cdf /= cdf[-1]
        edges = cdf[:-1]
        near = np.concatenate(
            [edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)]
        )
        for draws in (near, np.resize(near, _COUNT_EDGES_MIN)):
            times = _sample_request_times(
                draws.size, profile, _ReplayedDraws(draws)
            )
            hours = cdf.searchsorted(draws, side="right")
            assert np.array_equal(times, hours * 3600.0)


class _ReplayedDraws:
    """A generator stand-in: given unit draws, zero offsets."""

    def __init__(self, draws):
        self.draws = draws

    def random(self, size):
        assert size == self.draws.size
        return self.draws

    def uniform(self, low, high, size):
        return np.zeros(size)
