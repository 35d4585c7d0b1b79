"""Simulator-driven experiments (reduced sizes for test runtime)."""

import pytest

from repro.experiments import (
    fig03_aggregate,
    fig04_temporal,
    fig05_stations,
    fig06_scheduler,
    fig07_prebuffer,
    fig08_download,
    fig09_upload,
    table02_locations,
    table03_clusters,
    table04_eval_locations,
)
from repro.netsim.topology import MEASUREMENT_LOCATIONS
from repro.util.units import mbps


class TestFig03:
    @pytest.fixture(scope="class")
    def result(self):
        return fig03_aggregate.run(
            locations=MEASUREMENT_LOCATIONS[:1],
            device_counts=(1, 3, 5, 10),
            repetitions=2,
            seeds=(0, 1),
        )

    def test_downlink_scales_with_devices(self, result):
        curve = result.series("location1", "down")
        assert curve[-1] > curve[0] * 4.0

    def test_uplink_plateaus(self, result):
        # From 5 to 10 devices the uplink grows far slower than 2x.
        assert result.plateau_ratio("location1", "up") < 1.5

    def test_downlink_scales_better_than_uplink(self, result):
        # Paper: "downlink throughput seems to scale up better" while the
        # uplink flattens at the HSUPA channel cap.
        down = result.plateau_ratio("location1", "down")
        up = result.plateau_ratio("location1", "up")
        assert down > up
        assert down > 1.15

    def test_renders(self, result):
        assert "Fig. 3" in result.render()


class TestFig04:
    @pytest.fixture(scope="class")
    def result(self):
        return fig04_temporal.run(
            locations=MEASUREMENT_LOCATIONS[:2],
            hours=(2.0, 14.0, 20.0),
            group_sizes=(1, 5),
            days=1,
        )

    def test_single_device_peaks_near_2_5_mbps(self, result):
        peak = result.single_device_peak_bps("down")
        assert mbps(1.2) < peak < mbps(3.2)

    def test_per_device_rate_drops_with_group_size(self, result):
        for direction in ("down", "up"):
            solo = result.series(direction, 1)
            group = result.series(direction, 5)
            assert sum(group) < sum(solo)

    def test_five_device_rates_in_paper_band(self, result):
        # Paper: 0.65-1.42 Mbps per device with five devices.
        for direction in ("down", "up"):
            for value in result.series(direction, 5):
                assert mbps(0.3) < value < mbps(2.2)

    def test_diurnal_swing_small(self, result):
        # Paper: "diurnal throughput variations ... are rather small".
        assert result.diurnal_swing("down", 1) < 2.5


class TestFig05:
    @pytest.fixture(scope="class")
    def result(self):
        return fig05_stations.run(
            locations=MEASUREMENT_LOCATIONS[:2],
            hours=(2.0, 20.0),
            group_size=3,
            days=1,
        )

    def test_throughput_above_dedicated_floors(self, result):
        # Fig. 5's point: HSPA serves well above the 360/64 kbps
        # dedicated rates.
        for (_, _, direction), violin in result.violins.items():
            floor = (
                result.dedicated_down_bps
                if direction == "down"
                else result.dedicated_up_bps
            )
            assert violin.median > floor

    def test_paper_range(self, result):
        medians = [v.median for v in result.violins.values()]
        assert all(mbps(0.2) < m < mbps(3.0) for m in medians)


class TestTable02:
    @pytest.fixture(scope="class")
    def result(self):
        return table02_locations.run(repetitions=2, seeds=(0, 1))

    def test_all_locations_present(self, result):
        assert len(result.rows) == 6

    def test_uplink_speedups_exceed_downlink(self, result):
        # ADSL asymmetry makes uplink relative gains much larger.
        row = result.row("location1")
        assert row.speedup_up > row.speedup_down > 1.0

    def test_location1_headline(self, result):
        # Paper: x2.67 down, x12.93 up at location 1.
        row = result.row("location1")
        assert 1.8 < row.speedup_down < 3.6
        assert 8.0 < row.speedup_up < 18.0

    def test_vdsl_location_gains_marginal(self, result):
        row = result.row("location6")
        assert row.speedup_down < 1.25

    def test_every_location_gains(self, result):
        for row in result.rows:
            assert row.speedup_down > 1.0
            assert row.speedup_up > 1.0


class TestTable03:
    @pytest.fixture(scope="class")
    def result(self):
        return table03_clusters.run(
            locations=MEASUREMENT_LOCATIONS[:3],
            hours=(2.0, 18.0),
            days=1,
        )

    def test_per_device_rate_decreases_with_cluster(self, result):
        assert result.is_decreasing("down")
        assert result.is_decreasing("up")

    def test_magnitudes_near_paper(self, result):
        # Paper: downlink means 1.61/1.33/1.16, uplink 1.09/0.90/0.65.
        down1 = result.per_device(1, "down").mean_bps
        up1 = result.per_device(1, "up").mean_bps
        assert mbps(0.9) < down1 < mbps(2.4)
        assert mbps(0.6) < up1 < mbps(1.9)

    def test_max_in_paper_band(self, result):
        # Paper maxima ~2.3-3.4 Mbps.
        assert result.per_device(5, "down").max_bps < mbps(4.5)


class TestTable04:
    def test_speedtest_recovers_configured_rates(self):
        result = table04_eval_locations.run()
        assert len(result.rows) == 5
        for row, expected_down in zip(
            result.rows, (6.48, 21.64, 8.67, 6.20, 6.82)
        ):
            assert row.measured_down_bps == pytest.approx(
                mbps(expected_down), rel=0.05
            )

    def test_signal_strengths_reported(self):
        result = table04_eval_locations.run()
        assert result.rows[0].signal_dbm == -81.0
        assert result.rows[0].signal_asu == 16


class TestFig06:
    @pytest.fixture(scope="class")
    def result(self):
        return fig06_scheduler.run(phone_counts=(1, 2), repetitions=4)

    def test_second_phone_helps_grd(self, result):
        for quality in ("Q1", "Q4"):
            assert result.time(quality, "GRD", 2) < result.time(
                quality, "GRD", 1
            )

    def test_adsl_times_grow_with_quality(self, result):
        times = [result.time(q, "ADSL") for q in ("Q1", "Q2", "Q3", "Q4")]
        assert times == sorted(times)

    def test_renders_two_panels(self, result):
        text = result.render()
        assert text.count("Fig. 6") == 2


class TestFig07:
    @pytest.fixture(scope="class")
    def result(self):
        return fig07_prebuffer.run(repetitions=2)

    def test_gain_grows_with_prebuffer_amount(self, result):
        for key, series in result.gains.items():
            # Allow small non-monotonicity from stochastic radio noise.
            assert series[-1] >= series[0] * 0.8

    def test_gain_grows_with_quality(self, result):
        for location in ("loc2", "loc4"):
            assert result.monotone_in_quality(location, "3G_1PH", 1.0) or (
                result.gain(location, "3G_1PH", "Q4", 1.0)
                > result.gain(location, "3G_1PH", "Q1", 1.0)
            )

    def test_second_phone_improves_best_gain(self, result):
        for location in ("loc2", "loc4"):
            assert result.best_gain(location, "3G_2PH") > result.best_gain(
                location, "3G_1PH"
            )

    def test_connected_start_marginal(self, result):
        # H-mode helps, but by far less than the second phone.
        for location in ("loc2", "loc4"):
            h_benefit = result.best_gain(location, "H_1PH") - result.best_gain(
                location, "3G_1PH"
            )
            phone_benefit = result.best_gain(
                location, "3G_2PH"
            ) - result.best_gain(location, "3G_1PH")
            assert h_benefit < phone_benefit + 3.0


class TestFig08:
    @pytest.fixture(scope="class")
    def result(self):
        return fig08_download.run(repetitions=2)

    def test_reductions_in_paper_band(self, result):
        values = list(result.reductions.values())
        assert min(values) > 20.0
        assert max(values) < 75.0

    def test_second_phone_always_helps(self, result):
        for location in ("loc1", "loc2", "loc3", "loc4", "loc5"):
            assert result.second_phone_benefit(location, connected=False) > 0.0

    def test_speedups_above_1_3(self, result):
        for (loc, cfg) in result.reductions:
            assert result.speedup(loc, cfg) > 1.25


class TestFig09:
    @pytest.fixture(scope="class")
    def result(self):
        return fig09_upload.run(repetitions=2)

    def test_paper_speedup_bands(self, result):
        for location in ("loc1", "loc3", "loc4", "loc5"):
            assert 1.3 < result.speedup(location, 1) < 4.5
            assert 2.0 < result.speedup(location, 2) < 7.0

    def test_gains_sublinear_in_devices(self, result):
        for location in ("loc1", "loc4"):
            assert result.speedup(location, 2) < 2 * result.speedup(location, 1)

    def test_slow_uplinks_gain_most(self, result):
        # loc2 (2.77 Mbps up) gains least.
        others = [
            result.speedup(loc, 2)
            for loc in ("loc1", "loc3", "loc4", "loc5")
        ]
        assert result.speedup("loc2", 2) < min(others)
