"""Extension experiments (LTE, MP-TCP, playout, DSLAM, ablations)."""

import pytest

from repro.experiments import (
    ext_churn,
    ext_dslam,
    ext_estimator,
    ext_lte,
    ext_mptcp,
    ext_playout,
)


class TestLteExtension:
    @pytest.fixture(scope="class")
    def result(self):
        return ext_lte.run(seeds=(0, 1))

    def test_lte_faster_than_hspa(self, result):
        assert (
            result.cells["3GOL over LTE"].total_time_s
            < result.cells["3GOL over HSPA"].total_time_s
        )

    def test_lte_powerboost_window_shorter(self, result):
        # §2.3: "the period of powerboosting time might be extremely short".
        assert (
            result.cells["3GOL over LTE"].cell_busy_s
            < result.cells["3GOL over HSPA"].cell_busy_s * 0.7
        )

    def test_both_beat_adsl(self, result):
        assert result.speedup("3GOL over HSPA") > 1.2
        assert result.speedup("3GOL over LTE") > 2.0


class TestMptcpExtension:
    @pytest.fixture(scope="class")
    def result(self):
        return ext_mptcp.run(seeds=(0, 1, 2))

    def test_ccc_provides_little_benefit(self, result):
        # The paper's observation: "it provided no benefit".
        assert result.benefit_over_adsl("MPTCP-CCC") < 0.2

    def test_3gol_provides_large_benefit(self, result):
        assert result.benefit_over_adsl("3GOL-GRD") > 0.5

    def test_uncoupled_comparable_to_3gol(self, result):
        gap = abs(
            result.times["MPTCP-uncoupled"] - result.times["3GOL-GRD"]
        )
        assert gap < 0.3 * result.times["3GOL-GRD"]


class TestPlayoutExtension:
    @pytest.fixture(scope="class")
    def result(self):
        return ext_playout.run(seeds=tuple(range(4)))

    def test_adsl_alone_stalls(self, result):
        adsl = result.cells["ADSL"]
        assert adsl.stall_count > 3
        assert adsl.smooth_fraction < 0.5

    def test_3gol_streams_smoothly(self, result):
        for config in ("GRD", "DLN"):
            assert result.cells[config].stall_time_s < 5.0

    def test_deadline_policy_never_worse(self, result):
        assert (
            result.cells["DLN"].stall_time_s
            <= result.cells["GRD"].stall_time_s + 2.0
        )

    def test_startup_improves_with_3gol(self, result):
        assert (
            result.cells["GRD"].startup_delay_s
            < result.cells["ADSL"].startup_delay_s
        )


class TestDslamExtension:
    @pytest.fixture(scope="class")
    def result(self):
        return ext_dslam.run(neighbour_counts=(0, 8), seeds=(0, 1))

    def test_contention_slows_adsl(self, result):
        assert (
            result.cells[8].adsl_alone_s > result.cells[0].adsl_alone_s * 1.5
        )

    def test_3gol_robust_to_contention(self, result):
        assert result.cells[8].onload_s < result.cells[8].adsl_alone_s / 2

    def test_speedup_grows(self, result):
        assert result.speedup_grows_with_contention()


class TestEstimatorAblation:
    @pytest.fixture(scope="class")
    def result(self):
        return ext_estimator.run(n_users=600)

    def test_paper_choice_on_frontier(self, result):
        assert result.paper_choice_on_frontier()

    def test_last_month_overruns_more(self, result):
        assert (
            result.last_month.overrun_days_per_month
            > result.paper_point.overrun_days_per_month
        )

    def test_alpha_reduces_overruns_at_all_taus(self, result):
        for tau in result.taus:
            no_guard = result.grid[(tau, 0.0)]
            guarded = result.grid[(tau, 4.0)]
            assert (
                guarded.overrun_days_per_month
                < no_guard.overrun_days_per_month
            )


class TestMinTuningAblation:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments import ext_min_tuning

        return ext_min_tuning.run(
            smoothings=(0.5, 0.75), priors_mbps=(1.0, 2.0), repetitions=4
        )

    def test_no_tuning_beats_grd(self, result):
        assert result.no_setting_beats_grd()

    def test_grid_complete(self, result):
        assert len(result.times) == 4


class TestChurnExtension:
    @pytest.fixture(scope="class")
    def result(self):
        return ext_churn.run(seeds=(0, 1), intensities=(0.0, 2.0))

    def test_every_policy_completes_under_default_churn(self, result):
        # The robustness acceptance bar: no lost items, every
        # transaction finishes before the cutoff for all four policies.
        for cell in result.cells:
            assert cell.completion_rate == 1.0, cell

    def test_calm_run_is_the_baseline(self, result):
        for policy in ext_churn.POLICIES:
            assert result.cell(policy, 0.0).slowdown == pytest.approx(1.0)

    def test_churn_slows_static_policies_more(self, result):
        # Pull-based GRD absorbs flaps better than the estimate-driven
        # commit-once MIN, and stays fastest in absolute terms. (RR is
        # excluded: the re-join re-deal can accidentally *fix* its
        # static imbalance, making mild churn a wash for it.)
        assert (
            result.cell("GRD", 2.0).slowdown
            < result.cell("MIN", 2.0).slowdown
        )
        assert (
            result.cell("GRD", 2.0).mean_time_s
            < result.cell("MIN", 2.0).mean_time_s
        )

    def test_deterministic_across_runs(self, result):
        again = ext_churn.run(seeds=(0, 1), intensities=(0.0, 2.0))
        assert again == result

    def test_render_and_to_dict(self, result):
        import json

        assert "churn" in result.render()
        json.dumps(result.to_dict())
