"""Seeded capacity processes."""

import math

import pytest

from repro.netsim.link import StochasticLink
from repro.netsim.stochastic import (
    ConstantProcess,
    LognormalProcess,
    MeanRevertingProcess,
)


class TestConstantProcess:
    def test_factor_is_constant(self):
        process = ConstantProcess(0.7)
        assert process.factor_at(0.0) == process.factor_at(1e6) == 0.7

    def test_never_changes(self):
        assert ConstantProcess().next_change_after(5.0) == math.inf


class TestLognormalProcess:
    def test_deterministic_per_interval(self):
        a = LognormalProcess(seed=3, interval=1.0, sigma=0.3)
        b = LognormalProcess(seed=3, interval=1.0, sigma=0.3)
        assert a.factor_at(7.5) == b.factor_at(7.5)

    def test_lazy_out_of_order_evaluation(self):
        a = LognormalProcess(seed=3, interval=1.0, sigma=0.3)
        late = a.factor_at(99.0)
        early = a.factor_at(1.0)
        b = LognormalProcess(seed=3, interval=1.0, sigma=0.3)
        assert b.factor_at(1.0) == early
        assert b.factor_at(99.0) == late

    def test_respects_clipping(self):
        process = LognormalProcess(
            seed=1, interval=1.0, sigma=2.0, floor=0.5, ceiling=1.5
        )
        factors = [process.factor_for_interval(i) for i in range(200)]
        assert all(0.5 <= f <= 1.5 for f in factors)

    def test_sigma_zero_is_identity(self):
        process = LognormalProcess(seed=1, interval=1.0, sigma=0.0)
        assert process.factor_at(3.3) == 1.0

    def test_interval_boundaries(self):
        process = LognormalProcess(seed=5, interval=4.0, sigma=0.3)
        assert process.next_change_after(0.0) == 4.0
        assert process.next_change_after(3.999) == 4.0
        assert process.next_change_after(4.0) == 8.0

    def test_roughly_unit_median(self):
        process = LognormalProcess(seed=2, interval=1.0, sigma=0.3)
        factors = sorted(process.factor_for_interval(i) for i in range(500))
        median = factors[len(factors) // 2]
        assert 0.85 < median < 1.15

    def test_floor_above_ceiling_rejected(self):
        with pytest.raises(ValueError):
            LognormalProcess(seed=1, interval=1.0, sigma=0.1, floor=2.0, ceiling=1.0)


class TestMeanRevertingProcess:
    def test_deterministic_across_instances(self):
        a = MeanRevertingProcess(seed=9, interval=2.0)
        b = MeanRevertingProcess(seed=9, interval=2.0)
        assert a.factor_for_interval(37) == b.factor_for_interval(37)

    def test_order_independent(self):
        a = MeanRevertingProcess(seed=9, interval=2.0)
        v50 = a.factor_for_interval(50)
        b = MeanRevertingProcess(seed=9, interval=2.0)
        b.factor_for_interval(10)
        assert b.factor_for_interval(50) == v50

    def test_reverts_to_mean(self):
        process = MeanRevertingProcess(
            seed=4, interval=1.0, mean=1.0, reversion=0.5, noise_sigma=0.05
        )
        factors = [process.factor_for_interval(i) for i in range(1000)]
        mean = sum(factors) / len(factors)
        assert 0.9 < mean < 1.1

    def test_negative_index_clamps(self):
        process = MeanRevertingProcess(seed=4, interval=1.0)
        assert process.factor_for_interval(-3) == process.factor_for_interval(0)


class TestInexactGrid:
    """Boundaries on an inexact grid move the interval index by one.

    ``(floor(t / 0.7) + 1) * 0.7`` is ``<= t`` for 200 of the multiples
    ``k * 0.7`` below 2000, and at ``nextafter(3 * 0.7, 0)`` it returns a
    time still inside ``t``'s interval; either way the link-change
    tracker re-asks at the same clock forever.
    """

    INTERVAL = 0.7

    def grid_times(self):
        for k in range(1, 2000):
            multiple = k * self.INTERVAL
            yield multiple
            yield math.nextafter(multiple, 0.0)

    def check_boundary(self, t, boundary):
        index = math.floor(t / self.INTERVAL)
        assert boundary > t
        assert math.floor(boundary / self.INTERVAL) == index + 1
        # ...and it is the first such time.
        below = math.nextafter(boundary, -math.inf)
        assert math.floor(below / self.INTERVAL) <= index

    def test_process_boundary(self):
        process = LognormalProcess(seed=1, interval=self.INTERVAL, sigma=0.3)
        for t in self.grid_times():
            boundary = process.next_change_after(t)
            self.check_boundary(t, boundary)
            assert process.interval_index(boundary) == (
                process.interval_index(t) + 1
            )

    def test_modulation_boundary(self):
        link = StochasticLink(
            "s",
            100.0,
            ConstantProcess(1.0),
            modulation=lambda t: 1.0,
            modulation_interval=self.INTERVAL,
        )
        for t in self.grid_times():
            self.check_boundary(t, link.next_change_after(t))

    def test_negative_time_clamps_to_first_interval(self):
        process = LognormalProcess(seed=1, interval=self.INTERVAL, sigma=0.3)
        assert process.next_change_after(-5.0) == self.INTERVAL

    @pytest.mark.parametrize("interval", [4.0, 5.0, 2.0, 1.0, 0.5, 300.0])
    def test_exact_grid_keeps_the_product(self, interval):
        process = LognormalProcess(seed=1, interval=interval, sigma=0.3)
        for k in range(2000):
            for t in (k * interval, k * interval + interval / 3.0):
                assert process.next_change_after(t) == (k + 1) * interval
