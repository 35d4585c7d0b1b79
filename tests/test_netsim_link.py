"""Link capacity models."""

import math

import pytest

from repro.netsim.link import (
    Link,
    PiecewiseLink,
    StochasticLink,
    validate_chain,
)
from repro.netsim.stochastic import ConstantProcess, LognormalProcess


class TestLink:
    def test_fixed_capacity(self):
        link = Link("l", 1e6)
        assert link.capacity_at(0.0) == link.capacity_at(100.0) == 1e6
        assert link.next_change_after(0.0) == math.inf

    def test_zero_capacity_allowed(self):
        assert Link("dead", 0.0).capacity_at(0.0) == 0.0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            Link("l", -1.0)

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Link("", 1.0)

    def test_set_capacity(self):
        link = Link("l", 1.0)
        link.set_capacity(2.0)
        assert link.capacity_at(0.0) == 2.0


class TestPiecewiseLink:
    def test_segments(self):
        link = PiecewiseLink("p", [(0.0, 10.0), (5.0, 20.0), (8.0, 5.0)])
        assert link.capacity_at(0.0) == 10.0
        assert link.capacity_at(4.999) == 10.0
        assert link.capacity_at(5.0) == 20.0
        assert link.capacity_at(100.0) == 5.0

    def test_before_first_segment_extends_back(self):
        link = PiecewiseLink("p", [(10.0, 7.0)])
        assert link.capacity_at(0.0) == 7.0

    def test_next_change(self):
        link = PiecewiseLink("p", [(0.0, 1.0), (5.0, 2.0)])
        assert link.next_change_after(0.0) == 5.0
        assert link.next_change_after(5.0) == math.inf

    def test_unsorted_profile_rejected(self):
        with pytest.raises(ValueError):
            PiecewiseLink("p", [(5.0, 1.0), (0.0, 2.0)])

    def test_empty_profile_rejected(self):
        with pytest.raises(ValueError):
            PiecewiseLink("p", [])


class TestStochasticLink:
    def test_capacity_is_base_times_factor(self):
        link = StochasticLink("s", 100.0, ConstantProcess(0.5))
        assert link.capacity_at(3.0) == 50.0

    def test_modulation_applies(self):
        link = StochasticLink(
            "s", 100.0, ConstantProcess(1.0), modulation=lambda t: 0.25
        )
        assert link.capacity_at(0.0) == 25.0

    def test_negative_modulation_clamped(self):
        link = StochasticLink(
            "s", 100.0, ConstantProcess(1.0), modulation=lambda t: -1.0
        )
        assert link.capacity_at(0.0) == 0.0

    def test_next_change_includes_modulation_grid(self):
        link = StochasticLink(
            "s",
            100.0,
            ConstantProcess(1.0),
            modulation=lambda t: 1.0,
            modulation_interval=300.0,
        )
        assert link.next_change_after(0.0) == 300.0
        assert link.next_change_after(299.0) == 300.0

    def test_next_change_is_min_of_process_and_modulation(self):
        process = LognormalProcess(seed=1, interval=4.0, sigma=0.1)
        link = StochasticLink(
            "s", 100.0, process, modulation=lambda t: 1.0,
            modulation_interval=300.0,
        )
        assert link.next_change_after(0.0) == 4.0


class TestChainHelpers:
    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            validate_chain([])

    def test_validate_chain_type_checks(self):
        with pytest.raises(TypeError):
            validate_chain([Link("a", 1.0), "not a link"])
