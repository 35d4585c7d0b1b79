"""Shared fixtures and hypothesis profiles for the test suite."""

import pytest
from hypothesis import settings

from repro.netsim.topology import Household, HouseholdConfig, LocationProfile
from repro.util.units import mbps

#: A long property run, selected with ``pytest --hypothesis-profile deep``.
#: Property tests that size themselves from the loaded profile (the
#: allocator property test in ``tests/test_netsim_fluid.py``) run ten
#: times their tier-1 examples under it.
settings.register_profile("deep", max_examples=2000, deadline=None)


@pytest.fixture
def quiet_location():
    """A calm night-time location: low congestion, good signal."""
    return LocationProfile(
        name="quiet",
        description="test location, low load",
        adsl_down_bps=mbps(4.0),
        adsl_up_bps=mbps(0.5),
        signal_dbm=-80.0,
        n_stations=2,
        peak_utilization=0.3,
        measurement_hour=1.0,
    )


@pytest.fixture
def household(quiet_location):
    """A two-phone household at the quiet location."""
    return Household(quiet_location, HouseholdConfig(n_phones=2, seed=42))
