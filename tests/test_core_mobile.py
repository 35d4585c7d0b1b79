"""The mobile component's advertisement policy."""

import pytest

from repro.core.captracker import CapTracker
from repro.core.discovery import DiscoveryRegistry
from repro.core.mobile import MobileComponent, OperatingMode
from repro.core.permits import PermitServer
from repro.netsim.cellular import BaseStation, CellularDevice
from repro.util.units import MB


@pytest.fixture
def device():
    return CellularDevice("phone-a", BaseStation("bs", seed=1))


class TestMultiProviderMode:
    def test_advertises_with_quota(self, device):
        registry = DiscoveryRegistry()
        component = MobileComponent(
            device, registry, cap_tracker=CapTracker(20 * MB)
        )
        assert component.refresh(0.0)
        assert registry.lookup("phone-a", 1.0) is not None

    def test_withdraws_when_quota_exhausted(self, device):
        registry = DiscoveryRegistry()
        tracker = CapTracker(20 * MB)
        component = MobileComponent(device, registry, cap_tracker=tracker)
        component.refresh(0.0)
        tracker.record_usage(25 * MB, 10.0)
        # Metering leaves the ad alone; the next refresh withdraws it.
        assert registry.lookup("phone-a", 11.0) is not None
        assert not component.refresh(11.0)
        assert registry.lookup("phone-a", 11.0) is None

    def test_re_advertises_next_day(self, device):
        registry = DiscoveryRegistry()
        tracker = CapTracker(20 * MB)
        component = MobileComponent(device, registry, cap_tracker=tracker)
        component.refresh(0.0)
        tracker.record_usage(25 * MB, 10.0)
        assert not component.refresh(11.0)
        assert component.refresh(86_400.0 + 1.0)
        assert registry.lookup("phone-a", 86_400.0 + 2.0) is not None

    def test_requires_tracker(self, device):
        with pytest.raises(ValueError, match="CapTracker"):
            MobileComponent(device, DiscoveryRegistry())


class TestNetworkIntegratedMode:
    def make(self, device, utilization):
        registry = DiscoveryRegistry()
        server = PermitServer(lambda cell, now: utilization[0])
        component = MobileComponent(
            device,
            registry,
            mode=OperatingMode.NETWORK_INTEGRATED,
            permit_server=server,
        )
        return registry, server, component

    def test_advertises_with_permit(self, device):
        registry, _, component = self.make(device, [0.2])
        assert component.refresh(0.0)

    def test_silent_when_denied(self, device):
        registry, _, component = self.make(device, [0.95])
        assert not component.refresh(0.0)
        assert registry.lookup("phone-a", 1.0) is None

    def test_withdraws_after_congestion(self, device):
        utilization = [0.2]
        registry, server, component = self.make(device, utilization)
        assert component.refresh(0.0)
        utilization[0] = 0.95
        # Cached permit keeps it up until expiry...
        assert component.refresh(100.0)
        # ...then the advertisement goes away.
        assert not component.refresh(500.0)
        assert registry.lookup("phone-a", 501.0) is None

    def test_requires_permit_server(self, device):
        with pytest.raises(ValueError, match="PermitServer"):
            MobileComponent(
                device,
                DiscoveryRegistry(),
                mode=OperatingMode.NETWORK_INTEGRATED,
            )
