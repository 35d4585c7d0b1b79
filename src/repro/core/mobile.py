"""The mobile component (§2.4, §4.1).

This is the software running on each phone: an HTTP proxy that "pipes
incoming connections through the 3G network", plus the advertisement
policy deciding whether the phone offers itself on the LAN:

* **network-integrated** mode: advertise only while holding a valid permit
  from the operator's 3GOL backend (§2.4);
* **multi-provider** mode: advertise only while today's cap quota
  A(t) = 3GOLa(t) − U(t) is positive (§6) — no input from the network.

The proxying itself is represented by the device's link chain (the
:class:`~repro.netsim.path.NetworkPath` built from it); this class owns
the *policy* state machine around it.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.core.captracker import CapTracker
from repro.core.discovery import DEFAULT_TTL, DiscoveryRegistry
from repro.core.permits import PermitServer
from repro.netsim.cellular import CellularDevice


class OperatingMode(enum.Enum):
    """Who authorises onloading."""

    NETWORK_INTEGRATED = "network-integrated"
    MULTI_PROVIDER = "multi-provider"


class MobileComponent:
    """Advertisement policy on one phone.

    Its bytes are metered by the :class:`~repro.core.resilience.FlowLedger`.
    """

    def __init__(
        self,
        device: CellularDevice,
        registry: DiscoveryRegistry,
        mode: OperatingMode = OperatingMode.MULTI_PROVIDER,
        cap_tracker: Optional[CapTracker] = None,
        permit_server: Optional[PermitServer] = None,
        proxy_port: int = 8080,
        advertisement_ttl: float = DEFAULT_TTL,
    ) -> None:
        if mode is OperatingMode.MULTI_PROVIDER and cap_tracker is None:
            raise ValueError("multi-provider mode requires a CapTracker")
        if mode is OperatingMode.NETWORK_INTEGRATED and permit_server is None:
            raise ValueError(
                "network-integrated mode requires a PermitServer"
            )
        self.device = device
        self.registry = registry
        self.mode = mode
        self.cap_tracker = cap_tracker
        self.permit_server = permit_server
        self.proxy_port = proxy_port
        self.advertisement_ttl = advertisement_ttl

    # ------------------------------------------------------------------
    # Authorisation
    # ------------------------------------------------------------------
    def is_authorized(self, now: float) -> bool:
        """May this phone onload right now, under its operating mode?"""
        if self.mode is OperatingMode.MULTI_PROVIDER:
            assert self.cap_tracker is not None
            return self.cap_tracker.may_advertise(now)
        assert self.permit_server is not None
        permit = self.permit_server.request_permit(
            self.device.name, self.device.sector.name, now
        )
        return permit is not None

    def refresh(self, now: float) -> bool:
        """Re-evaluate authorisation and sync the LAN advertisement.

        Called periodically (and before each transaction) — the mDNS
        refresh cycle. Returns the resulting advertisement state.
        """
        if self.is_authorized(now):
            self.registry.announce(
                self.device.name,
                now,
                port=self.proxy_port,
                ttl=self.advertisement_ttl,
            )
            return True
        self.registry.withdraw(self.device.name)
        return False
