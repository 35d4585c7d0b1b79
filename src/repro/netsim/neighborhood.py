"""Multi-household neighbourhoods.

A :class:`Neighborhood` wires several households into *one* fluid network
with shared infrastructure on both sides of the bottleneck:

* all ADSL lines aggregate into one DSLAM backhaul (§2.1's
  oversubscription);
* all phones attach to the *same* cellular deployment, so 3GOL households
  compete for the shared HSDPA/HSUPA channels — the contention that §6's
  adoption analysis (Fig. 11c) models analytically appears here as real
  flow-level interaction.

This is the substrate for the neighbourhood-contention extension: the
paper's per-household results assume the 3GOL user is alone on the cell;
a deployment is not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.netsim.cellular import (
    BaseStation,
    CellularDevice,
    HspaParameters,
    build_station_cluster,
)
from repro.netsim.diurnal import DiurnalProfile, MOBILE_PROFILE
from repro.netsim.fluid import FluidNetwork
from repro.netsim.latency import ADSL_RTT, HSPA_RTT, RttModel
from repro.netsim.link import Link
from repro.netsim.path import NetworkPath
from repro.netsim.topology import LocationProfile
from repro.netsim.wifi import WifiNetwork
from repro.util.rng import RngFactory
from repro.util.units import mbps
from repro.util.validate import check_positive


@dataclass
class NeighborHome:
    """One home inside a neighbourhood: its own line, Wi-Fi and phones."""

    home_id: str
    adsl_down: Link
    adsl_up: Link
    wifi: Link
    phones: List[CellularDevice]


class Neighborhood:
    """K households sharing a DSLAM backhaul and a cellular deployment."""

    def __init__(
        self,
        location: LocationProfile,
        n_homes: int,
        phones_per_home: int = 2,
        dslam_backhaul_bps: float = mbps(50.0),
        hspa: Optional[HspaParameters] = None,
        origin_down_bps: float = mbps(200.0),
        origin_up_bps: float = mbps(80.0),
        load_profile: DiurnalProfile = MOBILE_PROFILE,
        wired_flow_cap_bps: Optional[float] = None,
        seed: int = 0,
        start_time: Optional[float] = None,
    ) -> None:
        if n_homes < 1:
            raise ValueError(f"n_homes must be >= 1, got {n_homes}")
        if phones_per_home < 0:
            raise ValueError(
                f"phones_per_home must be >= 0, got {phones_per_home}"
            )
        check_positive("dslam_backhaul_bps", dslam_backhaul_bps)
        self.location = location
        self.wired_flow_cap_bps = wired_flow_cap_bps
        if start_time is None:
            start_time = location.measurement_hour * 3600.0
        self.network = FluidNetwork(start_time=start_time)
        rng_factory = RngFactory(seed)

        self.origin_down = Link("nbh-origin-down", origin_down_bps)
        self.origin_up = Link("nbh-origin-up", origin_up_bps)
        self.dslam_down = Link("nbh-dslam-down", dslam_backhaul_bps)
        self.dslam_up = Link("nbh-dslam-up", dslam_backhaul_bps)
        self.stations: List[BaseStation] = build_station_cluster(
            location.n_stations,
            params=hspa or HspaParameters(),
            peak_utilization=location.peak_utilization,
            sectors_per_station=location.sectors_per_station,
            load_profile=load_profile,
            seed=rng_factory.derive_seed("stations") % 1_000_000,
            uplink_domains=location.uplink_domains,
            name_prefix="nbh-bs",
        )

        attach_rng = rng_factory.derive("attach")
        self.homes: List[NeighborHome] = []
        for index in range(n_homes):
            line = location.adsl_line()
            home_id = f"home-{index:02d}"
            wifi = WifiNetwork(name=f"{home_id}-wifi").build_link()
            phones = []
            for phone_index in range(phones_per_home):
                station = self.stations[
                    int(attach_rng.integers(0, len(self.stations)))
                ]
                phones.append(
                    CellularDevice(
                        name=f"{home_id}-phone{phone_index}",
                        station=station,
                        signal_dbm=location.signal_dbm,
                        seed=rng_factory.derive_seed(
                            f"{home_id}-ph{phone_index}"
                        )
                        % 1_000_000,
                    )
                )
            self.homes.append(
                NeighborHome(
                    home_id=home_id,
                    adsl_down=Link(
                        f"{home_id}-adsl-down", line.effective_down_bps
                    ),
                    adsl_up=Link(
                        f"{home_id}-adsl-up", line.effective_up_bps
                    ),
                    wifi=wifi,
                    phones=phones,
                )
            )

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def wired_down_path(
        self, home: NeighborHome, rtt: RttModel = ADSL_RTT
    ) -> NetworkPath:
        """A home's wired downlink, through the shared DSLAM backhaul."""
        return NetworkPath(
            f"{home.home_id}-wired-down",
            (self.origin_down, self.dslam_down, home.adsl_down, home.wifi),
            rtt=rtt,
            flow_rate_cap_bps=self.wired_flow_cap_bps,
        )

    def phone_down_path(
        self,
        home: NeighborHome,
        phone: CellularDevice,
        rtt: RttModel = HSPA_RTT,
    ) -> NetworkPath:
        """A phone's downlink proxy path (shared cellular deployment)."""
        links = (
            (self.origin_down,) + phone.downlink_chain() + (home.wifi,)
        )
        return NetworkPath(
            f"{phone.name}-down", links, rtt=rtt, device=phone
        )

    def download_paths(
        self, home: NeighborHome, use_3gol: bool = True
    ) -> List[NetworkPath]:
        """A home's multipath set."""
        paths = [self.wired_down_path(home)]
        if use_3gol:
            paths += [
                self.phone_down_path(home, phone) for phone in home.phones
            ]
        return paths

    def oversubscription_ratio(self) -> float:
        """Sum of line rates over the DSLAM backhaul capacity."""
        total = sum(
            home.adsl_down.capacity_at(self.network.time)
            for home in self.homes
        )
        return total / self.dslam_down.capacity_at(self.network.time)
