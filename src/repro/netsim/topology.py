"""Scenario builders: wire a household into a fluid network.

A :class:`Household` materialises the full 3GOL data plane of Fig. 2:

* the origin web server (the paper uses a dedicated server with 100 Mbps
  down / 40 Mbps up, §5);
* the ADSL line of the home;
* the home Wi-Fi LAN that every participating device shares (§4.1 runs the
  worst case where even the client is on Wi-Fi);
* N phones attached to the cellular deployment of the location.

It exposes ready-made :class:`~repro.netsim.path.NetworkPath` objects for
the scheduler: one wired path (via the gateway/ADSL) and one path per
phone, per direction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.netsim.adsl import AdslLine
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
from repro.netsim.wifi import WIFI_80211N, WifiNetwork
from repro.util.rng import RngFactory
from repro.util.units import mbps
from repro.util.validate import check_fraction, check_positive


@dataclass(frozen=True)
class LocationProfile:
    """Everything location-dependent in the experiments.

    One instance per row of Table 2 (measurement campaign) and Table 4
    (in-the-wild evaluation); custom profiles can be built for new
    scenarios.
    """

    name: str
    description: str
    adsl_down_bps: float
    adsl_up_bps: float
    signal_dbm: float = -85.0
    n_stations: int = 2
    sectors_per_station: Tuple[int, ...] = (1,)
    peak_utilization: float = 0.5
    measurement_hour: float = 12.0
    #: See :class:`repro.netsim.adsl.AdslLine`: 1.0 for measured speeds,
    #: lower when the quoted rate is a plan/sync rate.
    adsl_goodput_efficiency: float = 1.0
    #: Independent HSUPA interference domains at the location (see
    #: :class:`repro.netsim.cellular.CellSector`). 1 reproduces the §3
    #: uplink plateau at ~5.76 Mbps; Location 3's dense deployment gets 2.
    uplink_domains: int = 1

    def __post_init__(self) -> None:
        check_positive("adsl_down_bps", self.adsl_down_bps)
        check_positive("adsl_up_bps", self.adsl_up_bps)
        check_fraction("peak_utilization", self.peak_utilization)
        if self.n_stations < 1:
            raise ValueError(f"n_stations must be >= 1, got {self.n_stations}")

    def adsl_line(self) -> AdslLine:
        """The location's ADSL line."""
        return AdslLine(
            down_bps=self.adsl_down_bps,
            up_bps=self.adsl_up_bps,
            name=f"{self.name}-adsl",
            goodput_efficiency=self.adsl_goodput_efficiency,
        )


# ---------------------------------------------------------------------------
# Location presets
# ---------------------------------------------------------------------------

#: The six measurement locations of Table 2. DSL speeds come straight from
#: the table; congestion (peak utilisation) and station density are
#: calibrated so the measured 3G throughputs land near the table's values
#: at each location's measurement hour.
MEASUREMENT_LOCATIONS: Tuple[LocationProfile, ...] = (
    LocationProfile(
        name="location1",
        description="Densely populated residential area (city center), 1 a.m.",
        adsl_down_bps=mbps(3.44),
        adsl_up_bps=mbps(0.30),
        signal_dbm=-79.0,
        n_stations=2,
        sectors_per_station=(1,),
        peak_utilization=0.45,
        measurement_hour=1.0,
    ),
    LocationProfile(
        name="location2",
        description="Office area at rush hour, 4 p.m.",
        adsl_down_bps=mbps(4.51),
        adsl_up_bps=mbps(0.47),
        signal_dbm=-91.0,
        n_stations=2,
        sectors_per_station=(1,),
        peak_utilization=0.62,
        measurement_hour=16.0,
    ),
    LocationProfile(
        name="location3",
        description="Residential area in tourist hotspot, 10 p.m.",
        adsl_down_bps=mbps(6.72),
        adsl_up_bps=mbps(0.84),
        signal_dbm=-95.0,
        n_stations=3,
        sectors_per_station=(2,),
        peak_utilization=0.72,
        measurement_hour=22.0,
        uplink_domains=2,
    ),
    LocationProfile(
        name="location4",
        description="Sparsely populated residential area (suburbs), 1 a.m.",
        adsl_down_bps=mbps(2.84),
        adsl_up_bps=mbps(0.45),
        signal_dbm=-85.0,
        n_stations=2,
        sectors_per_station=(1,),
        peak_utilization=0.40,
        measurement_hour=1.0,
    ),
    LocationProfile(
        name="location5",
        description="Densely populated residential area (city center)",
        adsl_down_bps=mbps(8.57),
        adsl_up_bps=mbps(0.63),
        signal_dbm=-87.0,
        n_stations=2,
        sectors_per_station=(1,),
        peak_utilization=0.55,
        measurement_hour=12.0,
    ),
    LocationProfile(
        name="location6",
        description="Densely populated residential area (city center), VDSL",
        adsl_down_bps=mbps(55.48),
        adsl_up_bps=mbps(11.35),
        signal_dbm=-99.0,
        n_stations=1,
        sectors_per_station=(1,),
        peak_utilization=0.78,
        measurement_hour=12.0,
    ),
)

#: The five in-the-wild evaluation locations of Table 4 (§5.2), with the
#: reported ADSL speeds and 3G signal strengths.
EVALUATION_LOCATIONS: Tuple[LocationProfile, ...] = (
    LocationProfile(
        name="loc1",
        description="Eval location 1",
        adsl_down_bps=mbps(6.48),
        adsl_up_bps=mbps(0.83),
        signal_dbm=-81.0,
        peak_utilization=0.50,
        measurement_hour=9.0,
    ),
    LocationProfile(
        name="loc2",
        description="Eval location 2 (fastest ADSL)",
        adsl_down_bps=mbps(21.64),
        adsl_up_bps=mbps(2.77),
        signal_dbm=-95.0,
        peak_utilization=0.55,
        measurement_hour=9.0,
    ),
    LocationProfile(
        name="loc3",
        description="Eval location 3",
        adsl_down_bps=mbps(8.67),
        adsl_up_bps=mbps(0.62),
        signal_dbm=-97.0,
        peak_utilization=0.55,
        measurement_hour=9.0,
    ),
    LocationProfile(
        name="loc4",
        description="Eval location 4 (slowest ADSL)",
        adsl_down_bps=mbps(6.20),
        adsl_up_bps=mbps(0.65),
        signal_dbm=-89.0,
        peak_utilization=0.50,
        measurement_hour=9.0,
    ),
    LocationProfile(
        name="loc5",
        description="Eval location 5",
        adsl_down_bps=mbps(6.82),
        adsl_up_bps=mbps(0.58),
        signal_dbm=-89.0,
        peak_utilization=0.50,
        measurement_hour=9.0,
    ),
)

#: The §5.1 scheduler-comparison testbed line. The quoted "2 Mbps" is the
#: plan rate; effective TCP goodput on an ATM-framed ADSL line with the
#: player's sequential request pattern is markedly lower (the paper's own
#: ADSL-alone times imply ~1 Mbps effective), modelled by the
#: goodput-efficiency factor.
TESTBED_LOCATION = LocationProfile(
    name="testbed",
    description="Scheduler-comparison testbed (2 Mbps ADSL, night)",
    adsl_down_bps=mbps(2.0),
    adsl_up_bps=mbps(0.512),
    signal_dbm=-79.0,
    n_stations=2,
    peak_utilization=0.30,
    measurement_hour=1.0,
    adsl_goodput_efficiency=0.55,
)


def location_by_name(name: str) -> LocationProfile:
    """Look up a preset location by name across both tables."""
    for profile in MEASUREMENT_LOCATIONS + EVALUATION_LOCATIONS:
        if profile.name == name:
            return profile
    raise KeyError(f"unknown location {name!r}")


# ---------------------------------------------------------------------------
# Household
# ---------------------------------------------------------------------------


@dataclass
class HouseholdConfig:
    """Knobs for building a household scenario."""

    n_phones: int = 2
    wifi: WifiNetwork = field(default_factory=lambda: WifiNetwork(WIFI_80211N))
    origin_down_bps: float = mbps(100.0)
    origin_up_bps: float = mbps(40.0)
    adsl_rtt: RttModel = ADSL_RTT
    cellular_rtt: RttModel = HSPA_RTT
    hspa: HspaParameters = field(default_factory=HspaParameters)
    load_profile: DiurnalProfile = MOBILE_PROFILE
    #: Probability a device camps on the strongest (first) base station.
    #: Devices do spread across stations ("devices are associated with at
    #: least two different base stations at all locations", §3), which is
    #: what lets the downlink aggregate scale across sectors; the uplink
    #: plateau comes from the location-wide HSUPA interference domain,
    #: not from attachment.
    station_dominance: float = 0.55
    #: Per-flow TCP rate caps (bits/second, None = uncapped): a single
    #: window-limited connection to a distant origin tops out near
    #: rwnd/RTT regardless of access speed. The in-the-wild experiments
    #: (§5.2) set the wired cap to reproduce the effective throughputs the
    #: paper's gains imply; the testbed experiments leave them None.
    wired_flow_cap_bps: Optional[float] = None
    cellular_flow_cap_bps: Optional[float] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_phones < 0:
            raise ValueError(f"n_phones must be >= 0, got {self.n_phones}")
        check_positive("origin_down_bps", self.origin_down_bps)
        check_positive("origin_up_bps", self.origin_up_bps)
        check_fraction("station_dominance", self.station_dominance)


class Household:
    """A home with an ADSL line, a Wi-Fi LAN, and N 3GOL-capable phones."""

    def __init__(
        self,
        location: LocationProfile,
        config: Optional[HouseholdConfig] = None,
        start_time: Optional[float] = None,
    ) -> None:
        self.location = location
        self.config = config or HouseholdConfig()
        if start_time is None:
            start_time = location.measurement_hour * 3600.0
        self.network = FluidNetwork(start_time=start_time)

        rng_factory = RngFactory(self.config.seed)
        self.adsl = location.adsl_line()
        self.wifi_link = self.config.wifi.build_link()
        self.origin_down = Link("origin-down", self.config.origin_down_bps)
        self.origin_up = Link("origin-up", self.config.origin_up_bps)

        self.stations: List[BaseStation] = build_station_cluster(
            location.n_stations,
            params=self.config.hspa,
            peak_utilization=location.peak_utilization,
            sectors_per_station=location.sectors_per_station,
            load_profile=self.config.load_profile,
            seed=rng_factory.derive_seed("stations") % 1_000_000,
            uplink_domains=location.uplink_domains,
        )
        self.phones: List[CellularDevice] = []
        self._attach_rng = rng_factory.derive("attach")
        for _ in range(self.config.n_phones):
            self.add_phone(signal_dbm=location.signal_dbm)

    # ------------------------------------------------------------------
    # Device management
    # ------------------------------------------------------------------
    def add_phone(
        self,
        signal_dbm: Optional[float] = None,
        station: Optional[BaseStation] = None,
    ) -> CellularDevice:
        """Attach one more phone to the cellular deployment.

        Attachment is skewed toward the strongest station (see
        ``HouseholdConfig.station_dominance``) but the paper notes devices
        were associated with at least two stations at every location, so
        with several devices the spill-over stations do see attachments —
        which is what lets downlink aggregation scale past one cell.
        """
        index = len(self.phones)
        if signal_dbm is None:
            signal_dbm = self.location.signal_dbm
        if station is None:
            if len(self.stations) == 1:
                station = self.stations[0]
            else:
                dominance = self.config.station_dominance
                weights = [dominance] + [
                    (1.0 - dominance) / (len(self.stations) - 1)
                ] * (len(self.stations) - 1)
                pick = int(
                    self._attach_rng.choice(len(self.stations), p=weights)
                )
                station = self.stations[pick]
        phone = CellularDevice(
            name=f"{self.location.name}-phone{index}",
            station=station,
            signal_dbm=signal_dbm,
            seed=self.config.seed * 10_000 + index + 1,
        )
        self.phones.append(phone)
        return phone

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def adsl_down_path(self) -> NetworkPath:
        """Wired downlink path: origin -> ADSL -> Wi-Fi -> client."""
        return NetworkPath(
            f"{self.location.name}-adsl-down",
            (self.origin_down, self.adsl.downlink, self.wifi_link),
            rtt=self.config.adsl_rtt,
            flow_rate_cap_bps=self.config.wired_flow_cap_bps,
        )

    def adsl_up_path(self) -> NetworkPath:
        """Wired uplink path: client -> Wi-Fi -> ADSL -> origin."""
        return NetworkPath(
            f"{self.location.name}-adsl-up",
            (self.wifi_link, self.adsl.uplink, self.origin_up),
            rtt=self.config.adsl_rtt,
            flow_rate_cap_bps=self.config.wired_flow_cap_bps,
        )

    def phone_down_path(self, phone: CellularDevice) -> NetworkPath:
        """3G downlink path through ``phone``'s proxy."""
        links = (self.origin_down,) + phone.downlink_chain() + (self.wifi_link,)
        return NetworkPath(
            f"{phone.name}-down",
            links,
            rtt=self.config.cellular_rtt,
            device=phone,
            flow_rate_cap_bps=self.config.cellular_flow_cap_bps,
        )

    def phone_up_path(self, phone: CellularDevice) -> NetworkPath:
        """3G uplink path through ``phone``'s proxy."""
        links = (self.wifi_link,) + phone.uplink_chain() + (self.origin_up,)
        return NetworkPath(
            f"{phone.name}-up",
            links,
            rtt=self.config.cellular_rtt,
            device=phone,
            flow_rate_cap_bps=self.config.cellular_flow_cap_bps,
        )

    def download_paths(self, n_phones: Optional[int] = None) -> List[NetworkPath]:
        """ADSL downlink plus the first ``n_phones`` 3G downlink paths."""
        phones = self.phones if n_phones is None else self.phones[:n_phones]
        return [self.adsl_down_path()] + [
            self.phone_down_path(p) for p in phones
        ]

    def upload_paths(self, n_phones: Optional[int] = None) -> List[NetworkPath]:
        """ADSL uplink plus the first ``n_phones`` 3G uplink paths."""
        phones = self.phones if n_phones is None else self.phones[:n_phones]
        return [self.adsl_up_path()] + [self.phone_up_path(p) for p in phones]

    def cellular_only_paths(
        self, direction_down: bool = True, n_phones: Optional[int] = None
    ) -> List[NetworkPath]:
        """3G paths only — used by the §3 measurement-campaign experiments."""
        phones = self.phones if n_phones is None else self.phones[:n_phones]
        if direction_down:
            return [self.phone_down_path(p) for p in phones]
        return [self.phone_up_path(p) for p in phones]
