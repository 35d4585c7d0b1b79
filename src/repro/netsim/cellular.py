"""HSPA cellular network model.

The paper's §3 measurements run on a live UMTS/HSPA network; here the same
behaviour is produced by a calibrated model with three layers of capacity
constraints, each materialised as a fluid-simulator link:

* a **per-device access link** — the rate the device's radio can achieve
  under its conditions: a nominal per-device HSDPA/HSUPA rate scaled by a
  signal-quality factor and fast lognormal fading;
* a **per-sector HSDPA channel** (downlink, ~7.2 Mbps usable) shared
  max-min among the sector's devices, with available capacity modulated by
  a diurnal background-load curve (other subscribers);
* a **per-location HSUPA interference domain** (uplink, 5.76 Mbps):
  uplink capacity is noise-rise-limited where the phones *are*, not per
  serving cell, so co-located devices share one domain regardless of
  attachment;
* a **per-station backhaul** — the 40-50 Mbps link §2.1 quotes.

With these constraints the headline shapes of §3 emerge rather than being
scripted: downlink aggregation grows near-linearly up to ~10 devices
(devices spread over 2-3 stations, each sector contributing its HSDPA
capacity, reaching ~11-14 Mbps), the uplink aggregate plateaus just under
5.76 Mbps at ~5 devices, and only Location 3's second interference domain
(dense, well-separated infrastructure) lets a cluster exceed one channel's
cap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.netsim.diurnal import DiurnalProfile, MOBILE_PROFILE
from repro.netsim.link import Link, StochasticLink
from repro.netsim.radio import RadioStateMachine, RrcParameters
from repro.netsim.stochastic import LognormalProcess
from repro.util.rng import RngFactory
from repro.util.units import kbps, mbps
from repro.util.validate import check_fraction, check_positive


def quality_from_dbm(signal_dbm: float) -> float:
    """Map received signal strength (dBm) to a throughput quality factor.

    Linear ramp from poor (-105 dBm -> 0.35) to excellent (-75 dBm -> 1.0),
    clipped at both ends. Table 4's locations span -81 to -97 dBm, i.e.
    factors of roughly 0.95 down to 0.45 — enough to make signal strength
    visibly matter in §5's per-location results.
    """
    factor = (signal_dbm + 105.0) / 30.0 * 0.65 + 0.35
    return float(min(max(factor, 0.35), 1.0))


def dbm_to_asu(signal_dbm: float) -> int:
    """GSM/UMTS ASU value for a dBm reading (as Android reports it)."""
    return int(round((signal_dbm + 113.0) / 2.0))


@dataclass(frozen=True)
class HspaParameters:
    """Capacities of the HSPA deployment (bits/second).

    Defaults reflect the network of the paper's measurements: HSDPA with a
    usable cell throughput of ~7.2 Mbps (Category-8 deployments were the
    norm in 2011-13 European networks; Table 3's five-device per-device
    mean of 1.16 Mbps implies ~6 Mbps of usable shared capacity), HSUPA
    capped at its nominal 5.76 Mbps (the plateau explicitly identified in
    §3), per-device achievable rates of ~2.8/2.0 Mbps under good
    conditions (Fig. 4 sees single-device throughput up to 2.5 Mbps in
    either direction), UMTS dedicated-channel reference floors of
    360/64 kbps (the solid lines of Fig. 5), and a 45 Mbps station
    backhaul (§2.1 quotes 40-50 Mbps).
    """

    hsdpa_cell_bps: float = mbps(7.2)
    hsupa_cell_bps: float = mbps(5.76)
    device_down_bps: float = mbps(2.8)
    device_up_bps: float = mbps(2.0)
    dedicated_down_bps: float = kbps(360.0)
    dedicated_up_bps: float = kbps(64.0)
    backhaul_bps: float = mbps(45.0)
    fading_sigma_down: float = 0.38
    fading_sigma_up: float = 0.45
    fading_interval: float = 4.0

    def __post_init__(self) -> None:
        for name in (
            "hsdpa_cell_bps",
            "hsupa_cell_bps",
            "device_down_bps",
            "device_up_bps",
            "dedicated_down_bps",
            "dedicated_up_bps",
            "backhaul_bps",
        ):
            check_positive(name, getattr(self, name))


class CellSector:
    """One sector of a base station: the pair of shared HSPA channels.

    The HSDPA downlink channel is a per-sector resource. The HSUPA uplink
    is *interference-limited at the location*: phones transmitting from
    the same spot raise the noise floor for each other no matter which
    station serves them, so by default all sectors reference a shared
    per-location uplink domain (``shared_uplink``) — this is what makes
    the paper's uplink aggregate plateau near one channel's 5.76 Mbps
    even where several stations are reachable, while the downlink keeps
    scaling across sectors (§3). Locations with dense, well-separated
    infrastructure (the paper's Location 3) get more than one domain.
    """

    def __init__(
        self,
        name: str,
        params: HspaParameters,
        rng_factory: RngFactory,
        peak_utilization: float = 0.5,
        load_profile: DiurnalProfile = MOBILE_PROFILE,
        load_sigma: float = 0.08,
        shared_uplink: Optional[StochasticLink] = None,
    ) -> None:
        self.name = name
        self.params = params
        self.peak_utilization = check_fraction(
            "peak_utilization", peak_utilization
        )
        free_curve = load_profile.free_capacity_curve(peak_utilization)
        self.downlink = StochasticLink(
            f"{name}-hsdpa",
            params.hsdpa_cell_bps,
            LognormalProcess(
                seed=rng_factory.derive_seed("hsdpa"),
                interval=params.fading_interval,
                sigma=load_sigma,
                floor=0.3,
                ceiling=1.3,
            ),
            modulation=free_curve,
        )
        if shared_uplink is not None:
            self.uplink = shared_uplink
        else:
            self.uplink = StochasticLink(
                f"{name}-hsupa",
                params.hsupa_cell_bps,
                LognormalProcess(
                    seed=rng_factory.derive_seed("hsupa"),
                    interval=params.fading_interval,
                    sigma=load_sigma,
                    floor=0.3,
                    ceiling=1.3,
                ),
                modulation=free_curve,
            )


def make_uplink_domain(
    name: str,
    params: HspaParameters,
    seed: int,
    peak_utilization: float = 0.5,
    load_profile: DiurnalProfile = MOBILE_PROFILE,
    load_sigma: float = 0.08,
) -> StochasticLink:
    """One location-wide HSUPA interference domain."""
    free_curve = load_profile.free_capacity_curve(
        check_fraction("peak_utilization", peak_utilization)
    )
    return StochasticLink(
        f"{name}-hsupa",
        params.hsupa_cell_bps,
        LognormalProcess(
            seed=seed,
            interval=params.fading_interval,
            sigma=load_sigma,
            floor=0.3,
            ceiling=1.3,
        ),
        modulation=free_curve,
    )


class BaseStation:
    """A base station: one or more sectors plus a shared backhaul."""

    def __init__(
        self,
        name: str,
        params: HspaParameters = HspaParameters(),
        n_sectors: int = 1,
        peak_utilization: float = 0.5,
        load_profile: DiurnalProfile = MOBILE_PROFILE,
        seed: int = 0,
        shared_uplink: Optional[StochasticLink] = None,
    ) -> None:
        if n_sectors < 1:
            raise ValueError(f"n_sectors must be >= 1, got {n_sectors}")
        self.name = name
        self.params = params
        rng_factory = RngFactory(seed)
        self.sectors: List[CellSector] = [
            CellSector(
                f"{name}-s{i}",
                params,
                rng_factory.child(f"sector{i}"),
                peak_utilization=peak_utilization,
                load_profile=load_profile,
                shared_uplink=shared_uplink,
            )
            for i in range(n_sectors)
        ]
        # Backhaul carries both directions; modelled as two half-capacity
        # links so a saturated uplink cannot starve the downlink.
        self.backhaul_down = Link(f"{name}-bh-down", params.backhaul_bps)
        self.backhaul_up = Link(f"{name}-bh-up", params.backhaul_bps)

    def pick_sector(self, rng: np.random.Generator) -> CellSector:
        """Sector a newly attaching device lands on (uniform)."""
        index = int(rng.integers(0, len(self.sectors)))
        return self.sectors[index]


class CellularDevice:
    """A phone with a 3G data connection, attachable to a sector.

    The device contributes one access link per direction whose nominal
    rate is the per-device HSPA rate scaled by the signal-quality factor,
    with lognormal fading on top. The RRC state machine supplies the
    channel-acquisition delay for transfers started from idle.
    """

    _ids = itertools.count(1)

    @classmethod
    def _reset_ids(cls) -> None:
        """Restart the id stream (per-experiment isolation; see runner)."""
        cls._ids = itertools.count(1)

    def __init__(
        self,
        name: str,
        station: BaseStation,
        signal_dbm: float = -85.0,
        sector: Optional[CellSector] = None,
        rrc_params: RrcParameters = RrcParameters(),
        seed: Optional[int] = None,
    ) -> None:
        self.device_id = next(CellularDevice._ids)
        self.name = name
        self.station = station
        self.signal_dbm = float(signal_dbm)
        self.quality = quality_from_dbm(signal_dbm)
        params = station.params
        if seed is None:
            seed = self.device_id
        rng_factory = RngFactory(seed)
        if sector is None:
            sector = station.pick_sector(rng_factory.derive("attach"))
        self.sector = sector
        self.radio = RadioStateMachine(rrc_params)
        self.access_down = StochasticLink(
            f"{name}-3g-down",
            params.device_down_bps * self.quality,
            LognormalProcess(
                seed=rng_factory.derive_seed("fade-down"),
                interval=params.fading_interval,
                sigma=params.fading_sigma_down,
                floor=0.15,
                ceiling=1.6,
            ),
        )
        self.access_up = StochasticLink(
            f"{name}-3g-up",
            params.device_up_bps * self.quality,
            LognormalProcess(
                seed=rng_factory.derive_seed("fade-up"),
                interval=params.fading_interval,
                sigma=params.fading_sigma_up,
                floor=0.15,
                ceiling=1.6,
            ),
        )

    @property
    def signal_asu(self) -> int:
        """Signal strength in Android's ASU scale."""
        return dbm_to_asu(self.signal_dbm)

    def downlink_chain(self) -> Tuple[Link, ...]:
        """Links a download over this device traverses (3G half only)."""
        return (
            self.access_down,
            self.sector.downlink,
            self.station.backhaul_down,
        )

    def uplink_chain(self) -> Tuple[Link, ...]:
        """Links an upload over this device traverses (3G half only)."""
        return (self.access_up, self.sector.uplink, self.station.backhaul_up)

    def acquire_channel(self, now: float) -> float:
        """Begin activity at ``now``; returns the acquisition delay."""
        return self.radio.acquire(now)

    def __repr__(self) -> str:
        return (
            f"CellularDevice({self.name!r}, sector={self.sector.name!r}, "
            f"signal={self.signal_dbm:.0f} dBm)"
        )


def build_station_cluster(
    count: int,
    params: HspaParameters = HspaParameters(),
    peak_utilization: float = 0.5,
    sectors_per_station: Sequence[int] = (1,),
    load_profile: DiurnalProfile = MOBILE_PROFILE,
    seed: int = 0,
    name_prefix: str = "bs",
    uplink_domains: int = 1,
) -> List[BaseStation]:
    """Build the base stations covering one measurement location.

    ``sectors_per_station`` is cycled over the stations; e.g. ``(1, 2)``
    with ``count=2`` yields one single-sector and one dual-sector station
    (the Location-3 "tourist hub" configuration of §3).

    ``uplink_domains`` is the number of independent HSUPA interference
    domains at the location (see :class:`CellSector`); stations are
    assigned to domains round-robin. ``0`` disables sharing entirely
    (every sector gets a private uplink channel).
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if uplink_domains < 0:
        raise ValueError(f"uplink_domains must be >= 0, got {uplink_domains}")
    domains: List[Optional[StochasticLink]] = []
    if uplink_domains > 0:
        domains = [
            make_uplink_domain(
                f"{name_prefix}-updom{d}",
                params,
                seed=seed * 1000 + 777 + d,
                peak_utilization=peak_utilization,
                load_profile=load_profile,
            )
            for d in range(uplink_domains)
        ]
    stations = []
    for i in range(count):
        n_sectors = sectors_per_station[i % len(sectors_per_station)]
        shared = domains[i % len(domains)] if domains else None
        stations.append(
            BaseStation(
                f"{name_prefix}{i}",
                params=params,
                n_sectors=n_sectors,
                peak_utilization=peak_utilization,
                load_profile=load_profile,
                seed=seed * 1000 + i,
                shared_uplink=shared,
            )
        )
    return stations


#: §2.3: "If 4G is available, the concept of 3GOL is even more
#: compelling. With the reduced latency, and the large increase of
#: bandwidth, the period of powerboosting time might be extremely short."
#: Early-LTE figures: ~37 Mbps usable cell downlink, ~12 Mbps uplink,
#: per-device rates around 12/6 Mbps, and much faster fading dynamics
#: are irrelevant at these durations, so the HSPA sigmas are kept.
LTE_PARAMETERS = HspaParameters(
    hsdpa_cell_bps=mbps(37.0),
    hsupa_cell_bps=mbps(12.0),
    device_down_bps=mbps(12.0),
    device_up_bps=mbps(6.0),
    dedicated_down_bps=mbps(1.0),
    dedicated_up_bps=mbps(0.5),
    backhaul_bps=mbps(150.0),
)

#: LTE RRC: connection setup is an order of magnitude faster than UMTS
#: (~100 ms idle->connected, short DRX-driven demotions).
LTE_RRC_PARAMETERS = RrcParameters(
    idle_to_dch_delay=0.1,
    fach_to_dch_delay=0.02,
    dch_inactivity_timeout=10.0,
    fach_inactivity_timeout=60.0,
)
