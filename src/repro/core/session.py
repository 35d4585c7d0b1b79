"""The 3GOL session facade.

Ties the whole system together the way the deployed prototype does: a
household's client component discovers the admissible phones Φ on the LAN,
builds the multipath set (gateway + Φ), runs transactions through the
HLS-aware proxy or the multipart uploader, and a transfer guard meters the
cellular bytes into each phone's cap tracker.

This is the main entry point for library users::

    session = OnloadSession.for_location(EVALUATION_LOCATIONS[0], n_phones=2)
    origin = session.host_bipbop()
    report = session.download_video("bipbop", "Q4", prebuffer_fraction=0.2)
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.captracker import CapTracker
from repro.core.discovery import DiscoveryRegistry
from repro.core.items import Direction
from repro.core.mobile import MobileComponent, OperatingMode
from repro.core.permits import PermitServer
from repro.core.proxy import HlsAwareProxy, VideoDownloadReport
from repro.core.resilience import TransferGuard
from repro.core.uploader import MultipartUploader, UploadReport
from repro.netsim.cellular import CellularDevice
from repro.netsim.path import NetworkPath
from repro.netsim.topology import Household, HouseholdConfig, LocationProfile
from repro.util.units import megabytes
from repro.web.client import SequentialHttpClient
from repro.web.hls import VideoAsset, make_bipbop_video
from repro.web.origin import OriginServer
from repro.web.upload import Photo

#: The §6 working value: 20 MB per device per day, the average leftover
#: capacity observed in the MNO dataset.
DEFAULT_DAILY_BUDGET_BYTES = megabytes(20.0)


class OnloadSession:
    """One household running 3GOL."""

    def __init__(
        self,
        household: Household,
        mode: OperatingMode = OperatingMode.MULTI_PROVIDER,
        daily_budget_bytes: float = DEFAULT_DAILY_BUDGET_BYTES,
        permit_server: Optional[PermitServer] = None,
    ) -> None:
        self.household = household
        self.network = household.network
        self.registry = DiscoveryRegistry()
        self.permit_server = permit_server
        self.origin = OriginServer(
            down_bps=household.config.origin_down_bps,
            up_bps=household.config.origin_up_bps,
        )
        # The origin's NIC links are the ones the household already wired
        # into its paths; reuse them so the capacity constraint is shared.
        self.origin.downlink = household.origin_down
        self.origin.uplink = household.origin_up

        self.mobile_components: Dict[str, MobileComponent] = {}
        for phone in household.phones:
            tracker = (
                CapTracker(daily_budget_bytes)
                if mode is OperatingMode.MULTI_PROVIDER
                else None
            )
            component = MobileComponent(
                device=phone,
                registry=self.registry,
                mode=mode,
                cap_tracker=tracker,
                permit_server=permit_server,
            )
            component.refresh(self.network.time)
            self.mobile_components[phone.name] = component

    @classmethod
    def for_location(
        cls,
        location: LocationProfile,
        n_phones: int = 2,
        seed: int = 0,
        mode: OperatingMode = OperatingMode.MULTI_PROVIDER,
        daily_budget_bytes: float = DEFAULT_DAILY_BUDGET_BYTES,
        permit_server: Optional[PermitServer] = None,
        config: Optional[HouseholdConfig] = None,
    ) -> "OnloadSession":
        """Build a session for one of the location presets."""
        if config is None:
            config = HouseholdConfig(n_phones=n_phones, seed=seed)
        household = Household(location, config)
        return cls(
            household,
            mode=mode,
            daily_budget_bytes=daily_budget_bytes,
            permit_server=permit_server,
        )

    # ------------------------------------------------------------------
    # Discovery / path building
    # ------------------------------------------------------------------
    def admissible_phones(self) -> List[CellularDevice]:
        """Φ(t): phones currently advertising on the LAN."""
        now = self.network.time
        for component in self.mobile_components.values():
            component.refresh(now)
        # Explicit sweep: Φ shrinks even for phones whose component went
        # silent (left the house) and will never refresh again.
        self.registry.expire(now)
        advertised = {
            record.device_name for record in self.registry.browse(now)
        }
        return [
            phone
            for phone in self.household.phones
            if phone.name in advertised
        ]

    def paths_for(
        self, direction: Direction, max_phones: Optional[int] = None
    ) -> List[NetworkPath]:
        """Multipath set: the gateway path plus the admissible phones'."""
        phones = self.admissible_phones()
        if max_phones is not None:
            phones = phones[:max_phones]
        if direction is Direction.DOWNLOAD:
            return [self.household.adsl_down_path()] + [
                self.household.phone_down_path(p) for p in phones
            ]
        return [self.household.adsl_up_path()] + [
            self.household.phone_up_path(p) for p in phones
        ]

    # ------------------------------------------------------------------
    # Content
    # ------------------------------------------------------------------
    def host_bipbop(self, duration_s: float = 200.0) -> VideoAsset:
        """Host the paper's test video on the origin; returns the asset."""
        video = make_bipbop_video(duration_s=duration_s)
        self.origin.host_video(video)
        return video

    def host_video(self, video: VideoAsset) -> None:
        """Host an arbitrary video asset on the origin."""
        self.origin.host_video(video)

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------
    def _make_guard(self) -> TransferGuard:
        """Guard for one transfer: live revocation + incremental metering."""
        return TransferGuard(
            self.mobile_components, permit_server=self.permit_server
        )

    def download_video(
        self,
        video_name: str,
        quality: str,
        policy_name: str = "GRD",
        prebuffer_fraction: Optional[float] = 0.2,
        max_phones: Optional[int] = None,
        use_3gol: bool = True,
    ) -> VideoDownloadReport:
        """Download one rendition, with or without 3GOL assistance."""
        playlist = self.origin.video(video_name).playlist(quality)
        wired = self.household.adsl_down_path()
        paths = (
            self.paths_for(Direction.DOWNLOAD, max_phones=max_phones)
            if use_3gol
            else [wired]
        )
        proxy = HlsAwareProxy(self.network, self.origin, wired)
        return proxy.download(
            playlist.playlist_uri,
            paths,
            policy_name=policy_name,
            prebuffer_fraction=prebuffer_fraction,
            quality_label=quality,
            guard=self._make_guard(),
        )

    def upload_photos(
        self,
        photos: Sequence[Photo],
        policy_name: str = "GRD",
        max_phones: Optional[int] = None,
        use_3gol: bool = True,
    ) -> UploadReport:
        """Upload a photo set, with or without 3GOL assistance."""
        paths = (
            self.paths_for(Direction.UPLOAD, max_phones=max_phones)
            if use_3gol
            else [self.household.adsl_up_path()]
        )
        uploader = MultipartUploader(self.network)
        return uploader.upload(
            photos, paths, policy_name=policy_name, guard=self._make_guard()
        )

    def baseline_download_time(self, video_name: str, quality: str) -> float:
        """ADSL-alone total download time for one rendition (no proxy)."""
        playlist = self.origin.video(video_name).playlist(quality)
        client = SequentialHttpClient(
            self.network, self.household.adsl_down_path()
        )
        items = [(s.uri, s.size_bytes) for s in playlist.segments]
        return client.run(items)
