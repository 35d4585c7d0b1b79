"""HLS-aware client proxy (§4.1).

"The client component intercepts the extended M3U (m3u8) playlist, and
using the scheduler it pre-fetches the segments by performing parallel
downloads." This module implements that interception: given a playlist
request, it fetches and parses the m3u8 over the wired path, converts the
segment list into a transaction, and hands it to the multipath scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.items import Direction, Transaction, TransferItem
from repro.core.resilience import RetryPolicy, TransferGuard
from repro.core.scheduler import make_policy
from repro.core.scheduler.runner import TransactionResult, TransactionRunner
from repro.netsim.fluid import FluidNetwork
from repro.netsim.path import NetworkPath
from repro.web.client import SequentialHttpClient
from repro.web.hls import HlsPlaylist, parse_m3u8
from repro.web.messages import HttpRequest
from repro.web.origin import OriginServer


@dataclass
class VideoDownloadReport:
    """What the user experiences for one onloaded video download."""

    quality: str
    #: Time to fetch and parse the playlist (always over the wired path).
    playlist_time: float
    #: Time from the initial request until the pre-buffer is full — the
    #: paper's "startup waiting time for the user".
    prebuffer_time: Optional[float]
    #: Time from the initial request until every segment is down.
    total_time: float
    result: TransactionResult


def segments_to_items(playlist: HlsPlaylist) -> List[TransferItem]:
    """Convert playlist segments to transaction items, in playout order."""
    return [
        TransferItem(
            label=segment.uri,
            size_bytes=segment.size_bytes,
            metadata={"index": segment.index, "duration_s": segment.duration_s},
        )
        for segment in playlist.segments
    ]


class HlsAwareProxy:
    """The client-side proxy: playlist interception + scheduled prefetch."""

    def __init__(
        self,
        network: FluidNetwork,
        origin: OriginServer,
        wired_path: NetworkPath,
    ) -> None:
        self.network = network
        self.origin = origin
        self.wired_path = wired_path

    def fetch_playlist(self, playlist_uri: str) -> tuple:
        """GET and parse the m3u8 over the wired path.

        Returns ``(playlist, elapsed_seconds)``. The playlist is tiny, so
        it is never worth onloading — the prototype fetches it through the
        gateway and only parallelises the segments.
        """
        response = self.origin.handle(HttpRequest("GET", playlist_uri))
        if not response.ok or response.body is None:
            raise LookupError(f"origin has no playlist at {playlist_uri!r}")
        client = SequentialHttpClient(self.network, self.wired_path)
        elapsed = client.run([(playlist_uri, max(response.body_bytes, 1.0))])
        playlist = parse_m3u8(response.body)
        return playlist, elapsed

    def download(
        self,
        playlist_uri: str,
        paths: Sequence[NetworkPath],
        policy_name: str = "GRD",
        prebuffer_fraction: Optional[float] = 0.2,
        quality_label: str = "",
        guard: Optional["TransferGuard"] = None,
        retry_policy: Optional[RetryPolicy] = None,
        stall_timeout_s: Optional[float] = None,
    ) -> VideoDownloadReport:
        """Play one video through the proxy.

        ``paths`` is the full multipath set (wired + admissible phones);
        ``prebuffer_fraction`` is the player's pre-buffer as a fraction of
        the video duration (None skips the pre-buffer measurement).
        ``guard`` (a :class:`~repro.core.resilience.TransferGuard`) makes
        the download react mid-flight to permit revocations and cap
        exhaustion, degrading to the surviving paths.
        """
        playlist, playlist_time = self.fetch_playlist(playlist_uri)
        items = segments_to_items(playlist)
        transaction = Transaction(
            items, direction=Direction.DOWNLOAD, name=playlist_uri
        )
        runner = TransactionRunner(
            self.network,
            list(paths),
            make_policy(policy_name),
            retry_policy=retry_policy,
            stall_timeout_s=stall_timeout_s,
        )
        if guard is not None:
            guard.attach(runner, paths)
        result = runner.run(transaction)
        if guard is not None:
            guard.finalize(result)
        prebuffer_time: Optional[float] = None
        if prebuffer_fraction is not None:
            needed = playlist.segments_for_prebuffer(prebuffer_fraction)
            prebuffer_time = playlist_time + result.time_to_complete(
                [segment.uri for segment in needed]
            )
        if not quality_label:
            # Playlist URIs follow /<video>/<quality>/index.m3u8; fall
            # back to the parser's synthetic name for foreign layouts.
            parts = [p for p in playlist_uri.split("/") if p]
            quality_label = parts[-2] if len(parts) >= 2 else playlist.quality.name
        return VideoDownloadReport(
            quality=quality_label,
            playlist_time=playlist_time,
            prebuffer_time=prebuffer_time,
            total_time=playlist_time + result.total_time,
            result=result,
        )
