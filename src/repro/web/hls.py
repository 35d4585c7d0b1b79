"""HTTP Live Streaming (HLS) modelling.

The paper's downlink application is an HLS player (§4.1): the video is cut
into short segments, listed in an extended M3U (m3u8) playlist that the
player fetches first, then requested sequentially with one GET each.
Playback starts after an application-dependent pre-buffer fills.

We reproduce the paper's exact test asset: Apple's "bipbop" sample
re-segmented at 10 s per segment, duration forced to 200 s (the median
YouTube video length the paper cites), at the original four qualities
Q1=200, Q2=311, Q3=484, Q4=738 kbps. The playlist renderer/parser speaks
enough real m3u8 for the loopback prototype and the HLS-aware proxy to
interoperate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.proto.errors import PlaylistError
from repro.util.units import kbps, transfer_rate, transfer_volume
from repro.util.validate import check_positive

#: Default segment duration the paper keeps from the bipbop sample (§5.1).
DEFAULT_SEGMENT_SECONDS = 10.0
#: Video duration the paper forces: the median YouTube video length [2].
DEFAULT_VIDEO_SECONDS = 200.0


@dataclass(frozen=True)
class VideoQuality:
    """One rendition: a name and its encoded bitrate."""

    name: str
    bitrate_bps: float

    def __post_init__(self) -> None:
        check_positive("bitrate_bps", self.bitrate_bps)

    def segment_bytes(self, duration_s: float) -> float:
        """Encoded size of a segment of ``duration_s`` seconds."""
        check_positive("duration_s", duration_s)
        return transfer_volume(self.bitrate_bps, duration_s)


#: The four bipbop qualities (§5.1: 200/311/484/738 kbps).
BIPBOP_QUALITIES: Tuple[VideoQuality, ...] = (
    VideoQuality("Q1", kbps(200.0)),
    VideoQuality("Q2", kbps(311.0)),
    VideoQuality("Q3", kbps(484.0)),
    VideoQuality("Q4", kbps(738.0)),
)

_QUALITY_BY_NAME: Dict[str, VideoQuality] = {
    q.name: q for q in BIPBOP_QUALITIES
}


def quality_by_name(name: str) -> VideoQuality:
    """Look up one of the bipbop qualities by name (Q1..Q4)."""
    try:
        return _QUALITY_BY_NAME[name]
    except KeyError:
        raise KeyError(
            f"unknown quality {name!r}; expected one of "
            f"{sorted(_QUALITY_BY_NAME)}"
        ) from None


@dataclass(frozen=True)
class MediaSegment:
    """One HLS media segment: a URI, a duration and an encoded size."""

    index: int
    uri: str
    duration_s: float
    size_bytes: float

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"segment index must be >= 0, got {self.index}")
        check_positive("duration_s", self.duration_s)
        check_positive("size_bytes", self.size_bytes)


class HlsPlaylist:
    """A media playlist: an ordered list of segments for one quality."""

    def __init__(
        self,
        video_name: str,
        quality: VideoQuality,
        segments: Sequence[MediaSegment],
    ) -> None:
        if not segments:
            raise ValueError("playlist must contain at least one segment")
        indices = [s.index for s in segments]
        if indices != list(range(len(segments))):
            raise ValueError("segment indices must be 0..n-1 in order")
        self.video_name = video_name
        self.quality = quality
        self.segments: Tuple[MediaSegment, ...] = tuple(segments)

    @property
    def duration_s(self) -> float:
        """Total playout duration."""
        return sum(s.duration_s for s in self.segments)

    @property
    def total_bytes(self) -> float:
        """Total encoded size of the rendition."""
        return sum(s.size_bytes for s in self.segments)

    def segments_for_prebuffer(self, fraction: float) -> Tuple[MediaSegment, ...]:
        """Segments the player must hold before starting playout.

        ``fraction`` is the pre-buffer amount as a fraction of the video
        *duration* (the §5.2 sweep runs 20%..100%); at least one segment is
        always required.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        needed = fraction * self.duration_s
        chosen: List[MediaSegment] = []
        buffered = 0.0
        for segment in self.segments:
            chosen.append(segment)
            buffered += segment.duration_s
            if buffered >= needed - 1e-9:
                break
        return tuple(chosen)

    @property
    def playlist_uri(self) -> str:
        """URI of this media playlist."""
        return f"/{self.video_name}/{self.quality.name}/index.m3u8"


class VideoAsset:
    """A multi-quality video: one media playlist per rendition."""

    def __init__(
        self,
        name: str,
        duration_s: float = DEFAULT_VIDEO_SECONDS,
        segment_s: float = DEFAULT_SEGMENT_SECONDS,
        qualities: Sequence[VideoQuality] = BIPBOP_QUALITIES,
    ) -> None:
        check_positive("duration_s", duration_s)
        check_positive("segment_s", segment_s)
        if not qualities:
            raise ValueError("need at least one quality")
        self.name = name
        self.duration_s = float(duration_s)
        self.segment_s = float(segment_s)
        self.playlists: Dict[str, HlsPlaylist] = {}
        n_full = int(math.floor(duration_s / segment_s))
        tail = duration_s - n_full * segment_s
        for quality in qualities:
            segments = []
            for i in range(n_full):
                segments.append(
                    MediaSegment(
                        index=i,
                        uri=f"/{name}/{quality.name}/seg{i:05d}.ts",
                        duration_s=segment_s,
                        size_bytes=quality.segment_bytes(segment_s),
                    )
                )
            if tail > 1e-9:
                segments.append(
                    MediaSegment(
                        index=n_full,
                        uri=f"/{name}/{quality.name}/seg{n_full:05d}.ts",
                        duration_s=tail,
                        size_bytes=quality.segment_bytes(tail),
                    )
                )
            self.playlists[quality.name] = HlsPlaylist(name, quality, segments)

    def playlist(self, quality_name: str) -> HlsPlaylist:
        """Media playlist for one rendition."""
        try:
            return self.playlists[quality_name]
        except KeyError:
            raise KeyError(
                f"video {self.name!r} has no quality {quality_name!r}"
            ) from None


def make_bipbop_video(
    duration_s: float = DEFAULT_VIDEO_SECONDS,
    segment_s: float = DEFAULT_SEGMENT_SECONDS,
) -> VideoAsset:
    """The paper's test video: bipbop at 200 s, 10 s segments, Q1-Q4."""
    return VideoAsset(
        "bipbop",
        duration_s=duration_s,
        segment_s=segment_s,
        qualities=BIPBOP_QUALITIES,
    )


# ---------------------------------------------------------------------------
# m3u8 wire format (subset)
# ---------------------------------------------------------------------------


def render_m3u8(playlist: HlsPlaylist) -> str:
    """Render a media playlist in m3u8 text form.

    Covers the subset of RFC 8216 the prototype needs: header, target
    duration, EXTINF per segment, ENDLIST. Segment sizes are carried in a
    private ``#X-SIZE`` tag so the simulator can round-trip them.
    """
    lines = [
        "#EXTM3U",
        "#EXT-X-VERSION:3",
        f"#EXT-X-TARGETDURATION:{int(math.ceil(max(s.duration_s for s in playlist.segments)))}",
        "#EXT-X-MEDIA-SEQUENCE:0",
    ]
    for segment in playlist.segments:
        lines.append(f"#EXTINF:{segment.duration_s:.3f},")
        lines.append(f"#X-SIZE:{int(round(segment.size_bytes))}")
        lines.append(segment.uri)
    lines.append("#EXT-X-ENDLIST")
    return "\n".join(lines) + "\n"


#: Upper bound on segments a parsed playlist may carry: far above any
#: real rendition (200 s / 10 s = 20 segments) yet low enough that an
#: adversarial playlist cannot balloon the player's memory.
MAX_PLAYLIST_SEGMENTS = 65_536


def _parse_tag_number(tag: str, raw: str) -> float:
    """Strictly parse a numeric tag payload (finite, positive)."""
    try:
        value = float(raw)
    except ValueError:
        raise PlaylistError(f"{tag} carries non-numeric value {raw!r}") from None
    if not math.isfinite(value):
        raise PlaylistError(f"{tag} carries non-finite value {raw!r}")
    if value <= 0.0:
        raise PlaylistError(f"{tag} must be positive, got {raw!r}")
    return value


def parse_m3u8(
    text: Union[str, bytes],
    video_name: str = "video",
    quality: Optional[VideoQuality] = None,
) -> HlsPlaylist:
    """Parse an m3u8 media playlist rendered by :func:`render_m3u8`.

    Segment sizes come from the ``#X-SIZE`` tag when present, otherwise
    from ``quality.bitrate_bps * duration`` (a real playlist does not carry
    sizes, so a quality hint is then required).

    The parse path is fuzz-hardened: any malformed input — bad UTF-8,
    non-numeric or non-finite tag values, orphan URIs, structural lies —
    raises :class:`~repro.proto.errors.PlaylistError` (a
    :class:`ProtocolError`), never a bare builtin exception.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise PlaylistError(f"playlist is not valid UTF-8: {exc}") from None
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines or lines[0] != "#EXTM3U":
        raise PlaylistError("not an m3u8 playlist (missing #EXTM3U)")
    segments: List[MediaSegment] = []
    duration: Optional[float] = None
    size: Optional[float] = None
    for line in lines[1:]:
        if line.startswith("#EXTINF:"):
            raw = line[len("#EXTINF:"):].rstrip(",").split(",")[0]
            duration = _parse_tag_number("#EXTINF", raw)
        elif line.startswith("#X-SIZE:"):
            size = _parse_tag_number("#X-SIZE", line[len("#X-SIZE:"):])
        elif not line.startswith("#"):
            if duration is None:
                raise PlaylistError(f"segment {line!r} has no #EXTINF")
            if size is None:
                if quality is None:
                    raise PlaylistError(
                        f"segment {line!r} has no #X-SIZE and no quality hint"
                    )
                try:
                    size = quality.segment_bytes(duration)
                except ValueError as exc:
                    raise PlaylistError(
                        f"segment {line!r} has invalid duration: {exc}"
                    ) from exc
            if len(segments) >= MAX_PLAYLIST_SEGMENTS:
                raise PlaylistError(
                    f"playlist exceeds {MAX_PLAYLIST_SEGMENTS} segments"
                )
            try:
                segment = MediaSegment(
                    index=len(segments),
                    uri=line,
                    duration_s=duration,
                    size_bytes=size,
                )
            except ValueError as exc:
                raise PlaylistError(f"invalid segment {line!r}: {exc}") from exc
            segments.append(segment)
            duration = None
            size = None
    if not segments:
        raise PlaylistError("playlist contains no segments")
    if quality is None:
        try:
            # Per-segment values are validated, but their *sums* can
            # still overflow to inf on a hostile playlist.
            mean_bitrate = transfer_rate(
                sum(s.size_bytes for s in segments),
                sum(s.duration_s for s in segments),
            )
            quality = VideoQuality("parsed", mean_bitrate)
        except ValueError as exc:
            raise PlaylistError(f"inconsistent playlist: {exc}") from exc
    try:
        return HlsPlaylist(video_name, quality, segments)
    except ValueError as exc:
        raise PlaylistError(f"inconsistent playlist: {exc}") from exc
