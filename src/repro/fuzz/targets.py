"""The four fuzz targets: every parser on the 3GOL data path.

A target couples an ``execute`` callable (feed it arbitrary bytes; it
must either succeed or raise a :class:`~repro.proto.errors.ProtocolError`)
with the seed corpus the mutators start from and the grammar-aware
mutator set for that format. Wire parsers that read from sockets are fed
through :class:`FakeSocket`, an in-memory stand-in that serves a byte
buffer and then reports a clean close — no real I/O, no timing, no
nondeterminism.
"""

from __future__ import annotations

import socket
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple, cast

from repro.fuzz import structured
from repro.fuzz.mutators import Mutator
from repro.proto import httpwire
from repro.web.hls import make_bipbop_video, parse_m3u8, render_m3u8
from repro.web.upload import (
    DEFAULT_BOUNDARY,
    MultipartPart,
    Photo,
    decode_multipart,
    encode_multipart,
    encode_photo_upload,
)


class FakeSocket:
    """An in-memory socket serving a fixed byte buffer.

    ``recv`` hands out slices of the buffer until it is exhausted, then
    returns ``b""`` (a clean peer close). ``settimeout`` is accepted and
    remembered but never fires — fuzzing is pure CPU, nothing stalls.
    """

    def __init__(self, payload: bytes, chunk: int = 4096) -> None:
        self._payload = payload
        self._offset = 0
        self._chunk = chunk
        self._timeout: Optional[float] = None
        self.sent = bytearray()

    def recv(self, size: int) -> bytes:
        take = min(size, self._chunk)
        piece = self._payload[self._offset : self._offset + take]
        self._offset += len(piece)
        return piece

    def sendall(self, data: bytes) -> None:
        self.sent += data

    def settimeout(self, timeout: Optional[float]) -> None:
        self._timeout = timeout

    def gettimeout(self) -> Optional[float]:
        return self._timeout

    def close(self) -> None:
        self._offset = len(self._payload)


@dataclass(frozen=True)
class FuzzTarget:
    """One parser under test, with its seeds and structured mutators."""

    name: str
    execute: Callable[[bytes], object]
    seeds: Tuple[bytes, ...]
    structured_mutators: Tuple[Mutator, ...] = field(default=())


# ---------------------------------------------------------------------------
# Target executables
# ---------------------------------------------------------------------------


def _run_http_head(data: bytes) -> object:
    """Parse a raw header block: head split, framing, status line."""
    first, headers = httpwire.parse_head(data)
    length = httpwire.parse_content_length(headers)
    if first.startswith("HTTP/"):
        status = httpwire.parse_status_line(first)
        return (status, length)
    return (first, length)


def _run_wire_stream(data: bytes) -> object:
    """Read one full HTTP response from an in-memory byte stream."""
    # FakeSocket implements the recv/settimeout subset httpwire uses.
    sock = cast(socket.socket, FakeSocket(data))
    return httpwire.read_response(sock, timeout=5.0)


def _run_m3u8(data: bytes) -> object:
    """Parse a playlist from raw bytes (UTF-8 decode included)."""
    return parse_m3u8(data)


def _run_multipart(data: bytes) -> object:
    """Decode a multipart/form-data body against the stock boundary."""
    return decode_multipart(data, DEFAULT_BOUNDARY)


# ---------------------------------------------------------------------------
# Seed corpora — valid wire bytes the mutators start from
# ---------------------------------------------------------------------------


def _http_head_seeds() -> Tuple[bytes, ...]:
    request = httpwire.render_request(
        "GET", "/bipbop/Q1/seg00000.ts", "origin", body=b""
    )
    post = httpwire.render_request(
        "POST", "/upload?name=p0", "origin", body=b"x" * 64
    )
    response = httpwire.render_response(200, "OK", b"y" * 32)
    return (
        request.partition(b"\r\n\r\n")[0] + b"\r\n\r\n",
        post.partition(b"\r\n\r\n")[0] + b"\r\n\r\n",
        response.partition(b"\r\n\r\n")[0] + b"\r\n\r\n",
    )


def _wire_stream_seeds() -> Tuple[bytes, ...]:
    return (
        httpwire.render_response(200, "OK", b"segment-bytes" * 16),
        httpwire.render_response(404, "Err", b""),
        httpwire.render_response(
            200, "OK", b"#EXTM3U\n",
            content_type="application/vnd.apple.mpegurl",
        ),
    )


def _m3u8_seeds() -> Tuple[bytes, ...]:
    video = make_bipbop_video()
    return (
        render_m3u8(video.playlist("Q1")).encode("utf-8"),
        render_m3u8(video.playlist("Q4")).encode("utf-8"),
    )


def _multipart_seeds() -> Tuple[bytes, ...]:
    photo = Photo("p0.jpg", 48.0)
    return (
        encode_photo_upload(photo, b"j" * 48),
        encode_multipart(
            [
                MultipartPart("photo", "a.jpg", "image/jpeg", b"abc"),
                MultipartPart("photo2", "b.jpg", "image/jpeg", b"defgh"),
            ]
        ),
    )


def _build_targets() -> Dict[str, FuzzTarget]:
    targets = (
        FuzzTarget(
            name="http-head",
            execute=_run_http_head,
            seeds=_http_head_seeds(),
            structured_mutators=structured.HTTP_HEAD_MUTATORS,
        ),
        FuzzTarget(
            name="wire-stream",
            execute=_run_wire_stream,
            seeds=_wire_stream_seeds(),
            structured_mutators=structured.WIRE_STREAM_MUTATORS,
        ),
        FuzzTarget(
            name="m3u8",
            execute=_run_m3u8,
            seeds=_m3u8_seeds(),
            structured_mutators=structured.M3U8_MUTATORS,
        ),
        FuzzTarget(
            name="multipart",
            execute=_run_multipart,
            seeds=_multipart_seeds(),
            structured_mutators=structured.MULTIPART_MUTATORS,
        ),
    )
    return {target.name: target for target in targets}


_TARGETS: Optional[Dict[str, FuzzTarget]] = None


def all_targets() -> Tuple[FuzzTarget, ...]:
    """Every registered fuzz target, in registration order."""
    global _TARGETS
    if _TARGETS is None:
        _TARGETS = _build_targets()
    return tuple(_TARGETS.values())


def get_target(name: str) -> FuzzTarget:
    """Look up a fuzz target by name."""
    all_targets()
    assert _TARGETS is not None
    try:
        return _TARGETS[name]
    except KeyError:
        raise KeyError(
            f"unknown fuzz target {name!r}; expected one of "
            f"{sorted(_TARGETS)}"
        ) from None
