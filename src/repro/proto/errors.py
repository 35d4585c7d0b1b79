"""The typed protocol-error taxonomy for the 3GOL data path.

Every byte of the prototype's data path flows through the wire parsers
(:mod:`repro.proto.httpwire`, the m3u8 parser in :mod:`repro.web.hls`,
the multipart machinery in :mod:`repro.web.upload`). A malformed,
truncated or adversarial peer must surface as a *typed*, catchable
protocol error — never as a stray ``ValueError`` / ``IndexError`` /
``UnicodeDecodeError`` unwinding a proxy loop. The taxonomy:

* :class:`ProtocolError` — the base every wire-facing parser raises;
* :class:`WireError` — malformed or truncated HTTP wire traffic;
* :class:`FramingError` — message framing lies (bad/duplicate/oversized
  Content-Length, body overrun); a :class:`WireError` subclass so
  existing ``except WireError`` handlers keep working;
* :class:`StallError` — the peer accepted the connection but stopped
  sending before the parser could make progress (per-socket recv
  timeout); also a :class:`WireError` subclass;
* :class:`PlaylistError` — malformed m3u8 playlists;
* :class:`MultipartError` — malformed multipart/form-data bodies.

:class:`PlaylistError` and :class:`MultipartError` additionally subclass
:class:`ValueError` (the ``json.JSONDecodeError`` precedent) so callers
that predate the taxonomy — and tests pinned to the old behaviour —
keep catching them; new code catches :class:`ProtocolError`.

Lint rule RL011 enforces the taxonomy: parse paths under
``repro/proto/`` and ``repro/web/`` may only let these types escape.
"""

from __future__ import annotations

__all__ = [
    "FramingError",
    "MultipartError",
    "PlaylistError",
    "ProtocolError",
    "StallError",
    "WireError",
]


class ProtocolError(Exception):
    """Base class: a peer sent traffic the data path cannot accept."""


class WireError(ProtocolError):
    """Malformed or truncated HTTP traffic."""


class FramingError(WireError):
    """The message framing is inconsistent with its declared lengths."""


class StallError(WireError):
    """The peer went silent mid-message (recv timeout expired)."""


class PlaylistError(ProtocolError, ValueError):
    """Malformed m3u8 playlist text."""


class MultipartError(ProtocolError, ValueError):
    """Malformed multipart/form-data body."""
