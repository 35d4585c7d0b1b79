"""Loopback prototype: the 3GOL data plane over real TCP sockets.

The paper's prototype runs on rooted Android phones; the closest
executable equivalent here is a loopback deployment on 127.0.0.1:

* :class:`~repro.proto.origin.LoopbackOrigin` — a real threaded HTTP
  server hosting HLS playlists/segments and accepting multipart uploads
  (the §5 "dedicated well provisioned web server");
* :class:`~repro.proto.mobileproxy.MobileProxy` — the mobile component: a
  TCP proxy that pipes HTTP requests to the origin through a token-bucket
  shaper standing in for the phone's 3G interface;
* :class:`~repro.proto.client.PrototypeClient` — the client component:
  fetches and parses the real m3u8 over the (shaped) gateway path, then
  drives the *same scheduling policies as the simulator* over real
  threads and sockets.

The origin, the proxy and the onload service
(:class:`~repro.service.server.OnloadService`) share one server core,
:class:`~repro.proto.server.LoopbackServer` (listening socket, accept
loop, lifecycle), and one strict request reader,
:func:`~repro.proto.httpwire.read_request_head`; the client reads
responses through :func:`~repro.proto.httpwire.read_response`.

The shapers (:mod:`repro.proto.shaping`) emulate the ADSL line and the 3G
channels; everything else — HTTP parsing, proxying, parallel scheduling,
duplicate aborts — is the genuine article.

Only the :mod:`repro.proto.errors` taxonomy is imported eagerly; the
prototype classes load on first attribute access (PEP 562). That keeps
the error types importable from the layers *below* the prototype (the
web parsers raise them) without a circular import through
:mod:`repro.proto.origin`, which itself builds on :mod:`repro.web`.
"""

from __future__ import annotations

from repro import lazy_exports
from repro.proto.errors import (
    FramingError,
    MultipartError,
    PlaylistError,
    ProtocolError,
    StallError,
    WireError,
)

__all__ = [
    "FramingError",
    "LoopbackOrigin",
    "MobileProxy",
    "MultipartError",
    "PlaylistError",
    "ProtocolError",
    "PrototypeClient",
    "StallError",
    "TokenBucket",
    "WireError",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "TokenBucket": "repro.proto.shaping",
        "LoopbackOrigin": "repro.proto.origin",
        "MobileProxy": "repro.proto.mobileproxy",
        "PrototypeClient": "repro.proto.client",
    },
)
