"""HTTP substrate: the application layer 3GOL accelerates.

The paper augments two HTTP applications (§4.1): HLS video-on-demand on
the downlink and multipart photo upload on the uplink. This package models
both at the granularity the evaluation needs — request/response objects,
m3u8 playlists and segment sizing, multipart POST overheads, and an origin
server with the §5 testbed's bandwidth caps.
"""
