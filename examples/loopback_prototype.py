#!/usr/bin/env python
"""Run the real-socket 3GOL prototype on 127.0.0.1.

Starts a loopback origin hosting an HLS video, a shaped "gateway" pipe
(the ADSL line) and two shaped "phone" proxies (the 3G channels), then
downloads the video through the multipath greedy scheduler over real TCP
connections — the same architecture as the paper's Android prototype,
with token buckets standing in for the radios.
"""

import time

from repro.core.items import Transaction, TransferItem
from repro.core.scheduler import make_policy
from repro.proto import LoopbackOrigin, MobileProxy, PrototypeClient
from repro.proto.shaping import TokenBucket
from repro.web.hls import VideoAsset, VideoQuality
from repro.util.units import kbps

# Keep the asset small so the demo finishes in seconds: 20 x 2 s segments
# at 800 kbps = 4 MB.
VIDEO = VideoAsset(
    "demo", duration_s=40.0, segment_s=2.0,
    qualities=(VideoQuality("Q", kbps(800.0)),),
)
# Emulated rates (bytes/second): ADSL ~3 Mbps, phones ~2 Mbps each.
GATEWAY_RATE = 375_000.0
PHONE_RATE = 250_000.0


def run(endpoints, label):
    playlist = VIDEO.playlists["Q"]
    items = [TransferItem(s.uri, s.size_bytes) for s in playlist.segments]
    client = PrototypeClient(endpoints)
    start = time.monotonic()
    report = client.run_download(
        Transaction(items, name=label), make_policy("GRD"), timeout=120.0
    )
    elapsed = time.monotonic() - start
    shares = ", ".join(
        f"{name}: {nbytes / 1e6:.2f} MB"
        for name, nbytes in sorted(report.path_bytes.items())
    )
    print(f"  {label:<18s} {elapsed:5.1f} s  ({shares})")
    return elapsed


def main() -> None:
    origin = LoopbackOrigin()
    origin.host_video(VIDEO)
    with origin:
        gateway = MobileProxy(
            origin.address, down_bucket=TokenBucket(GATEWAY_RATE),
            name="gateway",
        ).start()
        phones = [
            MobileProxy(
                origin.address, down_bucket=TokenBucket(PHONE_RATE),
                name=f"phone{i}",
            ).start()
            for i in (1, 2)
        ]
        try:
            print(
                f"Downloading {VIDEO.playlists['Q'].total_bytes / 1e6:.1f} MB"
                " of HLS segments over real loopback TCP:\n"
            )
            alone = run([("gateway", gateway.address)], "ADSL alone")
            boosted = run(
                [("gateway", gateway.address)]
                + [(p.name, p.address) for p in phones],
                "3GOL (2 phones)",
            )
            print(f"\n  speedup: x{alone / boosted:.1f}")
        finally:
            gateway.stop()
            for phone in phones:
                phone.stop()


if __name__ == "__main__":
    main()
