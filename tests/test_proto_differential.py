"""The loopback prototype against the fluid simulator, same transaction.

One 8-segment download runs twice: over token-bucket-shaped
``MobileProxy`` paths on 127.0.0.1 and through ``TransactionRunner`` on
a ``FluidNetwork`` with the same rates and no RTT. Both sides drive the
same policy through the same copy ledger, so the quantities that do
not depend on thread timing must agree: RR's item-to-path map and its
bytes per path, and GRD's waste bound. The total-time ratio depends
on the host's scheduling, so its band is checked outside tier-1, in
``benchmarks/test_proto_time_ratio.py``.

MIN is left out: the client hands each policy a nominal
``Link("wire", 1.0)`` path, so MIN starts from another bandwidth prior
than on the simulator and its maps legitimately differ.
"""

import pytest

from repro.core.items import Transaction, TransferItem
from repro.core.scheduler import TransactionRunner, make_policy
from repro.netsim.fluid import FluidNetwork
from repro.netsim.latency import RttModel
from repro.netsim.link import Link
from repro.netsim.path import NetworkPath
from repro.proto import LoopbackOrigin, MobileProxy, PrototypeClient
from repro.proto.shaping import TokenBucket
from repro.util.units import kbps
from repro.web.hls import VideoAsset, VideoQuality

#: Path rates in bytes/second: the ADSL gateway and two phones.
RATES = {"gateway": 400_000.0, "phone1": 200_000.0, "phone2": 150_000.0}

#: 8 x 2 s segments at 400 kbps: 8 items of 100 kB.
VIDEO = VideoAsset(
    "diff",
    duration_s=16.0,
    segment_s=2.0,
    qualities=(VideoQuality("Q", kbps(400.0)),),
)

def transaction():
    return Transaction(
        [
            TransferItem(segment.uri, segment.size_bytes)
            for segment in VIDEO.playlist("Q").segments
        ],
        name="differential",
    )


@pytest.fixture(scope="module")
def origin():
    server = LoopbackOrigin()
    server.host_video(VIDEO)
    with server:
        yield server


def prototype(origin, policy):
    proxies = [
        MobileProxy(
            origin.address, down_bucket=TokenBucket(rate), name=name
        ).start()
        for name, rate in RATES.items()
    ]
    try:
        client = PrototypeClient([(p.name, p.address) for p in proxies])
        return client.run_download(
            transaction(), make_policy(policy), timeout=60.0
        )
    finally:
        for proxy in proxies:
            proxy.stop()


def simulator(policy):
    paths = [
        NetworkPath(name, [Link(name, rate * 8.0)], rtt=RttModel(0.0))
        for name, rate in RATES.items()
    ]
    runner = TransactionRunner(FluidNetwork(), paths, make_policy(policy))
    return runner.run(transaction())


def item_paths(result):
    return {label: r.path_name for label, r in result.records.items()}


@pytest.mark.parametrize("policy", ["RR", "GRD"])
def test_prototype_matches_simulator(origin, policy):
    live = prototype(origin, policy)
    model = simulator(policy)
    txn = transaction()
    if policy == "RR":
        assert item_paths(live) == item_paths(model)
        assert live.path_bytes == model.path_bytes
        assert live.wasted_bytes == model.wasted_bytes == 0.0
    else:
        bound = (len(RATES) - 1) * txn.max_item_bytes
        assert live.wasted_bytes <= bound
        assert model.wasted_bytes <= bound
    assert set(live.records) == set(model.records)
