"""Prototype against simulator: the total-time ratio stays in its band.

The same 8-segment download as ``tests/test_proto_differential.py``
runs over token-bucket-shaped loopback proxies and through the fluid
runner at the same rates. Their total times are compared as a ratio,
never as milliseconds, inside a band measured over 12 runs per policy
on a 2-vCPU box (see CHANGES.md) and widened for slower hosts. The
ratio depends on how the host schedules the prototype's threads, so
this check runs in the CI ``bench`` job rather than in tier-1.

Run with: PYTHONPATH=src python -m pytest benchmarks/test_proto_time_ratio.py
"""

import pytest

from tests.test_proto_differential import prototype, simulator
from tests.test_proto_differential import origin  # noqa: F401 (fixture)

#: Prototype/simulator total-time ratio bands. The prototype runs
#: faster than the fluid model because each token bucket starts with a
#: 0.1 s burst of credit.
RATIO_BANDS = {"RR": (0.85, 1.10), "GRD": (0.80, 1.15)}


@pytest.mark.parametrize("policy", ["RR", "GRD"])
def test_total_time_ratio_in_band(origin, policy):
    live = prototype(origin, policy)
    ratio = live.total_time / simulator(policy).total_time
    low, high = RATIO_BANDS[policy]
    assert low <= ratio <= high, ratio
