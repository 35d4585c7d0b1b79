"""Shared utilities for the 3GOL reproduction.

This package holds the small building blocks every other subpackage relies
on: unit conversions between bits, bytes and rates (:mod:`repro.util.units`),
seeded random-number helpers (:mod:`repro.util.rng`), light-weight argument
validation (:mod:`repro.util.validate`), streaming statistics
(:mod:`repro.util.stats`), the shared console-script exit-code contract
(:mod:`repro.util.clitools`) and the seeded search core that ``repro-fuzz``
and ``repro-hunt`` share — one campaign loop, finding record, corpus
codec and exception triage (:mod:`repro.util.search`).
"""

from repro.util.clitools import (
    EXIT_CLEAN,
    EXIT_FINDINGS,
    EXIT_USAGE,
    cli_error,
    render_json_payload,
)
from repro.util.search import failure_site

from repro.util.units import (
    KB,
    MB,
    GB,
    kbps,
    mbps,
    gbps,
    bits_to_bytes,
    bytes_to_bits,
    bytes_to_megabytes,
    megabytes,
    rate_to_gbps,
    rate_to_mbps,
    seconds_to_transfer,
    transfer_rate,
    transfer_seconds,
    transfer_volume,
)
from repro.util.rng import RngFactory, spawn_rng
from repro.util.validate import (
    check_fraction,
    check_non_negative,
    check_positive,
    check_probability,
)
from repro.util.stats import RunningStats, ewma_update

__all__ = [
    "EXIT_CLEAN",
    "EXIT_FINDINGS",
    "EXIT_USAGE",
    "cli_error",
    "failure_site",
    "render_json_payload",
    "KB",
    "MB",
    "GB",
    "kbps",
    "mbps",
    "gbps",
    "bits_to_bytes",
    "bytes_to_bits",
    "bytes_to_megabytes",
    "megabytes",
    "rate_to_gbps",
    "rate_to_mbps",
    "seconds_to_transfer",
    "transfer_rate",
    "transfer_seconds",
    "transfer_volume",
    "RngFactory",
    "spawn_rng",
    "check_fraction",
    "check_non_negative",
    "check_positive",
    "check_probability",
    "RunningStats",
    "ewma_update",
]
