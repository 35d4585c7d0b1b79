"""The city: households sampled from the DSLAM trace demand model.

A :class:`Population` is a pure function of a
:class:`FleetParameters` — every array below is sampled from one
:class:`~repro.util.rng.RngFactory` stream in a fixed global order, so
the same seed yields the same city no matter how the simulation is
later sharded. Demand follows :mod:`repro.traces.dslam` (68% video
users, lognormal videos/day with median 6 and mean 14.12, ~50 MB
lognormal sizes, wired diurnal request times), binned into fixed
simulation rounds and rounded to **integer bytes** — the deterministic
merge contract (``docs/FLEET.md``) needs every cross-household
reduction to be exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.typing import NDArray

from repro.core.permits import DEFAULT_ACCEPTANCE_THRESHOLD
from repro.netsim.cellular import HspaParameters
from repro.netsim.diurnal import WIRED_PROFILE
from repro.traces import dslam
from repro.util.rng import RngFactory
from repro.util.units import MB, mbps, transfer_volume
from repro.util.validate import check_fraction, check_non_negative

__all__ = ["FleetParameters", "Population", "sample_population"]

_SECONDS_PER_DAY = 86_400.0

#: Range of the per-sector background peak utilization: sectors differ
#: (downtown vs residential), which is what makes the permit server's
#: per-sector decisions non-uniform. The high end deliberately exceeds
#: the §2.4 acceptance threshold (0.70) so busy sectors get
#: threshold-denied at peak hours.
_SECTOR_PEAK_UTIL_LOW = 0.35
_SECTOR_PEAK_UTIL_HIGH = 0.90


@dataclass(frozen=True)
class FleetParameters:
    """Scalar knobs of one fleet day; hashable, so shards can cache by it.

    The per-round byte capacities are cached on first use: the shard
    legs read them every round, and they depend only on the fields.

    Capacities are deliberately 2011-vintage: 3 Mbps ADSL lines on an
    oversubscribed shared DSLAM backhaul (§2.1 quotes 40-50 Mbps for
    comparable aggregation links), 7.2 Mbps HSDPA cell sectors with a
    diurnally-modulated background load, and the §6 default 40 MB/day
    onload cap per household.
    """

    n_households: int
    seed: int = 0
    #: Households multiplexed on one DSLAM backhaul (contiguous blocks).
    households_per_dslam: int = 512
    #: Average households attached to one cell sector (uniform random).
    households_per_sector: int = 500
    #: Round length in seconds; must divide the 24 h day exactly.
    round_s: float = 900.0
    adsl_down_bps: float = dslam.DSLAM_ADSL_DOWN_BPS
    dslam_backhaul_bps: float = mbps(45.0)
    hsdpa_cell_bps: float = HspaParameters().hsdpa_cell_bps
    #: Per-household 3G ceiling (a couple of phones at shared-channel
    #: rates, §2.1).
    home_3g_bps: float = mbps(3.6)
    #: The §6 daily onload budget per adopting household.
    daily_cap_bytes: int = int(40 * MB)
    #: §2.4 permit rule: deny when cell utilization would reach this.
    acceptance_threshold: float = DEFAULT_ACCEPTANCE_THRESHOLD
    #: Permit-server signalling capacity: household requests it can
    #: process per round; 0 derives ``max(64, n_households // 20)``.
    permit_capacity_per_round: int = 0

    def __post_init__(self) -> None:
        if self.n_households < 1:
            raise ValueError(
                f"n_households must be >= 1, got {self.n_households}"
            )
        if self.households_per_dslam < 1 or self.households_per_sector < 1:
            raise ValueError("household grouping sizes must be >= 1")
        rounds = _SECONDS_PER_DAY / self.round_s
        if not (rounds > 0 and float(rounds).is_integer()):
            raise ValueError(
                f"round_s must divide the 86400 s day, got {self.round_s}"
            )
        for name in (
            "adsl_down_bps",
            "dslam_backhaul_bps",
            "hsdpa_cell_bps",
            "home_3g_bps",
            "daily_cap_bytes",
            "permit_capacity_per_round",
        ):
            check_non_negative(name, getattr(self, name))
        check_fraction("acceptance_threshold", self.acceptance_threshold)
        # Sector utilization divides by the cell's round capacity.
        if self.cell_round_bytes < 1:
            raise ValueError(
                "hsdpa_cell_bps must carry at least 1 byte per round, got "
                f"{self.hsdpa_cell_bps} bps over {self.round_s} s rounds"
            )

    @property
    def n_rounds(self) -> int:
        """Simulation rounds in the 24 h day."""
        return int(_SECONDS_PER_DAY / self.round_s)

    @property
    def n_dslams(self) -> int:
        """DSLAM count (contiguous blocks of households)."""
        return -(-self.n_households // self.households_per_dslam)

    @property
    def n_sectors(self) -> int:
        """Cell-sector count (uniform random attachment)."""
        return -(-self.n_households // self.households_per_sector)

    @cached_property
    def line_round_bytes(self) -> int:
        """One household's ADSL line capacity per round, integer bytes."""
        return int(transfer_volume(self.adsl_down_bps, self.round_s))

    @cached_property
    def dslam_round_bytes(self) -> int:
        """One DSLAM backhaul's capacity per round, integer bytes."""
        return int(transfer_volume(self.dslam_backhaul_bps, self.round_s))

    @cached_property
    def cell_round_bytes(self) -> int:
        """One sector's full HSDPA capacity per round, integer bytes."""
        return int(transfer_volume(self.hsdpa_cell_bps, self.round_s))

    @cached_property
    def home_round_bytes(self) -> int:
        """One household's 3G onload ceiling per round, integer bytes."""
        return int(transfer_volume(self.home_3g_bps, self.round_s))

    @property
    def permit_capacity(self) -> int:
        """Resolved permit-server capacity per round."""
        if self.permit_capacity_per_round > 0:
            return self.permit_capacity_per_round
        return max(64, self.n_households // 20)


@dataclass(frozen=True)
class Population:
    """The sampled city: one row per household, integer-byte demand."""

    params: FleetParameters
    #: Household -> DSLAM index (contiguous blocks).
    dslam_of: NDArray[np.int64] = field(repr=False)
    #: Household -> cell-sector index (uniform random).
    sector_of: NDArray[np.int64] = field(repr=False)
    #: Adoption permutation: household adopts at fraction ``f`` iff
    #: ``rank < round(n * f)`` — adopter sets are nested along the ramp.
    adoption_rank: NDArray[np.int64] = field(repr=False)
    #: (n_rounds, n_households) integer bytes requested per round:
    #: round-major, the layout the shard legs read.
    demand: NDArray[np.int64] = field(repr=False)
    #: Per-sector background peak utilization fraction.
    sector_peak_util: NDArray[np.float64] = field(repr=False)

    def adopters(self, adoption: float) -> NDArray[np.bool_]:
        """Adopter mask at ``adoption`` fraction (nested along the ramp)."""
        if not 0.0 <= adoption <= 1.0:
            raise ValueError(f"adoption must be in [0, 1], got {adoption}")
        k = int(round(self.params.n_households * adoption))
        mask: NDArray[np.bool_] = self.adoption_rank < k
        return mask


def sample_population(params: FleetParameters) -> Population:
    """Sample the city from ``params.seed``; shard-partition invariant.

    All draws come from one named stream in a fixed order over the whole
    population, so the arrays do not depend on how households are later
    split across shards or processes.
    """
    factory = RngFactory(params.seed)
    rng = factory.derive("fleet-population")
    n = params.n_households
    dslam_of = np.arange(n, dtype=np.int64) // params.households_per_dslam
    sector_of = rng.integers(0, params.n_sectors, size=n, dtype=np.int64)
    adoption_rank = rng.permutation(n).astype(np.int64)
    video_user = rng.random(n) < dslam.VIDEO_USER_FRACTION
    raw_counts = np.clip(
        np.rint(rng.lognormal(dslam._VIDEOS_MU, dslam._VIDEOS_SIGMA, n)),
        2,
        400,
    ).astype(np.int64)
    counts = np.where(video_user, raw_counts, 0)
    total = int(counts.sum())

    # Request times as in traces.dslam: wired diurnal hour bins, uniform
    # within the hour.
    times = dslam._sample_request_times(total, WIRED_PROFILE, rng)
    sizes = rng.lognormal(dslam._SIZE_MU, dslam._SIZE_SIGMA, size=total)

    owner = np.repeat(np.arange(n, dtype=np.int64), counts)
    round_of = np.minimum(
        (times / params.round_s).astype(np.int64), params.n_rounds - 1
    )
    # One flat scatter-add, reshaped round-major.
    demand = np.zeros(params.n_rounds * n, dtype=np.int64)
    np.add.at(demand, round_of * n + owner, np.rint(sizes).astype(np.int64))
    demand = demand.reshape(params.n_rounds, n)

    spread = _SECTOR_PEAK_UTIL_HIGH - _SECTOR_PEAK_UTIL_LOW
    sector_peak_util = _SECTOR_PEAK_UTIL_LOW + spread * rng.random(
        params.n_sectors
    )
    # Read-only: the city is cached per process, and its one-shard
    # slice shares these arrays.
    arrays = (dslam_of, sector_of, adoption_rank, demand, sector_peak_util)
    for array in arrays:
        array.flags.writeable = False
    return Population(
        params=params,
        dslam_of=dslam_of,
        sector_of=sector_of,
        adoption_rank=adoption_rank,
        demand=demand,
        sector_peak_util=sector_peak_util,
    )
