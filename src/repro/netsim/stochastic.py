"""Stochastic capacity processes.

Real HSPA channel throughput fluctuates on sub-second timescales with radio
conditions and on hour timescales with cell load (§3 of the paper observes
per-device throughput varying between 0.65 and 1.42 Mbps with the hour of
day). We model a link's available capacity as a *piecewise-constant*
stochastic process: every ``interval`` seconds a new multiplicative factor
is drawn. The factor for interval ``k`` is a pure function of
``(seed, k)``, so the process can be evaluated lazily, out of order, and is
reproducible regardless of how the simulator happens to step through time.

Two processes are provided:

* :class:`LognormalProcess` — i.i.d. lognormal shadowing around 1.0, the
  default model for fast fading / scheduler-share noise.
* :class:`MeanRevertingProcess` — an AR(1) (discretised
  Ornstein-Uhlenbeck) process for slower load drift, still evaluated
  deterministically per interval by regenerating the chain from the most
  recent "anchor" interval.
"""

from __future__ import annotations

import math
from typing import Dict

import numpy as np

from repro.util.validate import check_fraction, check_non_negative, check_positive


def _interval_rng(seed: int, index: int) -> np.random.Generator:
    """Deterministic generator for interval ``index`` of stream ``seed``."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    )


#: Intervals sampled per batch when a process caches factors. The stepper
#: consumes fading intervals densely (it stops at every capacity-change
#: boundary), so small blocks amortize the per-interval ``Generator``
#: construction and the transcendental math without sampling far past the
#: simulated horizon.
_SAMPLE_BLOCK = 8


def next_grid_time(time: float, interval: float) -> float:
    """First time whose ``floor(x / interval)`` exceeds that of ``time``.

    The product ``(floor(t / I) + 1) * I`` rounds: for an inexact ``I``
    (``0.7``) it can land at or below ``t``, or on a time still inside
    ``t``'s interval, and a caller that re-asks at that time never
    advances. It is only the first guess here; :func:`math.nextafter`
    walks it to the exact start of the next interval. On an exact grid
    (``4``, ``0.5``, ``300``) the guess is already right.
    """
    index = math.floor(time / interval)
    boundary = (index + 1) * interval
    while math.floor(boundary / interval) <= index:
        boundary = math.nextafter(boundary, math.inf)
    below = math.nextafter(boundary, -math.inf)
    while math.floor(below / interval) > index:
        boundary, below = below, math.nextafter(below, -math.inf)
    return boundary


class CapacityProcess:
    """Interface: a multiplicative capacity factor per time interval."""

    def __init__(self, seed: int, interval: float) -> None:
        self.seed = int(seed)
        self.interval = check_positive("interval", interval)

    def interval_index(self, time: float) -> int:
        """Index of the interval containing ``time`` (t < 0 clamps to 0)."""
        if time < 0.0:
            return 0
        return int(math.floor(time / self.interval))

    def next_change_after(self, time: float) -> float:
        """Start time of the interval after the one containing ``time``."""
        return next_grid_time(max(time, 0.0), self.interval)

    def factor_for_interval(self, index: int) -> float:
        raise NotImplementedError

    def factor_at(self, time: float) -> float:
        """Multiplicative factor in effect at ``time``."""
        return self.factor_for_interval(self.interval_index(time))


class ConstantProcess(CapacityProcess):
    """Degenerate process: the factor is always ``value``."""

    def __init__(self, value: float = 1.0) -> None:
        super().__init__(seed=0, interval=1.0)
        self.value = check_non_negative("value", value)

    def factor_for_interval(self, index: int) -> float:
        return self.value

    def next_change_after(self, time: float) -> float:
        return math.inf


class LognormalProcess(CapacityProcess):
    """I.i.d. lognormal factors with unit median and spread ``sigma``.

    ``sigma`` is the standard deviation of the underlying normal in log
    space: 0.0 degenerates to a constant 1.0; ~0.3 reproduces the
    throughput spread the paper's violin plots (Fig 5) show within one base
    station; the factor is clipped to ``[floor, ceiling]`` to keep the
    fluid solver away from pathological near-zero capacities.

    Factors are memoized and sampled in blocks of ``_SAMPLE_BLOCK``
    intervals: each interval's draw still comes from its own
    ``_interval_rng(seed, index)`` generator (the derivation the traces
    pin), only the ``exp``/clip post-processing is batched — elementwise
    float64 ops, bit-identical to the scalar originals.
    """

    def __init__(
        self,
        seed: int,
        interval: float,
        sigma: float,
        floor: float = 0.05,
        ceiling: float = 4.0,
    ) -> None:
        super().__init__(seed, interval)
        self.sigma = check_non_negative("sigma", sigma)
        self.floor = check_non_negative("floor", floor)
        self.ceiling = check_positive("ceiling", ceiling)
        if self.floor > self.ceiling:
            raise ValueError("floor must not exceed ceiling")
        self._cache: Dict[int, float] = {}

    def factor_for_interval(self, index: int) -> float:
        if self.sigma == 0.0:
            return 1.0
        cached = self._cache.get(index)
        if cached is not None:
            return cached
        return self._sample_block(index)

    def _sample_block(self, index: int) -> float:
        """Sample the whole block containing ``index``; return its factor."""
        start = (index // _SAMPLE_BLOCK) * _SAMPLE_BLOCK
        draws = np.empty(_SAMPLE_BLOCK)
        for offset in range(_SAMPLE_BLOCK):
            draws[offset] = _interval_rng(self.seed, start + offset).normal(
                0.0, self.sigma
            )
        factors = np.exp(draws)
        np.clip(factors, self.floor, self.ceiling, out=factors)
        cache = self._cache
        for offset in range(_SAMPLE_BLOCK):
            cache[start + offset] = float(factors[offset])
        return cache[index]


class MeanRevertingProcess(CapacityProcess):
    """AR(1) process reverting to ``mean`` with rate ``reversion``.

    ``x[k] = x[k-1] + reversion * (mean - x[k-1]) + noise[k]`` where the
    noise for interval ``k`` is a pure function of ``(seed, k)``. To keep
    lazy evaluation cheap the chain is re-anchored every ``anchor_every``
    intervals: interval ``k`` is computed by running the recursion forward
    from the nearest anchor below ``k`` (anchors start at the mean).
    """

    def __init__(
        self,
        seed: int,
        interval: float,
        mean: float = 1.0,
        reversion: float = 0.3,
        noise_sigma: float = 0.1,
        floor: float = 0.05,
        ceiling: float = 4.0,
        anchor_every: int = 256,
    ) -> None:
        super().__init__(seed, interval)
        self.mean = check_positive("mean", mean)
        self.reversion = check_fraction("reversion", reversion)
        self.noise_sigma = check_non_negative("noise_sigma", noise_sigma)
        self.floor = check_non_negative("floor", floor)
        self.ceiling = check_positive("ceiling", ceiling)
        if self.floor > self.ceiling:
            raise ValueError("floor must not exceed ceiling")
        if anchor_every < 1:
            raise ValueError(f"anchor_every must be >= 1, got {anchor_every}")
        self.anchor_every = int(anchor_every)
        self._cache: dict[int, float] = {}

    def factor_for_interval(self, index: int) -> float:
        if index < 0:
            index = 0
        cached = self._cache.get(index)
        if cached is not None:
            return cached
        anchor = (index // self.anchor_every) * self.anchor_every
        # Resume from the deepest already-cached interval in this anchor
        # span rather than re-running the whole chain, then batch the noise
        # draws for the remaining gap (one generator per interval — the
        # derivation the traces pin — but a single pass of Python overhead).
        start = anchor
        value = self.mean
        for k in range(index, anchor - 1, -1):
            prev = self._cache.get(k)
            if prev is not None:
                start = k + 1
                value = prev
                break
        noise = np.empty(index + 1 - start)
        for offset, k in enumerate(range(start, index + 1)):
            noise[offset] = _interval_rng(self.seed, k).normal(
                0.0, self.noise_sigma
            )
        cache = self._cache
        for offset, k in enumerate(range(start, index + 1)):
            value = value + self.reversion * (self.mean - value) + float(
                noise[offset]
            )
            value = min(max(value, self.floor), self.ceiling)
            cache[k] = value
        return cache[index]
