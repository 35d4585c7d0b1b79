"""Host-speed reference: a fixed spin timed beside every measurement.

A shared cloud host runs up to 1.5x slower for seconds to minutes at a
time while its other tenants are busy, and a plain wall-clock median
moves with it from run to run. So every timed operation (and every
set-up) is paired with a fixed pure-Python spin run just before it, on
the same core and in the same host state, and the end-to-end figures
are scaled to a reference host speed::

    reported = median(op seconds) * REFERENCE_SPIN_S / median(spin seconds)

taken per slice of the run. This is the spin normalization the
repository's own ``repro-bench`` records use (``repro.bench.harness``).
The spin is benchmark code, so no change to the program moves it, and
``host_spin_ms`` in a traced run reports how fast the host was.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Sequence, Tuple

#: Iterations of the spin: a few milliseconds, a few per cent of the
#: shortest operation it is paired with. Frozen: changing it, or the
#: loop body, rescales every figure.
SPIN_LOOPS = 20_000
#: Spin seconds that define the reference host speed: the spin's time
#: on the 2-vCPU development host in its fast state. It only sets the
#: scale of the reported figures.
REFERENCE_SPIN_S = 0.0016


def spin(repeats: int = 1) -> float:
    """Seconds one fixed pure-Python spin takes right now.

    With ``repeats`` above 1, the median of that many spins back to
    back: a single spin reads up to 1.5x high just after a child
    process exits.
    """
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        acc = 0
        for i in range(SPIN_LOOPS):
            acc = (acc + i * i) % 1_000_003
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def scaled(samples: Sequence[float], spins: Sequence[float]) -> float:
    """Median of ``samples`` at the reference host speed."""
    return (
        statistics.median(samples)
        * REFERENCE_SPIN_S
        / statistics.median(spins)
    )


def sliced(
    ops: List[Tuple[float, float]],
    spins: List[Tuple[float, float]],
    window_s: float,
    slices: int,
) -> float:
    """Median over slices of the window of each slice's scaled median.

    ``ops`` and ``spins`` are ``(end, seconds)`` on the window's clock.
    A burst of host slowness confined to one or two slices, which the
    spin may not catch in full, does not move the median over slices.
    """
    by_slice: List[Tuple[List[float], List[float]]] = [
        ([], []) for _ in range(slices)
    ]
    for column, samples in ((0, ops), (1, spins)):
        for end, seconds in samples:
            index = min(max(int(end / window_s * slices), 0), slices - 1)
            by_slice[index][column].append(seconds)
    return statistics.median(
        scaled(op_s, spin_s) for op_s, spin_s in by_slice if op_s and spin_s
    )
