"""Disabled instrumentation is free: guard cost < 2% of a fig06 run.

The obs layer's promise (README, docs/TRACE_SCHEMA.md) is that with no
capture active, every checkpoint collapses to one ``if obs is not None``
on an attribute holding ``None``. This benchmark bounds that promise
with numbers instead of faith:

1. time an uninstrumented fig06 quick run (collection off — the default);
2. re-run it under a counting instrumentation to learn exactly how many
   checkpoints the run crosses;
3. micro-time the disabled guard itself;
4. assert ``checkpoints x per-guard cost`` stays under 2% of the
   uninstrumented wall time.
"""

import time

import repro.obs.capture as capture_module
from repro.experiments.registry import get
from repro.obs.capture import Instrumentation

#: Iterations for micro-timing the ``if obs is not None`` fast path.
GUARD_REPS = 2_000_000

#: The overhead budget from the docs: 2% of the uninstrumented run.
BUDGET_FRACTION = 0.02


class CountingInstrumentation(Instrumentation):
    """Counts every checkpoint crossing while still validating names."""

    def __init__(self):
        super().__init__()
        self.calls = 0

    def event(self, name, time=None, **fields):
        self.calls += 1
        return super().event(name, time=time, **fields)

    def count(self, name, amount=1.0, **labels):
        self.calls += 1
        super().count(name, amount=amount, **labels)

    def gauge(self, name, value, **labels):
        self.calls += 1
        super().gauge(name, value, **labels)

    def observe(self, name, value, **labels):
        self.calls += 1
        super().observe(name, value, **labels)


class _Component:
    """Stand-in for an instrumented component with collection off."""

    __slots__ = ("_obs",)

    def __init__(self):
        self._obs = None


def _fig06_quick():
    spec = get("fig06")
    return spec.func(**spec.params(quick=True))


def _timed_disabled_run():
    start = time.perf_counter()
    _fig06_quick()
    return time.perf_counter() - start


def _count_checkpoints():
    """Checkpoint crossings in one fig06 quick run."""
    counter = CountingInstrumentation()
    previous = capture_module._current
    capture_module._current = counter
    try:
        _fig06_quick()
    finally:
        capture_module._current = previous
    return counter.calls


def _per_guard_seconds():
    component = _Component()
    start = time.perf_counter()
    for _ in range(GUARD_REPS):
        if component._obs is not None:  # the checkpoint fast path
            raise AssertionError("guard must not fire")
    return (time.perf_counter() - start) / GUARD_REPS


def test_disabled_instrumentation_overhead():
    disabled_wall_s = _timed_disabled_run()
    checkpoints = _count_checkpoints()
    per_guard_s = _per_guard_seconds()

    guard_total_s = checkpoints * per_guard_s
    fraction = guard_total_s / disabled_wall_s
    print()
    print(
        f"fig06 quick uninstrumented: {disabled_wall_s * 1e3:.1f} ms; "
        f"{checkpoints} checkpoints x {per_guard_s * 1e9:.1f} ns/guard "
        f"= {guard_total_s * 1e6:.1f} us disabled overhead "
        f"({fraction:.4%} of the run)"
    )
    assert checkpoints > 0, "fig06 must cross instrumentation checkpoints"
    assert fraction < BUDGET_FRACTION
