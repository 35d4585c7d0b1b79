"""The instrumentation handle and the capture switch.

Instrumented components hold an ``Optional[Instrumentation]`` (usually
resolved from :func:`current` at construction) and guard every
checkpoint with ``if obs is not None`` — the no-op fast path. Turning
collection on is scoped:

.. code-block:: python

    from repro.obs.capture import capture

    with capture() as instrumentation:
        runner.run(transaction)
    lines = instrumentation.export_lines()

:func:`capture` installs a fresh :class:`Instrumentation` as the
process-wide default for the duration of the block (re-entrant: the
previous default is restored on exit). The experiment runner wraps each
experiment in exactly this block when asked to trace, inside the worker
process, which is why traces are identical at any ``--jobs`` count.

Name strictness: :class:`Instrumentation` validates every event and
metric name against :mod:`repro.obs.schema` — the schema is a contract,
and a typo'd name should fail the first test that exercises it, not
silently fork the vocabulary.
"""

from __future__ import annotations

import contextlib
from typing import Any, Dict, Iterator, List, Mapping, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.schema import EVENTS, METRICS
from repro.obs.tracer import DEFAULT_CAPACITY, TraceEvent, Tracer

__all__ = ["Instrumentation", "capture", "current"]


class Instrumentation:
    """One tracer + one metrics registry behind a schema-checked facade."""

    def __init__(
        self, capacity: int = DEFAULT_CAPACITY, strict: bool = True
    ) -> None:
        self.tracer = Tracer(capacity=capacity)
        self.metrics = MetricsRegistry()
        self.strict = strict

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def _check(self, catalogue: Mapping[str, Any], name: str) -> None:
        if self.strict and name not in catalogue:
            known = ", ".join(sorted(catalogue))
            raise KeyError(
                f"{name!r} is not in the obs schema; known names: {known}"
            )

    def event(
        self, name: str, time: Optional[float] = None, **fields: Any
    ) -> TraceEvent:
        """Emit one trace event (``time`` is the caller's engine clock)."""
        self._check(EVENTS, name)
        return self.tracer.emit(name, time=time, **fields)

    def count(self, name: str, amount: float = 1.0, **labels: Any) -> None:
        """Increment the counter ``name`` for ``labels`` by ``amount``."""
        self._check(METRICS, name)
        self.metrics.counter(name, **labels).inc(amount)

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        """Set the gauge ``name`` for ``labels`` to ``value``."""
        self._check(METRICS, name)
        self.metrics.gauge(name, **labels).set(value)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        """Record ``value`` into the histogram ``name`` for ``labels``."""
        self._check(METRICS, name)
        self.metrics.histogram(name, **labels).observe(value)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def export_lines(
        self,
        experiment_id: str = "",
        params: Optional[Dict[str, Any]] = None,
    ) -> List[str]:
        """The captured trace as deterministic JSONL lines.

        Delegates to :func:`repro.obs.export.export_lines`; see
        ``docs/TRACE_SCHEMA.md`` for the line shapes.
        """
        from repro.obs import export

        return export.export_lines(
            self, experiment_id=experiment_id, params=params
        )


_current: Optional[Instrumentation] = None


def current() -> Optional[Instrumentation]:
    """The process-wide default handle (``None``: collection is off)."""
    return _current


@contextlib.contextmanager
def capture(
    capacity: int = DEFAULT_CAPACITY, strict: bool = True
) -> Iterator[Instrumentation]:
    """Install a fresh default :class:`Instrumentation` for the block."""
    global _current
    previous = _current
    handle = Instrumentation(capacity=capacity, strict=strict)
    _current = handle
    try:
        yield handle
    finally:
        _current = previous
