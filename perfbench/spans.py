"""Wall-clock layer spans recorded around calls into the program.

A traced run (``--trace 1``) wraps a fixed set of the program's
functions and methods — the layer boundaries — from the benchmark's own
files. Each wrapped call is a span. A layer's figure is its *self time*:
the span's duration minus the part of it covered by spans it encloses,
summed over the run, plus the number of calls.

Totals are shared by the threads of one process (the service's flows
run one per thread); stacks of open spans are per thread.

A boundary the program no longer has is not skipped silently: its name
goes to ``Spans.missing``, and the runner reports the run as not
correct, since the layer would otherwise read 0 and pass for a layer
whose work was removed.

Nothing here writes into the program's own deterministic trace; spans
only ever read the clock around the wrapped call.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Tuple


class Spans:
    """Per-layer self-time and call-count accumulators."""

    def __init__(self, layers: Iterable[str]) -> None:
        self.layers: Tuple[str, ...] = tuple(layers)
        self._index = {name: i for i, name in enumerate(self.layers)}
        # [seconds, calls] per layer.
        self._totals = [0.0] * (2 * len(self.layers))
        self._lock = threading.Lock()
        self._local = threading.local()
        #: Boundaries that could not be wrapped, as ``owner.name``.
        self.missing: List[str] = []

    def _stack(self) -> List[List[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, layer: str, seconds: float, calls: float = 1.0) -> None:
        """Add ``seconds`` of self time and ``calls`` calls to ``layer``."""
        i = self._index[layer]
        with self._lock:
            self._totals[2 * i] += seconds
            self._totals[2 * i + 1] += calls

    def wrap(self, fn: Callable[..., Any], layer: str) -> Callable[..., Any]:
        """``fn`` with each call recorded as a span of ``layer``."""
        if layer not in self._index:
            raise KeyError(f"unknown layer {layer!r}")
        spans = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = spans._stack()
            frame = [0.0]
            stack.append(frame)
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                spans.add(layer, elapsed - frame[0])

        return traced

    def patch_method(self, cls: type, name: str, layer: str) -> bool:
        """Trace ``cls.name``; False (noted in ``missing``) when absent."""
        original = cls.__dict__.get(name)
        if original is None or not callable(original):
            self.missing.append(f"{cls.__name__}.{name}")
            return False
        setattr(cls, name, self.wrap(original, layer))
        return True

    def patch_function(self, module: str, name: str, layer: str) -> bool:
        """Trace ``module.name`` and every ``from module import name`` copy.

        Returns False (noted in ``missing``) when the program has no such
        function.
        """
        owner = sys.modules.get(module)
        original = getattr(owner, name, None) if owner else None
        if original is None or not callable(original):
            self.missing.append(f"{module}.{name}")
            return False
        traced = self.wrap(original, layer)
        for loaded in list(sys.modules.values()):
            if getattr(loaded, "__name__", "").split(".")[0] != "repro":
                continue
            if getattr(loaded, name, None) is original:
                setattr(loaded, name, traced)
        return True

    def totals(self) -> Dict[str, Tuple[float, float]]:
        """``{layer: (self seconds, calls)}`` accumulated so far."""
        with self._lock:
            values = list(self._totals)
        return {
            layer: (values[2 * i], values[2 * i + 1])
            for i, layer in enumerate(self.layers)
        }
