"""The engine workload: one fluid-network scenario per operation.

Each operation builds a ``FluidNetwork`` from ``(seed, index)`` — flows
with staggered starts sharing one fading bottleneck, each behind its own
access link, a fifth of them rate-capped, and a periodic timer riding
along — and steps it until it drains. The shape is the repository's
``engine-scale`` bench scenario (``repro.bench.scenarios``) with its
sizes, rates and start times drawn from the seed, and with fewer flows,
so the number in flight climbs through the allocator's scalar/vector
switch and back down: every engine layer (allocate, cache rebuild, ETA,
advance, completion sweep) runs on both sides of it.

Only the public netsim API builds the scenario; the traced run wraps
the engine's private layer boundaries (``trace_engine``).
"""

from __future__ import annotations

import math
import random
from typing import Any, Dict, List, Optional, Tuple

from spans import Spans

#: Flows per scenario.
FLOWS = 120
#: Start times spread over this many simulated seconds.
STAGGER_S = 6.0
#: Shared bottleneck (Mbps range) and its fading process.
BOTTLENECK_MBPS = (150.0, 250.0)
FADE_INTERVAL_S = 5.0
FADE_SIGMA = 0.25
#: Periodic no-op timer: period (simulated seconds) and count.
TICK_S = 0.25
TICKS = 40


def trace_engine(spans: Spans) -> None:
    """Spans on the engine's layers."""
    from repro.netsim.engine import SimulationEngine
    from repro.netsim.fluid import FluidNetwork

    spans.patch_method(FluidNetwork, "_recompute_rates", "engine_allocate")
    spans.patch_method(FluidNetwork, "_rebuild_alloc_caches", "engine_cache")
    spans.patch_method(FluidNetwork, "_flat", "engine_cache")
    spans.patch_method(FluidNetwork, "_earliest_eta", "engine_eta")
    spans.patch_method(SimulationEngine, "next_boundary", "engine_boundary")
    spans.patch_method(FluidNetwork, "_advance_transfer", "engine_advance")
    spans.patch_method(FluidNetwork, "_sweep_completions", "engine_sweep")
    spans.patch_method(SimulationEngine, "run_due_timers", "engine_timers")


class Engine:
    """A seeded fluid-network scenario, stepped until it drains."""

    trace = staticmethod(trace_engine)

    def __init__(self) -> None:
        self._first: Optional[Tuple[Any, Dict[str, Any]]] = None

    def setup(self, seed: int) -> None:
        """Import the program's network simulator."""
        from repro.netsim.fluid import Flow, FluidNetwork
        from repro.netsim.link import Link, StochasticLink
        from repro.netsim.stochastic import LognormalProcess
        from repro.util.units import kbps, mbps

        self.Flow, self.FluidNetwork = Flow, FluidNetwork
        self.Link, self.StochasticLink = Link, StochasticLink
        self.LognormalProcess = LognormalProcess
        self.kbps, self.mbps = kbps, mbps

    def make_input(self, seed: int, index: int) -> Dict[str, Any]:
        """Scenario of operation ``index`` under run ``seed``."""
        rng = random.Random(seed * 1_000_003 + index)
        flows = []
        for i in range(FLOWS):
            flows.append(
                {
                    "size": rng.uniform(200_000.0, 1_000_000.0),
                    "access_mbps": rng.uniform(2.0, 5.0),
                    "cap_kbps": (
                        rng.uniform(900.0, 1500.0) if i % 5 == 0 else None
                    ),
                    "delay": rng.uniform(0.0, STAGGER_S),
                }
            )
        return {
            "fade_seed": rng.randrange(2**31),
            "bottleneck_mbps": rng.uniform(*BOTTLENECK_MBPS),
            "flows": flows,
        }

    def op(self, inputs: Dict[str, Any]) -> Dict[str, Any]:
        """Build the network and step it until it drains."""
        network = self.FluidNetwork()
        bottleneck = self.StochasticLink(
            "bottleneck",
            self.mbps(inputs["bottleneck_mbps"]),
            self.LognormalProcess(
                seed=inputs["fade_seed"],
                interval=FADE_INTERVAL_S,
                sigma=FADE_SIGMA,
            ),
        )
        flows = []
        for i, spec in enumerate(inputs["flows"]):
            access = self.Link(f"access-{i}", self.mbps(spec["access_mbps"]))
            cap = spec["cap_kbps"]
            flow = self.Flow(
                spec["size"],
                (access, bottleneck),
                rate_cap_bps=None if cap is None else self.kbps(cap),
                label=f"flow-{i}",
            )
            network.add_flow(flow, delay=spec["delay"])
            flows.append(flow)
        ticks = [0]

        def tick() -> None:
            ticks[0] += 1
            if ticks[0] < TICKS:
                network.schedule(TICK_S, tick, label="tick")

        network.schedule(TICK_S, tick, label="tick")
        steps = 0
        while network.step():
            steps += 1
        return {
            "steps": steps,
            "ticks": ticks[0],
            "spans": [(f.started_at, f.completed_at) for f in flows],
            "link_bytes": network.link_bytes,
        }

    def check(
        self, inputs: Dict[str, Any], output: Dict[str, Any]
    ) -> List[str]:
        """Problems with one scenario's outcome (empty: correct)."""
        if self._first is None:
            self._first = (inputs, output)
        problems: List[str] = []
        if output["ticks"] != TICKS:
            problems.append(f"{output['ticks']} of {TICKS} timer ticks ran")
        link_bytes = output["link_bytes"]
        total = 0.0
        for i, (spec, (start, end)) in enumerate(
            zip(inputs["flows"], output["spans"])
        ):
            size = spec["size"]
            total += size
            if start is None or end is None:
                problems.append(f"flow {i} never completed")
                continue
            if not math.isclose(
                link_bytes.get(f"access-{i}", 0.0), size, rel_tol=1e-6
            ):
                problems.append(f"flow {i}: access link moved the wrong bytes")
            # No flow finishes faster than its own access link (or its
            # rate cap) allows.
            rate = spec["access_mbps"] * 1e6
            if spec["cap_kbps"] is not None:
                rate = min(rate, spec["cap_kbps"] * 1e3)
            if end - start < size * 8.0 / rate * (1.0 - 1e-6):
                problems.append(f"flow {i} beat its bottleneck rate")
        if not math.isclose(
            link_bytes.get("bottleneck", 0.0), total, rel_tol=1e-6
        ):
            problems.append("bottleneck bytes differ from the flows' sizes")
        return problems

    def final_check(self) -> List[str]:
        """The first scenario again: the engine is deterministic."""
        if self._first is None:
            return []
        inputs, first = self._first
        again = self.op(inputs)
        if any(again[key] != first[key] for key in ("steps", "spans")):
            return ["the same scenario stepped differently on a re-run"]
        return []
