"""The per-layer catalogue: which spans exist and the metrics they yield.

Every traced run reports every metric below, so the figures of one
workload line up with another's; a layer a workload never enters reads
0. Times are self time (see :mod:`spans`) in milliseconds per
operation, counts are per operation too — per operation because a run
lasts a fixed time, so a faster program completes more operations.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: Span layers, in report order.
LAYERS: Tuple[str, ...] = (
    # discrete-event fluid engine
    "engine_allocate",
    "engine_cache",
    "engine_eta",
    "engine_boundary",
    "engine_advance",
    "engine_sweep",
    "engine_timers",
    # fleet dispatcher and shard legs
    "fleet_sample",
    "fleet_offer",
    "fleet_settle",
    "fleet_finish",
    "fleet_verdict",
    "fleet_exchange",
    "fleet_merge",
    # onload service
    "service_accept",
    "service_admission",
    "service_dial",
    "service_relay",
    "service_settle",
    "service_flow",
)

#: metric name -> (layer, unit). Unit "ms" reports the layer's self
#: time; any other unit reports its calls slot.
METRICS: Dict[str, Tuple[str, str]] = {
    "engine_allocate_ms": ("engine_allocate", "ms"),
    "engine_allocate_calls": ("engine_allocate", "count"),
    "engine_cache_ms": ("engine_cache", "ms"),
    "engine_eta_ms": ("engine_eta", "ms"),
    "engine_boundary_ms": ("engine_boundary", "ms"),
    "engine_advance_ms": ("engine_advance", "ms"),
    "engine_steps": ("engine_advance", "count"),
    "engine_sweep_ms": ("engine_sweep", "ms"),
    "engine_timers_ms": ("engine_timers", "ms"),
    "fleet_sample_ms": ("fleet_sample", "ms"),
    "fleet_offer_ms": ("fleet_offer", "ms"),
    "fleet_settle_ms": ("fleet_settle", "ms"),
    "fleet_finish_ms": ("fleet_finish", "ms"),
    "fleet_leg_calls": ("fleet_offer", "count"),
    "fleet_verdict_ms": ("fleet_verdict", "ms"),
    "fleet_exchange_ms": ("fleet_exchange", "ms"),
    "fleet_merge_ms": ("fleet_merge", "ms"),
    "service_accept_ms": ("service_accept", "ms"),
    "service_admission_ms": ("service_admission", "ms"),
    "service_dial_ms": ("service_dial", "ms"),
    "service_relay_ms": ("service_relay", "ms"),
    "service_settle_ms": ("service_settle", "ms"),
    "service_flow_ms": ("service_flow", "ms"),
}


def per_op_metrics(
    totals: Dict[str, Tuple[float, float]], ops: int
) -> Dict[str, Dict[str, object]]:
    """Turn span totals over ``ops`` operations into reported metrics."""
    out: Dict[str, Dict[str, object]] = {}
    for name, (layer, unit) in METRICS.items():
        seconds, calls = totals.get(layer, (0.0, 0.0))
        value = seconds * 1000.0 if unit == "ms" else calls
        out[name] = {"value": value / ops, "unit": unit}
    return out


def difference(
    after: Dict[str, Tuple[float, float]],
    before: Dict[str, Tuple[float, float]],
) -> Dict[str, Tuple[float, float]]:
    """Span totals accumulated between two snapshots."""
    return {
        layer: (
            after[layer][0] - before.get(layer, (0.0, 0.0))[0],
            after[layer][1] - before.get(layer, (0.0, 0.0))[1],
        )
        for layer in after
    }


def as_lists(totals: Dict[str, Tuple[float, float]]) -> Dict[str, List[float]]:
    """JSON form of span totals (for the service host's reports)."""
    return {layer: [s, c] for layer, (s, c) in totals.items()}
