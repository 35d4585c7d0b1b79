"""The trace/metric schema: the stable contract of the obs layer.

Every event an :class:`~repro.obs.capture.Instrumentation` may emit and
every metric it may touch is declared here, with its fields/labels and
units. ``docs/TRACE_SCHEMA.md`` embeds the tables
:func:`markdown_tables` renders from these catalogues, and a tier-1
test regenerates them so the document cannot drift from the code.

Versioning policy (documented in ``docs/TRACE_SCHEMA.md``):

* **adding** an event, metric, field or label is backward compatible
  and does *not* bump :data:`SCHEMA_VERSION`;
* **renaming or removing** any name, field or label, changing a unit,
  or changing histogram bucket boundaries **must** bump it — consumers
  key off the header's ``schema`` field.

Units follow :mod:`repro.util.units`: byte quantities end in
``_bytes`` (or carry a ``bytes`` unit), rates are bits/second, and
durations are seconds with an ``_s`` suffix.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

__all__ = [
    "AUTHORITY_LOSS_KINDS",
    "DEGRADATION_KINDS",
    "DISRUPTION_KINDS",
    "DURATION_BUCKETS_S",
    "EVENTS",
    "METRICS",
    "SCHEMA_VERSION",
    "markdown_tables",
]

#: Version stamped into every export header. Bump on any breaking
#: change to the catalogues below (rename/removal/unit change).
SCHEMA_VERSION = 1

#: Fixed bucket upper bounds (seconds) shared by every duration
#: histogram. Fixed — never derived from the data — so two runs of the
#: same workload produce identical snapshots.
DURATION_BUCKETS_S: Tuple[float, ...] = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
)

#: The canonical ``DegradationEvent`` kind vocabulary: every layer —
#: runner, guard, proxy, client, service — records degradations using
#: exactly these kinds, so hunt oracles and trace-diff can treat the
#: same failure mode uniformly regardless of which layer observed it.
DEGRADATION_KINDS: Dict[str, str] = {
    "path-fault": "a path failed mid-transfer (I/O error, reset, fault "
                  "schedule)",
    "path-drain": "a path was drained: in-flight copies finish, no new "
                  "work",
    "path-join": "a path joined the transaction after start",
    "path-rejoin": "a previously removed path rejoined",
    "rejoin-vetoed": "a rejoin was refused by the rejoin gate",
    "stall": "no progress before the stall watchdog fired (peer, path "
             "or socket timeout)",
    "retry-budget-exhausted": "a retry was wanted but the budget "
                              "(per-flow policy or shared RetryBudget) "
                              "had no tokens",
    "permit-revoked": "the PermitServer revoked the cellular permit "
                      "mid-transfer",
    "cap-exhausted": "the daily 3G byte cap ran out mid-transfer",
    "bad-peer": "a peer spoke malformed protocol and was rejected",
    "peer-unreachable": "the upstream connect failed outright",
    "overload-shed": "admission control shed the flow (503-style, "
                     "pool or queue full)",
    "deadline-expired": "the propagated deadline lapsed before the "
                        "transfer finished",
    "drain-aborted": "a straggler aborted at the drain deadline, "
                     "bytes trued up",
}

#: Kinds that represent *loss of authority* to use the cellular leg
#: (the hunt authority-discipline oracle keys off these).
AUTHORITY_LOSS_KINDS = frozenset({"cap-exhausted", "permit-revoked"})

#: Kinds that represent path-level *disruption* (the hunt
#: retry-discipline oracle keys off these).
DISRUPTION_KINDS = frozenset(
    {"path-fault", "path-drain", "stall", "path-rejoin", "path-join"}
)


#: Every trace event: name -> {field: description (with unit)}.
#: All timestamps are the **engine clock** (simulation seconds); events
#: from un-clocked call sites (e.g. ``permit.revoke``) carry ``null``.
EVENTS: Dict[str, Dict[str, str]] = {
    "txn.begin": {
        "transaction": "transaction name",
        "policy": "scheduling policy (GRD/RR/MIN/DLN)",
        "items": "item count",
        "payload_bytes": "total payload, bytes",
    },
    "txn.end": {
        "transaction": "transaction name",
        "policy": "scheduling policy",
        "wasted_bytes": "duplicate + fault waste, bytes",
        "payload_bytes": "total payload, bytes",
    },
    "copy.start": {
        "path": "path name",
        "item": "item label",
        "size_bytes": "item size, bytes",
        "duplicate": "true for an endgame/urgency re-transfer",
    },
    "copy.abort": {
        "path": "path name",
        "item": "item label",
        "transferred_bytes": "bytes moved before the abort",
        "cause": "'duplicate' (lost the race) or 'fault' (path/stall)",
    },
    "copy.waste": {
        "path": "path name",
        "item": "item label",
        "transferred_bytes": "bytes counted as waste",
        "cause": "'duplicate' or 'fault'",
    },
    "item.complete": {
        "path": "winning path name",
        "item": "item label",
        "copies": "copies ever started for the item",
        "elapsed_s": "first-scheduling to completion, seconds",
        "queue_s": "transaction start to first scheduling, seconds",
    },
    "degradation": {
        "kind": "DegradationEvent kind (see the degradation-kind table)",
        "path": "path name (may be empty)",
        "item": "item label (may be empty)",
    },
    "retry.scheduled": {
        "path": "path the fault hit",
        "item": "orphaned item label",
        "attempt": "1-based fault count for the item",
        "delay_s": "backoff before the re-queue, seconds",
    },
    "permit.grant": {
        "device": "device name",
        "cell": "cell name",
        "expires_at": "permit expiry, engine seconds",
    },
    "permit.deny": {
        "device": "device name",
        "cell": "cell name",
        "utilization": "cell utilisation fraction that denied it",
    },
    "permit.revoke": {
        "device": "device name (time is null: revoke has no clock)",
    },
    "fault.transition": {
        "target": "path/device the fault process drives",
        "action": "'down' or 'up'",
        "kind": "fault process kind (path-flap, radio-drop, ...)",
    },
    "service.state": {
        "state": "lifecycle state entered "
                 "(starting/serving/draining/stopped)",
        "previous": "lifecycle state left",
    },
    "service.flow.admit": {
        "flow": "flow id (unique per service lifetime)",
        "leg": "upstream leg chosen for the flow",
    },
    "service.flow.end": {
        "flow": "flow id",
        "outcome": "'completed', 'shed' or 'aborted'",
        "reason": "why, for shed/aborted flows (degradation kind, "
                  "may be empty)",
        "status": "HTTP status returned to the client",
        "transferred_bytes": "payload bytes relayed to the client",
        "latency_s": "admit to last byte, seconds (wall clock)",
    },
    "service.drain.begin": {
        "deadline_s": "drain deadline, seconds",
        "in_flight": "flows in flight when the drain began",
    },
    "service.drain.end": {
        "drained": "in-flight flows that completed during the drain",
        "aborted": "stragglers aborted at the deadline (trued up)",
        "elapsed_s": "drain duration, seconds (wall clock)",
    },
    "fleet.round": {
        "policy": "fleet policy (adsl-only/multi-provider/"
                  "network-integrated)",
        "round": "0-based round index within the simulated day",
        "adsl_bytes": "bytes delivered over ADSL this round",
        "onload_bytes": "bytes delivered over 3G this round",
        "backlog_bytes": "city-wide backlog after the round, bytes",
    },
}

#: Every metric: name -> {type, labels, unit, help}.
METRICS: Dict[str, Dict[str, object]] = {
    "runner.transactions": {
        "type": "counter", "labels": ("policy",), "unit": "count",
        "help": "transactions started",
    },
    "runner.copies": {
        "type": "counter", "labels": ("path",), "unit": "count",
        "help": "copies dispatched per path (utilisation numerator)",
    },
    "runner.items_completed": {
        "type": "counter", "labels": ("path",), "unit": "count",
        "help": "winning copies per path",
    },
    "runner.bytes_completed": {
        "type": "counter", "labels": ("path",), "unit": "bytes",
        "help": "payload bytes delivered per path",
    },
    "runner.waste_bytes": {
        "type": "counter", "labels": ("cause",), "unit": "bytes",
        "help": "non-winning transfer bytes; cause=duplicate is the "
                "(N-1)*S_max-bounded endgame waste, cause=fault is "
                "churn loss",
    },
    "runner.degradations": {
        "type": "counter", "labels": ("kind",), "unit": "count",
        "help": "DegradationEvents recorded (stall kind = watchdog fires)",
    },
    "runner.retries": {
        "type": "counter", "labels": ("policy",), "unit": "count",
        "help": "fault recoveries scheduled (with or without backoff)",
    },
    "runner.active_paths": {
        "type": "gauge", "labels": (), "unit": "count",
        "help": "paths currently accepting work",
    },
    "runner.item_elapsed_s": {
        "type": "histogram", "labels": (), "unit": "seconds",
        "help": "first-scheduling to completion per item",
    },
    "runner.item_queue_s": {
        "type": "histogram", "labels": (), "unit": "seconds",
        "help": "transaction start to first scheduling per item",
    },
    "runner.copy_abort_age_s": {
        "type": "histogram", "labels": (), "unit": "seconds",
        "help": "age of a copy when aborted",
    },
    "scheduler.endgame_duplicates": {
        "type": "counter", "labels": ("policy",), "unit": "count",
        "help": "GRD/DLN endgame re-transfers issued",
    },
    "scheduler.urgent_duplicates": {
        "type": "counter", "labels": ("policy",), "unit": "count",
        "help": "DLN urgency pre-emption re-transfers issued",
    },
    "scheduler.requeues": {
        "type": "counter", "labels": ("policy",), "unit": "count",
        "help": "items re-queued after a path failure",
    },
    "scheduler.redealt_items": {
        "type": "counter", "labels": ("policy",), "unit": "count",
        "help": "RR items re-dealt on membership change",
    },
    "scheduler.orphaned_items": {
        "type": "counter", "labels": ("policy",), "unit": "count",
        "help": "items parked in a blackout orphan pool",
    },
    "scheduler.committed_items": {
        "type": "counter", "labels": ("policy",), "unit": "count",
        "help": "MIN items committed to per-path queues by estimate",
    },
    "scheduler.estimate_updates": {
        "type": "counter", "labels": ("policy",), "unit": "count",
        "help": "MIN EWMA bandwidth samples absorbed",
    },
    "permits.granted": {
        "type": "counter", "labels": (), "unit": "count",
        "help": "permits granted by the backend",
    },
    "permits.denied": {
        "type": "counter", "labels": (), "unit": "count",
        "help": "permit requests denied (cell over threshold)",
    },
    "permits.revoked": {
        "type": "counter", "labels": (), "unit": "count",
        "help": "permits revoked (congestion detected)",
    },
    "cap.metered_bytes": {
        "type": "counter", "labels": ("device",), "unit": "bytes",
        "help": "3GOL bytes metered into a device's CapTracker",
    },
    "cap.available_bytes": {
        "type": "gauge", "labels": ("device",), "unit": "bytes",
        "help": "A(t): remaining daily quota after the last metering",
    },
    "cap.exhaustions": {
        "type": "counter", "labels": ("device",), "unit": "count",
        "help": "cap-exhaustion drains triggered by the TransferGuard",
    },
    "faults.transitions": {
        "type": "counter", "labels": ("action",), "unit": "count",
        "help": "armed fault-schedule transitions fired",
    },
    "proto.degradations": {
        "type": "counter", "labels": ("kind",), "unit": "count",
        "help": "DegradationLog entries from the threaded proto layer",
    },
    "proxy.bytes": {
        "type": "counter", "labels": ("direction",), "unit": "bytes",
        "help": "bytes the MobileProxy relayed (direction=up/down)",
    },
    "service.flows": {
        "type": "counter", "labels": ("outcome",), "unit": "count",
        "help": "admitted flows by terminal outcome "
                "(completed/shed/aborted)",
    },
    "service.shed": {
        "type": "counter", "labels": ("reason",), "unit": "count",
        "help": "flows shed before or after admission, by reason",
    },
    "service.active_flows": {
        "type": "gauge", "labels": (), "unit": "count",
        "help": "flows currently in flight in the service",
    },
    "service.queue_depth": {
        "type": "gauge", "labels": (), "unit": "count",
        "help": "admission queue depth (waiting for a pool slot)",
    },
    "service.bytes": {
        "type": "counter", "labels": ("direction",), "unit": "bytes",
        "help": "bytes the service relayed (direction=up/down)",
    },
    "service.flow_latency_s": {
        "type": "histogram", "labels": (), "unit": "seconds",
        "help": "admit to last byte per flow (wall clock)",
    },
    "service.retry_denials": {
        "type": "counter", "labels": (), "unit": "count",
        "help": "retries refused by the shared RetryBudget",
    },
    "fleet.demand_bytes": {
        "type": "counter", "labels": ("policy",), "unit": "bytes",
        "help": "fleet demand arriving per round (integer bytes)",
    },
    "fleet.adsl_bytes": {
        "type": "counter", "labels": ("policy",), "unit": "bytes",
        "help": "fleet bytes delivered over the ADSL/DSLAM leg",
    },
    "fleet.onload_bytes": {
        "type": "counter", "labels": ("policy",), "unit": "bytes",
        "help": "fleet bytes onloaded to 3G sectors",
    },
    "fleet.waste_bytes": {
        "type": "counter", "labels": ("policy",), "unit": "bytes",
        "help": "onloaded bytes whose ADSL line share went unused",
    },
    "fleet.backlog_bytes": {
        "type": "gauge", "labels": ("policy",), "unit": "bytes",
        "help": "city-wide backlog after the latest round",
    },
    "fleet.cap_exhaustions": {
        "type": "counter", "labels": ("policy",), "unit": "count",
        "help": "households whose daily onload cap ran dry",
    },
    "fleet.permit_requests": {
        "type": "counter", "labels": ("policy",), "unit": "count",
        "help": "household permit requests reaching the permit server",
    },
    "fleet.permit_grants": {
        "type": "counter", "labels": ("policy",), "unit": "count",
        "help": "household permit requests granted",
    },
    "fleet.permit_denials": {
        "type": "counter", "labels": ("policy", "reason"), "unit": "count",
        "help": "permit denials by reason (capacity/threshold)",
    },
    "fleet.congested_sector_rounds": {
        "type": "counter", "labels": ("policy",), "unit": "count",
        "help": "sector-rounds driven to full cell utilization",
    },
}


def markdown_tables() -> str:
    """Render the catalogues as the markdown embedded in TRACE_SCHEMA.md."""
    lines: List[str] = []
    lines.append("### Events")
    lines.append("")
    lines.append("| event | field | meaning |")
    lines.append("|---|---|---|")
    for name in sorted(EVENTS):
        fields: Mapping[str, str] = EVENTS[name]
        first = True
        for field_name in fields:
            label = f"`{name}`" if first else ""
            lines.append(
                f"| {label} | `{field_name}` | {fields[field_name]} |"
            )
            first = False
    lines.append("")
    lines.append("### Degradation kinds")
    lines.append("")
    lines.append("| kind | meaning |")
    lines.append("|---|---|")
    for kind in sorted(DEGRADATION_KINDS):
        lines.append(f"| `{kind}` | {DEGRADATION_KINDS[kind]} |")
    lines.append("")
    lines.append("### Metrics")
    lines.append("")
    lines.append("| metric | type | labels | unit | meaning |")
    lines.append("|---|---|---|---|---|")
    for name in sorted(METRICS):
        spec = METRICS[name]
        labels = ", ".join(f"`{label}`" for label in spec["labels"])  # type: ignore[union-attr]
        lines.append(
            f"| `{name}` | {spec['type']} | {labels or '—'} "
            f"| {spec['unit']} | {spec['help']} |"
        )
    lines.append("")
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover - doc generation helper
    print(markdown_tables())
