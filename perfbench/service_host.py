"""Host process of the service workload: origin, phone proxy, service.

Run as ``python3 service_host.py <src dir> <seed> <trace 0|1>``. It
stands up the loopback topology of ``repro-serve smoke`` — a
``LoopbackOrigin`` storing uploads, an unshaped ``MobileProxy`` phone
leg metered through a ``FlowLedger`` with cap and permit authority, and
the ``OnloadService`` in front of both legs — then prints one JSON line
with the service's address and serves until told to stop.

Commands arrive one per line on standard input:

``snapshot``
    print the span totals so far, and the layer boundaries that could
    not be wrapped, as one JSON line (traced runs);
``stop``
    drain the service, stop everything, print the final report as one
    JSON line and exit. End of input means the same.

The client lives in another process, so client and service do not
share one interpreter lock.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Any, Dict

from layers import LAYERS, as_lists
from spans import Spans

#: Cap budget far above anything a run can relay, so the phone leg
#: keeps its authority for the whole run.
_BUDGET_BYTES = 1e15


class _TimedListener:
    """The service's listening socket, noting when each accept returned."""

    def __init__(self, sock: Any, accepted: Dict[int, float]) -> None:
        self._sock = sock
        self._accepted = accepted

    def accept(self) -> Any:
        conn, addr = self._sock.accept()
        self._accepted[id(conn)] = time.perf_counter()
        return conn, addr

    def __getattr__(self, name: str) -> Any:
        return getattr(self._sock, name)


def _trace(spans: Spans, service_cls: Any) -> Dict[int, float]:
    """Spans on the service's layers; returns the accept-time table."""
    from repro.core.resilience import FlowLedger
    from repro.service.admission import AdmissionController

    spans.patch_method(AdmissionController, "try_admit", "service_admission")
    spans.patch_method(service_cls, "_dial", "service_dial")
    spans.patch_method(service_cls, "_exchange_upstream", "service_relay")
    spans.patch_method(FlowLedger, "settle", "service_settle")
    accepted: Dict[int, float] = {}
    if not spans.patch_method(service_cls, "_serve_flow", "service_flow"):
        return accepted
    traced_serve = service_cls._serve_flow

    def serve_flow(self: Any, client: Any, flow_id: str) -> Any:
        # Accept layer: from accept() returning to the flow's own thread
        # starting to serve it.
        accepted_at = accepted.pop(id(client), None)
        if accepted_at is not None:
            spans.add("service_accept", time.perf_counter() - accepted_at)
        return traced_serve(self, client, flow_id)

    service_cls._serve_flow = serve_flow
    return accepted


def main(argv: list) -> int:
    src, seed, traced = argv[0], int(argv[1]), argv[2] == "1"
    sys.path.insert(0, src)
    from repro.core.captracker import CapTracker
    from repro.core.permits import PermitServer
    from repro.core.resilience import FlowLedger, RetryBudget
    from repro.proto import LoopbackOrigin, MobileProxy
    from repro.service.server import OnloadService, ServiceLeg

    spans = Spans(LAYERS) if traced else None
    accepted = _trace(spans, OnloadService) if spans else None

    origin = LoopbackOrigin()
    origin.start()
    proxy = MobileProxy(origin.address, name="ph1", recv_timeout=5.0).start()
    ledger = FlowLedger(
        {"ph1": CapTracker(daily_budget_bytes=_BUDGET_BYTES)},
        permit_server=PermitServer(utilization_fn=lambda cell, now: 0.3),
    )
    service = OnloadService(
        legs=[
            ServiceLeg("adsl", origin.address),
            ServiceLeg("ph1", proxy.address, device="ph1", cell="c0"),
        ],
        max_active=64,
        max_queued=32,
        recv_timeout=5.0,
        idle_timeout=5.0,
        flow_deadline_s=30.0,
        drain_deadline_s=5.0,
        retry_budget=RetryBudget(seed=seed),
        ledger=ledger,
    )
    if accepted is not None:
        if hasattr(service, "_server"):
            service._server = _TimedListener(service._server, accepted)
        else:
            spans.missing.append("OnloadService._server")
    service.start()
    print(json.dumps({"service": list(service.address)}), flush=True)

    for line in sys.stdin:
        if line.strip() == "snapshot":
            totals = as_lists(spans.totals()) if spans else {}
            missing = spans.missing if spans else []
            reply = {"spans": totals, "missing": missing}
            print(json.dumps(reply), flush=True)
        elif line.strip() == "stop":
            break
    drain = service.stop()
    proxy.stop()
    origin.stop()
    report = service.report()
    print(
        json.dumps(
            {
                "flows": len(report.flows),
                "outcomes": report.outcome_counts(),
                "stranded": report.stranded(),
                "drain_met_deadline": drain.met_deadline,
                "uploads": len(origin.uploads),
                "upload_bytes": sum(origin.uploads.values()),
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
