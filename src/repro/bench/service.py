"""The service benchmark record (``BENCH_service.json``).

Unlike the ``BENCHMARKS`` records, the service benchmark drives real
threads over real loopback sockets, so its latencies are wall-clock
and machine-dependent. The record therefore splits in two:

``plan``
    a pure function of the seed — the chaos schedule digest, the load
    schedule digest, flow counts, workload parameters. **Byte-identical
    across runs with the same seed**; :func:`plan_section` is what the
    determinism test re-derives and compares.
``measured``
    latency percentiles and outcome counts from one actual run —
    explicitly excluded from byte-identity and from the
    ``repro-bench --check`` regression gate (it is not listed in
    :data:`repro.bench.harness.BENCHMARKS`).

The *invariants* the smoke run enforces (zero stranded flows, drain
within deadline, schema-clean traces) are timing-independent and are
asserted before the record is written at all.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Optional

from repro.service.chaos import ChaosPlan
from repro.service.loadgen import LoadPlan, LoadReport
from repro.service.server import DrainReport, ServiceReport

__all__ = [
    "SERVICE_BENCH_FILENAME",
    "build_service_record",
    "plan_section",
    "write_service_record",
]

SERVICE_BENCH_FILENAME = "BENCH_service.json"


def plan_section(
    seed: int, load_plan: LoadPlan, chaos_plan: ChaosPlan
) -> Dict[str, Any]:
    """The deterministic half of the record; byte-identical per seed."""
    return {
        "seed": seed,
        "load": {
            "digest": load_plan.digest(),
            "flows": len(load_plan.flows),
            "duration_s": load_plan.duration_s,
            "rate_per_s": load_plan.rate_per_s,
            "mean_kbytes": load_plan.mean_kbytes,
        },
        "chaos": {
            "connections": len(chaos_plan.connections),
            "duration_s": chaos_plan.duration_s,
            "mode_counts": dict(
                sorted(chaos_plan.mode_counts().items())
            ),
        },
    }


def _round_opt(value: Optional[float]) -> Optional[float]:
    return None if value is None else round(value, 4)


def build_service_record(
    seed: int,
    load_plan: LoadPlan,
    chaos_plan: ChaosPlan,
    load_report: LoadReport,
    service_report: ServiceReport,
    drain: DrainReport,
) -> Dict[str, Any]:
    """Assemble the full record: deterministic plan + measured run."""
    return {
        "benchmark": "service",
        "plan": plan_section(seed, load_plan, chaos_plan),
        "measured": {
            "latency_s": {
                "p50": _round_opt(load_report.percentile(50.0)),
                "p99": _round_opt(load_report.percentile(99.0)),
            },
            "client": {
                "offered": load_report.offered,
                "outcomes": dict(
                    sorted(load_report.outcomes.items())
                ),
            },
            "service": {
                "admitted": service_report.admitted,
                "outcomes": dict(
                    sorted(service_report.outcome_counts().items())
                ),
                "shed_reasons": dict(
                    sorted(service_report.shed_reasons().items())
                ),
                "stranded": service_report.stranded(),
            },
            "drain": {
                "in_flight": drain.in_flight,
                "drained": drain.drained,
                "aborted": drain.aborted,
                "elapsed_s": round(drain.elapsed_s, 4),
                "met_deadline": drain.met_deadline,
            },
        },
    }


def write_service_record(
    record: Dict[str, Any], root: Path
) -> Path:
    """Write ``BENCH_service.json`` under ``root`` (made if missing)."""
    root.mkdir(parents=True, exist_ok=True)
    path = root / SERVICE_BENCH_FILENAME
    path.write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path
