"""The ``repro-fleet`` console entry point.

Usage::

    repro-fleet run --households 1000 --adoption 0.5   # city day
    repro-fleet run --shards 8 --format json           # sharded, CI
    repro-fleet run -o day.json --format json          # save payload
    repro-fleet summary day.json                       # re-read a run

``run`` simulates one city day under all three policies (adsl-only
baseline, multi-provider, network-integrated), prints the merged
report, and checks the byte-conservation invariant — the same seed and
parameters produce a byte-identical report at any ``--shards``.
``summary`` re-renders a saved ``--format json`` payload without
re-simulating.

Exit codes mirror the other repro tools: 0 clean, 1 when an invariant
finding surfaced (conservation breach in ``run``, findings recorded in
a summarized payload), 2 on usage errors (bad adoption fraction,
unreadable payload).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.fleet.dispatcher import DEFAULT_SHARDS, run_city
from repro.fleet.population import FleetParameters
from repro.fleet.report import FleetReport
from repro.util.clitools import (
    EXIT_CLEAN,
    EXIT_FINDINGS,
    EXIT_USAGE,
    add_format_argument,
    cli_error,
    render_json_payload,
)
from repro.util.units import mbps

__all__ = [
    "EXIT_CLEAN",
    "EXIT_FINDINGS",
    "EXIT_USAGE",
    "build_parser",
    "main",
]

DEFAULT_HOUSEHOLDS = 1000
PROG = "repro-fleet"


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-fleet`` argument parser (exposed for tests/docs)."""
    parser = argparse.ArgumentParser(
        prog=PROG,
        description=(
            "Fleet-scale city simulation: sharded households, "
            "deterministic merge. Simulates one day of a whole city "
            "under the adsl-only / multi-provider / network-integrated "
            "policies; reports are byte-identical at any --shards."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate one city day")
    run.add_argument(
        "--households",
        type=int,
        default=DEFAULT_HOUSEHOLDS,
        help=f"city size (default: {DEFAULT_HOUSEHOLDS})",
    )
    run.add_argument(
        "--seed", type=int, default=0, help="city seed (default: 0)"
    )
    run.add_argument(
        "--adoption",
        type=float,
        default=0.25,
        help="onload adoption fraction in [0, 1] (default: 0.25)",
    )
    run.add_argument(
        "--shards",
        type=int,
        default=DEFAULT_SHARDS,
        help=f"shard partitions (default: {DEFAULT_SHARDS})",
    )
    run.add_argument(
        "--backhaul-mbps",
        type=float,
        default=None,
        metavar="MBPS",
        help="DSLAM backhaul rate override in Mbps (default: 45)",
    )
    run.add_argument(
        "--cap-mb",
        type=int,
        default=None,
        metavar="MB",
        help="daily onload cap override in MB (default: 40)",
    )
    run.add_argument(
        "-o",
        "--output",
        metavar="FILE",
        help="also write the json payload here",
    )
    add_format_argument(run)

    summary = sub.add_parser(
        "summary", help="re-render a saved run payload"
    )
    summary.add_argument(
        "path", help="a json payload written by `repro-fleet run -o`"
    )
    add_format_argument(summary)
    return parser


def _params_from_args(args: argparse.Namespace) -> FleetParameters:
    extra: Dict[str, Any] = {}
    if args.backhaul_mbps is not None:
        extra["dslam_backhaul_bps"] = mbps(args.backhaul_mbps)
    if args.cap_mb is not None:
        extra["daily_cap_bytes"] = args.cap_mb * 1_000_000
    return FleetParameters(
        n_households=args.households, seed=args.seed, **extra
    )


def _payload(
    report: FleetReport,
    findings: List[str],
    shards: int,
) -> Dict[str, Any]:
    return {
        "digest": report.digest(),
        "findings": findings,
        "shards": shards,
        "report": report.to_dict(),
    }


def _render_text(payload: Dict[str, Any]) -> str:
    report = payload["report"]
    lines = [
        (
            "fleet day: {n} households, adoption {a:.2f}, seed {s}".format(
                n=report["n_households"],
                a=report["adoption"],
                s=report["seed"],
            )
        ),
        f"digest: {payload['digest']}",
        f"demand bytes: {report['demand_bytes']}",
    ]
    for summary in report["policies"]:
        lines.append(
            "  {policy}: adsl={adsl} 3g={onload} waste={waste} "
            "backlog={backlog} cap_dry={dry} congested={congested}".format(
                policy=summary["policy"],
                adsl=summary["adsl_bytes"],
                onload=summary["onload_bytes"],
                waste=summary["waste_bytes"],
                backlog=summary["backlog_end_bytes"],
                dry=summary["cap_exhaustions"],
                congested=summary["congested_sector_rounds"],
            )
        )
        denials = summary["permit_denials"]
        if summary["permit_requests"]:
            lines.append(
                "    permits: requests={req} grants={grant} "
                "denied={denied}".format(
                    req=summary["permit_requests"],
                    grant=summary["permit_grants"],
                    denied=dict(sorted(denials.items())),
                )
            )
    for finding in payload["findings"]:
        lines.append(f"  FINDING {finding}")
    return "\n".join(lines)


def _cmd_run(args: argparse.Namespace) -> int:
    if not 0.0 <= args.adoption <= 1.0:
        return cli_error(
            PROG, f"adoption must be in [0, 1], got {args.adoption}"
        )
    if args.shards < 1:
        return cli_error(PROG, f"shards must be >= 1, got {args.shards}")
    try:
        params = _params_from_args(args)
    except ValueError as exc:
        return cli_error(PROG, str(exc))

    outcome = run_city(params, args.adoption, n_shards=args.shards)
    report = FleetReport.from_outcome(outcome)
    findings = report.check_conservation(outcome)
    payload = _payload(report, findings, args.shards)

    if args.output:
        Path(args.output).write_text(
            render_json_payload(payload) + "\n", encoding="utf-8"
        )
    if args.format == "json":
        print(render_json_payload(payload))
    else:
        print(report.render())
        print(f"\ndigest: {payload['digest']}")
        for finding in findings:
            print(f"FINDING {finding}")
    return EXIT_FINDINGS if findings else EXIT_CLEAN


def _cmd_summary(args: argparse.Namespace) -> int:
    try:
        raw = Path(args.path).read_text(encoding="utf-8")
        payload = json.loads(raw)
    except OSError as exc:
        return cli_error(PROG, f"cannot read {args.path}: {exc}")
    except json.JSONDecodeError as exc:
        return cli_error(PROG, f"{args.path} is not valid json: {exc}")
    if (
        not isinstance(payload, dict)
        or "report" not in payload
        or "digest" not in payload
    ):
        return cli_error(
            PROG, f"{args.path} is not a repro-fleet run payload"
        )
    if args.format == "json":
        print(render_json_payload(payload))
    else:
        print(_render_text(payload))
    findings = payload.get("findings") or []
    return EXIT_FINDINGS if findings else EXIT_CLEAN


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Console entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_summary(args)


if __name__ == "__main__":  # pragma: no cover — exercised via console
    sys.exit(main())
