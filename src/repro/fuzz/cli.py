"""The ``repro-fuzz`` console entry point.

Usage::

    repro-fuzz --seed 0 --iterations 2000          # all four targets
    repro-fuzz --target m3u8 --target multipart    # a subset
    repro-fuzz --format json                       # CI-friendly payload
    repro-fuzz --list-targets

Exit codes mirror ``repro-lint``: 0 when every target ran crash-free
(only successes and typed ``ProtocolError`` rejections), 1 when any
payload escaped the taxonomy, 2 on usage errors (unknown target, bad
budget).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.fuzz.session import FuzzReport, FuzzSession
from repro.fuzz.targets import all_targets, get_target
from repro.util.clitools import (
    EXIT_CLEAN,
    EXIT_FINDINGS,
    EXIT_USAGE,
    add_format_argument,
    cli_error,
    render_json_payload,
)

__all__ = ["main"]

DEFAULT_ITERATIONS = 2000


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-fuzz",
        description=(
            "Seeded, deterministic fuzzing of the 3GOL wire parsers "
            "(HTTP heads, HTTP streams, m3u8 playlists, multipart "
            "bodies). Same seed, same crashes."
        ),
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="campaign seed (default: 0)",
    )
    parser.add_argument(
        "--iterations",
        type=int,
        default=DEFAULT_ITERATIONS,
        help=f"payloads per target (default: {DEFAULT_ITERATIONS})",
    )
    parser.add_argument(
        "--target",
        action="append",
        metavar="NAME",
        help="fuzz only this target (repeatable; default: all)",
    )
    add_format_argument(parser)
    parser.add_argument(
        "--list-targets",
        action="store_true",
        help="print every registered target and exit",
    )
    return parser


def render_text(reports: Sequence[FuzzReport]) -> str:
    lines: List[str] = []
    total_crashes = 0
    for report in reports:
        verdict = "clean" if report.clean else (
            f"{len(report.crashes)} distinct crash(es)"
        )
        lines.append(
            f"{report.target}: {report.budget} iterations, "
            f"{report.ok} ok, {report.handled} rejected cleanly — {verdict}"
        )
        for crash in report.crashes:
            total_crashes += 1
            exception_type, site = crash.keys[0]
            message = str(crash.detail)[:200]
            lines.append(
                f"  CRASH {exception_type} at {site} "
                f"(iteration {crash.iteration}, "
                f"{crash.duplicates} duplicate(s)): {message}"
            )
            lines.append(
                f"    payload ({len(crash.case)} bytes): "
                f"{crash.case[:64]!r}"
            )
    lines.append(
        "all clean: every malformed payload was rejected with a typed "
        "ProtocolError"
        if total_crashes == 0
        else f"{total_crashes} distinct crash(es) escaped the taxonomy"
    )
    return "\n".join(lines)


def render_json_report(reports: Sequence[FuzzReport]) -> str:
    return render_json_payload(
        {
            "clean": all(report.clean for report in reports),
            "reports": [report.to_dict() for report in reports],
        }
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_targets:
        for target in all_targets():
            print(f"{target.name}: {target.description}")
        return EXIT_CLEAN
    if args.iterations <= 0:
        return cli_error("repro-fuzz", "--iterations must be > 0")
    if args.target:
        try:
            targets = tuple(get_target(name) for name in args.target)
        except KeyError as exc:
            return cli_error("repro-fuzz", str(exc.args[0]))
    else:
        targets = all_targets()
    reports = [
        FuzzSession(target, seed=args.seed).run(args.iterations)
        for target in targets
    ]
    if args.format == "json":
        print(render_json_report(reports))
    else:
        print(render_text(reports))
    clean = all(report.clean for report in reports)
    return EXIT_CLEAN if clean else EXIT_FINDINGS


if __name__ == "__main__":  # pragma: no cover — exercised via tests
    sys.exit(main())
