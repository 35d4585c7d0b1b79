"""The ``repro-trace`` console entry point.

Usage::

    repro-trace export ext-churn --quick -o trace.jsonl
    repro-trace export fig06 --quick            # JSONL to stdout
    repro-trace summary trace.jsonl             # summarise a saved trace
    repro-trace summary ext-churn --quick       # live run, then summarise
    repro-trace diff a.jsonl b.jsonl            # exit 1 on any delta

``export`` runs one registered experiment with instrumentation captured
and writes the deterministic JSONL trace (see ``docs/TRACE_SCHEMA.md``).
The same experiment always exports byte-identical lines, so saved
traces diff clean unless the code changed. ``summary`` aggregates a
trace for human reading; when it ran the experiment itself it also
shows the wall-clock profile, which is deliberately *not* part of the
export. ``diff`` compares two saved traces record by record.

Exit codes: 0 clean/identical, 1 experiment error or trace deltas,
2 usage error (unknown experiment, unreadable file, bad trace).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.export import (
    TraceParseError,
    diff_lines,
    parse_lines,
    summarize_lines,
)
from repro.util.clitools import (
    EXIT_CLEAN,
    EXIT_FINDINGS,
    EXIT_USAGE,
    cli_error,
)

__all__ = ["main"]


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-trace`` argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description=(
            "Deterministic trace tooling for the 3GOL reproduction: "
            "run experiments with instrumentation captured, export the "
            "JSONL trace, summarise and diff traces."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    export = sub.add_parser(
        "export", help="run one experiment traced, write JSONL"
    )
    export.add_argument("experiment", help="registered experiment id")
    export.add_argument(
        "--quick", action="store_true", help="reduced-size parameter set"
    )
    export.add_argument(
        "-o",
        "--output",
        metavar="FILE",
        help="write the trace here (default: stdout)",
    )

    summary = sub.add_parser(
        "summary", help="summarise a saved trace or a live traced run"
    )
    summary.add_argument(
        "target", help="a trace file (JSONL) or a registered experiment id"
    )
    summary.add_argument(
        "--quick", action="store_true", help="reduced-size parameter set"
    )

    diff = sub.add_parser("diff", help="compare two saved traces")
    diff.add_argument("a", help="first trace file")
    diff.add_argument("b", help="second trace file")
    return parser


def _run_traced(
    experiment_id: str, quick: bool
) -> Tuple[Optional[List[str]], Optional[Dict[str, float]], Optional[str]]:
    """Run one experiment traced: (trace lines, profile, error)."""
    from repro.experiments import registry
    from repro.experiments.runner import run_experiments

    try:
        registry.get(experiment_id)
    except registry.UnknownExperimentError as exc:
        return None, None, f"usage: {exc}"
    outcome = run_experiments(
        [experiment_id], quick=quick, cache=None, trace=True
    )[0]
    if not outcome.ok:
        return None, None, outcome.error or "experiment failed"
    if outcome.trace_lines is None:
        return None, None, "experiment produced no trace"
    return outcome.trace_lines, outcome.profile, None


def _read_trace(path: str) -> List[str]:
    """Lines of a saved trace file (raises OSError on unreadable)."""
    return Path(path).read_text(encoding="utf-8").splitlines()


def _fail(message: str, code: int) -> int:
    return cli_error("repro-trace", message, code)


def _cmd_export(args: argparse.Namespace) -> int:
    """``repro-trace export``: run traced, write the JSONL lines."""
    lines, _, error = _run_traced(args.experiment, args.quick)
    if lines is None:
        assert error is not None
        if error.startswith("usage: "):
            return _fail(error[len("usage: "):], EXIT_USAGE)
        return _fail(error, EXIT_FINDINGS)
    text = "\n".join(lines) + "\n"
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(
            f"wrote {len(lines)} lines to {args.output}", file=sys.stderr
        )
    else:
        sys.stdout.write(text)
    return EXIT_CLEAN


def _render_summary(
    summary: Dict[str, Any], profile: Optional[Dict[str, float]]
) -> str:
    """Human-readable rendering of :func:`summarize_lines` output."""
    header = summary["header"]
    out = [
        f"trace: experiment={header.get('experiment') or '-'} "
        f"schema={header.get('schema')} "
        f"emitted={header.get('emitted')} dropped={header.get('dropped')}",
        f"events: {summary['event_count']}",
    ]
    for name, count in summary["events_by_name"].items():
        out.append(f"  {name:<20} {count}")
    span = summary["time_span"]
    if span is not None:
        out.append(f"engine time span: {span[0]:.3f}s .. {span[1]:.3f}s")
    if summary["counters"]:
        out.append("counters:")
        for key, value in summary["counters"].items():
            out.append(f"  {key:<44} {value:g}")
    if summary["gauges"]:
        out.append("gauges:")
        for key, value in summary["gauges"].items():
            out.append(f"  {key:<44} {value:g}")
    if summary["histograms"]:
        out.append("histograms:")
        for key, hist in summary["histograms"].items():
            out.append(
                f"  {key:<44} count={hist['count']} sum={hist['sum']:.3f}s"
            )
    if profile is not None:
        out.append(
            "profile (wall clock, not part of the export): "
            + " ".join(
                f"{phase}={seconds:.3f}s"
                for phase, seconds in sorted(profile.items())
            )
        )
    return "\n".join(out)


def _cmd_summary(args: argparse.Namespace) -> int:
    """``repro-trace summary``: aggregate a saved or live trace."""
    profile: Optional[Dict[str, float]] = None
    if Path(args.target).is_file():
        try:
            lines: Optional[List[str]] = _read_trace(args.target)
        except OSError as exc:
            return _fail(str(exc), EXIT_USAGE)
    else:
        lines, profile, error = _run_traced(args.target, args.quick)
        if lines is None:
            assert error is not None
            if error.startswith("usage: "):
                return _fail(
                    f"{args.target!r} is neither a file nor a known "
                    f"experiment ({error[len('usage: '):]})",
                    EXIT_USAGE,
                )
            return _fail(error, EXIT_FINDINGS)
    try:
        summary = summarize_lines(lines)
    except TraceParseError as exc:
        return _fail(str(exc), EXIT_USAGE)
    print(_render_summary(summary, profile))
    return EXIT_CLEAN


def _cmd_diff(args: argparse.Namespace) -> int:
    """``repro-trace diff``: record-level comparison of two traces."""
    try:
        a_lines = _read_trace(args.a)
        b_lines = _read_trace(args.b)
    except OSError as exc:
        return _fail(str(exc), EXIT_USAGE)
    try:
        # Validate both sides up front so a malformed file is a usage
        # error, not a finding.
        parse_lines(a_lines)
        parse_lines(b_lines)
        deltas = diff_lines(a_lines, b_lines)
    except TraceParseError as exc:
        return _fail(str(exc), EXIT_USAGE)
    if not deltas:
        print("traces identical")
        return EXIT_CLEAN
    for delta in deltas:
        print(delta)
    print(f"{len(deltas)} delta(s)")
    return EXIT_FINDINGS


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Console entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "export":
        return _cmd_export(args)
    if args.command == "summary":
        return _cmd_summary(args)
    return _cmd_diff(args)


if __name__ == "__main__":  # pragma: no cover — exercised via tests
    sys.exit(main())
