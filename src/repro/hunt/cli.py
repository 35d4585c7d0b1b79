"""The ``repro-hunt`` console entry point.

Usage::

    repro-hunt run --seed 0 --budget 40            # seeded campaign
    repro-hunt run --format json                   # CI-friendly payload
    repro-hunt replay tests/corpus/scenarios       # replay the corpus
    repro-hunt replay scenario.json                # replay one spec
    repro-hunt minimize scenario.json -o min.json  # shrink a witness
    repro-hunt list-oracles

``run`` drives a deterministic campaign: the same seed and budget
always generate the same scenarios, find the same violations, and emit
a byte-identical JSON report. ``replay`` re-executes pinned scenarios
through the full oracle suite (a regression gate); ``minimize``
greedily shrinks a violating scenario while its oracles keep firing.

Exit codes mirror the other repro tools: 0 clean, 1 when any invariant
was violated, 2 on usage errors (bad budget, unreadable spec, unknown
oracle).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.hunt.oracles import ORACLES
from repro.hunt.scenario import Scenario
from repro.hunt.session import HuntReport, HuntSession
from repro.hunt.session import ScenarioCase, load_corpus, replay_case
from repro.util.clitools import (
    EXIT_CLEAN,
    EXIT_FINDINGS,
    add_format_argument,
    cli_error,
    render_json_payload,
)

__all__ = ["main"]

DEFAULT_BUDGET = 40


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-hunt`` argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-hunt",
        description=(
            "Seeded adversarial scenario search for the 3GOL stack: "
            "generate fault/cap/permit/churn scenarios, run them on "
            "the event engine, and check the invariant oracle suite. "
            "Same seed, same findings."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="run a seeded hunt campaign"
    )
    run.add_argument(
        "--seed", type=int, default=0, help="campaign seed (default: 0)"
    )
    run.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_BUDGET,
        help=f"scenarios to generate (default: {DEFAULT_BUDGET})",
    )
    run.add_argument(
        "--oracles",
        metavar="IDS",
        help="comma-separated oracle ids to check (default: all)",
    )
    add_format_argument(run)

    replay = sub.add_parser(
        "replay",
        help="replay scenario spec(s) through the oracle suite",
    )
    replay.add_argument(
        "path",
        help=(
            "a scenario .json spec, or a corpus directory holding a "
            "MANIFEST.json"
        ),
    )

    minimize = sub.add_parser(
        "minimize", help="greedily shrink a violating scenario"
    )
    minimize.add_argument("path", help="scenario .json spec to shrink")
    minimize.add_argument(
        "-o",
        "--output",
        metavar="FILE",
        help="write the minimised spec here (default: stdout)",
    )

    sub.add_parser("list-oracles", help="print the oracle registry")
    return parser


def render_text(report: HuntReport) -> str:
    """Human-readable rendering of one campaign report."""
    lines: List[str] = [
        f"hunt: seed={report.seed} budget={report.budget} "
        f"runs={report.runs} clean={report.clean_runs} "
        f"executor_runs={report.executor_runs}"
    ]
    for finding in report.findings:
        keys = ", ".join(
            f"{oracle}[{extra}]" if extra else oracle
            for oracle, extra in finding.keys
        )
        lines.append(
            f"  FINDING {keys} (iteration {finding.iteration}, "
            f"{finding.duplicates} duplicate(s), minimised in "
            f"{finding.shrink_runs} run(s))"
        )
        for violation in finding.detail:
            lines.append(f"    {violation.oracle}: {violation.detail}")
        lines.append(
            "    scenario: "
            + " ".join(finding.case.to_json().split())
        )
    lines.append(
        "all clean: no scenario violated an invariant"
        if report.clean
        else f"{len(report.findings)} distinct finding(s)"
    )
    return "\n".join(lines)


def _load_scenario(path: Path) -> Scenario:
    """Parse one scenario spec file (raises OSError / ValueError)."""
    return Scenario.from_json(path.read_text(encoding="utf-8"))


def _cmd_run(args: argparse.Namespace) -> int:
    """``repro-hunt run``: a seeded campaign."""
    if args.budget <= 0:
        return cli_error("repro-hunt", "--budget must be > 0")
    only: Optional[List[str]] = None
    if args.oracles:
        only = [
            oracle_id.strip()
            for oracle_id in args.oracles.split(",")
            if oracle_id.strip()
        ]
    try:
        session = HuntSession(seed=args.seed, only=only)
        report = session.run(args.budget)
    except KeyError as exc:
        return cli_error("repro-hunt", str(exc.args[0]))
    if args.format == "json":
        print(render_json_payload(report.to_dict()))
    else:
        print(render_text(report))
    return EXIT_CLEAN if report.clean else EXIT_FINDINGS


def _cmd_replay(args: argparse.Namespace) -> int:
    """``repro-hunt replay``: regression-gate pinned scenarios."""
    path = Path(args.path)
    if path.is_dir():
        cases = load_corpus(path)
        if not cases:
            return cli_error(
                "repro-hunt", f"no corpus manifest under {path}"
            )
    else:
        try:
            scenario = _load_scenario(path)
        except (OSError, ValueError) as exc:
            return cli_error("repro-hunt", str(exc))
        cases = (ScenarioCase("", scenario.name, str(path), scenario),)
    failures = [replay_case(case) for case in cases]
    for case, failure in zip(cases, failures):
        print(
            f"{case.case_id}: "
            + ("clean" if failure is None else "VIOLATED")
        )
    for failure in failures:
        if failure is not None:
            print(failure)
    return EXIT_CLEAN if not any(failures) else EXIT_FINDINGS


def _cmd_minimize(args: argparse.Namespace) -> int:
    """``repro-hunt minimize``: shrink a violating spec."""
    path = Path(args.path)
    try:
        scenario = _load_scenario(path)
    except (OSError, ValueError) as exc:
        return cli_error("repro-hunt", str(exc))
    session = HuntSession()
    keys, violations = session.check(scenario)
    if not keys:
        print(
            f"{scenario.name}: already clean — nothing to minimise",
            file=sys.stderr,
        )
        return EXIT_CLEAN
    minimized, kept, runs = session.shrink(scenario, keys, violations)
    text = minimized.to_json()
    if args.output:
        Path(args.output).write_text(text + "\n", encoding="utf-8")
        print(
            f"minimised in {runs} run(s), still firing "
            f"{sorted({v.oracle for v in kept})}; wrote {args.output}",
            file=sys.stderr,
        )
    else:
        print(text)
    return EXIT_FINDINGS


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Console entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "replay":
        return _cmd_replay(args)
    if args.command == "minimize":
        return _cmd_minimize(args)
    for oracle in ORACLES:
        print(f"{oracle.oracle_id}: {oracle.summary}")
    return EXIT_CLEAN


if __name__ == "__main__":  # pragma: no cover — exercised via tests
    sys.exit(main())
