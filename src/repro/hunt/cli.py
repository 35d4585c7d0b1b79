"""The ``repro-hunt`` console entry point: every seeded search.

Usage::

    repro-hunt run --seed 0                        # every target
    repro-hunt run --target m3u8 --target multipart --budget 500
    repro-hunt run --target scenario --oracles crash,completion
    repro-hunt run --format json                   # CI-friendly payload
    repro-hunt replay tests/corpus                 # the whole corpus
    repro-hunt replay scenario.json                # one scenario spec
    repro-hunt minimize scenario.json -o min.json  # shrink a witness
    repro-hunt list                                # targets and oracles

``run`` drives a deterministic campaign per selected target (see
:mod:`repro.hunt.targets`): the same seed and budget always draw the
same cases, find the same failures, and emit a byte-identical JSON
report. ``replay`` re-checks pinned witnesses (a regression gate);
``minimize`` greedily shrinks a violating scenario while its oracles
keep firing.

Exit codes mirror the other repro tools: 0 clean, 1 when any target
found a failure, 2 on usage errors (unknown target or oracle, bad
budget, unreadable spec).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

from repro.hunt.targets import (
    TARGETS,
    load_corpus,
    replay_case,
    target_module,
)
from repro.util.clitools import (
    EXIT_CLEAN,
    EXIT_FINDINGS,
    add_format_argument,
    cli_error,
    render_json_payload,
    split_codes,
)
from repro.util.search import Case

if TYPE_CHECKING:
    from repro.hunt.scenario import Scenario

__all__ = ["main"]

PROG = "repro-hunt"


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-hunt`` argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog=PROG,
        description=(
            "Seeded, deterministic search of the 3GOL stack: fuzz the "
            "wire parsers with hostile bytes, and run fault/cap/permit/"
            "churn scenarios against the invariant oracle suite. Same "
            "seed, same findings."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run seeded campaigns")
    run.add_argument(
        "--target",
        action="append",
        metavar="NAME",
        help="search only this target (repeatable; default: all)",
    )
    run.add_argument(
        "--seed", type=int, default=0, help="campaign seed (default: 0)"
    )
    run.add_argument(
        "--budget",
        type=int,
        help=(
            "cases per target (default: the target's own, 2000 payloads "
            "per wire target and 40 scenarios)"
        ),
    )
    run.add_argument(
        "--oracles",
        metavar="IDS",
        help=(
            "comma-separated oracle ids the scenario target checks "
            "(default: all)"
        ),
    )
    add_format_argument(run)

    replay = sub.add_parser(
        "replay", help="replay pinned witnesses through their checks"
    )
    replay.add_argument(
        "path",
        help=(
            "a corpus directory (every MANIFEST.json in or below it), "
            "or one scenario .json spec"
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

    sub.add_parser("list", help="print every target and oracle")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    """``repro-hunt run``: one seeded campaign per selected target."""
    names = args.target or list(TARGETS)
    if args.budget is not None and args.budget <= 0:
        return cli_error(PROG, "--budget must be > 0")
    if args.oracles and "scenario" not in names:
        return cli_error(PROG, "--oracles needs the scenario target")
    oracles = split_codes(args.oracles) or None
    try:
        modules = [target_module(name) for name in names]
        sessions = [
            module.session(name, args.seed, oracles)
            for name, module in zip(names, modules)
        ]
    except KeyError as exc:
        return cli_error(PROG, str(exc.args[0]))
    reports = [
        session.run(args.budget or module.DEFAULT_BUDGET)
        for session, module in zip(sessions, modules)
    ]
    clean = all(report.clean for report in reports)
    if args.format == "json":
        print(
            render_json_payload(
                {
                    "clean": clean,
                    "reports": [report.to_dict() for report in reports],
                }
            )
        )
    else:
        for report in reports:
            print("\n".join(report.render_text()))
        findings = sum(len(report.findings) for report in reports)
        print(
            "all clean: no target found a failure"
            if clean
            else f"{findings} distinct finding(s)"
        )
    return EXIT_CLEAN if clean else EXIT_FINDINGS


def _load_scenario(path: Path) -> Scenario:
    """Parse one scenario spec file (raises OSError / ValueError)."""
    return target_module("scenario").CODEC.decode(path.read_bytes())


def _cmd_replay(args: argparse.Namespace) -> int:
    """``repro-hunt replay``: regression-gate pinned witnesses."""
    path = Path(args.path)
    try:
        if path.is_dir():
            cases = load_corpus(path)
        else:
            scenario = _load_scenario(path)
            cases = (Case("scenario", scenario.name, str(path), scenario),)
    except KeyError as exc:
        return cli_error(PROG, str(exc.args[0]))
    except (OSError, ValueError) as exc:
        return cli_error(PROG, str(exc))
    if not cases:
        return cli_error(PROG, f"no corpus manifest under {path}")
    failures = [replay_case(case) for case in cases]
    for case, failure in zip(cases, failures):
        verdict = "clean" if failure is None else "FAILED"
        print(f"{case.target}/{case.case_id}: {verdict}")
    for failure in failures:
        if failure is not None:
            print(failure)
    return EXIT_CLEAN if not any(failures) else EXIT_FINDINGS


def _cmd_minimize(args: argparse.Namespace) -> int:
    """``repro-hunt minimize``: shrink a violating scenario spec."""
    try:
        scenario = _load_scenario(Path(args.path))
    except (OSError, ValueError) as exc:
        return cli_error(PROG, str(exc))
    session = target_module("scenario").session("scenario")
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


def _cmd_list() -> int:
    """``repro-hunt list``: every target, then the scenario oracles."""
    from repro.hunt.oracles import ORACLES

    for name, (_module, description) in TARGETS.items():
        print(f"{name}: {description}")
    print("scenario oracles (--oracles):")
    for oracle in ORACLES:
        print(f"  {oracle.oracle_id}: {oracle.summary}")
    return EXIT_CLEAN


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Console entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "replay":
        return _cmd_replay(args)
    if args.command == "minimize":
        return _cmd_minimize(args)
    return _cmd_list()


if __name__ == "__main__":  # pragma: no cover — exercised via tests
    sys.exit(main())
