"""Command-line interface.

::

    python -m repro list                  # experiment catalogue
    python -m repro run fig06             # one experiment, printed
    python -m repro run --all --jobs 4    # everything, in parallel
    python -m repro run fig10 --json      # structured result on stdout
    python -m repro locations             # the location presets
    python -m repro report [PATH]         # regenerate EXPERIMENTS.md

Experiments run at their registered benchmark sizes (``--quick`` for the
reduced smoke sizes); ``--seed``/``--repetitions`` override them for the
experiments whose ``run()`` accepts those parameters. Results are cached
in ``.repro_cache/`` keyed by (experiment id, parameters, source digest);
``--no-cache`` bypasses the cache entirely.

``run`` exits 1 when an experiment crashes or one of its paper checks
fails. Checks are evaluated at the registered bench parameters (all of
them) and quick parameters (the quick ones); a run whose ``--seed`` or
``--repetitions`` changes the parameters records them as not evaluated.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional

from repro.experiments import registry, runner
from repro.util.units import rate_to_mbps

if TYPE_CHECKING:
    from repro.netsim.topology import LocationProfile


def _cmd_list(args: argparse.Namespace) -> int:
    specs = registry.all_experiments()
    if args.json:
        catalogue = [
            {
                "id": spec.id,
                "description": spec.description,
                "title": spec.title,
                "paper_ref": spec.paper_ref,
                "bench_params": registry.jsonable(dict(spec.bench_params)),
                "quick_params": registry.jsonable(dict(spec.quick_params)),
            }
            for spec in specs
        ]
        print(json.dumps(catalogue, indent=2))
        return 0
    width = max(len(spec.id) for spec in specs)
    for spec in specs:
        print(f"{spec.id:<{width}}  {spec.description}")
    return 0


def _passthrough_overrides(
    spec: registry.ExperimentSpec, args: argparse.Namespace
) -> Dict[str, Any]:
    """Map ``--seed``/``--repetitions`` onto the spec's parameters.

    ``--seed`` feeds a ``seed`` parameter directly, or a ``seeds``
    parameter as a one-element tuple. Raises ``ValueError`` naming the
    experiment when it accepts neither spelling.
    """
    overrides: Dict[str, Any] = {}
    if args.seed is not None:
        if spec.accepts("seed"):
            overrides["seed"] = args.seed
        elif spec.accepts("seeds"):
            overrides["seeds"] = (args.seed,)
        else:
            raise ValueError(
                f"experiment {spec.id!r} does not accept --seed"
            )
    if args.repetitions is not None:
        if spec.accepts("repetitions"):
            overrides["repetitions"] = args.repetitions
        else:
            raise ValueError(
                f"experiment {spec.id!r} does not accept --repetitions"
            )
    return overrides


def _cmd_run(args: argparse.Namespace) -> int:
    available = registry.experiment_ids()
    if args.all:
        ids = list(available)
    else:
        ids = args.experiments
    if not ids:
        print(
            "no experiments given; name some ids or pass --all",
            file=sys.stderr,
        )
        return 2
    unknown = [i for i in ids if i not in available]
    if unknown:
        print(
            f"unknown experiment {unknown[0]!r}; available: "
            + ", ".join(available),
            file=sys.stderr,
        )
        return 2

    overrides: Dict[str, Dict[str, Any]] = {}
    for experiment_id in ids:
        spec = registry.get(experiment_id)
        try:
            extra = _passthrough_overrides(spec, args)
        except ValueError as error:
            if not args.all:
                print(str(error), file=sys.stderr)
                return 2
            extra = {}  # --all: apply only where accepted
        if extra:
            overrides[experiment_id] = extra

    cache = None if args.no_cache else runner.ResultCache()
    outcomes = runner.run_experiments(
        ids,
        jobs=args.jobs,
        quick=args.quick,
        overrides=overrides,
        cache=cache,
    )
    if args.json:
        records = [outcome.to_dict() for outcome in outcomes]
        payload = records[0] if len(records) == 1 and not args.all else records
        print(json.dumps(payload, indent=2))
    else:
        for outcome in outcomes:
            if outcome.ok:
                print(outcome.rendered)
            else:
                print(
                    f"[{outcome.experiment_id}] FAILED\n{outcome.error}",
                    file=sys.stderr,
                )
    for outcome in outcomes:
        for name in outcome.failed_checks:
            print(
                f"[{outcome.experiment_id}] check failed: {name}",
                file=sys.stderr,
            )
    if args.profile:
        print(_profile_table(outcomes))
    passed = all(o.ok and not o.failed_checks for o in outcomes)
    return 0 if passed else 1


#: Phase keys of :attr:`ExperimentOutcome.profile`, in display order.
_PROFILE_PHASES = ("run_s", "render_s", "serialize_s")


def _profile_table(outcomes: Iterable[runner.ExperimentOutcome]) -> str:
    """Per-phase wall-clock table for ``repro run --profile``.

    Cached outcomes carry no fresh timings and show dashes — re-run with
    ``--no-cache`` to profile them.
    """
    rows = []
    for outcome in outcomes:
        profile = outcome.profile or {}
        cells = [
            f"{profile[phase]:8.3f}" if phase in profile else f"{'-':>8}"
            for phase in _PROFILE_PHASES
        ]
        total = sum(profile.get(phase, 0.0) for phase in _PROFILE_PHASES)
        cells.append(f"{total:8.3f}" if profile else f"{'-':>8}")
        rows.append((outcome.experiment_id, outcome.status, cells))
    width = max([len(r[0]) for r in rows] + [len("experiment")])
    header = (
        f"{'experiment':<{width}}  {'status':<7}"
        + "".join(f"  {name:>8}" for name in (*_PROFILE_PHASES, "total_s"))
    )
    lines = ["", "Phase timings (wall-clock seconds):", header]
    for experiment_id, status, cells in rows:
        lines.append(
            f"{experiment_id:<{width}}  {status:<7}"
            + "".join(f"  {cell}" for cell in cells)
        )
    return "\n".join(lines)


def _print_locations(
    heading: str, locations: Iterable[LocationProfile]
) -> None:
    print(heading)
    for location in locations:
        print(
            f"  {location.name:<10s} "
            f"{rate_to_mbps(location.adsl_down_bps):5.2f}/"
            f"{rate_to_mbps(location.adsl_up_bps):5.2f} Mbps  "
            f"{location.signal_dbm:4.0f} dBm  {location.description}"
        )


def _cmd_locations(_args: argparse.Namespace) -> int:
    from repro.netsim.topology import (
        EVALUATION_LOCATIONS,
        MEASUREMENT_LOCATIONS,
    )

    _print_locations("Measurement locations (Table 2):", MEASUREMENT_LOCATIONS)
    _print_locations("Evaluation locations (Table 4):", EVALUATION_LOCATIONS)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import write_report

    cache = None if args.no_cache else runner.ResultCache()
    write_report(args.output, jobs=args.jobs, cache=cache)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of '3GOL: Power-boosting ADSL using 3G "
            "OnLoading' (CoNEXT 2013)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_parser = sub.add_parser(
        "list", help="list the experiment catalogue"
    )
    list_parser.add_argument(
        "--json",
        action="store_true",
        help="print the catalogue as JSON",
    )
    list_parser.set_defaults(func=_cmd_list)

    run_parser = sub.add_parser("run", help="run experiments")
    run_parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment ids (see list)",
    )
    run_parser.add_argument(
        "--all",
        action="store_true",
        help="run every registered experiment",
    )
    run_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="parallel worker processes (default: 1)",
    )
    run_parser.add_argument(
        "--json",
        action="store_true",
        help="print structured results as JSON instead of tables",
    )
    run_parser.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore and do not update the on-disk result cache",
    )
    run_parser.add_argument(
        "--quick",
        action="store_true",
        help="use each experiment's reduced smoke-test sizes",
    )
    run_parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="override the seed (experiments accepting seed/seeds)",
    )
    run_parser.add_argument(
        "--repetitions",
        type=int,
        default=None,
        help="override repetitions (experiments accepting it)",
    )
    run_parser.add_argument(
        "--profile",
        action="store_true",
        help="print a per-phase wall-clock table after the results",
    )
    run_parser.set_defaults(func=_cmd_run)

    sub.add_parser(
        "locations", help="print the location presets"
    ).set_defaults(func=_cmd_locations)

    report_parser = sub.add_parser(
        "report", help="regenerate EXPERIMENTS.md"
    )
    report_parser.add_argument(
        "output", nargs="?", default="EXPERIMENTS.md"
    )
    report_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="parallel worker processes (default: 1)",
    )
    report_parser.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore and do not update the on-disk result cache",
    )
    report_parser.set_defaults(func=_cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)
