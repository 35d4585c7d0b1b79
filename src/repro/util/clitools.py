"""Shared console-script plumbing for the ``repro-*`` tools.

Every CLI in the repository (``repro-lint``, ``repro-trace``,
``repro-hunt``, …) speaks the same dialect: a text report
for humans or a ``--format json`` payload for CI, and a three-value
exit-code contract —

* :data:`EXIT_CLEAN` (0): nothing found, everything ran;
* :data:`EXIT_FINDINGS` (1): the tool did its job and found problems
  (lint findings, fuzz crashes, trace deltas, invariant violations);
* :data:`EXIT_USAGE` (2): the invocation itself was wrong (unknown
  target, unreadable file, bad budget).

This module is the single home of that contract so the tools cannot
drift apart; each CLI re-exports the constants for its tests.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, List, Optional

__all__ = [
    "EXIT_CLEAN",
    "EXIT_FINDINGS",
    "EXIT_USAGE",
    "add_format_argument",
    "cli_error",
    "render_json_payload",
    "split_codes",
]

#: The tool ran and found nothing to report.
EXIT_CLEAN = 0
#: The tool ran and found problems — the "red build" exit.
EXIT_FINDINGS = 1
#: The invocation was malformed; nothing was checked.
EXIT_USAGE = 2


def cli_error(prog: str, message: str, code: int = EXIT_USAGE) -> int:
    """Print ``prog: error: message`` to stderr; return ``code``.

    The ``prog: error:`` prefix matches what :mod:`argparse` itself
    prints, so a tool's own validation errors read identically to the
    parser's.
    """
    print(f"{prog}: error: {message}", file=sys.stderr)
    return code


def add_format_argument(parser: argparse.ArgumentParser) -> None:
    """Install the shared ``--format text|json`` option on ``parser``.

    Every ``repro-*`` tool spells this option identically; defining it
    here keeps the choices, default and help text from drifting.
    """
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )


def split_codes(value: Optional[str]) -> List[str]:
    """Parse a comma-separated code list (``"RL001, RL004"``).

    Empty input and stray commas yield an empty list / are dropped, so
    ``--select`` / ``--ignore`` style options can pass their raw string
    straight through.
    """
    if not value:
        return []
    return [code.strip() for code in value.split(",") if code.strip()]


def render_json_payload(payload: Any) -> str:
    """The shared ``--format json`` rendering: indented, sorted keys.

    Sorted keys make the output byte-deterministic for fixed input,
    which is what lets CI jobs diff two runs of the same seed.
    """
    return json.dumps(payload, indent=2, sort_keys=True)
