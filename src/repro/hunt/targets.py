"""The campaign table: every target ``repro-hunt`` searches, by name.

A target is a :func:`repro.util.search.search` session plus the codec
its witnesses are pinned with. :data:`TARGETS` is the one place that
knows every target. Each row names the module defining the target, and
that module is imported only when its target is selected, so a wire
campaign loads neither numpy nor the scenario executor. A target module
provides

* ``CODEC`` — how its witnesses are stored
  (:class:`~repro.util.search.Codec`);
* ``DEFAULT_BUDGET`` — cases per campaign when no budget is given;
* ``session(target, seed=0, oracles=None)`` — a fresh session whose
  ``run(budget)`` returns a report (``to_dict()``, ``render_text()``)
  and whose ``check`` replays one witness.

The regression corpus shares the table. Every case that ever failed is
pinned in a directory whose ``MANIFEST.json`` names the target and maps
case ids to the bug each caught::

    tests/corpus/<directory>/MANIFEST.json
    tests/corpus/<directory>/<case_id><codec suffix>

The manifest's target picks the codec a witness is loaded with and the
check it is replayed through. A case "replays clean" when that check
finds nothing, so a fixed bug that resurfaces fails with its witness.
"""

from __future__ import annotations

import importlib
import json
from pathlib import Path
from types import ModuleType
from typing import Any, Dict, List, Optional, Tuple

from repro.util.search import Case, replay

__all__ = [
    "TARGETS",
    "load_corpus",
    "replay_case",
    "save_case",
    "target_module",
]

MANIFEST_NAME = "MANIFEST.json"

_WIRE = "repro.fuzz.session"

#: Target name -> (defining module, one-line description), in run order.
TARGETS: Dict[str, Tuple[str, str]] = {
    "http-head": (
        _WIRE, "header-block parsing (parse_head / framing / status)"
    ),
    "wire-stream": (
        _WIRE, "full HTTP response reads over an in-memory socket"
    ),
    "m3u8": (_WIRE, "m3u8 media-playlist parsing (repro.web.hls)"),
    "multipart": (
        _WIRE, "multipart/form-data decoding (repro.web.upload)"
    ),
    "scenario": (
        "repro.hunt.session",
        "fault/cap/permit/churn scenarios on the event engine, checked "
        "by the invariant oracle suite",
    ),
}


def target_module(name: str) -> ModuleType:
    """Import the module defining target ``name`` (unknown: ``KeyError``)."""
    if name not in TARGETS:
        raise KeyError(
            f"unknown target {name!r}; expected one of {sorted(TARGETS)}"
        )
    return importlib.import_module(TARGETS[name][0])


def save_case(case: Case[Any], directory: Path) -> Path:
    """Pin one case in the corpus ``directory``; returns the witness path.

    One directory holds one target's cases: pinning a case of another
    target there raises ``ValueError``.
    """
    codec = target_module(case.target).CODEC
    directory.mkdir(parents=True, exist_ok=True)
    manifest_path = directory / MANIFEST_NAME
    manifest: Dict[str, Any] = {"cases": {}, "target": case.target}
    if manifest_path.exists():
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    if manifest.get("target") != case.target:
        raise ValueError(
            f"{manifest_path} pins {manifest.get('target')!r} cases, "
            f"not {case.target!r}"
        )
    manifest["cases"][case.case_id] = case.description
    manifest_path.write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    path = directory / f"{case.case_id}{codec.suffix}"
    path.write_bytes(codec.encode(case.witness))
    return path


def load_corpus(root: Path) -> Tuple[Case[Any], ...]:
    """Every case pinned in ``root`` or any directory below it.

    Sorted by manifest path, then case id. A manifest naming an unknown
    target, or none, raises ``KeyError``: no directory is passed over.
    """
    cases: List[Case[Any]] = []
    for manifest_path in sorted(root.glob(f"**/{MANIFEST_NAME}")):
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        target = manifest.get("target", "")
        try:
            codec = target_module(target).CODEC
        except KeyError as exc:
            raise KeyError(f"{manifest_path}: {exc.args[0]}") from None
        for case_id, description in sorted(manifest["cases"].items()):
            path = manifest_path.parent / f"{case_id}{codec.suffix}"
            witness = codec.decode(path.read_bytes())
            cases.append(Case(target, case_id, description, witness))
    return tuple(cases)


def replay_case(case: Case[Any]) -> Optional[str]:
    """Replay one case through its target's check (unknown: ``KeyError``).

    ``None`` when it replays clean; otherwise a failure naming every
    ``(kind, site)`` that fired — the old bug resurfacing.
    """
    check = target_module(case.target).session(case.target).check
    return replay(check, case)
