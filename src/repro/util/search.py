"""The seeded search core shared by ``repro-fuzz`` and ``repro-hunt``.

One campaign loop (:func:`search`): draw a case, check it, deduplicate
a failure by *where* it happened (:func:`failure_site`) rather than by
the noisy input behind it, shrink the first witness of each new bug and
count the rest as duplicates. Plus the records it fills and the
checked-in regression corpus codec. What a case *is* — a byte payload,
a whole scenario — stays with the caller's :class:`SearchTarget`, which
also owns the RNG, the pool of mutation bases and the shrink strategy.
"""

from __future__ import annotations

import json
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (
    Any,
    Callable,
    Generic,
    List,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

__all__ = [
    "Case",
    "Codec",
    "Finding",
    "Key",
    "MANIFEST_NAME",
    "Report",
    "SearchTarget",
    "Verdict",
    "failure_site",
    "load_cases",
    "replay",
    "save_case",
    "search",
]

#: A failure signature ``(kind, site)``: same kind, same site, same bug.
Key = Tuple[str, str]

#: A check's result: sorted keys (empty when clean) and a detail.
Verdict = Tuple[Tuple[Key, ...], Any]

C = TypeVar("C")

MANIFEST_NAME = "MANIFEST.json"


def failure_site(
    exc: BaseException, exclude: Sequence[str] = ()
) -> str:
    """Deepest raise site inside ``repro``, as ``module.py:lineno:func``.

    ``exclude`` lists path fragments of the driver itself (e.g.
    ``"/repro/fuzz/"``) so the harness's own frames never count as the
    bug's location. Returns ``"<outside-repro>"`` when no project frame
    is on the traceback at all.
    """
    site = "<outside-repro>"
    for frame in traceback.extract_tb(exc.__traceback__):
        path = frame.filename.replace("\\", "/")
        if "/repro/" not in path:
            continue
        if any(fragment in path for fragment in exclude):
            continue
        short = path.rsplit("/repro/", 1)[1]
        site = f"{short}:{frame.lineno}:{frame.name}"
    return site


class SearchTarget(Protocol[C]):
    """What :func:`search` needs from a fuzz or hunt session."""

    def draw(self, iteration: int) -> C:
        """The campaign's next case."""

    def check(self, case: C) -> Verdict:
        """Run one case: its sorted failure keys and a detail."""

    def keep(self, case: C, detail: Any, new: bool) -> None:
        """Pool a drawn case or not (``new``: first witness of a bug)."""

    def shrink(
        self, case: C, keys: Tuple[Key, ...], detail: Any
    ) -> Tuple[C, Any, int]:
        """A smaller failing case: ``(case, its detail, checks run)``."""


@dataclass(frozen=True)
class Finding(Generic[C]):
    """One deduplicated failure with its shrunk witness."""

    #: Signatures this finding covers, sorted.
    keys: Tuple[Key, ...]
    #: The shrunk case that still reproduces the failure.
    case: C
    #: The case as first drawn.
    original: C
    #: What the shrunk case's check reported.
    detail: Any
    #: 0-based campaign iteration that first hit the signature.
    iteration: int
    #: Checks the shrink spent.
    shrink_runs: int
    #: Later campaign iterations credited to this finding.
    duplicates: int = 0


@dataclass
class Report(Generic[C]):
    """Outcome of one :func:`search` campaign."""

    seed: int
    budget: int
    #: Cases checked by the campaign loop (shrinks excluded).
    runs: int = 0
    #: Cases whose check came back clean.
    clean_runs: int = 0
    #: Total checks, shrinks included.
    executor_runs: int = 0
    #: One per distinct bug, sorted by keys.
    findings: List[Finding[C]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when no case failed."""
        return not self.findings


def search(target: SearchTarget[C], seed: int, budget: int) -> Report[C]:
    """Run ``budget`` draws through ``target``; the triaged report.

    A failing case with any new key opens a finding and is shrunk at
    once; otherwise it is a duplicate of the first finding (in discovery
    order) sharing one of its keys. ``keep`` sees every drawn case.
    """
    report: Report[C] = Report(seed=seed, budget=budget)
    found: List[Finding[C]] = []
    covered: Set[Key] = set()
    for iteration in range(budget):
        case = target.draw(iteration)
        keys, detail = target.check(case)
        report.runs += 1
        report.executor_runs += 1
        new = not covered.issuperset(keys)
        target.keep(case, detail, new)
        if not keys:
            report.clean_runs += 1
        elif new:
            covered.update(keys)
            shrunk, shrunk_detail, runs = target.shrink(case, keys, detail)
            report.executor_runs += runs
            found.append(
                Finding(keys, shrunk, case, shrunk_detail, iteration, runs)
            )
        else:
            index = next(
                i for i, known in enumerate(found)
                if not set(keys).isdisjoint(known.keys)
            )
            found[index] = replace(
                found[index], duplicates=found[index].duplicates + 1
            )
    report.findings = sorted(found, key=lambda finding: finding.keys)
    return report


@dataclass(frozen=True)
class Case(Generic[C]):
    """One pinned regression witness and the bug it caught."""

    #: The manifest's ``target`` (``""`` when it names none).
    target: str
    case_id: str
    description: str
    witness: C


@dataclass(frozen=True)
class Codec(Generic[C]):
    """How a corpus stores witnesses: one ``<case_id><suffix>`` file."""

    suffix: str
    encode: Callable[[C], bytes]
    decode: Callable[[bytes], C]


def save_case(case: Case[C], directory: Path, codec: Codec[C]) -> Path:
    """Pin one case in ``directory``; returns the witness file's path."""
    directory.mkdir(parents=True, exist_ok=True)
    manifest_path = directory / MANIFEST_NAME
    manifest: dict = {"cases": {}}
    if manifest_path.exists():
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    if case.target:
        manifest["target"] = case.target
    manifest["cases"][case.case_id] = case.description
    manifest_path.write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    path = directory / f"{case.case_id}{codec.suffix}"
    path.write_bytes(codec.encode(case.witness))
    return path


def load_cases(directory: Path, codec: Codec[C]) -> Tuple[Case[C], ...]:
    """Every case pinned in ``directory``, sorted by case id."""
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.exists():
        return ()
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    target = manifest.get("target", "")
    return tuple(
        Case(target, case_id, description, codec.decode(
            (directory / f"{case_id}{codec.suffix}").read_bytes()
        ))
        for case_id, description in sorted(manifest["cases"].items())
    )


def replay(check: Callable[[C], Verdict], case: Case[C]) -> Optional[str]:
    """Re-check one pinned case: ``None`` if clean, else what failed."""
    keys, _detail = check(case.witness)
    if not keys:
        return None
    label = f"{case.target}/{case.case_id}" if case.target else case.case_id
    fired = "; ".join(
        f"{kind} at {site}" if site else kind for kind, site in keys
    )
    return f"corpus case {label} ({case.description}) failed again: {fired}"
