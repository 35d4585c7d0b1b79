"""The fuzzing driver: seeded scheduling, crash triage, dedup.

A :class:`FuzzSession` pins one target to one seed. Each iteration picks
a base payload (a seed or a previously interesting mutant), applies
either a grammar-aware structured mutation or a stack of byte-level
mutations, and feeds the result to the target. The contract under test:

* the parser returns normally, or
* it raises a :class:`~repro.proto.errors.ProtocolError` subclass.

Anything else — ``ValueError``, ``IndexError``, ``UnicodeDecodeError``,
``RecursionError`` — is a **crash**. Crashes are triaged to the deepest
raise site inside ``repro`` (excluding the fuzzer itself), deduplicated
by ``(exception type, site)``, and minimised by greedy chunk removal
while the crash signature holds, so a report carries one small payload
per distinct bug rather than thousands of noisy variants. The campaign
loop is the shared :func:`repro.util.search.search`; the session
supplies the draw, the check, the pool and the shrink.

Every payload that ever escaped the taxonomy is pinned in the
regression corpus — one ``.bin`` file per case, one ``MANIFEST.json``
per target directory mapping case ids to the bug each caught::

    tests/corpus/<target>/MANIFEST.json
    tests/corpus/<target>/<case_id>.bin

The tier-1 suite replays every case: it "replays clean" when the target
parses it or raises a typed ``ProtocolError``; any other exception is
the old bug resurfacing.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.fuzz.mutators import MAX_MUTANT_BYTES, MUTATORS, mutate_bytes
from repro.fuzz.targets import FuzzTarget, get_target
from repro.proto.errors import ProtocolError
from repro.util.search import (
    MANIFEST_NAME,
    Case,
    Codec,
    Finding,
    Key,
    Report,
    Verdict,
    failure_site,
    load_cases,
    replay,
    save_case as _save_case,
    search,
)

#: Exceptions the hardened parsers are allowed to raise.
HANDLED = (ProtocolError,)

#: How many interesting mutants the session keeps as splice/base material.
MAX_POOL = 64

#: Minimisation budget: greedy passes over the payload.
MINIMIZE_ROUNDS = 8

#: A check's detail: what the payload raised (``None`` if it parsed).
Raised = Optional[BaseException]


@dataclass
class FuzzReport(Report[bytes]):
    """Outcome of one :meth:`FuzzSession.run`.

    Each finding's key is ``(exception type, raise site)``, its case the
    minimised payload and its detail the exception the original payload
    raised.
    """

    target: str = ""
    #: Payloads rejected with a typed ``ProtocolError``.
    handled: int = 0

    @property
    def ok(self) -> int:
        """Payloads the parser accepted."""
        return self.clean_runs - self.handled

    @property
    def crashes(self) -> List[Finding[bytes]]:
        """The findings, listed by raise site then exception type."""
        return sorted(self.findings, key=lambda crash: crash.keys[0][::-1])

    def to_dict(self) -> Dict[str, object]:
        return {
            "target": self.target,
            "seed": self.seed,
            "iterations": self.budget,
            "ok": self.ok,
            "handled": self.handled,
            "crashes": [
                {
                    "target": self.target,
                    "exception_type": crash.keys[0][0],
                    "site": crash.keys[0][1],
                    "message": str(crash.detail)[:200],
                    "payload_hex": crash.case[:256].hex(),
                    "payload_bytes": len(crash.case),
                    "iteration": crash.iteration,
                    "duplicates": crash.duplicates,
                }
                for crash in self.crashes
            ],
        }


def crash_site(exc: BaseException) -> str:
    """Deepest raise site inside ``repro`` (the fuzzer itself excluded).

    Formatted ``module.py:lineno:function`` so two payloads tripping the
    same raise statement triage to the same bug. Thin wrapper over the
    shared :func:`repro.util.search.failure_site`.
    """
    return failure_site(exc, exclude=("/repro/fuzz/",))


class FuzzSession:
    """Deterministic fuzzing of one target: a :func:`search` target.

    The RNG is derived from ``(seed, crc32(target name))`` so a
    multi-target run gives each target an independent but reproducible
    stream: the same seed and iteration budget replay the identical
    mutation sequence and find the identical crash set.
    """

    def __init__(self, target: FuzzTarget, seed: int = 0) -> None:
        self.target = target
        self.seed = seed
        self._rng = random.Random(
            (seed & 0xFFFFFFFF) ^ zlib.crc32(target.name.encode("utf-8"))
        )
        self._pool: List[bytes] = list(target.seeds)
        if not self._pool:
            self._pool = [b""]
        self._handled = 0

    def draw(self, iteration: int) -> bytes:
        """A mutant of a pool member (``iteration`` is unused)."""
        base = self._rng.choice(self._pool)
        mutators = self.target.structured_mutators
        roll = self._rng.random()
        if mutators and roll < 0.5:
            # Grammar-aware mutation, optionally chased by byte noise.
            mutated = self._rng.choice(mutators)(self._rng, base)
            if self._rng.random() < 0.25:
                mutated = self._rng.choice(MUTATORS)(self._rng, mutated)
        else:
            mutated = mutate_bytes(self._rng, base)
        return mutated[:MAX_MUTANT_BYTES]

    def check(self, payload: bytes) -> Verdict:
        """Run one payload: the crash key (if any) and what it raised."""
        try:
            self.target.execute(payload)
        except HANDLED as exc:
            return (), exc
        except Exception as exc:  # noqa: BLE001 - this IS the oracle
            return ((type(exc).__name__, crash_site(exc)),), exc
        return (), None

    def keep(self, payload: bytes, detail: Raised, new: bool) -> None:
        """Count typed rejections and pool them as mutation bases.

        Rejected inputs sit on the validation boundary, so the pool is a
        rotating window of them behind the pinned seeds.
        """
        if not isinstance(detail, HANDLED):
            return
        self._handled += 1
        if len(payload) < 8192:
            self._pool.append(payload)
            if len(self._pool) > MAX_POOL:
                del self._pool[len(self.target.seeds)]

    def shrink(
        self, payload: bytes, keys: Tuple[Key, ...], detail: Raised
    ) -> Tuple[bytes, Raised, int]:
        """Greedy chunk removal keeping the same (type, site) signature."""
        current = payload
        runs = 0
        for _ in range(MINIMIZE_ROUNDS):
            if len(current) <= 1:
                break
            chunk = max(1, len(current) // 8)
            shrunk = False
            start = 0
            while start < len(current):
                candidate = current[:start] + current[start + chunk :]
                runs += bool(candidate)
                if candidate and self.check(candidate)[0] == keys:
                    current = candidate
                    shrunk = True
                else:
                    start += chunk
            if not shrunk:
                break
        return current, detail, runs

    def run(self, iterations: int) -> FuzzReport:
        """Fuzz for ``iterations`` payloads; returns the triaged report."""
        self._handled = 0
        report = search(self, self.seed, iterations)
        return FuzzReport(
            target=self.target.name, handled=self._handled, **vars(report)
        )


# ---------------------------------------------------------------------------
# The checked-in regression corpus
# ---------------------------------------------------------------------------

#: One pinned regression payload.
CorpusCase = Case[bytes]

#: Payloads are stored verbatim.
PAYLOADS: Codec[bytes] = Codec(".bin", bytes, bytes)


def save_case(case: CorpusCase, root: Path) -> Path:
    """Pin one case under ``root/<target>/``; returns the payload path."""
    return _save_case(case, root / case.target, PAYLOADS)


def load_corpus(root: Path) -> Tuple[CorpusCase, ...]:
    """Every case pinned under ``root``, one subdirectory per target.

    The scenario hunter's ``scenarios/`` corpus shares the root; it is
    the one subdirectory passed over.
    """
    return tuple(
        case
        for manifest in sorted(root.glob(f"*/{MANIFEST_NAME}"))
        if manifest.parent.name != "scenarios"
        for case in load_cases(manifest.parent, PAYLOADS)
    )


def replay_case(case: CorpusCase) -> Optional[str]:
    """Replay one case against its target (unknown target: ``KeyError``).

    ``None`` when it replays clean; otherwise a failure naming the
    escaping exception type and its raise site.
    """
    return replay(FuzzSession(get_target(case.target)).check, case)
