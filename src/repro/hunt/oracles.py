"""Invariant oracles: what must hold for *every* scenario.

Each oracle inspects one :class:`~repro.hunt.run.ScenarioOutcome` and
returns the violations it finds. The registry deliberately contains
only properties that are true of the design by construction — a firing
oracle is a bug (in the stack or in the oracle), never an expected
degradation. The families:

crash
    No scenario may raise out of the stack; faults are data, not
    exceptions.
waste-bound
    Duplicate-caused waste respects the paper's §6 argument in its
    provable cumulative form: at most ``(N-1) * (min(M,N) + R) * S_max``
    where ``R`` counts the membership/stall disruptions that can
    re-open the endgame.
cap-conservation
    After the guard's true-up, every byte a cellular path moved is
    metered in its device's cap tracker — bytes cannot leak past the
    §6 accounting.
authority-discipline
    Once a path loses its authority (``cap-exhausted`` drain or
    ``permit-revoked`` abort), no new copy ever starts on it. Relies
    on the trace emission order: the degradation line precedes any
    subsequent ``copy.start`` of the same engine tick.
completion
    With no faults at all and a cutoff beyond the generous ADSL-only
    bound, the transaction finishes — caps, revocations and watchdog
    churn may slow a transfer, never strand it.
watchdog-storm
    Stall aborts are paced by the watchdog period: one worker cannot
    fire more than once per ``stall_timeout_s``.
retry-discipline
    Per item, retry attempts are consecutive from 1 — no skipped or
    double-scheduled recoveries.
clock-monotonic
    Timestamped trace events never move backwards.
trace-schema
    The strict capture's export parses back cleanly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.hunt.run import ScenarioOutcome
from repro.hunt.scenario import generous_cutoff_s
from repro.obs.export import TraceParseError
from repro.obs.schema import AUTHORITY_LOSS_KINDS, DISRUPTION_KINDS

__all__ = [
    "ORACLES",
    "Oracle",
    "Violation",
    "check_oracle_ids",
    "check_outcome",
    "oracle_ids",
]

#: Absolute slack for float byte comparisons.
_BYTES_TOL = 1e-6

#: Degradation kinds after which a path holds no transfer authority —
#: sourced from the canonical taxonomy in :mod:`repro.obs.schema` so
#: the oracles and the emitters cannot drift apart.
_AUTHORITY_LOSS_KINDS = AUTHORITY_LOSS_KINDS

#: Disruption kinds that can legitimately re-open endgame duplication.
_DISRUPTION_KINDS = DISRUPTION_KINDS

#: The only terminal outcomes a service flow may end with.
_FLOW_OUTCOMES = frozenset({"completed", "shed", "aborted"})


@dataclass(frozen=True)
class Violation:
    """One invariant breach found in one scenario outcome."""

    #: Registry id of the oracle that fired.
    oracle: str
    #: Human-readable account of the breach.
    detail: str
    #: Dedup refinement (e.g. the crash site or offending path) — two
    #: violations with equal ``(oracle, extra)`` are the same bug.
    extra: str = ""

    def to_dict(self) -> Dict[str, str]:
        """JSON-ready form."""
        return {
            "oracle": self.oracle,
            "detail": self.detail,
            "extra": self.extra,
        }


def _check_crash(outcome: ScenarioOutcome) -> List[Violation]:
    """No exception may escape the stack for any generated scenario."""
    if outcome.error is None:
        return []
    return [
        Violation(
            oracle="crash",
            detail=f"{outcome.error} at {outcome.error_site}",
            extra=outcome.error_site or "",
        )
    ]


def _check_waste_bound(outcome: ScenarioOutcome) -> List[Violation]:
    """Cumulative duplicate waste respects the §6 argument.

    The paper's (N-1)*S_max is a *single-instant* bound (at most N-1
    concurrent losing copies); summed over a whole endgame the provable
    cumulative version is per duplicated item: only items in flight when
    the pending queue empties can ever be duplicated (at most
    ``min(M, N)`` of them), each loses at most ``N-1`` copies of at most
    ``S_max`` bytes, and every membership disruption (fault, drain,
    stall, rejoin, join) can re-queue at most one more item into a fresh
    endgame round. Hence::

        duplicate_waste <= (N - 1) * (min(M, N) + R) * S_max

    Fault-caused waste (killed partial transfers) is unbounded by design
    and excluded — the split comes from the ``runner.waste_bytes``
    counter's ``cause`` label.
    """
    if outcome.error is not None or outcome.n_paths < 1:
        return []
    disruptions = sum(
        1
        for event in outcome.degradations
        if event.kind in _DISRUPTION_KINDS
    )
    s_max = outcome.scenario.item_bytes
    endgame_items = min(outcome.scenario.n_items, outcome.n_paths)
    allowance = (
        (outcome.n_paths - 1) * (endgame_items + disruptions) * s_max
    )
    if outcome.duplicate_waste_bytes <= allowance + _BYTES_TOL:
        return []
    return [
        Violation(
            oracle="waste-bound",
            detail=(
                f"duplicate waste {outcome.duplicate_waste_bytes:.0f}B "
                f"exceeds ({outcome.n_paths}-1)*({endgame_items}+"
                f"{disruptions})*{s_max:.0f}B = {allowance:.0f}B"
            ),
        )
    ]


def _check_cap_conservation(outcome: ScenarioOutcome) -> List[Violation]:
    """After true-up every cellular byte is metered in its tracker."""
    if outcome.error is not None or not outcome.completed:
        return []
    out: List[Violation] = []
    for device, used in sorted(outcome.cap_used.items()):
        path_name = outcome.device_paths.get(device)
        if path_name is None:
            continue
        moved = outcome.path_bytes.get(path_name, 0.0)
        if used + _BYTES_TOL < moved:
            out.append(
                Violation(
                    oracle="cap-conservation",
                    detail=(
                        f"{device} moved {moved:.0f}B on {path_name} "
                        f"but metered only {used:.0f}B after true-up"
                    ),
                    extra=device,
                )
            )
    return out


def _check_authority_discipline(
    outcome: ScenarioOutcome,
) -> List[Violation]:
    """No copy ever starts on a path that lost its authority.

    Walks the trace in emission order: a ``degradation`` event with kind
    ``cap-exhausted`` or ``permit-revoked`` marks its path unauthorized;
    any later ``copy.start`` on that path is a breach. Emission order is
    the right discriminator because the runner records the degradation
    before any same-tick re-dispatch can start a copy.
    """
    if outcome.error is not None:
        return []
    try:
        events = outcome.events()
    except TraceParseError:
        return []  # the trace-schema oracle reports this
    unauthorized: Dict[str, float] = {}
    out: List[Violation] = []
    seen: Set[str] = set()
    for event in events:
        name = event.get("name")
        fields = event.get("fields", {})
        path = fields.get("path", "")
        if (
            name == "degradation"
            and fields.get("kind") in _AUTHORITY_LOSS_KINDS
        ):
            unauthorized.setdefault(path, event.get("time") or 0.0)
        elif name == "copy.start" and path in unauthorized:
            if path in seen:
                continue
            seen.add(path)
            out.append(
                Violation(
                    oracle="authority-discipline",
                    detail=(
                        f"copy.start on {path} at "
                        f"t={event.get('time')} after it lost "
                        f"authority at t={unauthorized[path]}"
                    ),
                    extra=path,
                )
            )
    return out


def _check_completion(outcome: ScenarioOutcome) -> List[Violation]:
    """A fault-free run with a generous cutoff must complete.

    Applies only to scenarios with *no* fault specs (a static policy's
    queue legitimately waits out a physical outage, and an outage can
    outlast any cutoff) whose cutoff is at or beyond
    :func:`~repro.hunt.scenario.generous_cutoff_s` — then the always-up
    wired path alone could have delivered everything with 20x slack, so
    caps, permit revocations and watchdog churn may slow the transfer
    but must never strand it.
    """
    if outcome.error is not None or outcome.completed:
        return []
    scenario = outcome.scenario
    if scenario.faults:
        return []
    floor = generous_cutoff_s(scenario.n_items, scenario.item_bytes)
    if scenario.cutoff_s + 1e-9 < floor:
        return []
    return [
        Violation(
            oracle="completion",
            detail=(
                f"incomplete at t={outcome.end_time:.1f}s despite "
                f"no faults and cutoff {scenario.cutoff_s:.0f}s "
                f">= generous bound {floor:.0f}s"
            ),
        )
    ]


def _check_watchdog_storm(outcome: ScenarioOutcome) -> List[Violation]:
    """Stall aborts are paced: <= N * (T / timeout + 1) in T seconds.

    Every stall consumes a full quiet watchdog period on its worker, so
    one worker can fire at most once per ``stall_timeout_s``; more than
    that means the watchdog re-armed without waiting.
    """
    timeout = outcome.scenario.stall_timeout_s
    if (
        outcome.error is not None
        or timeout is None
        or outcome.n_paths < 1
    ):
        return []
    stalls = sum(
        1 for event in outcome.degradations if event.kind == "stall"
    )
    ceiling = outcome.n_paths * (outcome.end_time / timeout + 1.0)
    if stalls <= ceiling:
        return []
    return [
        Violation(
            oracle="watchdog-storm",
            detail=(
                f"{stalls} stall aborts in {outcome.end_time:.1f}s "
                f"exceeds the pacing ceiling {ceiling:.1f} "
                f"({outcome.n_paths} paths, {timeout:g}s timeout)"
            ),
        )
    ]


def _check_retry_discipline(outcome: ScenarioOutcome) -> List[Violation]:
    """Per item, retry attempts run 1, 2, 3, ... with no gaps or repeats."""
    if outcome.error is not None:
        return []
    try:
        events = outcome.events()
    except TraceParseError:
        return []
    attempts: Dict[str, List[int]] = {}
    for event in events:
        if event.get("name") == "retry.scheduled":
            fields = event.get("fields", {})
            attempts.setdefault(fields.get("item", ""), []).append(
                int(fields.get("attempt", 0))
            )
    out: List[Violation] = []
    for item, seen in sorted(attempts.items()):
        if seen != list(range(1, len(seen) + 1)):
            out.append(
                Violation(
                    oracle="retry-discipline",
                    detail=(
                        f"item {item} retry attempts {seen} are not "
                        f"consecutive from 1"
                    ),
                    extra=item,
                )
            )
    return out


def _check_drain_discipline(outcome: ScenarioOutcome) -> List[Violation]:
    """Every admitted service flow reaches a terminal outcome.

    Pairs ``service.flow.admit`` events with ``service.flow.end`` by
    flow id. Once the trace shows the service reached ``stopped``, an
    admitted flow with no end event is stranded — the drain state
    machine leaked it. An end event whose outcome is not one of
    ``completed``/``shed``/``aborted`` is a breach regardless of
    lifecycle state. Vacuously clean for scenarios (sim runs) that
    emit no service events.
    """
    if outcome.error is not None:
        return []
    try:
        events = outcome.events()
    except TraceParseError:
        return []  # the trace-schema oracle reports this
    admitted: Set[str] = set()
    ended: Set[str] = set()
    stopped = False
    out: List[Violation] = []
    for event in events:
        name = event.get("name")
        fields = event.get("fields", {})
        if name == "service.flow.admit":
            admitted.add(str(fields.get("flow", "")))
        elif name == "service.flow.end":
            ended.add(str(fields.get("flow", "")))
            flow_outcome = fields.get("outcome")
            if flow_outcome not in _FLOW_OUTCOMES:
                out.append(
                    Violation(
                        oracle="drain-discipline",
                        detail=(
                            f"flow {fields.get('flow')} ended with "
                            f"non-terminal outcome {flow_outcome!r}"
                        ),
                        extra=str(fields.get("flow", "")),
                    )
                )
        elif (
            name == "service.state"
            and fields.get("state") == "stopped"
        ):
            stopped = True
    if stopped:
        for flow in sorted(admitted - ended):
            out.append(
                Violation(
                    oracle="drain-discipline",
                    detail=(
                        f"flow {flow} was admitted but never reached "
                        "a terminal outcome before the service stopped"
                    ),
                    extra=flow,
                )
            )
    return out


def _check_clock_monotonic(outcome: ScenarioOutcome) -> List[Violation]:
    """Timestamped trace events never run backwards."""
    if outcome.error is not None:
        return []
    try:
        events = outcome.events()
    except TraceParseError:
        return []
    last: Optional[float] = None
    for event in events:
        time = event.get("time")
        if time is None:
            continue
        if last is not None and time < last - 1e-9:
            return [
                Violation(
                    oracle="clock-monotonic",
                    detail=(
                        f"event {event.get('name')!r} at t={time} "
                        f"emitted after t={last}"
                    ),
                    extra=str(event.get("name")),
                )
            ]
        last = time
    return []


def _check_trace_schema(outcome: ScenarioOutcome) -> List[Violation]:
    """The exported trace must parse back cleanly."""
    if not outcome.trace_lines:
        return []
    parse_error = outcome.parse_error()
    if parse_error is None:
        return []
    return [
        Violation(oracle="trace-schema", detail=parse_error)
    ]


@dataclass(frozen=True)
class Oracle:
    """One registered invariant check."""

    oracle_id: str
    summary: str
    check: Callable[[ScenarioOutcome], List[Violation]]


#: The registry, in reporting order (most fundamental first).
ORACLES: Tuple[Oracle, ...] = (
    Oracle(
        "crash",
        "no exception escapes the stack",
        _check_crash,
    ),
    Oracle(
        "trace-schema",
        "the strict capture's export parses back cleanly",
        _check_trace_schema,
    ),
    Oracle(
        "clock-monotonic",
        "timestamped trace events never run backwards",
        _check_clock_monotonic,
    ),
    Oracle(
        "authority-discipline",
        "no copy starts on a cap-exhausted or permit-revoked path",
        _check_authority_discipline,
    ),
    Oracle(
        "cap-conservation",
        "every cellular byte is metered after true-up",
        _check_cap_conservation,
    ),
    Oracle(
        "waste-bound",
        "duplicate waste <= (N-1)*(min(M,N)+R)*S_max",
        _check_waste_bound,
    ),
    Oracle(
        "completion",
        "a fault-free run with a generous cutoff completes",
        _check_completion,
    ),
    Oracle(
        "watchdog-storm",
        "stall aborts are paced by the watchdog period",
        _check_watchdog_storm,
    ),
    Oracle(
        "retry-discipline",
        "retry attempts per item are consecutive from 1",
        _check_retry_discipline,
    ),
    Oracle(
        "drain-discipline",
        "every admitted service flow ends completed, shed, or aborted",
        _check_drain_discipline,
    ),
)


def oracle_ids() -> List[str]:
    """Registered oracle ids, in reporting order."""
    return [oracle.oracle_id for oracle in ORACLES]


def check_oracle_ids(ids: Sequence[str]) -> None:
    """Raise ``KeyError`` naming every id the registry does not hold."""
    unknown = set(ids) - set(oracle_ids())
    if unknown:
        raise KeyError(
            f"unknown oracle id(s): {sorted(unknown)}; "
            f"known: {oracle_ids()}"
        )


def check_outcome(
    outcome: ScenarioOutcome,
    only: Optional[Sequence[str]] = None,
) -> List[Violation]:
    """Run the registry (or the ``only`` subset) against one outcome."""
    if only is not None:
        check_oracle_ids(only)
    out: List[Violation] = []
    for oracle in ORACLES:
        if only is not None and oracle.oracle_id not in only:
            continue
        out.extend(oracle.check(outcome))
    return out
