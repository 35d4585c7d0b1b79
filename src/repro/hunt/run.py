"""Execute one :class:`~repro.hunt.scenario.Scenario` end to end.

:func:`run_scenario` wires a scenario through the full stack — household
topology, scheduler policy, retry/watchdog hardening, cap trackers,
permit server, :class:`~repro.core.resilience.TransferGuard`, seeded
fault schedule — runs it on the fluid engine under a strict
observability capture, and condenses everything the invariant oracles
need into one :class:`ScenarioOutcome`. A crash anywhere inside the
stack is itself a reportable outcome (``error`` + ``error_site``), not
an exception out of the hunt loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.captracker import CapTracker
from repro.core.discovery import DiscoveryRegistry
from repro.core.items import Transaction, TransferItem
from repro.core.mobile import MobileComponent, OperatingMode
from repro.core.permits import PermitServer
from repro.core.resilience import (
    DegradationEvent,
    RetryPolicy,
    TransferGuard,
    bind_fault_schedule,
)
from repro.core.scheduler import make_policy
from repro.core.scheduler.deadline import attach_deadlines
from repro.core.scheduler.runner import TransactionRunner
from repro.hunt.scenario import Scenario
from repro.netsim.topology import (
    Household,
    HouseholdConfig,
    LocationProfile,
)
from repro.obs.capture import capture
from repro.obs.export import TraceParseError, parse_lines
from repro.util.search import failure_site
from repro.util.units import mbps

__all__ = ["HUNT_LOCATION", "ScenarioOutcome", "run_scenario"]

#: The hunt testbed: the churn experiment's home (2 Mbps ADSL at 0.55
#: goodput efficiency — the floor behind
#: :data:`~repro.hunt.scenario.ADSL_FLOOR_BYTES_PER_S`).
HUNT_LOCATION = LocationProfile(
    name="hunt-home",
    description="scenario-hunt testbed (2 Mbps ADSL, 0.55 efficiency)",
    adsl_down_bps=mbps(2.0),
    adsl_up_bps=mbps(0.512),
    signal_dbm=-85.0,
    peak_utilization=0.35,
    measurement_hour=1.0,
    adsl_goodput_efficiency=0.55,
)

#: Stand-in daily budget when the scenario leaves phones uncapped.
_UNCAPPED_BYTES = 1e15

#: Cell utilisation reported to the permit server before / after the
#: scenario's congestion onset. The post-onset value stays above the
#: acceptance threshold so a revocation is persistent: re-requests are
#: denied for the rest of the run.
_UTILIZATION_CALM = 0.30
_UTILIZATION_CONGESTED = 0.95


@dataclass
class ScenarioOutcome:
    """Everything the oracles inspect about one executed scenario.

    Every field except ``scenario`` defaults, so tests can hand-build
    outcomes with planted defects without running the engine.
    """

    scenario: Scenario
    #: True once every item completed before the cutoff.
    completed: bool = False
    #: Engine clock when the run loop stopped.
    end_time: float = 0.0
    #: Seconds from transaction start to the loop stopping.
    total_time: float = 0.0
    #: Paths in the transfer set (fixed for hunt scenarios).
    n_paths: int = 0
    wasted_bytes: float = 0.0
    #: Waste split by cause, from the ``runner.waste_bytes`` counter.
    duplicate_waste_bytes: float = 0.0
    fault_waste_bytes: float = 0.0
    degradations: Tuple[DegradationEvent, ...] = ()
    #: Bytes moved per path name during the run.
    path_bytes: Dict[str, float] = field(default_factory=dict)
    #: Device name -> its path name (cellular paths only).
    device_paths: Dict[str, str] = field(default_factory=dict)
    #: Device name -> configured daily cap (absent when uncapped).
    cap_budgets: Dict[str, float] = field(default_factory=dict)
    #: Device name -> bytes metered by its tracker after true-up.
    cap_used: Dict[str, float] = field(default_factory=dict)
    #: The strict-capture trace of the run (JSONL lines).
    trace_lines: Tuple[str, ...] = ()
    #: ``repr`` of an exception the stack raised, or ``None``.
    error: Optional[str] = None
    #: Innermost non-hunt repro frame of the crash (triage key).
    error_site: Optional[str] = None

    def events(self) -> List[Dict[str, Any]]:
        """Parsed trace events (empty when there is no trace).

        Raises :class:`~repro.obs.export.TraceParseError` on a malformed
        trace — which the schema oracle reports as a violation.
        """
        if not self.trace_lines:
            return []
        parsed = parse_lines(list(self.trace_lines))
        events: List[Dict[str, Any]] = parsed["events"]
        return events

    def parse_error(self) -> Optional[str]:
        """The trace's parse failure, if any (``None`` when clean)."""
        try:
            self.events()
        except TraceParseError as exc:
            return str(exc)
        return None


def _make_items(scenario: Scenario) -> List[TransferItem]:
    """The scenario's workload, with deadline metadata for DLN."""
    items = [
        TransferItem(
            f"item{i:03d}",
            scenario.item_bytes,
            metadata={"duration_s": 4.0},
        )
        for i in range(scenario.n_items)
    ]
    return attach_deadlines(items)


def _execute(scenario: Scenario) -> ScenarioOutcome:
    """Build and run the stack for ``scenario`` (may raise)."""
    config = HouseholdConfig(
        n_phones=scenario.n_phones, seed=scenario.seed
    )
    household = Household(HUNT_LOCATION, config, start_time=0.0)
    network = household.network
    paths = household.download_paths()

    registry = DiscoveryRegistry()
    components: Dict[str, MobileComponent] = {}
    trackers: Dict[str, CapTracker] = {}
    budget = (
        scenario.cap_budget_bytes
        if scenario.cap_budget_bytes is not None
        else _UNCAPPED_BYTES
    )
    permit_server: Optional[PermitServer] = None
    revoke_at = scenario.permit_revoke_at_s
    if revoke_at is not None:
        onset = revoke_at

        def utilization(cell_name: str, now: float) -> float:
            return (
                _UTILIZATION_CONGESTED
                if now >= onset
                else _UTILIZATION_CALM
            )

        permit_server = PermitServer(utilization)
        server = permit_server
        phone_names = [phone.name for phone in household.phones]
        network.schedule(
            revoke_at,
            lambda: server.revoke_cell(phone_names),
            label="hunt:permit-revoke",
        )
    for phone in household.phones:
        tracker = CapTracker(daily_budget_bytes=budget)
        trackers[phone.name] = tracker
        components[phone.name] = MobileComponent(
            phone,
            registry,
            mode=OperatingMode.MULTI_PROVIDER,
            cap_tracker=tracker,
            permit_server=permit_server,
        )
        if permit_server is not None:
            permit_server.request_permit(
                phone.name, phone.sector.name, network.time
            )

    runner = TransactionRunner(
        network,
        paths,
        make_policy(scenario.policy),
        retry_policy=RetryPolicy(
            max_attempts=scenario.retry_max_attempts
        ),
        stall_timeout_s=scenario.stall_timeout_s,
    )
    guard = TransferGuard(components, permit_server=permit_server)
    guard.attach(runner, paths)
    schedule = scenario.build_fault_schedule(
        [path.name for path in paths]
    )
    bind_fault_schedule(runner, schedule, horizon=scenario.cutoff_s)

    baseline = {path.name: path.bytes_used for path in paths}
    transaction = Transaction(
        _make_items(scenario), name=scenario.name
    )
    runner.start(transaction)
    while not runner.finished:
        if not network.step(max_time=scenario.cutoff_s):
            break
        if network.time >= scenario.cutoff_s:
            break

    outcome = ScenarioOutcome(
        scenario=scenario,
        completed=runner.finished,
        end_time=network.time,
        total_time=network.time,
        n_paths=len(paths),
        degradations=tuple(runner.degradations),
        path_bytes={
            path.name: path.bytes_used - baseline[path.name]
            for path in paths
        },
        device_paths={
            path.device.name: path.name
            for path in paths
            if path.device is not None
        },
    )
    if runner.finished:
        result = runner.collect_result()
        guard.finalize(result)
        outcome.total_time = result.total_time
        outcome.wasted_bytes = result.wasted_bytes
        outcome.path_bytes = dict(result.path_bytes)
    if scenario.cap_budget_bytes is not None:
        outcome.cap_budgets = {
            name: budget for name in trackers
        }
    outcome.cap_used = {
        name: tracker.total_used_bytes
        for name, tracker in trackers.items()
    }
    return outcome


def run_scenario(scenario: Scenario) -> ScenarioOutcome:
    """Run ``scenario`` under a strict capture; never raises.

    A crash inside the stack becomes ``outcome.error`` (the exception's
    ``repr``) plus ``outcome.error_site`` (the innermost repro frame
    outside the hunt package — the triage/dedup key). The partial trace
    collected up to the crash is still attached.
    """
    with capture(strict=True) as instrumentation:
        try:
            outcome = _execute(scenario)
        except Exception as exc:  # noqa: BLE001 — the oracle reports it
            outcome = ScenarioOutcome(
                scenario=scenario,
                error=repr(exc),
                error_site=failure_site(
                    exc, exclude=("/repro/hunt/",)
                ),
            )
        metrics = instrumentation.metrics
        outcome.duplicate_waste_bytes = metrics.counter_value(
            "runner.waste_bytes", cause="duplicate"
        )
        outcome.fault_waste_bytes = metrics.counter_value(
            "runner.waste_bytes", cause="fault"
        )
        outcome.trace_lines = tuple(
            instrumentation.export_lines(
                experiment_id=f"hunt:{scenario.name}"
            )
        )
    return outcome
