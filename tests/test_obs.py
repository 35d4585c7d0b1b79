"""The observability layer: tracer, metrics, capture, export, wiring.

Covers the schema contract (strict name validation, deterministic JSONL
export), the no-op default (no capture -> no collection), the runner /
policy / resilience instrumentation checkpoints, and the acceptance
invariants: byte-identical traces across runs and ``--jobs`` counts, and
the GRD duplicate-waste bound on the Fig. 6 workload.
"""

import json

import pytest

from repro.core.items import Transaction, TransferItem, items_from_sizes
from repro.core.scheduler import make_policy
from repro.core.scheduler.runner import TransactionRunner
from repro.netsim.fluid import FluidNetwork
from repro.netsim.latency import RttModel
from repro.netsim.link import Link
from repro.netsim.path import NetworkPath
from repro.obs.capture import Instrumentation, capture, current
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.schema import SCHEMA_VERSION
from repro.obs.tracer import Tracer
from repro.obs.export import (
    TraceParseError,
    diff_lines,
    export_lines,
    parse_lines,
    summarize_lines,
)
from repro.obs.schema import EVENTS, METRICS, markdown_tables
from repro.util.units import MB, mbps

NO_RTT = RttModel(0.0)


def make_paths(rates):
    return [
        NetworkPath(f"p{i}", [Link(f"l{i}", rate)], rtt=NO_RTT)
        for i, rate in enumerate(rates)
    ]


def run_transaction(policy_name, rates, sizes):
    net = FluidNetwork()
    paths = make_paths(rates)
    runner = TransactionRunner(net, paths, make_policy(policy_name))
    txn = Transaction(items_from_sizes(sizes))
    return runner.run(txn), txn


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------


class TestTracer:
    def test_events_keep_order_and_sequence(self):
        tracer = Tracer()
        tracer.emit("a", time=1.0, x=1)
        tracer.emit("b", time=2.0, x=2)
        events = tracer.events
        assert [e.name for e in events] == ["a", "b"]
        assert [e.seq for e in events] == [1, 2]
        assert events[0].field("x") == 1

    def test_fields_sorted_for_determinism(self):
        tracer = Tracer()
        event = tracer.emit("a", z=1, a=2, m=3)
        assert [key for key, _ in event.fields] == ["a", "m", "z"]

    def test_ring_buffer_drops_oldest_and_counts(self):
        tracer = Tracer(capacity=2)
        for i in range(5):
            tracer.emit("a", i=i)
        assert len(tracer) == 2
        assert tracer.emitted == 5
        assert tracer.dropped == 3
        assert [e.field("i") for e in tracer.events] == [3, 4]

    def test_of_name_filters(self):
        tracer = Tracer()
        tracer.emit("a")
        tracer.emit("b")
        tracer.emit("a")
        assert len(tracer.of_name("a")) == 2


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_counter_accumulates_and_rejects_negative(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1.0)

    def test_gauge_holds_last_value(self):
        gauge = Gauge()
        gauge.set(3.0)
        gauge.set(1.5)
        assert gauge.value == 1.5

    def test_histogram_bucket_placement(self):
        hist = Histogram(boundaries=(1.0, 2.0))
        for value in (0.5, 1.5, 1.7, 99.0):
            hist.observe(value)
        assert hist.counts == [1, 2, 1]  # last bucket is overflow
        assert hist.count == 4
        assert hist.sum == pytest.approx(102.7)

    def test_histogram_requires_increasing_boundaries(self):
        with pytest.raises(ValueError):
            Histogram(boundaries=(2.0, 1.0))

    def test_registry_get_or_create_identity(self):
        registry = MetricsRegistry()
        a = registry.counter("x", path="p0")
        b = registry.counter("x", path="p0")
        c = registry.counter("x", path="p1")
        assert a is b
        assert a is not c

    def test_counter_value_and_total(self):
        registry = MetricsRegistry()
        registry.counter("x", path="p0").inc(2.0)
        registry.counter("x", path="p1").inc(3.0)
        assert registry.counter_value("x", path="p0") == 2.0
        assert registry.counter_value("x", path="nope") == 0.0
        assert registry.counter_total("x") == 5.0

    def test_snapshot_keys_are_sorted_and_labelled(self):
        registry = MetricsRegistry()
        registry.counter("x", path="p1").inc()
        registry.counter("x", path="p0").inc()
        registry.gauge("g").set(2.0)
        snapshot = registry.snapshot()
        assert list(snapshot["counters"]) == ["x{path=p0}", "x{path=p1}"]
        assert snapshot["gauges"] == {"g": 2.0}


# ---------------------------------------------------------------------------
# Capture + schema strictness
# ---------------------------------------------------------------------------


class TestCapture:
    def test_collection_off_by_default(self):
        assert current() is None

    def test_capture_installs_and_restores(self):
        with capture() as handle:
            assert current() is handle
        assert current() is None

    def test_capture_nesting_restores_previous(self):
        with capture() as outer:
            with capture() as inner:
                assert current() is inner
            assert current() is outer

    def test_strict_rejects_unknown_names(self):
        handle = Instrumentation()
        with pytest.raises(KeyError, match="not in the obs schema"):
            handle.event("no.such.event")
        with pytest.raises(KeyError, match="not in the obs schema"):
            handle.count("no.such.metric")

    def test_non_strict_allows_adhoc_names(self):
        handle = Instrumentation(strict=False)
        handle.event("adhoc.event", time=1.0)
        handle.count("adhoc.metric")
        assert handle.tracer.emitted == 1

    def test_every_schema_name_is_emittable(self):
        handle = Instrumentation()
        for name in EVENTS:
            handle.event(name)
        for name, spec in METRICS.items():
            if spec["type"] == "counter":
                handle.count(name)
            elif spec["type"] == "gauge":
                handle.gauge(name, 1.0)
            else:
                handle.observe(name, 1.0)

    def test_markdown_tables_cover_schema(self):
        tables = markdown_tables()
        for name in list(EVENTS) + list(METRICS):
            assert f"`{name}`" in tables


# ---------------------------------------------------------------------------
# Export / parse / diff / summary
# ---------------------------------------------------------------------------


def _sample_handle():
    handle = Instrumentation()
    handle.event("txn.begin", time=0.0, transaction="t", policy="GRD",
                 items=2, payload_bytes=10.0)
    handle.count("runner.copies", path="p0")
    handle.count("runner.copies", path="p1", amount=2.0)
    handle.gauge("runner.active_paths", 2.0)
    handle.observe("runner.item_elapsed_s", 0.4)
    return handle


class TestExport:
    def test_round_trip(self):
        lines = export_lines(_sample_handle(), experiment_id="x")
        parsed = parse_lines(lines)
        assert parsed["header"]["schema"] == SCHEMA_VERSION
        assert parsed["header"]["experiment"] == "x"
        assert len(parsed["events"]) == 1
        assert parsed["counters"]["runner.copies{path=p1}"] == 2.0
        assert parsed["gauges"]["runner.active_paths"] == 2.0
        assert "runner.item_elapsed_s" in parsed["histograms"]

    def test_lines_are_compact_sorted_json(self):
        for line in export_lines(_sample_handle()):
            record = json.loads(line)
            assert line == json.dumps(
                record, sort_keys=True, separators=(",", ":")
            )

    def test_parse_rejects_garbage(self):
        with pytest.raises(TraceParseError):
            parse_lines([])
        with pytest.raises(TraceParseError):
            parse_lines(["not json"])
        with pytest.raises(TraceParseError):
            parse_lines(['{"type":"event"}'])  # no header first

    def test_diff_identical_is_empty(self):
        a = export_lines(_sample_handle())
        b = export_lines(_sample_handle())
        assert a == b
        assert diff_lines(a, b) == []

    def test_diff_reports_metric_and_event_deltas(self):
        a = export_lines(_sample_handle())
        other = _sample_handle()
        other.count("runner.copies", path="p0")
        other.event("txn.end", time=9.0, transaction="t", policy="GRD",
                    wasted_bytes=0.0, payload_bytes=10.0)
        b = export_lines(other)
        deltas = diff_lines(a, b)
        assert any("runner.copies{path=p0}" in d for d in deltas)
        assert any("event count" in d for d in deltas)

    def test_summary_aggregates(self):
        summary = summarize_lines(export_lines(_sample_handle()))
        assert summary["event_count"] == 1
        assert summary["events_by_name"] == {"txn.begin": 1}
        assert summary["time_span"] == (0.0, 0.0)


# ---------------------------------------------------------------------------
# Runner / policy / component wiring
# ---------------------------------------------------------------------------


class TestRunnerInstrumentation:
    def test_uninstrumented_run_collects_nothing(self):
        result, _ = run_transaction("GRD", [mbps(8), mbps(8)], [1 * MB] * 4)
        assert len(result.records) == 4  # and no handle existed to fill

    def test_basic_checkpoints(self):
        with capture() as handle:
            result, txn = run_transaction(
                "GRD", [mbps(8), mbps(4)], [1 * MB] * 6
            )
        names = [e.name for e in handle.tracer.events]
        assert names[0] == "txn.begin"
        assert names[-1] == "txn.end"
        assert names.count("item.complete") == len(txn)
        completed = handle.metrics.counter_total("runner.items_completed")
        assert completed == len(txn)
        moved = handle.metrics.counter_total("runner.bytes_completed")
        assert moved == pytest.approx(txn.total_bytes)
        hist = handle.metrics.histogram("runner.item_elapsed_s")
        assert hist.count == len(txn)

    def test_event_times_are_engine_clock(self):
        with capture() as handle:
            result, _ = run_transaction("GRD", [mbps(8)], [1 * MB] * 2)
        times = [e.time for e in handle.tracer.events]
        assert times == sorted(times)
        assert times[-1] == pytest.approx(result.total_time)

    def test_policy_counters_labelled_by_policy(self):
        with capture() as handle:
            run_transaction("MIN", [mbps(8), mbps(2)], [1 * MB] * 6)
        assert (
            handle.metrics.counter_value(
                "scheduler.estimate_updates", policy="MIN"
            )
            > 0
        )

    def test_duplicate_waste_counted_by_cause(self):
        # Strongly asymmetric paths force GRD endgame duplication.
        with capture() as handle:
            result, _ = run_transaction(
                "GRD", [mbps(16), mbps(0.5)], [1 * MB] * 3
            )
        waste = handle.metrics.counter_total("runner.waste_bytes")
        assert waste == pytest.approx(result.wasted_bytes)
        if waste > 0:
            assert (
                handle.metrics.counter_value(
                    "runner.waste_bytes", cause="duplicate"
                )
                > 0
            )


class TestGrdWasteBound:
    def test_duplicate_waste_bounded_on_fig06_workload(self):
        # The Fig. 6 testbed: bipbop HLS segments over the household's
        # download paths. GRD only duplicates in the endgame, one spare
        # copy per remaining path, so duplicate waste is bounded by
        # (N - 1) * S_max per transaction.
        from repro.experiments.fig06_scheduler import TESTBED_LOCATION
        from repro.netsim.topology import Household, HouseholdConfig
        from repro.web.hls import make_bipbop_video

        playlist = make_bipbop_video().playlist("Q4")
        items = [
            TransferItem(s.uri, s.size_bytes, {"index": s.index})
            for s in playlist.segments
        ]
        s_max = max(item.size_bytes for item in items)
        for seed in range(3):
            household = Household(
                TESTBED_LOCATION, HouseholdConfig(n_phones=2, seed=seed)
            )
            paths = household.download_paths()
            with capture() as handle:
                TransactionRunner(
                    household.network, paths, make_policy("GRD")
                ).run(Transaction(items))
            duplicate_waste = handle.metrics.counter_value(
                "runner.waste_bytes", cause="duplicate"
            )
            assert duplicate_waste <= (len(paths) - 1) * s_max


class TestResilienceInstrumentation:
    def test_degradation_log_counts_kinds(self):
        from repro.core.resilience import DegradationLog

        with capture() as handle:
            log = DegradationLog()
            log.record(kind="stall", time=1.0, path_name="p0")
            log.record(kind="stall", time=2.0, path_name="p1")
        assert (
            handle.metrics.counter_value("proto.degradations", kind="stall")
            == 2
        )

    def test_permit_server_events(self):
        from repro.core.permits import PermitServer

        with capture() as handle:
            server = PermitServer(lambda cell, now: 0.1)
            assert server.request_permit("phone0", "cell-1", now=0.0)
            server.revoke("phone0")
        names = [e.name for e in handle.tracer.events]
        assert "permit.grant" in names
        assert "permit.revoke" in names
        assert handle.metrics.counter_value("permits.granted") == 1
        assert handle.metrics.counter_value("permits.revoked") == 1

    def test_fault_schedule_emits_transitions(self):
        from repro.netsim.faults import FaultSchedule, PathFlapProcess

        with capture() as handle:
            net = FluidNetwork()
            schedule = FaultSchedule(
                [PathFlapProcess("p0", seed=7, mean_up_s=5.0,
                                 mean_down_s=2.0)]
            )
            armed = schedule.arm(
                net, lambda e: None, lambda e: None, horizon=60.0
            )
            net.run(until=60.0)
        if armed:
            fired = handle.tracer.of_name("fault.transition")
            assert len(fired) == len(armed)
            assert handle.metrics.counter_total("faults.transitions") == len(
                armed
            )


# ---------------------------------------------------------------------------
# Experiment runner integration: trace threading + determinism
# ---------------------------------------------------------------------------


class TestRunExperimentsTrace:
    def test_trace_attaches_lines_and_profile(self):
        from repro.experiments.runner import run_experiments

        outcome = run_experiments(["fig10"], quick=True, trace=True)[0]
        assert outcome.status == "ok"
        assert outcome.trace_lines is not None
        header = json.loads(outcome.trace_lines[0])
        assert header["type"] == "header"
        assert header["experiment"] == "fig10"
        assert header["schema"] == SCHEMA_VERSION
        assert outcome.profile is not None
        assert "run_s" in outcome.profile
        # The repro run --json contract is unchanged: no trace/profile.
        payload = outcome.to_dict()
        assert "trace" not in payload
        assert "profile" not in payload

    def test_trace_bypasses_cache(self, tmp_path):
        from repro.experiments.runner import ResultCache, run_experiments

        cache = ResultCache(tmp_path / "cache")
        outcome = run_experiments(
            ["sec21"], quick=True, cache=cache, trace=True
        )[0]
        assert outcome.status == "ok"  # never "cached"
        assert not list((tmp_path / "cache").glob("*.json"))

    def test_untraced_outcomes_have_no_trace(self):
        from repro.experiments.runner import run_experiments

        outcome = run_experiments(["sec21"], quick=True)[0]
        assert outcome.trace_lines is None


class TestTraceDeterminism:
    def test_ext_churn_trace_identical_across_runs_and_jobs(self):
        from repro.experiments.runner import run_experiments

        def trace(jobs):
            outcome = run_experiments(
                ["ext-churn"], jobs=jobs, quick=True, trace=True
            )[0]
            assert outcome.status == "ok"
            return outcome.trace_lines

        first = trace(jobs=1)
        second = trace(jobs=1)
        parallel = trace(jobs=2)
        assert first == second
        assert first == parallel
        assert diff_lines(first, parallel) == []
