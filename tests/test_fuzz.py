"""The fuzz framework: mutators, sessions, triage, corpus replay, CLI.

Determinism is the load-bearing property — every test that runs the same
seed twice must see byte-identical behaviour — and the checked-in corpus
under ``tests/corpus/`` is replayed case by case: each payload once
escaped the ProtocolError taxonomy, so a replay failure is a fixed bug
resurfacing.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.fuzz import (
    MUTATORS,
    CorpusCase,
    FakeSocket,
    FuzzSession,
    FuzzTarget,
    all_targets,
    get_target,
    load_corpus,
    mutate_bytes,
    replay_case,
    save_case,
)
from repro.fuzz.cli import main as fuzz_main
from repro.fuzz.mutators import MAX_MUTANT_BYTES
from repro.fuzz.session import crash_site
from repro.proto.errors import ProtocolError
from repro.util.search import replay

CORPUS_ROOT = Path(__file__).resolve().parent / "corpus"

SEED_PAYLOAD = b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nabc"


# ---------------------------------------------------------------------------
# Byte-level mutators
# ---------------------------------------------------------------------------


class TestMutators:
    @pytest.mark.parametrize("mutator", MUTATORS, ids=lambda m: m.__name__)
    def test_deterministic_given_seed(self, mutator):
        a = mutator(random.Random(7), SEED_PAYLOAD)
        b = mutator(random.Random(7), SEED_PAYLOAD)
        assert a == b

    @pytest.mark.parametrize("mutator", MUTATORS, ids=lambda m: m.__name__)
    def test_handles_empty_and_tiny_inputs(self, mutator):
        for payload in (b"", b"x", b"xy"):
            out = mutator(random.Random(3), payload)
            assert isinstance(out, bytes)

    def test_mutate_bytes_respects_size_cap(self):
        rng = random.Random(11)
        for _ in range(50):
            out = mutate_bytes(rng, SEED_PAYLOAD * 100)
            assert len(out) <= MAX_MUTANT_BYTES

    def test_mutate_bytes_deterministic_stream(self):
        first = [mutate_bytes(random.Random(42), SEED_PAYLOAD)]
        second = [mutate_bytes(random.Random(42), SEED_PAYLOAD)]
        assert first == second


# ---------------------------------------------------------------------------
# FakeSocket
# ---------------------------------------------------------------------------


class TestFakeSocket:
    def test_serves_buffer_then_clean_close(self):
        sock = FakeSocket(b"abcdef", chunk=4)
        assert sock.recv(100) == b"abcd"
        assert sock.recv(100) == b"ef"
        assert sock.recv(100) == b""

    def test_timeout_is_remembered_but_never_fires(self):
        sock = FakeSocket(b"x")
        sock.settimeout(0.5)
        assert sock.gettimeout() == 0.5
        assert sock.recv(10) == b"x"

    def test_sendall_collects(self):
        sock = FakeSocket(b"")
        sock.sendall(b"hello")
        assert bytes(sock.sent) == b"hello"


# ---------------------------------------------------------------------------
# Targets
# ---------------------------------------------------------------------------


class TestTargets:
    def test_four_targets_registered(self):
        names = [target.name for target in all_targets()]
        assert names == ["http-head", "wire-stream", "m3u8", "multipart"]

    def test_unknown_target_rejected(self):
        with pytest.raises(KeyError, match="unknown fuzz target"):
            get_target("nope")

    @pytest.mark.parametrize(
        "target", all_targets(), ids=lambda t: t.name
    )
    def test_seeds_parse_clean(self, target):
        for seed in target.seeds:
            target.execute(seed)  # must not raise

    @pytest.mark.parametrize(
        "target", all_targets(), ids=lambda t: t.name
    )
    def test_targets_have_structured_mutators(self, target):
        assert target.seeds
        assert target.structured_mutators


# ---------------------------------------------------------------------------
# FuzzSession: determinism, triage, dedup, minimisation
# ---------------------------------------------------------------------------


def _buggy_target():
    """A target with a deliberate taxonomy escape, for triage tests."""

    def execute(data: bytes) -> None:
        if data.startswith(b"\x00"):
            raise IndexError("planted escape")
        if not data:
            raise ProtocolError("empty")

    return FuzzTarget(
        name="planted",
        description="deliberately buggy",
        execute=execute,
        seeds=(b"\x00seed", b"benign"),
    )


#: Two planted escapes, compiled under a fixed ``.../repro/planted.py``
#: path so triage names ``planted.py:<line>:parse`` whatever the
#: checkout path. Sorted by raise site the KeyError (line 4) comes
#: first; sorted by exception type it would not.
_TWO_BUG_PARSER = """
def parse(data):
    if data[:1] == b"\\x00":
        raise KeyError("planted key")
    if b"\\r\\n" in data:
        raise IndexError("planted index")
    if not data:
        raise ProtocolError("empty")
"""

#: sha256 of ``FuzzSession(_two_bug_target(), seed=0).run(300)``'s
#: ``to_dict()`` rendered with sorted keys.
PLANTED_CAMPAIGN_SHA256 = (
    "42156b08ade9419a6e779a26205dc899dd441f67ffce261809092833f8fc4621"
)


def _two_bug_target():
    """A target with two distinct escapes at stable raise sites."""
    namespace = {"ProtocolError": ProtocolError}
    code = compile(_TWO_BUG_PARSER, "/planted/repro/planted.py", "exec")
    exec(code, namespace)  # noqa: S102 - a fixed, test-owned source
    return FuzzTarget(
        name="planted-two",
        description="two planted escapes",
        execute=namespace["parse"],
        seeds=(
            b"\x00seed", b"GET / HTTP/1.1\r\nHost: x\r\n\r\n", b"benign",
        ),
    )


class TestFuzzSession:
    def test_same_seed_same_report(self):
        target = get_target("m3u8")
        first = FuzzSession(target, seed=5).run(120)
        second = FuzzSession(target, seed=5).run(120)
        assert first.to_dict() == second.to_dict()

    def test_different_targets_get_independent_streams(self):
        a = FuzzSession(get_target("m3u8"), seed=5)
        b = FuzzSession(get_target("multipart"), seed=5)
        assert a._rng.random() != b._rng.random()

    def test_crash_detected_and_deduplicated(self):
        report = FuzzSession(_buggy_target(), seed=1).run(200)
        assert not report.clean
        assert len(report.crashes) == 1
        crash = report.crashes[0]
        assert crash.keys[0][0] == "IndexError"
        assert crash.duplicates > 0
        assert report.ok + report.handled + crash.duplicates + 1 == 200

    def test_handled_protocol_errors_are_not_crashes(self):
        target = get_target("multipart")
        report = FuzzSession(target, seed=3).run(150)
        assert report.clean
        assert report.handled > 0

    def test_minimised_payload_still_crashes(self):
        target = _buggy_target()
        report = FuzzSession(target, seed=2).run(200)
        payload = report.crashes[0].case
        with pytest.raises(IndexError):
            target.execute(payload)

    def test_crash_site_points_outside_the_fuzzer(self):
        try:
            get_target("m3u8").execute(b"#EXTM3U\n#EXTINF:bad,\n/s.ts\n")
        except ProtocolError as exc:
            site = crash_site(exc)
        assert site.startswith("web/hls.py:")
        assert "fuzz" not in site

    def test_planted_campaign_matches_golden_digest(self):
        # Pinned across commits, not just across two runs: a changed
        # mutation stream, dedup rule or crash order moves the digest.
        report = FuzzSession(_two_bug_target(), seed=0).run(300)
        assert [crash.keys[0][0] for crash in report.crashes] == [
            "KeyError", "IndexError",
        ]
        rendered = json.dumps(report.to_dict(), sort_keys=True)
        assert (
            hashlib.sha256(rendered.encode("utf-8")).hexdigest()
            == PLANTED_CAMPAIGN_SHA256
        )

    def test_report_json_round_trips(self):
        report = FuzzSession(_buggy_target(), seed=4).run(50)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["target"] == "planted"
        assert payload["crashes"][0]["exception_type"] == "IndexError"


# ---------------------------------------------------------------------------
# The acceptance gate: a real campaign over every target stays clean
# ---------------------------------------------------------------------------


class TestCampaignClean:
    @pytest.mark.parametrize(
        "target", all_targets(), ids=lambda t: t.name
    )
    def test_short_campaign_has_no_taxonomy_escapes(self, target):
        report = FuzzSession(target, seed=0).run(250)
        assert report.clean, report.to_dict()["crashes"]


# ---------------------------------------------------------------------------
# Corpus: every pinned regression payload replays clean
# ---------------------------------------------------------------------------

_CORPUS = load_corpus(CORPUS_ROOT)


class TestCorpus:
    def test_corpus_is_checked_in_and_big_enough(self):
        assert len(_CORPUS) >= 20
        assert {case.target for case in _CORPUS} == {
            "http-head", "wire-stream", "m3u8", "multipart",
        }

    def test_every_case_is_pinned_to_a_bug(self):
        for case in _CORPUS:
            assert case.description, case.case_id

    @pytest.mark.parametrize(
        "case", _CORPUS, ids=lambda c: f"{c.target}/{c.case_id}"
    )
    def test_case_replays_clean(self, case):
        failure = replay_case(case)
        assert failure is None, failure

    def test_save_and_load_round_trip(self, tmp_path):
        case = CorpusCase("m3u8", "tmp-001", "round-trip check", b"\x00\xff")
        save_case(case, tmp_path)
        loaded = load_corpus(tmp_path)
        assert loaded == (case,)

    def test_replay_reports_a_taxonomy_escape(self, tmp_path):
        # Inverse control: replay must fail loudly on a payload that
        # escapes, so green corpus runs are evidence.
        target = _buggy_target()
        case = CorpusCase(target.name, "x", "control", b"\x00")
        failure = replay(FuzzSession(target).check, case)
        with pytest.raises(IndexError) as raised:
            target.execute(b"\x00")
        assert failure is not None
        assert f"IndexError at {crash_site(raised.value)}" in failure
        assert "planted/x (control)" in failure
        with pytest.raises(KeyError):
            replay_case(case)  # unknown target fails loudly, not silently
        clean = CorpusCase(
            "http-head", "inverse", "control", b"GET / HTTP/1.1\r\n\r\n"
        )
        assert replay_case(clean) is None

    def test_unregistered_target_directory_is_not_skipped(self, tmp_path):
        # Only the scenario hunter's directory may be passed over: a
        # wire-corpus directory naming an unknown target must fail loudly.
        save_case(CorpusCase("no-such-target", "c1", "d", b"x"), tmp_path)
        (tmp_path / "scenarios").mkdir()
        (tmp_path / "scenarios" / "MANIFEST.json").write_text(
            '{"cases": {"s1": "a scenario"}}', encoding="utf-8"
        )
        cases = load_corpus(tmp_path)
        assert [case.target for case in cases] == ["no-such-target"]
        with pytest.raises(KeyError):
            replay_case(cases[0])


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCli:
    def test_clean_run_exits_zero(self, capsys):
        assert fuzz_main(["--seed", "0", "--iterations", "60"]) == 0
        out = capsys.readouterr().out
        assert "all clean" in out

    def test_json_format(self, capsys):
        code = fuzz_main(
            ["--seed", "0", "--iterations", "40", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is True
        assert len(payload["reports"]) == 4

    def test_target_subset(self, capsys):
        code = fuzz_main(
            ["--seed", "1", "--iterations", "40", "--target", "m3u8"]
        )
        assert code == 0
        assert "m3u8" in capsys.readouterr().out

    def test_unknown_target_is_usage_error(self, capsys):
        assert fuzz_main(["--target", "nope"]) == 2

    def test_bad_iteration_budget_is_usage_error(self):
        assert fuzz_main(["--iterations", "0"]) == 2

    def test_list_targets(self, capsys):
        assert fuzz_main(["--list-targets"]) == 0
        out = capsys.readouterr().out
        for name in ("http-head", "wire-stream", "m3u8", "multipart"):
            assert name in out
