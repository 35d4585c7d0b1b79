"""repro-lint: the engine, the module-level rules, reporters and the CLI.

Each rule is exercised on small fixture modules with synthetic
``repro/...`` paths (scoping works on the parts after the last ``repro``
directory), and the suite ends with the gate the CI job relies on: the
real ``src/`` tree must lint clean. The project-level rules
(RL008-RL011) and the call-graph machinery behind them live in
``tests/test_lint_project.py``.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.lint import (
    PARSE_ERROR_CODE,
    DuplicateRuleError,
    Finding,
    LintRun,
    Rule,
    UnknownRuleError,
    all_rules,
    get_rule,
    lint_paths,
    lint_source,
    parse_suppressions,
    render_json,
    render_text,
    repro_relative_parts,
    rule,
    select_rules,
)
from repro.lint.cli import main as lint_main

REPO_ROOT = Path(__file__).resolve().parents[1]


def lint(source: str, path: str, codes=None):
    """Lint dedented ``source`` at a synthetic ``path``."""
    rules = select_rules(select=codes) if codes else None
    return lint_source(textwrap.dedent(source), path=path, rules=rules)


def codes_of(findings):
    return [f.code for f in findings]


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_rules_registered_in_order(self):
        assert [r.code for r in all_rules()] == [
            "RL001", "RL002", "RL003", "RL004", "RL005", "RL006", "RL007",
            "RL008", "RL009", "RL010", "RL011", "RL012",
        ]

    def test_every_rule_has_title_and_rationale(self):
        for registered in all_rules():
            assert registered.title
            assert registered.rationale

    def test_get_rule_unknown_code(self):
        with pytest.raises(UnknownRuleError, match="RL999"):
            get_rule("RL999")

    def test_duplicate_registration_rejected(self):
        class Clone(Rule):
            code = "RL001"
            title = "clone"
            rationale = "clone"

        with pytest.raises(DuplicateRuleError):
            rule(Clone)

    def test_select_narrows(self):
        assert [r.code for r in select_rules(select=["RL002"])] == ["RL002"]

    def test_ignore_drops(self):
        remaining = [r.code for r in select_rules(ignore=["RL003"])]
        assert "RL003" not in remaining
        assert len(remaining) == len(all_rules()) - 1


class TestEngine:
    def test_syntax_error_becomes_rl000(self):
        findings = lint_source("def broken(:\n", path="repro/core/x.py")
        assert codes_of(findings) == [PARSE_ERROR_CODE]

    def test_clean_module_has_no_findings(self):
        assert lint("x = 1\n", "repro/core/x.py") == []

    def test_findings_sorted_by_position(self):
        findings = lint(
            """\
            import time

            def f(eta):
                \"\"\"Sample.\"\"\"
                if eta == 1.0:
                    return time.time()
            """,
            "repro/core/x.py",
        )
        assert codes_of(findings) == ["RL005", "RL001"]
        assert findings[0].line < findings[1].line

    def test_finding_to_dict_round_trips_json(self):
        finding = lint(
            "import time\nt = time.time()\n", "repro/core/x.py"
        )[0]
        payload = json.loads(json.dumps(finding.to_dict()))
        assert payload["code"] == "RL001"
        assert payload["path"] == "repro/core/x.py"
        assert payload["line"] == 2


class TestSuppressions:
    SOURCE = "import time\nt = time.time()  # repro-lint: disable{spec}\n"

    def test_bare_disable_silences_line(self):
        assert lint(self.SOURCE.format(spec=""), "repro/core/x.py") == []

    def test_targeted_disable_silences_named_rule(self):
        src = self.SOURCE.format(spec="=RL001")
        assert lint(src, "repro/core/x.py") == []

    def test_other_code_does_not_silence(self):
        src = self.SOURCE.format(spec="=RL002")
        assert codes_of(lint(src, "repro/core/x.py")) == ["RL001"]

    def test_multiple_codes(self):
        parsed = parse_suppressions(
            "x = 1  # repro-lint: disable=RL001, RL005\n"
        )
        assert parsed == {1: {"RL001", "RL005"}}

    def test_unrelated_comment_is_not_a_suppression(self):
        assert parse_suppressions("x = 1  # disable=RL001\n") == {}

    def test_suppression_only_covers_its_line(self):
        src = (
            "import time\n"
            "a = time.time()  # repro-lint: disable=RL001\n"
            "b = time.time()\n"
        )
        findings = lint(src, "repro/core/x.py")
        assert [(f.code, f.line) for f in findings] == [("RL001", 3)]


class TestPathScoping:
    def test_relative_parts_after_last_repro_dir(self):
        assert repro_relative_parts(
            "src/repro/core/scheduler/runner.py"
        ) == ("core", "scheduler", "runner.py")

    def test_synthetic_fixture_paths_scope_identically(self):
        assert repro_relative_parts("repro/core/x.py") == ("core", "x.py")

    def test_paths_outside_repro_have_no_parts(self):
        assert repro_relative_parts("scripts/tool.py") == ()


# ---------------------------------------------------------------------------
# RL001 — determinism
# ---------------------------------------------------------------------------


class TestDeterminismRule:
    BAD = """\
        import os
        import random
        import time
        from datetime import datetime

        import numpy as np

        def f():
            a = time.time()
            b = datetime.now()
            c = random.random()
            d = np.random.default_rng()
            e = os.urandom(8)
            return a, b, c, d, e
        """

    def test_flags_every_entropy_source_in_core(self):
        findings = lint(self.BAD, "repro/core/clock.py", codes=["RL001"])
        # The unseeded default_rng() (line 12) is RL008's to report.
        assert [(f.code, f.line) for f in findings] == [
            ("RL001", 9), ("RL001", 10), ("RL001", 11), ("RL001", 13),
        ]

    @pytest.mark.parametrize(
        ("plant", "codes"),
        [
            ("rng = np.random.default_rng()", []),
            ("rng = random.Random()", []),
            ("rng = random.Random(7)", ["RL001"]),
            ("x = random.choice([1, 2])", ["RL001"]),
        ],
    )
    def test_argless_rng_constructors_left_to_rl008(self, plant, codes):
        src = f"import random\nimport numpy as np\n{plant}\n"
        assert codes_of(
            lint(src, "repro/netsim/wifi.py", codes=["RL001"])
        ) == codes

    @pytest.mark.parametrize(
        "package", ["core", "netsim", "traces", "pilot", "experiments"]
    )
    def test_applies_to_simulation_packages(self, package):
        src = "import time\nt = time.time()\n"
        findings = lint(src, f"repro/{package}/x.py", codes=["RL001"])
        assert codes_of(findings) == ["RL001"]

    def test_does_not_apply_outside_scope(self):
        src = "import time\nt = time.time()\n"
        assert lint(src, "repro/analysis/x.py", codes=["RL001"]) == []

    def test_seeded_default_rng_is_fine(self):
        src = "import numpy as np\nrng = np.random.default_rng(42)\n"
        assert lint(src, "repro/core/x.py", codes=["RL001"]) == []

    def test_generator_methods_are_fine(self):
        src = (
            "import numpy as np\n"
            "rng = np.random.default_rng(7)\n"
            "x = rng.exponential(2.0)\n"
        )
        assert lint(src, "repro/netsim/x.py", codes=["RL001"]) == []


# ---------------------------------------------------------------------------
# RL002 — unit conversions
# ---------------------------------------------------------------------------


class TestUnitsRule:
    def test_flags_literal_times_eight(self):
        src = "def f(nbytes):\n    return nbytes * 8\n"
        assert codes_of(lint(src, "repro/analysis/x.py")) == ["RL002"]

    def test_flags_literal_divide_by_eight(self):
        src = "def f(rate, dt):\n    return rate * dt / 8.0\n"
        assert codes_of(lint(src, "repro/netsim/x.py")) == ["RL002"]

    def test_flags_kilo_family_on_unit_carrying_operand(self):
        src = "def f(rate_bps):\n    return rate_bps / 1e6\n"
        assert codes_of(lint(src, "repro/analysis/x.py")) == ["RL002"]

    def test_kilo_family_without_unit_context_is_fine(self):
        src = "def f(seed):\n    return seed * 1000\n"
        assert lint(src, "repro/analysis/x.py") == []

    def test_string_repetition_is_not_a_conversion(self):
        src = "ruler = '-' * 8\ncells = [0] * 8\n"
        assert lint(src, "repro/analysis/x.py") == []

    def test_units_module_itself_is_exempt(self):
        src = "def bytes_to_bits(nbytes):\n    return nbytes * 8.0\n"
        assert lint(src, "src/repro/util/units.py") == []

    def test_flags_keyword_unit_mismatch(self):
        src = "def f(g, size_bytes):\n    g(rate_bps=size_bytes)\n"
        findings = lint(src, "repro/core/x.py", codes=["RL002"])
        assert codes_of(findings) == ["RL002"]
        assert "rate" in findings[0].message

    def test_matching_keyword_units_are_fine(self):
        src = "def f(g, rate_bps):\n    g(rate_bps=rate_bps)\n"
        assert lint(src, "repro/core/x.py", codes=["RL002"]) == []


# ---------------------------------------------------------------------------
# RL003 — experiment registry contract
# ---------------------------------------------------------------------------


class TestRegistryContractRule:
    GOOD = """\
        from repro.experiments.registry import experiment

        @experiment(
            "figx",
            title="Figure X",
            description="demo",
            claims="reproduces figure X",
        )
        def run():
            return {"value": 1.0}
        """

    def test_conforming_module_is_clean(self):
        path = "repro/experiments/figx_demo.py"
        assert lint(self.GOOD, path, codes=["RL003"]) == []

    def test_module_without_experiment_is_flagged(self):
        src = "def run():\n    return {}\n"
        path = "repro/experiments/figx_demo.py"
        assert codes_of(lint(src, path, codes=["RL003"])) == ["RL003"]

    def test_two_experiments_in_one_module_flagged(self):
        src = self.GOOD + textwrap.dedent(
            """\

            @experiment(
                "figy",
                title="Figure Y",
                claims="second experiment",
            )
            def run_again():
                return {"value": 2.0}
            """
        )
        path = "repro/experiments/figx_demo.py"
        findings = lint_source(
            textwrap.dedent(self.GOOD)
            + textwrap.dedent(src[len(self.GOOD):]),
            path=path,
            rules=select_rules(select=["RL003"]),
        )
        assert "RL003" in codes_of(findings)

    @pytest.mark.parametrize("missing", ["title", "claims"])
    def test_missing_metadata_flagged(self, missing):
        src = textwrap.dedent(self.GOOD).replace(f"{missing}=", f"x_{missing}=")
        path = "repro/experiments/figx_demo.py"
        findings = lint_source(
            src, path=path, rules=select_rules(select=["RL003"])
        )
        assert codes_of(findings) == ["RL003"]
        assert missing in findings[0].message

    def test_empty_title_flagged(self):
        src = textwrap.dedent(self.GOOD).replace(
            'title="Figure X"', 'title="  "'
        )
        path = "repro/experiments/figx_demo.py"
        findings = lint_source(
            src, path=path, rules=select_rules(select=["RL003"])
        )
        assert codes_of(findings) == ["RL003"]

    def test_run_returning_nothing_flagged(self):
        src = textwrap.dedent(self.GOOD).replace(
            'return {"value": 1.0}', "print('side effect only')"
        )
        path = "repro/experiments/figx_demo.py"
        findings = lint_source(
            src, path=path, rules=select_rules(select=["RL003"])
        )
        assert codes_of(findings) == ["RL003"]

    def test_nested_function_returns_do_not_count(self):
        src = textwrap.dedent(self.GOOD).replace(
            'return {"value": 1.0}',
            "def helper():\n        return 1\n    helper()",
        )
        path = "repro/experiments/figx_demo.py"
        findings = lint_source(
            src, path=path, rules=select_rules(select=["RL003"])
        )
        assert codes_of(findings) == ["RL003"]

    @pytest.mark.parametrize(
        "module", ["__init__.py", "registry.py", "runner.py", "formatting.py"]
    )
    def test_infrastructure_modules_exempt(self, module):
        src = "def helper():\n    return 1\n"
        assert lint(src, f"repro/experiments/{module}", codes=["RL003"]) == []


# ---------------------------------------------------------------------------
# RL004 — exception hygiene
# ---------------------------------------------------------------------------


class TestExceptionHygieneRule:
    def test_bare_except_flagged(self):
        src = """\
            def f():
                try:
                    work()
                except:
                    pass
            """
        path = "repro/core/scheduler/x.py"
        assert codes_of(lint(src, path, codes=["RL004"])) == ["RL004"]

    def test_swallowed_blind_exception_flagged(self):
        src = """\
            def f():
                try:
                    work()
                except Exception:
                    pass
            """
        path = "repro/experiments/runner.py"
        assert codes_of(lint(src, path, codes=["RL004"])) == ["RL004"]

    def test_blind_exception_that_reraises_is_fine(self):
        src = """\
            def f():
                try:
                    work()
                except Exception:
                    raise
            """
        path = "repro/core/scheduler/x.py"
        assert lint(src, path, codes=["RL004"]) == []

    def test_blind_exception_used_via_binding_is_fine(self):
        src = """\
            def f(log):
                try:
                    work()
                except Exception as error:
                    log.append(str(error))
            """
        path = "repro/core/scheduler/x.py"
        assert lint(src, path, codes=["RL004"]) == []

    def test_raise_without_from_inside_handler_flagged(self):
        src = """\
            def f():
                try:
                    work()
                except ValueError:
                    raise RuntimeError("wrapped")
            """
        path = "repro/netsim/faults.py"
        findings = lint(src, path, codes=["RL004"])
        assert codes_of(findings) == ["RL004"]
        assert "from" in findings[0].message

    def test_raise_with_from_is_fine(self):
        src = """\
            def f():
                try:
                    work()
                except ValueError as error:
                    raise RuntimeError("wrapped") from error
            """
        path = "repro/core/scheduler/x.py"
        assert lint(src, path, codes=["RL004"]) == []

    def test_specific_swallow_outside_scope_is_fine(self):
        src = """\
            def f():
                try:
                    work()
                except Exception:
                    pass
            """
        assert lint(src, "repro/proto/x.py", codes=["RL004"]) == []


# ---------------------------------------------------------------------------
# RL005 — float equality
# ---------------------------------------------------------------------------


class TestFloatEqualityRule:
    def test_clock_comparison_flagged(self):
        src = "def f(now, deadline):\n    return now == deadline\n"
        path = "repro/netsim/x.py"
        assert codes_of(lint(src, path, codes=["RL005"])) == ["RL005"]

    def test_byte_volume_comparison_flagged(self):
        src = (
            "def f(total_bytes, expected_bytes):\n"
            "    return total_bytes != expected_bytes\n"
        )
        path = "repro/core/x.py"
        assert codes_of(lint(src, path, codes=["RL005"])) == ["RL005"]

    def test_string_sentinel_comparison_is_fine(self):
        src = "def f(name):\n    return name == 'elapsed'\n"
        assert lint(src, "repro/core/x.py", codes=["RL005"]) == []

    def test_plain_counters_are_fine(self):
        src = "def f(count):\n    return count == 3\n"
        assert lint(src, "repro/core/x.py", codes=["RL005"]) == []

    def test_word_boundary_matching(self):
        # "downtime" contains no clock *word* ("time" must stand alone
        # between underscores), so this is not flagged.
        src = "def f(downtime_ratio):\n    return downtime_ratio == 0.5\n"
        assert lint(src, "repro/core/x.py", codes=["RL005"]) == []

    def test_inline_suppression_with_justification(self):
        src = (
            "def f(eta):\n"
            "    return eta == 0.0  # repro-lint: disable=RL005\n"
        )
        assert lint(src, "repro/netsim/x.py", codes=["RL005"]) == []


# ---------------------------------------------------------------------------
# RL006 — wire parse paths raise the ProtocolError taxonomy
# ---------------------------------------------------------------------------


class TestProtocolTaxonomyRule:
    def test_parse_function_raising_valueerror_flagged(self):
        src = """\
            def parse_thing(raw):
                if not raw:
                    raise ValueError("empty")
                return raw
            """
        path = "repro/proto/x.py"
        findings = lint(src, path, codes=["RL006"])
        assert codes_of(findings) == ["RL006"]
        assert "ValueError" in findings[0].message

    @pytest.mark.parametrize(
        "name", ["decode_body", "read_head", "_recv_chunk", "_check_token"]
    )
    def test_all_parse_prefixes_covered(self, name):
        src = f"def {name}(raw):\n    raise KeyError(raw)\n"
        path = "repro/web/x.py"
        assert codes_of(lint(src, path, codes=["RL006"])) == ["RL006"]

    @pytest.mark.parametrize(
        "error",
        [
            "ProtocolError",
            "WireError",
            "FramingError",
            "StallError",
            "PlaylistError",
            "MultipartError",
        ],
    )
    def test_taxonomy_raises_are_fine(self, error):
        src = (
            f"from repro.proto.errors import {error}\n"
            "def parse_thing(raw):\n"
            f"    raise {error}('bad')\n"
        )
        assert lint(src, "repro/proto/x.py", codes=["RL006"]) == []

    def test_non_parse_function_may_raise_builtins(self):
        src = "def render_thing(x):\n    raise ValueError('bad')\n"
        assert lint(src, "repro/web/x.py", codes=["RL006"]) == []

    def test_bare_reraise_is_fine(self):
        src = """\
            def parse_thing(raw):
                try:
                    return raw
                except Exception:
                    raise
            """
        assert lint(src, "repro/proto/x.py", codes=["RL006"]) == []

    def test_nested_helper_checked_independently(self):
        # The nested def is itself parse-named, so the raise is
        # attributed to it, not its non-parse parent (and still flagged).
        src = """\
            def build(raw):
                def parse_inner(piece):
                    raise IndexError(piece)
                return parse_inner(raw)
            """
        findings = lint(src, "repro/proto/x.py", codes=["RL006"])
        assert codes_of(findings) == ["RL006"]
        assert "parse_inner" in findings[0].message

    def test_does_not_apply_outside_proto_and_web(self):
        src = "def parse_thing(raw):\n    raise ValueError('bad')\n"
        assert lint(src, "repro/core/x.py", codes=["RL006"]) == []

    def test_inline_suppression_for_control_flow(self):
        src = (
            "def read_thing(raw):\n"
            "    raise StopIteration  # repro-lint: disable=RL006\n"
        )
        assert lint(src, "repro/proto/x.py", codes=["RL006"]) == []


class TestPublicDocstringRule:
    def test_undocumented_public_function_flagged(self):
        src = "def frobnicate(x):\n    return x\n"
        findings = lint(src, "repro/core/x.py", codes=["RL007"])
        assert codes_of(findings) == ["RL007"]
        assert "frobnicate" in findings[0].message

    def test_undocumented_public_class_and_method_flagged(self):
        src = """\
            class Widget:
                def spin(self):
                    return 1
            """
        findings = lint(src, "repro/obs/x.py", codes=["RL007"])
        assert codes_of(findings) == ["RL007", "RL007"]
        assert "Widget" in findings[0].message
        assert "spin" in findings[1].message

    def test_documented_surface_is_clean(self):
        src = '''\
            class Widget:
                """A widget."""

                def spin(self):
                    """Spin it."""
                    return 1


            def frobnicate(x):
                """Frobnicate ``x``."""
                return x
            '''
        assert lint(src, "repro/core/x.py", codes=["RL007"]) == []

    def test_blank_first_line_docstring_flagged(self):
        src = 'def f(x):\n    """\n    late summary\n    """\n    return x\n'
        assert codes_of(lint(src, "repro/core/x.py", codes=["RL007"])) == [
            "RL007"
        ]

    def test_private_names_and_nested_defs_skipped(self):
        src = """\
            def _helper(x):
                return x

            def outer():
                \"\"\"Documented.\"\"\"
                def inner():
                    return 1
                return inner
            """
        assert lint(src, "repro/core/x.py", codes=["RL007"]) == []

    def test_scope_covers_experiment_engine_only(self):
        src = "def frobnicate(x):\n    return x\n"
        flagged = lint(src, "repro/experiments/runner.py", codes=["RL007"])
        assert codes_of(flagged) == ["RL007"]
        # Other experiments modules (and e.g. netsim) are out of scope.
        assert lint(src, "repro/experiments/fig99.py", codes=["RL007"]) == []
        assert lint(src, "repro/netsim/x.py", codes=["RL007"]) == []

    def test_suppression_comment_silences(self):
        src = (
            "def frobnicate(x):  # repro-lint: disable=RL007\n"
            "    return x\n"
        )
        assert lint(src, "repro/core/x.py", codes=["RL007"]) == []


class TestSocketTimeoutRule:
    def test_untimed_recv_flagged(self):
        src = """\
            import socket
            def pull(sock):
                return sock.recv(4096)
            """
        findings = lint(src, "repro/service/x.py", codes=["RL012"])
        assert codes_of(findings) == ["RL012"]
        assert "recv" in findings[0].message

    @pytest.mark.parametrize("op", ["accept", "sendall"])
    def test_other_blocking_ops_flagged(self, op):
        src = f"def go(sock):\n    sock.{op}(b'x')\n"
        assert codes_of(
            lint(src, "repro/proto/x.py", codes=["RL012"])
        ) == ["RL012"]

    def test_connect_with_address_flagged(self):
        src = "def go(sock):\n    sock.connect(('h', 80))\n"
        assert codes_of(
            lint(src, "repro/service/x.py", codes=["RL012"])
        ) == ["RL012"]

    def test_no_arg_connect_not_a_socket(self):
        # Endpoint.connect() takes no address; socket.connect always does.
        src = "def go(endpoint):\n    return endpoint.connect()\n"
        assert lint(src, "repro/proto/x.py", codes=["RL012"]) == []

    def test_settimeout_anywhere_in_module_clears_receiver(self):
        src = """\
            def setup(sock, t):
                sock.settimeout(t)
            def pull(sock):
                return sock.recv(4096)
            """
        assert lint(src, "repro/service/x.py", codes=["RL012"]) == []

    def test_create_connection_without_timeout_flagged(self):
        src = """\
            import socket
            def dial(addr):
                return socket.create_connection(addr)
            """
        findings = lint(src, "repro/service/x.py", codes=["RL012"])
        assert codes_of(findings) == ["RL012"]
        assert "create_connection" in findings[0].message

    def test_create_connection_binding_makes_receiver_safe(self):
        src = """\
            import socket
            def dial(addr):
                sock = socket.create_connection(addr, timeout=5.0)
                sock.sendall(b"hi")
                return sock.recv(64)
            """
        assert lint(src, "repro/service/x.py", codes=["RL012"]) == []

    def test_timeout_kwarg_binding_makes_receiver_safe(self):
        src = """\
            def serve(pool):
                conn = pool.checkout(timeout=2.0)
                return conn.recv(64)
            """
        assert lint(src, "repro/proto/x.py", codes=["RL012"]) == []

    def test_with_as_binding_makes_receiver_safe(self):
        src = """\
            import socket
            def dial(addr):
                with socket.create_connection(addr, timeout=1.0) as sock:
                    sock.sendall(b"hi")
            """
        assert lint(src, "repro/service/x.py", codes=["RL012"]) == []

    def test_does_not_apply_outside_proto_and_service(self):
        src = "def go(sock):\n    return sock.recv(64)\n"
        assert lint(src, "repro/core/x.py", codes=["RL012"]) == []
        assert lint(src, "repro/netsim/x.py", codes=["RL012"]) == []

    def test_suppression_comment_silences(self):
        src = (
            "def go(sock):\n"
            "    return sock.recv(64)  # repro-lint: disable=RL012\n"
        )
        assert lint(src, "repro/service/x.py", codes=["RL012"]) == []


# ---------------------------------------------------------------------------
# Reporters and CLI
# ---------------------------------------------------------------------------


def _violating_file(tmp_path):
    bad = tmp_path / "repro" / "core" / "clocky.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import time\nt = time.time()\n", encoding="utf-8")
    return bad


class TestReporters:
    def test_text_report_lists_location_and_code(self, tmp_path):
        bad = _violating_file(tmp_path)
        run = lint_paths([str(bad)])
        text = render_text(run)
        assert f"{bad}:2:" in text
        assert "RL001" in text

    def test_json_report_is_machine_readable(self, tmp_path):
        bad = _violating_file(tmp_path)
        payload = json.loads(render_json(lint_paths([str(bad)])))
        assert payload["summary"]["files_checked"] == 1
        assert payload["summary"]["ok"] is False
        assert payload["findings"][0]["code"] == "RL001"

    def test_by_rule_histogram(self):
        run = LintRun(
            findings=[
                Finding("RL001", "m", "p.py", 1, 0),
                Finding("RL001", "m", "p.py", 2, 0),
                Finding("RL005", "m", "p.py", 3, 0),
            ],
            files_checked=1,
        )
        assert run.by_rule() == {"RL001": 2, "RL005": 1}
        assert not run.ok


class TestCli:
    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        clean = tmp_path / "ok.py"
        clean.write_text("x = 1\n", encoding="utf-8")
        assert lint_main([str(clean)]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_exit_one_on_findings(self, tmp_path, capsys):
        bad = _violating_file(tmp_path)
        assert lint_main([str(bad)]) == 1
        assert "RL001" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        bad = _violating_file(tmp_path)
        assert lint_main([str(bad), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"][0]["code"] == "RL001"

    def test_select_narrows_cli_run(self, tmp_path):
        bad = _violating_file(tmp_path)
        assert lint_main([str(bad), "--select", "RL002"]) == 0

    def test_ignore_drops_cli_rule(self, tmp_path):
        bad = _violating_file(tmp_path)
        assert lint_main([str(bad), "--ignore", "RL001"]) == 0

    def test_unknown_rule_is_usage_error(self, tmp_path, capsys):
        bad = _violating_file(tmp_path)
        assert lint_main([str(bad), "--select", "RL999"]) == 2

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("RL001", "RL002", "RL003", "RL004", "RL005", "RL006"):
            assert code in out

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        assert lint_main([str(tmp_path / "missing")]) == 2


class TestSuppressionAudit:
    """``--warn-unused-suppressions``: dead disable comments fail (RL099)."""

    def _dead_suppression_file(self, tmp_path, comment):
        source = f"x = 1  {comment}\n"
        path = tmp_path / "repro" / "core" / "quiet.py"
        path.parent.mkdir(parents=True)
        path.write_text(source, encoding="utf-8")
        return path

    def test_dead_coded_suppression_flagged(self, tmp_path):
        path = self._dead_suppression_file(
            tmp_path, "# repro-lint: disable=RL005"
        )
        run = lint_paths([str(path)], warn_unused_suppressions=True)
        assert [f.code for f in run.findings] == ["RL099"]
        assert "RL005" in run.findings[0].message

    def test_dead_blanket_suppression_flagged(self, tmp_path):
        # The blanket disable must not silence its own audit finding.
        path = self._dead_suppression_file(tmp_path, "# repro-lint: disable")
        run = lint_paths([str(path)], warn_unused_suppressions=True)
        assert [f.code for f in run.findings] == ["RL099"]

    def test_live_suppression_not_flagged(self, tmp_path):
        path = tmp_path / "repro" / "core" / "clocky.py"
        path.parent.mkdir(parents=True)
        path.write_text(
            "import time\n"
            "t = time.time()  # repro-lint: disable=RL001\n",
            encoding="utf-8",
        )
        run = lint_paths([str(path)], warn_unused_suppressions=True)
        assert run.findings == []

    def test_audit_off_by_default(self, tmp_path):
        path = self._dead_suppression_file(
            tmp_path, "# repro-lint: disable=RL005"
        )
        assert lint_paths([str(path)]).findings == []

    def test_coded_suppression_judged_only_for_selected_rules(
        self, tmp_path
    ):
        # A narrowed run cannot know whether an RL001 disable is live,
        # so it must not call it dead.
        path = self._dead_suppression_file(
            tmp_path, "# repro-lint: disable=RL001"
        )
        run = lint_paths(
            [str(path)],
            rules=select_rules(select=["RL005"]),
            warn_unused_suppressions=True,
        )
        assert run.findings == []

    def test_cli_flag_exits_one_on_dead_suppression(self, tmp_path, capsys):
        path = self._dead_suppression_file(
            tmp_path, "# repro-lint: disable=RL005"
        )
        assert lint_main([str(path), "--warn-unused-suppressions"]) == 1
        assert "RL099" in capsys.readouterr().out

    def test_src_tree_suppressions_all_live(self):
        # The audit the CI lint job runs: every justification comment in
        # the shipped tree still matches a finding.
        run = lint_paths(
            [str(REPO_ROOT / "src")], warn_unused_suppressions=True
        )
        assert [f.location() for f in run.findings] == []


class TestTimingPayload:
    def test_run_records_per_rule_timings(self, tmp_path):
        bad = _violating_file(tmp_path)
        run = lint_paths([str(bad)])
        assert run.duration_s > 0.0
        assert "RL001" in run.rule_timings
        # Project rules ran too: the shared graph build is timed.
        assert "project-graph" in run.rule_timings

    def test_json_payload_carries_timing_block(self, tmp_path):
        bad = _violating_file(tmp_path)
        payload = json.loads(render_json(lint_paths([str(bad)])))
        timing = payload["timing"]
        assert timing["duration_s"] >= 0.0
        assert set(timing["per_rule_s"]) == set(
            lint_paths([str(bad)]).rule_timings
        )


# ---------------------------------------------------------------------------
# The gate CI enforces: the shipped tree lints clean.
# ---------------------------------------------------------------------------


class TestCleanTreeGate:
    def test_src_tree_has_no_findings(self):
        run = lint_paths([str(REPO_ROOT / "src")])
        assert run.files_checked > 100
        offenders = [f.location() + " " + f.code for f in run.findings]
        assert offenders == []

    def test_test_code_lints_clean_on_portable_subset(self):
        # The CI lint job's second leg: tests/ and benchmarks/ under the
        # rules that transfer to test code (RL004/RL005/RL007).
        run = lint_paths(
            [str(REPO_ROOT / "tests"), str(REPO_ROOT / "benchmarks")],
            rules=select_rules(select=["RL004", "RL005", "RL007"]),
        )
        assert run.files_checked > 30
        assert [f.location() + " " + f.code for f in run.findings] == []

    def test_gate_catches_a_planted_violation(self, tmp_path):
        # The inverse control: the same gate fails when a violation
        # appears, so a green gate is evidence, not vacuity.
        planted = tmp_path / "repro" / "experiments" / "figz_planted.py"
        planted.parent.mkdir(parents=True)
        planted.write_text(
            "import time\n"
            "def run():\n"
            "    return time.time()\n",
            encoding="utf-8",
        )
        run = lint_paths([str(tmp_path)])
        codes = set(codes_of(run.findings))
        # RL001 (time.time) and RL003 (no @experiment) both fire.
        assert {"RL001", "RL003"} <= codes
