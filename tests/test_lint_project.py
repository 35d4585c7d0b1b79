"""Project-level lint: the graph builder and the RL008-RL011 rules.

The graph machinery (symbol table, call graph) is tested directly on
hand-built :class:`ModuleInfo` sets; each cross-module rule gets a
planted multi-module violation plus an inverse control proving the
clean variant stays silent. Everything runs through ``lint_sources`` —
the in-memory entry point the engine itself uses — so the fixtures
exercise the same path CI does.
"""

import ast
import textwrap

from repro.lint import lint_sources, select_rules
from repro.lint.graph import ModuleInfo, SymbolTable, module_name_from_rel_parts
from repro.lint.project import ProjectContext


def module_of(name, source):
    """A ModuleInfo parsed from dedented ``source``."""
    path = "src/" + name.replace(".", "/") + ".py"
    return ModuleInfo(name=name, path=path, tree=ast.parse(textwrap.dedent(source)))


def project_of(**sources):
    """A ProjectContext over modules given as ``dotted_name=source``."""
    return ProjectContext(
        [module_of(name, src) for name, src in sources.items()]
    )


def run_rule(code, files):
    """Lint dedented in-memory ``files`` under the single rule ``code``."""
    dedented = {path: textwrap.dedent(src) for path, src in files.items()}
    return lint_sources(dedented, rules=select_rules(select=[code]))


def codes_of(run):
    return [finding.code for finding in run.findings]


# ---------------------------------------------------------------------------
# Module names and symbol resolution
# ---------------------------------------------------------------------------


class TestModuleNames:
    def test_plain_module(self):
        assert (
            module_name_from_rel_parts(("core", "permits.py"))
            == "repro.core.permits"
        )

    def test_package_init(self):
        assert (
            module_name_from_rel_parts(("core", "__init__.py"))
            == "repro.core"
        )

    def test_outside_repro_tree(self):
        assert module_name_from_rel_parts(()) == ""


class TestSymbolTable:
    def test_aliased_symbol_import_resolves(self):
        lib = module_of(
            "repro.util.rng",
            """
            class RngFactory:
                def derive(self, label):
                    return label
            """,
        )
        user = module_of(
            "repro.core.session",
            "from repro.util.rng import RngFactory as RF\n",
        )
        table = SymbolTable({m.name: m for m in (lib, user)})
        kind, info = table.resolve(user, "RF")
        assert kind == "class"
        assert info.qualname == "repro.util.rng.RngFactory"

    def test_aliased_module_import_resolves(self):
        lib = module_of("repro.util.units", "MB = 1000000\n")
        user = module_of(
            "repro.core.session", "import repro.util.units as units\n"
        )
        table = SymbolTable({m.name: m for m in (lib, user)})
        assert table.resolve(user, "units") == (
            "module",
            "repro.util.units",
        )

    def test_reexport_chain_followed(self):
        # core/__init__ re-exports a class from a submodule; a third
        # module imports it from the package and must land on the class.
        impl = module_of(
            "repro.core.captracker",
            """
            class CapTracker:
                pass
            """,
        )
        package = module_of(
            "repro.core", "from repro.core.captracker import CapTracker\n"
        )
        user = module_of(
            "repro.experiments.figx",
            "from repro.core import CapTracker\n",
        )
        table = SymbolTable({m.name: m for m in (impl, package, user)})
        kind, info = table.resolve(user, "CapTracker")
        assert kind == "class"
        assert info.qualname == "repro.core.captracker.CapTracker"

    def test_star_import_resolves_public_names_only(self):
        lib = module_of(
            "repro.util.helpers",
            """
            def visible():
                pass

            def _hidden():
                pass
            """,
        )
        user = module_of(
            "repro.core.session", "from repro.util.helpers import *\n"
        )
        table = SymbolTable({m.name: m for m in (lib, user)})
        kind, info = table.resolve(user, "visible")
        assert kind == "function"
        assert info.qualname == "repro.util.helpers.visible"
        assert table.resolve(user, "_hidden") is None

    def test_import_cycle_is_resolved_without_recursion(self):
        # a re-exports from b, b re-exports from a: resolution of a name
        # neither defines must terminate and return None.
        a = module_of("repro.core.a", "from repro.core.b import thing\n")
        b = module_of("repro.core.b", "from repro.core.a import thing\n")
        table = SymbolTable({m.name: m for m in (a, b)})
        assert table.resolve(a, "thing") is None

    def test_unresolvable_internal_name_is_none(self):
        user = module_of(
            "repro.core.session", "from repro.core.missing import gone\n"
        )
        table = SymbolTable({user.name: user})
        assert table.resolve(user, "gone") is None

    def test_stdlib_dotted_path_kept_for_pattern_matching(self):
        user = module_of("repro.core.session", "from random import Random\n")
        table = SymbolTable({user.name: user})
        assert table.resolve(user, "Random") == ("module", "random.Random")


# ---------------------------------------------------------------------------
# Call graph construction
# ---------------------------------------------------------------------------


class TestCallGraph:
    def test_cross_module_edge_recorded(self):
        project = project_of(**{
            "repro.proto.helpers": """
                def scale(value):
                    return value * 2
                """,
            "repro.proto.httpwire": """
                from repro.proto.helpers import scale

                def parse_head(data):
                    return scale(len(data))
                """,
        })
        callers = project.call_graph.callers_of("repro.proto.helpers.scale")
        assert [site.caller for site in callers] == [
            "repro.proto.httpwire.parse_head"
        ]

    def test_method_call_on_constructed_instance_resolved(self):
        project = project_of(**{
            "repro.core.captracker": """
                class CapTracker:
                    def record_usage(self, n):
                        self._used = n
                """,
            "repro.core.session": """
                from repro.core.captracker import CapTracker

                def run():
                    tracker = CapTracker()
                    tracker.record_usage(5)
                """,
        })
        callers = project.call_graph.callers_of(
            "repro.core.captracker.CapTracker.record_usage"
        )
        assert [site.caller for site in callers] == [
            "repro.core.session.run"
        ]

    def test_recursive_functions_do_not_hang_escape_analysis(self):
        project = project_of(**{
            "repro.proto.looper": """
                def parse_a(data):
                    if data:
                        return parse_b(data[1:])
                    raise ValueError("empty")

                def parse_b(data):
                    return parse_a(data)
                """,
        })
        escaped = project.escapes("repro.proto.looper.parse_a")
        assert "ValueError" in escaped

    def test_non_repro_files_excluded_from_project(self):
        run = lint_sources(
            {
                "tests/test_x.py": "import os\n",
                "src/repro/core/ok.py": "x = 1\n",
            }
        )
        assert run.files_checked == 2


# ---------------------------------------------------------------------------
# RL008 — seed provenance
# ---------------------------------------------------------------------------


class TestSeedProvenanceRule:
    def test_unseeded_rng_laundered_through_helper_flagged(self):
        # The RL001 blind spot: the construction site *looks* seeded,
        # the call site passes nothing, and the default is None.
        run = run_rule("RL008", {
            "src/repro/core/helpers.py": """
                from numpy.random import default_rng

                def make_rng(seed=None):
                    return default_rng(seed)
                """,
            "src/repro/experiments/figx.py": """
                from repro.core.helpers import make_rng

                def run():
                    return make_rng()
                """,
        })
        assert codes_of(run) == ["RL008"]
        assert run.findings[0].path.endswith("figx.py")

    def test_directly_unseeded_construction_flagged(self):
        run = run_rule("RL008", {
            "src/repro/core/direct.py": """
                from numpy.random import default_rng

                def fresh():
                    return default_rng()
                """,
        })
        assert codes_of(run) == ["RL008"]

    def test_seed_derived_from_rng_factory_is_clean(self):
        # Inverse control: the same helper fed a derived seed.
        run = run_rule("RL008", {
            "src/repro/core/helpers.py": """
                from numpy.random import default_rng

                def make_rng(seed=None):
                    return default_rng(seed)
                """,
            "src/repro/experiments/figx.py": """
                from repro.core.helpers import make_rng
                from repro.util.rng import RngFactory

                def run():
                    factory = RngFactory(123)
                    return make_rng(factory.derive_seed("figx"))
                """,
        })
        assert codes_of(run) == []

    def test_literal_seed_is_clean(self):
        run = run_rule("RL008", {
            "src/repro/core/direct.py": """
                from numpy.random import default_rng

                def fresh():
                    return default_rng(42)
                """,
        })
        assert codes_of(run) == []

    def test_each_unseeded_plant_reported_once(self):
        # RL001 and RL008 overlap on RNG constructors: across both
        # rules, every plant is exactly one finding.
        sources = {
            "src/repro/netsim/wifi.py": textwrap.dedent("""\
                import random

                import numpy as np

                def plants(xs):
                    a = np.random.default_rng()
                    b = random.Random()
                    c = random.choice(xs)
                    return a, b, c
                """),
        }
        run = lint_sources(
            sources, rules=select_rules(select=["RL001", "RL008"])
        )
        assert sorted((f.line, f.code) for f in run.findings) == [
            (6, "RL008"), (7, "RL008"), (8, "RL001"),
        ]

    def test_blessed_root_module_exempt(self):
        # util/rng.py IS the seeded root; it may touch raw constructors.
        run = run_rule("RL008", {
            "src/repro/util/rng.py": """
                from numpy.random import default_rng

                def spawn():
                    return default_rng()
                """,
        })
        assert codes_of(run) == []


# ---------------------------------------------------------------------------
# RL009 — obs emit sites match the schema catalogue
# ---------------------------------------------------------------------------

_SCHEMA_FIXTURE = """
    EVENTS = {
        "permit.grant": ("device",),
    }
    METRICS = {
        "bytes.cell": {"unit": "bytes", "labels": ("path",)},
    }
    """


class TestObsSchemaSiteRule:
    def test_unknown_event_name_flagged(self):
        run = run_rule("RL009", {
            "src/repro/obs/schema.py": _SCHEMA_FIXTURE,
            "src/repro/core/permits.py": """
                def grant(obs):
                    obs.event("permit.grnat", device="phone-0")
                """,
        })
        assert codes_of(run) == ["RL009"]
        assert "permit.grnat" in run.findings[0].message

    def test_unknown_event_field_flagged(self):
        run = run_rule("RL009", {
            "src/repro/obs/schema.py": _SCHEMA_FIXTURE,
            "src/repro/core/permits.py": """
                def grant(obs):
                    obs.event("permit.grant", device="phone-0", cell=3)
                """,
        })
        assert codes_of(run) == ["RL009"]
        assert "'cell'" in run.findings[0].message

    def test_unknown_metric_label_flagged(self):
        run = run_rule("RL009", {
            "src/repro/obs/schema.py": _SCHEMA_FIXTURE,
            "src/repro/core/meter.py": """
                def meter(obs):
                    obs.count("bytes.cell", amount=10, device="p0")
                """,
        })
        assert codes_of(run) == ["RL009"]

    def test_catalogued_site_is_clean(self):
        # Inverse control: same sites, catalogued vocabulary only. The
        # reserved signature kwargs (time/amount/value) never count as
        # schema fields.
        run = run_rule("RL009", {
            "src/repro/obs/schema.py": _SCHEMA_FIXTURE,
            "src/repro/core/permits.py": """
                def grant(obs):
                    obs.event("permit.grant", device="phone-0", time=1.0)
                    obs.count("bytes.cell", amount=10, path="dsl")
                """,
        })
        assert codes_of(run) == []

    def test_dynamic_name_and_star_kwargs_not_guessed(self):
        run = run_rule("RL009", {
            "src/repro/obs/schema.py": _SCHEMA_FIXTURE,
            "src/repro/core/permits.py": """
                def grant(obs, name, fields):
                    obs.event(name, device="phone-0")
                    obs.event("permit.grant", **fields)
                """,
        })
        assert codes_of(run) == []


# ---------------------------------------------------------------------------
# RL010 — authority discipline
# ---------------------------------------------------------------------------

_CAPTRACKER_FIXTURE = """
    class CapTracker:
        def __init__(self, budget):
            self._used = 0.0
            self.budget = budget

        def record_usage(self, nbytes):
            self._used += nbytes

        def remaining(self):
            return self.budget - self._used
    """


class TestAuthorityDisciplineRule:
    def test_mutation_from_experiment_module_flagged(self):
        run = run_rule("RL010", {
            "src/repro/core/captracker.py": _CAPTRACKER_FIXTURE,
            "src/repro/experiments/figx.py": """
                from repro.core.captracker import CapTracker

                def run(tracker: CapTracker):
                    tracker.record_usage(5)
                """,
        })
        assert codes_of(run) == ["RL010"]
        assert "record_usage" in run.findings[0].message

    def test_guard_layer_may_mutate(self):
        # Inverse control: the identical call from core/resilience.py.
        run = run_rule("RL010", {
            "src/repro/core/captracker.py": _CAPTRACKER_FIXTURE,
            "src/repro/core/resilience.py": """
                from repro.core.captracker import CapTracker

                def meter(tracker: CapTracker):
                    tracker.record_usage(5)
                """,
        })
        assert codes_of(run) == []

    def test_read_path_callable_from_anywhere(self):
        run = run_rule("RL010", {
            "src/repro/core/captracker.py": _CAPTRACKER_FIXTURE,
            "src/repro/experiments/figx.py": """
                from repro.core.captracker import CapTracker

                def run(tracker: CapTracker):
                    return tracker.remaining()
                """,
        })
        assert codes_of(run) == []

    def test_own_methods_may_mutate(self):
        run = run_rule("RL010", {
            "src/repro/core/captracker.py": """
                class CapTracker:
                    def __init__(self):
                        self._used = 0.0

                    def record_usage(self, nbytes):
                        self._used += nbytes

                    def record_both(self, down, up):
                        self.record_usage(down)
                        self.record_usage(up)
                """,
        })
        assert codes_of(run) == []


# ---------------------------------------------------------------------------
# RL011 — exception escape across call boundaries
# ---------------------------------------------------------------------------


class TestExceptionEscapeRule:
    def test_data_error_two_calls_down_flagged_at_raise_site(self):
        run = run_rule("RL011", {
            "src/repro/proto/helpers.py": """
                def scale(value):
                    if value < 0:
                        raise ValueError("negative")
                    return value * 2
                """,
            "src/repro/proto/httpwire.py": """
                from repro.proto.helpers import scale

                def parse_head(data):
                    return scale(len(data))
                """,
        })
        assert codes_of(run) == ["RL011"]
        finding = run.findings[0]
        assert finding.path.endswith("helpers.py")
        assert "parse_head" in finding.message

    def test_caught_on_the_way_out_is_clean(self):
        # Inverse control: the entry point catches the helper's raise.
        run = run_rule("RL011", {
            "src/repro/proto/helpers.py": """
                def scale(value):
                    if value < 0:
                        raise ValueError("negative")
                    return value * 2
                """,
            "src/repro/proto/httpwire.py": """
                from repro.proto.helpers import scale

                def parse_head(data):
                    try:
                        return scale(len(data))
                    except ValueError:
                        return 0
                """,
        })
        assert codes_of(run) == []

    def test_taxonomy_raise_is_clean(self):
        run = run_rule("RL011", {
            "src/repro/proto/helpers.py": """
                from repro.proto.errors import FramingError

                def scale(value):
                    if value < 0:
                        raise FramingError("negative")
                    return value * 2
                """,
            "src/repro/proto/httpwire.py": """
                from repro.proto.helpers import scale

                def parse_head(data):
                    return scale(len(data))
                """,
        })
        assert codes_of(run) == []

    def test_direct_raise_left_to_rl006(self):
        # Chain length 1 is the per-module rule's finding, not RL011's.
        run = run_rule("RL011", {
            "src/repro/proto/httpwire.py": """
                def parse_head(data):
                    raise ValueError("bad")
                """,
        })
        assert codes_of(run) == []

    def test_non_parse_entry_points_exempt(self):
        run = run_rule("RL011", {
            "src/repro/proto/helpers.py": """
                def scale(value):
                    raise ValueError("negative")
                """,
            "src/repro/proto/httpwire.py": """
                from repro.proto.helpers import scale

                def render_head(data):
                    return scale(len(data))
                """,
        })
        assert codes_of(run) == []

    def test_escape_through_three_frames(self):
        run = run_rule("RL011", {
            "src/repro/web/fields.py": """
                def _to_int(text):
                    if not text.isdigit():
                        raise KeyError(text)
                    return int(text)
                """,
            "src/repro/web/lines.py": """
                from repro.web.fields import _to_int

                def _read_line(line):
                    return _to_int(line.strip())
                """,
            "src/repro/web/playlist.py": """
                from repro.web.lines import _read_line

                def parse_playlist(text):
                    return [_read_line(line) for line in text.split()]
                """,
        })
        assert codes_of(run) == ["RL011"]
        assert run.findings[0].path.endswith("fields.py")
