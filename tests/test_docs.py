"""Docs stay truthful: links resolve, schema tables don't drift."""

import re
from pathlib import Path

import pytest

from repro.obs import schema

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Markdown files whose intra-repo links must resolve.
DOC_FILES = sorted(
    [REPO_ROOT / "README.md", *(REPO_ROOT / "docs").rglob("*.md")]
)

#: ``[text](target)`` links, excluding images (negative lookbehind).
_LINK = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")


def _intra_repo_links(path):
    """Every relative link target in ``path``, with anchors stripped."""
    text = path.read_text(encoding="utf-8")
    for match in _LINK.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        target = target.split("#", 1)[0]
        if target:  # pure-anchor links point within the same file
            yield target


@pytest.mark.parametrize(
    "doc", DOC_FILES, ids=[p.name for p in DOC_FILES]
)
def test_intra_repo_links_resolve(doc):
    broken = [
        target
        for target in _intra_repo_links(doc)
        if not (doc.parent / target).resolve().exists()
    ]
    assert not broken, f"{doc.name}: broken links {broken}"


class TestTraceSchemaDoc:
    @pytest.fixture(scope="class")
    def doc(self):
        return (REPO_ROOT / "docs" / "TRACE_SCHEMA.md").read_text(
            encoding="utf-8"
        )

    def test_tables_match_generated(self, doc):
        """The embedded catalogue is byte-for-byte the generated one."""
        assert schema.markdown_tables().strip() in doc

    def test_every_event_documented(self, doc):
        for name in schema.EVENTS:
            assert f"`{name}`" in doc, f"event {name} missing"

    def test_every_metric_documented(self, doc):
        for name in schema.METRICS:
            assert f"`{name}`" in doc, f"metric {name} missing"

    def test_states_current_schema_version(self, doc):
        assert f"**{schema.SCHEMA_VERSION}**" in doc


class TestLintCatalogueDoc:
    @pytest.fixture(scope="class")
    def readme(self):
        return (REPO_ROOT / "README.md").read_text(encoding="utf-8")

    def test_rule_table_matches_generated(self, readme):
        """The README's rule catalogue is byte-for-byte the generated one.

        Same pattern as the trace-schema tables: a new rule, a changed
        scope or a new suppression regenerates the table, and this pin
        forces the README to follow.
        """
        from repro.lint.catalogue import count_suppressions, rule_table

        table = rule_table(
            count_suppressions([str(REPO_ROOT / "src")])
        )
        assert table in readme

    def test_every_rule_code_documented(self, readme):
        from repro.lint.core import all_rules

        for registered in all_rules():
            assert registered.code in readme


class TestExperimentCatalogueDoc:
    def test_matches_generated(self):
        """The committed catalogue is byte-for-byte the generated one.

        Same pattern as the trace-schema tables: registering, renaming
        or re-parameterising an experiment regenerates the document,
        and this pin forces the committed file to follow.
        """
        from repro.experiments.catalogue import catalog_markdown

        committed = (
            REPO_ROOT / "docs" / "EXPERIMENTS_CATALOG.md"
        ).read_text(encoding="utf-8")
        assert committed == catalog_markdown()

    def test_every_experiment_documented(self):
        from repro.experiments import registry

        committed = (
            REPO_ROOT / "docs" / "EXPERIMENTS_CATALOG.md"
        ).read_text(encoding="utf-8")
        for spec in registry.all_experiments():
            assert f"`{spec.id}`" in committed


class TestCliDoc:
    def test_matches_generated(self):
        """The committed CLI reference is byte-for-byte the generated one.

        A new flag, subcommand or help string regenerates the document,
        and this pin forces the committed file to follow.
        """
        from repro.clidocs import cli_markdown

        committed = (REPO_ROOT / "docs" / "CLI.md").read_text(
            encoding="utf-8"
        )
        assert committed == cli_markdown()

    def test_every_console_script_documented(self):
        """Every [project.scripts] entry has a section in docs/CLI.md."""
        from repro.clidocs import ENTRY_POINTS

        pyproject = (REPO_ROOT / "pyproject.toml").read_text(
            encoding="utf-8"
        )
        committed = (REPO_ROOT / "docs" / "CLI.md").read_text(
            encoding="utf-8"
        )
        section = re.search(
            r"\[project\.scripts\]\n(.*?)(?:\n\[|\Z)",
            pyproject,
            flags=re.DOTALL,
        )
        assert section, "no [project.scripts] section found"
        scripts = re.findall(
            r"^(\S+)\s*=", section.group(1), flags=re.MULTILINE
        )
        assert scripts, "no [project.scripts] entries found"
        documented = {script for script, _ in ENTRY_POINTS}
        for script in scripts:
            assert script in documented, f"{script} not in ENTRY_POINTS"
            assert f"`{script}`" in committed


class TestArchitectureDoc:
    @pytest.fixture(scope="class")
    def doc(self):
        return (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text(
            encoding="utf-8"
        )

    def test_covers_every_package(self, doc):
        packages = sorted(
            child.name
            for child in (REPO_ROOT / "src" / "repro").iterdir()
            if child.is_dir() and (child / "__init__.py").exists()
        )
        missing = [name for name in packages if f"{name}/" not in doc]
        assert not missing, f"packages undocumented: {missing}"

    def test_names_the_four_policies(self, doc):
        for policy in ("GRD", "RR", "MIN", "DLN"):
            assert policy in doc
