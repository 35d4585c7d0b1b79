"""The cross-module rules: RL008-RL011.

These run on the :class:`~repro.lint.project.ProjectContext` — the
whole-tree symbol table, call graph and function summaries — instead of
one module's AST, so they can see what the per-module rules (RL001-
RL007) structurally cannot: an unseeded value laundered through a
helper, an event name the obs catalogue never defined, an authority
mutation from outside the guard layer, a ``ValueError`` escaping a
parse path two calls down.

The same design principle applies as in :mod:`repro.lint.rules`, only
more so: cross-module inference is approximate, and a project rule that
cries wolf gets disabled. Every analysis here degrades to silence when
it cannot *prove* a violation — unresolved callees, unknown receiver
types and opaque seed expressions all read as clean.
"""

from __future__ import annotations

from typing import Iterator, Set, Tuple

from repro.lint.core import Finding, ProjectRule, rule
from repro.lint.project import EscapedRaise, ProjectContext, Provenance
from repro.lint.rules import PROTOCOL_ERROR_NAMES, is_parse_path

# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _finding(
    project: ProjectContext,
    code: str,
    message: str,
    qualname: str,
    node: object,
) -> Finding:
    """A finding anchored at ``node`` inside the module owning ``qualname``."""
    return Finding(
        code=code,
        message=message,
        path=project.path_of(qualname),
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0),
    )


def _package_of(module: str) -> str:
    """Top-level repro package of a dotted module name (``""`` if none)."""
    parts = module.split(".")
    return parts[1] if len(parts) > 1 else ""


def _short_chain(chain: Tuple[str, ...]) -> str:
    """Readable call chain: bare function names joined with arrows."""
    return " -> ".join(name.rsplit(".", 1)[-1] for name in chain)


# ---------------------------------------------------------------------------
# RL008 — seed provenance
# ---------------------------------------------------------------------------

#: The one module allowed to construct RNGs from raw material: it IS
#: the seeded root everything else derives from.
_BLESSED_RNG_MODULES = frozenset({"repro.util.rng"})


@rule
class SeedProvenanceRule(ProjectRule):
    """Every RNG must trace back to a seeded RngFactory root."""

    code = "RL008"
    title = "RNG seeds must derive from a seeded RngFactory root"
    rationale = (
        "An unseeded default_rng() spelled inline is easy to see, but "
        "not one laundered through a helper — `make_rng(seed=None)` looks "
        "seeded at the construction site and is OS entropy at the call "
        "site. Tracing provenance through the call graph closes that "
        "hole: a seed is either a literal, an RngFactory derivation, or "
        "an obligation pushed to the callers until one of those proves "
        "it (or provably fails to)."
    )
    scope = "src/repro (all packages except util/rng.py, the root)"

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        """Flag RNG constructions whose seed is provably unseeded."""
        for qualname, summary in sorted(project.summaries.items()):
            if summary.info.module in _BLESSED_RNG_MODULES:
                continue
            if _package_of(summary.info.module) == "lint":
                continue
            for site in summary.rng_sites:
                provenance = site.provenance
                if provenance.kind == "unseeded":
                    yield _finding(
                        project,
                        self.code,
                        f"{site.kind}(...) here is constructed from "
                        "provably unseeded input (missing/None seed); "
                        "derive the seed from a RngFactory stream "
                        "(repro.util.rng)",
                        qualname,
                        site.node,
                    )
                elif provenance.kind == "param":
                    yield from self._check_obligation(
                        project,
                        qualname,
                        provenance.param,
                        rng_kind=site.kind,
                        visited=set(),
                        depth=0,
                    )

    def _check_obligation(
        self,
        project: ProjectContext,
        qualname: str,
        param: str,
        rng_kind: str,
        visited: Set[Tuple[str, str]],
        depth: int,
    ) -> Iterator[Finding]:
        # The seed flows in through ``param`` of ``qualname``: every
        # caller must pass something seeded. Obligations chain upward
        # until proven, refuted, or lost to an unresolvable edge.
        if depth > 4 or (qualname, param) in visited:
            return
        visited.add((qualname, param))
        target = qualname
        if param.startswith("__ctor__:"):
            # ``self.seed`` came from the constructor: the obligation
            # sits on the owning class's __init__ callers.
            param = param.split(":", 1)[1]
            info = project.function_by_qualname.get(qualname)
            if info is None or not info.class_qualname:
                return
            target = f"{info.class_qualname}.__init__"
            if target not in project.function_by_qualname:
                return
        for site in project.call_graph.callers_of(target):
            provenance, expr = project.argument_provenance(site, param)
            if provenance.kind == "unseeded":
                callee_name = target.rsplit(".", 2)[-1]
                yield _finding(
                    project,
                    self.code,
                    f"this call passes an unseeded value for parameter "
                    f"{param!r} of {callee_name!r}, which uses it to "
                    f"seed a {rng_kind}; derive it from a RngFactory "
                    "stream (repro.util.rng)",
                    site.caller,
                    expr if expr is not None else site.node,
                )
            elif provenance.kind == "param":
                yield from self._check_obligation(
                    project,
                    site.caller,
                    provenance.param,
                    rng_kind,
                    visited,
                    depth + 1,
                )


# ---------------------------------------------------------------------------
# RL009 — obs emit sites match the schema catalogue
# ---------------------------------------------------------------------------

#: Emit-method kwargs owned by the Instrumentation signature itself,
#: not the event/metric schema.
_RESERVED_EMIT_KWARGS = frozenset({"time", "amount", "value"})


@rule
class ObsSchemaSiteRule(ProjectRule):
    """Emit sites may only use names and keys the obs schema defines."""

    code = "RL009"
    title = "instrumentation sites must emit catalogued names and fields"
    rationale = (
        "The Instrumentation facade validates names at runtime — but "
        "only on code paths a test actually drives with capture on. A "
        "typo'd event name or field key on a rare branch (fault "
        "recovery, permit revocation) raises in production instead of "
        "CI. Checking every literal emit site against obs/schema.py "
        "moves that failure to lint time."
    )
    scope = "src/repro (every Instrumentation call site)"

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        """Validate every statically-known emit site against the schema."""
        catalogue = project.obs_catalogue
        if catalogue is None:
            return
        for qualname, summary in sorted(project.summaries.items()):
            if _package_of(summary.info.module) == "lint":
                continue
            for site in summary.emit_sites:
                if site.name is None:
                    continue
                if site.method == "event":
                    known = catalogue.events
                    kind = "event"
                else:
                    known = catalogue.metrics
                    kind = "metric"
                allowed = known.get(site.name)
                if allowed is None:
                    yield _finding(
                        project,
                        self.code,
                        f"obs.{site.method}() emits {kind} name "
                        f"{site.name!r}, which obs/schema.py does not "
                        "define; add it to the catalogue or fix the typo",
                        qualname,
                        site.node,
                    )
                    continue
                if site.has_star_kwargs:
                    continue
                for keyword in site.keywords:
                    if keyword in _RESERVED_EMIT_KWARGS:
                        continue
                    if keyword not in allowed:
                        label = (
                            "field" if site.method == "event" else "label"
                        )
                        yield _finding(
                            project,
                            self.code,
                            f"obs.{site.method}({site.name!r}, ...) "
                            f"passes {label} {keyword!r}, which the "
                            f"schema for this {kind} does not define "
                            f"(allowed: {', '.join(sorted(allowed)) or 'none'})",
                            qualname,
                            site.node,
                        )


# ---------------------------------------------------------------------------
# RL010 — authority discipline
# ---------------------------------------------------------------------------

#: The classes whose state *is* the paper's authority model.
_AUTHORITY_CLASSES = ("CapTracker", "PermitServer")

#: Modules allowed to mutate authority state: the guard layer that owns
#: the invariants, the component wiring that constructs/binds them, and
#: the hunt executor that drives authority knobs as scenario inputs.
_AUTHORITY_ALLOWED_MODULES = frozenset(
    {
        "repro.core.resilience",
        "repro.core.mobile",
        "repro.hunt.run",
    }
)


@rule
class AuthorityDisciplineRule(ProjectRule):
    """Authority state changes only through the guard layer."""

    code = "RL010"
    title = "CapTracker/PermitServer mutations belong to the guard layer"
    rationale = (
        "The hunt's authority oracle catches a rogue cap/permit "
        "mutation at runtime — after it corrupted a campaign. The "
        "static twin: any call to a state-mutating method of "
        "CapTracker/PermitServer from outside core/resilience.py (and "
        "the allowlisted wiring) is flagged before it runs. Read paths "
        "(may_advertise, has_valid_permit) stay callable from anywhere."
    )
    scope = "src/repro (callers of CapTracker/PermitServer mutators)"

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        """Flag authority-mutator calls from outside the allowlist."""
        for class_name in _AUTHORITY_CLASSES:
            info = project.symbols.find_class(class_name)
            if info is None:
                continue
            allowed = _AUTHORITY_ALLOWED_MODULES | {info.module}
            mutators = project.mutating_methods(info)
            for method_name in sorted(mutators):
                qualname = f"{info.qualname}.{method_name}"
                for site in project.call_graph.callers_of(qualname):
                    caller = project.function_by_qualname.get(site.caller)
                    if caller is None:
                        summary = project.summaries.get(site.caller)
                        caller = (
                            summary.info if summary is not None else None
                        )
                    if caller is None:
                        continue
                    if caller.class_qualname == info.qualname:
                        continue  # the class's own methods may mutate
                    if caller.module in allowed:
                        continue
                    yield _finding(
                        project,
                        self.code,
                        f"{class_name}.{method_name}() mutates authority "
                        f"state and may only be called from the guard "
                        "layer (core/resilience.py and the allowlisted "
                        f"wiring), not from {caller.module}",
                        site.caller,
                        site.node,
                    )


# ---------------------------------------------------------------------------
# RL011 — exception escape across call boundaries
# ---------------------------------------------------------------------------

#: Data-dependent exception types hostile input can trigger. Escapes of
#: these through a parse path are the bug class RL006 cannot see;
#: programming-error types (TypeError, AssertionError) stay exempt.
_DATA_ERROR_NAMES = frozenset(
    {
        "ValueError",
        "KeyError",
        "IndexError",
        "LookupError",
        "UnicodeDecodeError",
        "OverflowError",
        "ZeroDivisionError",
        "ArithmeticError",
    }
)


@rule
class ExceptionEscapeRule(ProjectRule):
    """Parse paths leak only ProtocolError, proven through the call graph."""

    code = "RL011"
    title = "only ProtocolError may escape wire parse paths, transitively"
    rationale = (
        "RL006 checks the raises a parse function spells out itself; a "
        "helper two calls down raising ValueError on hostile bytes "
        "still escapes every `except ProtocolError` and takes the "
        "proxy down. The call-graph escape analysis proves confinement "
        "across boundaries: an exception is clean only if some handler "
        "on the path actually catches it."
    )
    scope = "src/repro/proto, src/repro/web (parse/decode/read/recv/check)"

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        """Flag data errors that propagate uncaught out of parse paths."""
        seen: Set[Tuple[str, int, str]] = set()
        for qualname, summary in sorted(project.summaries.items()):
            if _package_of(summary.info.module) not in ("proto", "web"):
                continue
            if not is_parse_path(summary.info.name):
                continue
            for name, escaped in sorted(project.escapes(qualname).items()):
                finding = self._judge(project, qualname, name, escaped, seen)
                if finding is not None:
                    yield finding

    def _judge(
        self,
        project: ProjectContext,
        entry: str,
        name: str,
        escaped: EscapedRaise,
        seen: Set[Tuple[str, int, str]],
    ) -> "Finding | None":
        if len(escaped.chain) < 2:
            return None  # direct raises are RL006's finding, not ours
        if name in PROTOCOL_ERROR_NAMES:
            return None
        ancestors = project.exception_ancestors(name)
        if "ProtocolError" in ancestors:
            return None
        project_class = project.symbols.find_class(name)
        is_data_error = name in _DATA_ERROR_NAMES or bool(
            _DATA_ERROR_NAMES & ancestors
        )
        is_project_exception = project_class is not None and (
            name.endswith(("Error", "Exception"))
            or "Exception" in ancestors
        )
        if not is_data_error and not is_project_exception:
            return None
        origin_path = project.path_of(escaped.origin)
        key = (origin_path, getattr(escaped.site.node, "lineno", 1), name)
        if key in seen:
            return None
        seen.add(key)
        entry_name = entry.rsplit(".", 1)[-1]
        return _finding(
            project,
            self.code,
            f"{name} raised here escapes the parse path "
            f"{entry_name!r} (via {_short_chain(escaped.chain)}); wrap "
            "it in a ProtocolError subclass (repro.proto.errors) or "
            "catch it on the way out",
            escaped.origin,
            escaped.site.node,
        )
