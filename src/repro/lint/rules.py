"""The domain rules: RL001-RL005, RL007 and RL012.

Each rule encodes one convention the reproduction's correctness rests
on. They are deliberately narrow: a rule that cries wolf gets disabled,
so every check is scoped to the packages where the invariant actually
matters and the heuristics prefer missing a violation over flagging
idiomatic code. Suppress a justified exception inline with
``# repro-lint: disable=<code>``.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.core import Finding, ModuleContext, Rule, rule

# ---------------------------------------------------------------------------
# Shared AST helpers
# ---------------------------------------------------------------------------


def dotted_name(node: ast.AST) -> str:
    """``a.b.c`` for a Name/Attribute chain, ``""`` otherwise."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def terminal_identifier(node: ast.AST) -> str:
    """The final identifier of a Name/Attribute (``a.b.c`` -> ``c``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def identifiers_in(node: ast.AST) -> Iterator[str]:
    """Every Name id and Attribute attr inside ``node``."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr


def _in_packages(
    context: ModuleContext, packages: Sequence[str]
) -> bool:
    """Whether the module lives under one of ``packages`` (repro-relative).

    Fixtures with synthetic paths (``repro/core/x.py``) scope the same
    way as real files because :func:`repro_relative_parts` keys off the
    last ``repro`` directory in the path.
    """
    parts = context.rel_parts
    return bool(parts) and parts[0] in packages


# ---------------------------------------------------------------------------
# RL001 — determinism
# ---------------------------------------------------------------------------

#: Packages whose code feeds simulated results and must be replayable.
_DETERMINISM_PACKAGES = (
    "core",
    "netsim",
    "traces",
    "pilot",
    "experiments",
    # bench measures wall-clock on purpose — but only via perf_counter,
    # which RL001 permits; time.time()/random.* are still banned there.
    "bench",
    # hunt promises seed-reproducible scenario generation, mutation and
    # minimization — the corpus is only replayable if that holds.
    "hunt",
    # fleet promises byte-identical merges at any shard count;
    # its only entropy is the seed-derived population stream.
    "fleet",
)

#: ``datetime``-ish attributes that read the wall clock.
_WALL_CLOCK_ATTRS = frozenset({"now", "utcnow", "today"})

#: RNG constructors that RL008 proves unseeded when called with no
#: arguments, so RL001 leaves those calls to it: one finding per plant.
_UNSEEDED_CONSTRUCTORS = frozenset(
    {"Random", "RandomState", "SystemRandom", "default_rng"}
)


@rule
class DeterminismRule(Rule):
    """Forbid wall-clock and unseeded entropy in simulation code."""

    code = "RL001"
    title = "stochastic code must draw from a seeded RngFactory stream"
    scope = "core, netsim, traces, pilot, experiments, bench, hunt, fleet"
    rationale = (
        "Experiments promise byte-identical results at any --jobs count; "
        "one call to time.time(), the global random module or os.urandom "
        "silently breaks that replay guarantee (RL008 catches unseeded "
        "RNG constructors)."
    )

    def applies_to(self, context: ModuleContext) -> bool:
        return _in_packages(context, _DETERMINISM_PACKAGES)

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name in ("time.time", "time.time_ns"):
                yield context.finding(
                    self.code,
                    f"{name}() reads the wall clock; use the engine clock "
                    "(network.time) or pass timestamps in",
                    node,
                )
            elif (
                terminal_identifier(node.func) in _WALL_CLOCK_ATTRS
                and "datetime" in name.split(".")
            ):
                yield context.finding(
                    self.code,
                    f"{name}() reads the wall clock; simulated components "
                    "must take explicit times",
                    node,
                )
            elif name == "os.urandom":
                yield context.finding(
                    self.code,
                    "os.urandom() is unseedable entropy; derive bytes from "
                    "an RngFactory stream instead",
                    node,
                )
            elif name.startswith("random.") and not (
                terminal_identifier(node.func) in _UNSEEDED_CONSTRUCTORS
                and not (node.args or node.keywords)
            ):
                yield context.finding(
                    self.code,
                    f"{name}() uses the global, unseeded random module; "
                    "derive a stream via repro.util.rng.RngFactory",
                    node,
                )


# ---------------------------------------------------------------------------
# RL002 — unit conversions
# ---------------------------------------------------------------------------

#: Literal factors that smell like a bits<->bytes conversion.
_EIGHT = (8, 8.0)
#: Literal factors that smell like a kilo/mega/giga unit conversion.
_THOUSANDS = (1_000, 1_000.0, 1e6, 1_000_000, 1e9, 1_000_000_000)
#: Identifier fragments marking a value as carrying a rate or volume unit.
_UNIT_TOKENS = (
    "bps", "bytes", "bits", "kbps", "mbps", "gbps", "rate", "size",
)

#: Parameter/argument suffix -> unit class, for mismatch detection.
_SUFFIX_CLASSES: Tuple[Tuple[str, str], ...] = (
    ("_bps", "rate (bits/second)"),
    ("_bytes", "volume (bytes)"),
    ("_seconds", "time (seconds)"),
    ("_s", "time (seconds)"),
)


def _unit_class(identifier: str) -> Optional[str]:
    lowered = identifier.lower()
    for suffix, cls in _SUFFIX_CLASSES:
        if lowered.endswith(suffix):
            return cls
    return None


def _mentions_unit(node: ast.AST) -> bool:
    return any(
        any(token in identifier.lower() for token in _UNIT_TOKENS)
        for identifier in identifiers_in(node)
    )


@rule
class UnitsRule(Rule):
    """Keep every bytes<->bits<->rate conversion inside util/units.py."""

    code = "RL002"
    title = "unit conversions must go through repro.util.units"
    scope = "src/repro (all but util/units.py itself)"
    rationale = (
        "The code base keeps exactly one place where a factor of 8 can "
        "hide; an inline * 8.0 or / 1e6 is where bps/bytes confusion "
        "(and silently wrong headline numbers) start."
    )

    def applies_to(self, context: ModuleContext) -> bool:
        # units.py is the one module allowed to spell the factors out.
        return context.rel_parts[-2:] != ("util", "units.py")

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Mult, ast.Div)
            ):
                yield from self._check_binop(context, node)
            elif isinstance(node, ast.Call):
                yield from self._check_call(context, node)

    def _check_binop(
        self, context: ModuleContext, node: ast.BinOp
    ) -> Iterator[Finding]:
        for literal, other in (
            (node.right, node.left),
            (node.left, node.right),
        ):
            if not isinstance(literal, ast.Constant):
                continue
            value = literal.value
            if isinstance(value, bool) or not isinstance(
                value, (int, float)
            ):
                continue
            if isinstance(other, (ast.Constant, ast.List, ast.Tuple)) and (
                not isinstance(other, ast.Constant)
                or isinstance(other.value, (str, bytes))
            ):
                # Sequence repetition ("-" * 8, [0] * 8) is not a unit
                # conversion.
                return
            if value in _EIGHT:
                yield context.finding(
                    self.code,
                    "literal factor of 8: route bytes<->bits through "
                    "repro.util.units (bytes_to_bits, transfer_rate, "
                    "transfer_seconds, transfer_volume)",
                    node,
                )
            elif value in _THOUSANDS and _mentions_unit(other):
                yield context.finding(
                    self.code,
                    f"literal factor {value:g} on a unit-carrying value: "
                    "use repro.util.units (kbps/mbps/rate_to_mbps/"
                    "bytes_to_megabytes)",
                    node,
                )
            # Only report once per BinOp even if both sides are literals.
            return

    def _check_call(
        self, context: ModuleContext, node: ast.Call
    ) -> Iterator[Finding]:
        for keyword in node.keywords:
            if keyword.arg is None:
                continue
            expected = _unit_class(keyword.arg)
            passed_name = terminal_identifier(keyword.value)
            if not expected or not passed_name:
                continue
            actual = _unit_class(passed_name)
            if actual is not None and actual != expected:
                yield context.finding(
                    self.code,
                    f"argument {keyword.arg!r} expects a {expected} but "
                    f"receives {passed_name!r}, which is named as a "
                    f"{actual}",
                    keyword.value,
                )


# ---------------------------------------------------------------------------
# RL003 — experiment registry contract
# ---------------------------------------------------------------------------

#: Modules under repro/experiments that are infrastructure, not
#: experiments (kept in sync with registry._NON_EXPERIMENT_MODULES).
_NON_EXPERIMENT_MODULES = frozenset(
    {
        "__init__.py",
        "catalogue.py",
        "formatting.py",
        "registry.py",
        "report.py",
        "runner.py",
        "wild.py",
    }
)

_REQUIRED_METADATA = ("title", "claims")


def _experiment_decorator(node: ast.AST) -> Optional[ast.Call]:
    if isinstance(node, ast.Call) and terminal_identifier(node.func) == (
        "experiment"
    ):
        return node
    return None


@rule
class RegistryContractRule(Rule):
    """Every experiment module registers exactly one documented run()."""

    code = "RL003"
    title = "experiment modules must honour the @experiment contract"
    scope = "experiments/*.py (non-infrastructure modules)"
    rationale = (
        "The CLI, the report generator and the benchmark suite are all "
        "thin registry consumers; a module with zero or two experiments, "
        "missing claims, or a run() that returns nothing breaks every "
        "one of them at once."
    )

    def applies_to(self, context: ModuleContext) -> bool:
        parts = context.rel_parts
        return (
            len(parts) == 2
            and parts[0] == "experiments"
            and parts[1] not in _NON_EXPERIMENT_MODULES
        )

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        decorated: List[Tuple[ast.FunctionDef, ast.Call]] = []
        for node in ast.walk(context.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            for decorator in node.decorator_list:
                call = _experiment_decorator(decorator)
                if call is not None:
                    decorated.append((node, call))
        if not decorated:
            yield context.finding(
                self.code,
                "experiment module defines no @experiment-decorated run "
                "function (infrastructure modules belong in the "
                "registry's exempt list)",
                context.tree.body[0] if context.tree.body else context.tree,
            )
            return
        if len(decorated) > 1:
            for func, _ in decorated[1:]:
                yield context.finding(
                    self.code,
                    "experiment module registers more than one "
                    "@experiment (one module, one experiment)",
                    func,
                )
        for func, call in decorated:
            yield from self._check_metadata(context, call)
            yield from self._check_returns(context, func)

    def _check_metadata(
        self, context: ModuleContext, call: ast.Call
    ) -> Iterator[Finding]:
        keywords = {kw.arg: kw.value for kw in call.keywords if kw.arg}
        for name in _REQUIRED_METADATA:
            value = keywords.get(name)
            if value is None:
                yield context.finding(
                    self.code,
                    f"@experiment is missing the {name!r} keyword "
                    "(the report and `repro list` both render it)",
                    call,
                )
            elif isinstance(value, ast.Constant) and (
                not isinstance(value.value, str) or not value.value.strip()
            ):
                yield context.finding(
                    self.code,
                    f"@experiment {name!r} must be a non-empty string",
                    value,
                )

    def _check_returns(
        self, context: ModuleContext, func: ast.FunctionDef
    ) -> Iterator[Finding]:
        # Walk the function body without descending into nested defs:
        # their returns are not run()'s returns.
        returns_value = False
        stack: List[ast.AST] = list(func.body)
        while stack:
            node = stack.pop()
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            if (
                isinstance(node, ast.Return)
                and node.value is not None
                and not (
                    isinstance(node.value, ast.Constant)
                    and node.value.value is None
                )
            ):
                returns_value = True
                break
            stack.extend(ast.iter_child_nodes(node))
        if not returns_value:
            yield context.finding(
                self.code,
                f"run function {func.name!r} never returns a result "
                "object; the registry contract requires render()/"
                "to_dict()-capable (jsonable-safe) returns",
                func,
            )


# ---------------------------------------------------------------------------
# RL004 — exception hygiene
# ---------------------------------------------------------------------------

_BLIND_EXCEPTION_NAMES = frozenset({"Exception", "BaseException"})


def _handler_exception_names(handler: ast.ExceptHandler) -> Set[str]:
    if handler.type is None:
        return set()
    nodes = (
        handler.type.elts
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    return {terminal_identifier(node) for node in nodes}


def _handler_uses_exception(handler: ast.ExceptHandler) -> bool:
    """Whether the handler re-raises, logs, or touches the exception."""
    bound = handler.name
    for node in handler.body:
        for child in ast.walk(node):
            if isinstance(child, ast.Raise):
                return True
            if isinstance(child, ast.Name) and child.id == bound:
                return True
            if (
                isinstance(child, (ast.Name, ast.Attribute))
                and terminal_identifier(child)
                in ("traceback", "format_exc", "print_exc", "exception")
            ):
                return True
    return False


@rule
class ExceptionHygieneRule(Rule):
    """No swallowed blind excepts in recovery-critical paths."""

    code = "RL004"
    title = "scheduler/runner/resilience code must not swallow exceptions"
    rationale = (
        "The churn-tolerance layer recovers from faults by re-raising "
        "and re-queueing; a bare except that eats a policy bug turns a "
        "loud crash into silently lost transfer items. The same goes "
        "for tests and benchmarks: a swallowed assertion failure is a "
        "test that can never fail."
    )
    scope = (
        "core/scheduler, core/resilience.py, experiments/runner.py, "
        "netsim/faults.py, hunt/run.py, hunt/session.py; tests/, "
        "benchmarks/"
    )

    def applies_to(self, context: ModuleContext) -> bool:
        parts = context.rel_parts
        return (
            context.root in ("tests", "benchmarks")
            or parts[:2] == ("core", "scheduler")
            or parts == ("core", "resilience.py")
            or parts == ("experiments", "runner.py")
            or parts == ("netsim", "faults.py")
            # The hunter's executor distinguishes engine crashes (oracle
            # evidence) from its own bugs; a swallowed except would file
            # real defects as clean runs.
            or parts == ("hunt", "run.py")
            or parts == ("hunt", "session.py")
        )

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if isinstance(node, ast.ExceptHandler):
                yield from self._check_handler(context, node)
                yield from self._check_raises(context, node)

    def _check_handler(
        self, context: ModuleContext, handler: ast.ExceptHandler
    ) -> Iterator[Finding]:
        if handler.type is None:
            yield context.finding(
                self.code,
                "bare `except:` catches SystemExit and KeyboardInterrupt; "
                "name the exceptions this path can actually recover from",
                handler,
            )
            return
        blind = _handler_exception_names(handler) & _BLIND_EXCEPTION_NAMES
        if blind and not _handler_uses_exception(handler):
            caught = "/".join(sorted(blind))
            yield context.finding(
                self.code,
                f"blind `except {caught}` swallows the failure; re-raise, "
                "log the traceback, or narrow the exception type",
                handler,
            )

    def _check_raises(
        self, context: ModuleContext, handler: ast.ExceptHandler
    ) -> Iterator[Finding]:
        # Walk the handler body without descending into nested try
        # blocks (their handlers are visited on their own) or nested
        # function definitions (which may raise outside any handler).
        stack: List[ast.AST] = list(handler.body)
        while stack:
            node = stack.pop()
            if isinstance(
                node, (ast.Try, ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            if (
                isinstance(node, ast.Raise)
                and isinstance(node.exc, ast.Call)
                and node.cause is None
            ):
                yield context.finding(
                    self.code,
                    "raising a new exception inside an except block "
                    "without `from` loses the original cause; use "
                    "`raise ... from exc` (or `from None` to hide it "
                    "on purpose)",
                    node,
                )
            stack.extend(ast.iter_child_nodes(node))


# ---------------------------------------------------------------------------
# RL005 — float equality on clocks and volumes
# ---------------------------------------------------------------------------

#: Whole identifier words that mark a simulated-clock value.
_CLOCK_WORDS = frozenset(
    {"time", "clock", "eta", "deadline", "now", "elapsed"}
)
#: Substrings that mark a byte-volume value.
_VOLUME_FRAGMENTS = ("bytes", "volume")


def _is_float_sensitive(node: ast.AST) -> bool:
    identifier = terminal_identifier(node).lower()
    if not identifier:
        return False
    if any(fragment in identifier for fragment in _VOLUME_FRAGMENTS):
        return True
    return bool(_CLOCK_WORDS & set(identifier.split("_")))


def _is_non_numeric_literal(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and (
        isinstance(node.value, (str, bool)) or node.value is None
    )


@rule
class FloatEqualityRule(Rule):
    """No == on simulated-clock or byte-volume floats."""

    code = "RL005"
    title = "compare clocks and byte volumes with a tolerance, not =="
    scope = "src/repro (all but util/, lint/); tests/, benchmarks/"
    rationale = (
        "The fluid engine advances by accumulated float arithmetic; an "
        "exact == on a clock or a transferred-bytes counter is a "
        "latent off-by-epsilon bug. Use math.isclose or the engine's "
        "boundary epsilon. In tests and benchmarks, equality inside an "
        "`assert` is the determinism-pin idiom (byte-identical replay) "
        "and stays exempt; only comparisons driving control flow are "
        "flagged there."
    )

    def applies_to(self, context: ModuleContext) -> bool:
        # Everywhere except util/ (validators legitimately compare
        # exact sentinels) and the lint framework itself.
        parts = context.rel_parts
        return parts[:1] not in (("util",), ("lint",))

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        exempt: Set[int] = set()
        if context.root in ("tests", "benchmarks"):
            # assert result.total_time == 8.0 pins a deterministic
            # value on purpose; exempt every node under an assert.
            for node in ast.walk(context.tree):
                if isinstance(node, ast.Assert):
                    exempt.update(id(child) for child in ast.walk(node))
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Compare) or id(node) in exempt:
                continue
            operands = [node.left] + list(node.comparators)
            for index, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                left, right = operands[index], operands[index + 1]
                if _is_non_numeric_literal(left) or _is_non_numeric_literal(
                    right
                ):
                    continue
                sensitive = next(
                    (
                        side
                        for side in (left, right)
                        if _is_float_sensitive(side)
                    ),
                    None,
                )
                if sensitive is None:
                    continue
                name = terminal_identifier(sensitive)
                operator = "==" if isinstance(op, ast.Eq) else "!="
                yield context.finding(
                    self.code,
                    f"exact {operator} comparison on {name!r} (a "
                    "simulated clock or byte volume); use math.isclose "
                    "or an epsilon",
                    node,
                )


# ---------------------------------------------------------------------------
# RL007 — public API surfaces carry docstrings
# ---------------------------------------------------------------------------

#: Top-level packages whose whole public surface is documented.
_DOCSTRING_PACKAGES = ("core", "obs", "hunt", "fleet")

#: Individual modules outside those packages held to the same bar.
_DOCSTRING_MODULES = (
    ("experiments", "registry.py"),
    ("experiments", "runner.py"),
)


def _has_summary_line(node: ast.AST) -> bool:
    """Whether ``node``'s docstring opens with a non-empty summary."""
    doc = ast.get_docstring(node, clean=False)  # type: ignore[arg-type]
    if not doc:
        return False
    first = doc.splitlines()[0].strip()
    return bool(first)


@rule
class PublicDocstringRule(Rule):
    """Public defs in the documented packages explain themselves."""

    code = "RL007"
    title = "public functions and classes need a one-line docstring summary"
    rationale = (
        "docs/ARCHITECTURE.md and docs/TRACE_SCHEMA.md point readers at "
        "the code for detail; that only works if every public surface in "
        "core/, obs/ and the experiment engine states its contract. A "
        "docstring whose first line is empty renders as a blank summary "
        "in help() and the generated docs. Test and benchmark modules "
        "carry a module docstring stating what they pin down."
    )
    scope = (
        "core, obs, hunt, fleet, experiments registry+runner; tests/, "
        "benchmarks/ (module docstring only)"
    )

    def applies_to(self, context: ModuleContext) -> bool:
        parts = context.rel_parts
        return (
            context.root in ("tests", "benchmarks")
            or _in_packages(context, _DOCSTRING_PACKAGES)
            or parts[:2] in _DOCSTRING_MODULES
        )

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        if context.root in ("tests", "benchmarks"):
            # Outside the package tree the bar is one module docstring:
            # what does this file pin down, and against what drift?
            if not _has_summary_line(context.tree):
                anchor: ast.AST = (
                    context.tree.body[0]
                    if context.tree.body
                    else context.tree
                )
                yield context.finding(
                    self.code,
                    f"{context.root} module has no docstring summary; "
                    "state in one line what it pins down",
                    anchor,
                )
            return
        # Module level and class level only: nested helpers are
        # implementation detail, and dunder/underscore names are private
        # by convention.
        yield from self._check_body(context, context.tree.body, scope="")
        for node in context.tree.body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith(
                "_"
            ):
                yield from self._check_body(
                    context, node.body, scope=f"{node.name}."
                )

    def _check_body(
        self,
        context: ModuleContext,
        body: Sequence[ast.stmt],
        scope: str,
    ) -> Iterator[Finding]:
        for node in body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            if node.name.startswith("_"):
                continue
            if _has_summary_line(node):
                continue
            kind = "class" if isinstance(node, ast.ClassDef) else "function"
            yield context.finding(
                self.code,
                f"public {kind} {scope}{node.name!r} has no docstring "
                "summary; add one line stating its contract",
                node,
            )


# ---------------------------------------------------------------------------
# RL012 — blocking socket ops carry explicit timeouts
# ---------------------------------------------------------------------------

#: Socket methods that block indefinitely on an untimed socket.
_BLOCKING_SOCKET_OPS = frozenset({"accept", "connect", "recv", "sendall"})


@rule
class SocketTimeoutRule(Rule):
    """Blocking socket ops in proto/ and service/ must be time-bounded."""

    code = "RL012"
    title = "blocking socket ops need a socket with an explicit timeout"
    scope = "proto, service"
    rationale = (
        "Every hang the chaos harness ever reproduced came down to one "
        "shape: a connect/recv/accept/sendall on a socket in the default "
        "blocking mode, pinned forever by a peer that said nothing. In "
        "the live packages (proto/, service/) every socket must get "
        "settimeout() — or be created by socket.create_connection(..., "
        "timeout=...) — in the same module before a blocking op runs on "
        "it. Borrowed sockets whose bound provably lives in the caller "
        "carry a justified `# repro-lint: disable=RL012`."
    )

    def applies_to(self, context: ModuleContext) -> bool:
        return _in_packages(context, ("proto", "service"))

    @staticmethod
    def _receiver(node: ast.AST) -> str:
        """The terminal identifier a socket op is invoked on."""
        return terminal_identifier(node)

    def _safe_receivers(self, tree: ast.Module) -> Set[str]:
        """Names that provably carry a timeout somewhere in the module.

        A name is safe when it ever appears as the receiver of a
        ``settimeout(...)`` call, or is ever bound (assignment or
        ``with ... as``) to a call that either passes a ``timeout=``
        keyword or is a ``create_connection`` (whose timeout the next
        check enforces separately). The analysis is module-wide rather
        than flow-sensitive: the rule is a tripwire for sockets nobody
        ever bounds, not a proof of per-path ordering.
        """
        safe: Set[str] = set()

        def bind(target: ast.AST, value: ast.AST) -> None:
            if not isinstance(value, ast.Call):
                return
            timed = any(
                keyword.arg == "timeout" for keyword in value.keywords
            ) or terminal_identifier(value.func) == "create_connection"
            if not timed:
                return
            name = self._receiver(target)
            if name:
                safe.add(name)

        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "settimeout"
                ):
                    name = self._receiver(node.func.value)
                    if name:
                        safe.add(name)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    bind(target, node.value)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                bind(node.target, node.value)
            elif isinstance(node, ast.withitem):
                if node.optional_vars is not None:
                    bind(node.optional_vars, node.context_expr)
        return safe

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        safe = self._safe_receivers(context.tree)
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            if (
                terminal_identifier(node.func) == "create_connection"
                and not any(
                    keyword.arg == "timeout"
                    for keyword in node.keywords
                )
            ):
                yield context.finding(
                    self.code,
                    "create_connection without timeout= blocks forever "
                    "on an unresponsive peer; pass an explicit timeout",
                    node,
                )
                continue
            if not isinstance(node.func, ast.Attribute):
                continue
            op = node.func.attr
            if op not in _BLOCKING_SOCKET_OPS:
                continue
            if op == "connect" and not node.args:
                # socket.connect always takes an address; a no-arg
                # connect() is some other object's method.
                continue
            name = self._receiver(node.func.value)
            if not name or name in safe:
                continue
            yield context.finding(
                self.code,
                f"blocking {op}() on {name!r}, which never gets "
                "settimeout() in this module; an unresponsive peer "
                "would pin this thread forever",
                node,
            )
