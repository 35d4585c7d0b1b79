"""Project-level analysis: summaries and the :class:`ProjectContext`.

Where :class:`~repro.lint.core.ModuleContext` gives a rule one module's
AST, :class:`ProjectContext` gives it the whole ``src/repro`` tree at
once: a symbol table and call graph (:mod:`repro.lint.graph`), plus a
lightweight intraprocedural summary per function —

* which RNGs it constructs and where their seeds come from
  (:class:`RngSite` with a :class:`Provenance`), the raw material of
  RL008's seed-provenance check;
* which string literals reach :class:`Instrumentation` emit sites
  (:class:`EmitSite`), checked against the obs catalogue by RL009;
* which ``self`` attributes its methods mutate (RL010's authority
  discipline);
* which exception types escape it after local ``try`` filtering
  (:meth:`ProjectContext.escapes`), the call-graph truth behind RL011.

Everything is conservative: unresolved names, unknown receiver types
and opaque expressions degrade to "don't know", and the rules treat
"don't know" as clean.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.lint.graph import (
    CallGraph,
    CallSite,
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    RaiseSite,
    SymbolTable,
    annotation_type_names,
    module_name_from_rel_parts,
)
from repro.lint.rules import dotted_name, terminal_identifier

__all__ = [
    "EmitSite",
    "EscapedRaise",
    "FunctionSummary",
    "ObsCatalogue",
    "ProjectContext",
    "Provenance",
    "RngSite",
]


# ---------------------------------------------------------------------------
# Seed provenance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Provenance:
    """Where a seed expression's value comes from.

    ``kind`` is one of ``"seeded"`` (derived from constants or an
    RngFactory stream), ``"unseeded"`` (literal ``None`` / missing /
    OS entropy), ``"param"`` (flows in through the named parameter —
    the obligation moves to the callers), or ``"unknown"``.
    """

    kind: str
    param: str = ""

    @classmethod
    def seeded(cls) -> "Provenance":
        """Deterministically derived seed."""
        return cls("seeded")

    @classmethod
    def unseeded(cls) -> "Provenance":
        """Provably OS entropy (``None`` or no seed at all)."""
        return cls("unseeded")

    @classmethod
    def unknown(cls) -> "Provenance":
        """Opaque expression; the rules treat this as clean."""
        return cls("unknown")

    @classmethod
    def from_param(cls, name: str) -> "Provenance":
        """Value flows in through parameter ``name``."""
        return cls("param", name)


#: Callable terminal names that yield RngFactory-derived (seeded) values.
_DERIVE_CALLS = frozenset({"derive", "derive_seed", "child"})
#: Pure numeric combinators that preserve their arguments' provenance.
_COMBINING_CALLS = frozenset(
    {"int", "float", "abs", "min", "max", "hash", "crc32", "adler32", "len"}
)

#: RNG constructor terminal names and how their seed argument is found.
_RNG_CONSTRUCTORS = frozenset({"default_rng", "Random", "RandomState"})
#: Module prefixes an RNG constructor must hang off (or resolve to).
_RNG_MODULES = ("random", "np.random", "numpy.random")


@dataclass(frozen=True)
class RngSite:
    """One RNG construction and the provenance of its seed."""

    node: ast.Call
    #: The constructor spelled at the site (``default_rng``, ``Random``).
    kind: str
    provenance: Provenance


@dataclass(frozen=True)
class EmitSite:
    """One obs emit call: ``obs.event("txn.begin", ...)`` and friends."""

    node: ast.Call
    #: ``event`` / ``count`` / ``gauge`` / ``observe``.
    method: str
    #: The event/metric name if statically known, else ``None``.
    name: Optional[str]
    #: Keyword-argument names at the site (``**kwargs`` excluded).
    keywords: Tuple[str, ...]
    #: Whether the call splats ``**kwargs`` (field checks are skipped).
    has_star_kwargs: bool


@dataclass
class FunctionSummary:
    """Everything the project rules need to know about one function."""

    info: FunctionInfo
    calls: List[CallSite] = field(default_factory=list)
    raises: List[RaiseSite] = field(default_factory=list)
    rng_sites: List[RngSite] = field(default_factory=list)
    emit_sites: List[EmitSite] = field(default_factory=list)
    #: ``self`` attributes directly mutated (assign/augassign/container).
    mutated_attrs: Set[str] = field(default_factory=set)
    #: Terminal names of ``self.m(...)`` calls (within-class closure).
    self_calls: Set[str] = field(default_factory=set)


#: Container methods that mutate their receiver in place.
_MUTATING_CONTAINER_METHODS = frozenset(
    {
        "append", "add", "remove", "pop", "clear", "update", "extend",
        "insert", "setdefault", "discard", "popitem",
    }
)

#: Constructor-ish methods exempt from the RL010 mutator set: building
#: your own tracker is not touching someone else's authority.
_CTOR_METHODS = frozenset({"__init__", "__post_init__"})


# ---------------------------------------------------------------------------
# The per-function walker
# ---------------------------------------------------------------------------


class _FunctionWalker:
    """One pass over a function body, building its summary."""

    def __init__(
        self,
        project: "ProjectContext",
        module: ModuleInfo,
        info: FunctionInfo,
    ) -> None:
        self.project = project
        self.module = module
        self.info = info
        self.summary = FunctionSummary(info=info)
        self.class_info = (
            project.class_by_qualname.get(info.class_qualname)
            if info.class_qualname
            else None
        )
        #: Local simple assignments: name -> last value expression.
        self.local_assigns: Dict[str, ast.expr] = {}
        #: Local type environment: name -> type-name identifiers.
        self.local_types: Dict[str, FrozenSet[str]] = {}
        #: Functions defined inside this body, resolvable by bare name.
        self.local_functions: Dict[str, FunctionInfo] = {}
        self._seed_env()

    def _seed_env(self) -> None:
        node = self.info.node
        args = node.args  # type: ignore[attr-defined]
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            if arg.annotation is not None:
                self.local_types[arg.arg] = annotation_type_names(
                    arg.annotation
                )

    # ------------------------------------------------------------------
    # Walk
    # ------------------------------------------------------------------
    def walk(self) -> FunctionSummary:
        """Build and return the function's summary."""
        body = self.info.node.body  # type: ignore[attr-defined]
        # Pre-register nested defs so forward references resolve.
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.local_functions[stmt.name] = FunctionInfo(
                    qualname=f"{self.info.qualname}.<locals>.{stmt.name}",
                    module=self.module.name,
                    node=stmt,
                )
        for stmt in body:
            self._visit(stmt, caught=frozenset(), reraises=frozenset())
        return self.summary

    def _handler_names(self, handler: ast.ExceptHandler) -> FrozenSet[str]:
        if handler.type is None:
            return frozenset({"BaseException"})
        nodes = (
            handler.type.elts
            if isinstance(handler.type, ast.Tuple)
            else [handler.type]
        )
        names = (terminal_identifier(node) for node in nodes)
        return frozenset(name for name in names if name)

    def _handler_catches(self, handler: ast.ExceptHandler) -> bool:
        # A handler whose body unconditionally re-raises (top-level bare
        # ``raise``) does not remove anything from the escape set.
        return not any(
            isinstance(stmt, ast.Raise) and stmt.exc is None
            for stmt in handler.body
        )

    def _visit(
        self,
        node: ast.AST,
        caught: FrozenSet[str],
        reraises: FrozenSet[str],
    ) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested defs are summarized on their own; their bodies are
            # not part of this function's behaviour.
            return
        if isinstance(node, ast.Lambda):
            return
        if isinstance(node, ast.Try):
            catching: Set[str] = set()
            for handler in node.handlers:
                if self._handler_catches(handler):
                    catching |= self._handler_names(handler)
            body_caught = caught | frozenset(catching)
            for stmt in node.body:
                self._visit(stmt, body_caught, reraises)
            for handler in node.handlers:
                names = self._handler_names(handler)
                for stmt in handler.body:
                    self._visit(stmt, caught, names)
            for stmt in [*node.orelse, *node.finalbody]:
                self._visit(stmt, caught, reraises)
            return
        if isinstance(node, ast.Raise):
            self._record_raise(node, caught, reraises)
        elif isinstance(node, ast.Call):
            self._record_call(node, caught)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            self._record_assignment(node)
        for child in ast.iter_child_nodes(node):
            self._visit(child, caught, reraises)

    # ------------------------------------------------------------------
    # Raises
    # ------------------------------------------------------------------
    def _record_raise(
        self,
        node: ast.Raise,
        caught: FrozenSet[str],
        reraises: FrozenSet[str],
    ) -> None:
        if node.exc is None:
            self.summary.raises.append(
                RaiseSite(name="", node=node, caught=caught,
                          reraises=reraises)
            )
            return
        raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        name = terminal_identifier(raised)
        if name:
            self.summary.raises.append(
                RaiseSite(name=name, node=node, caught=caught)
            )

    # ------------------------------------------------------------------
    # Assignments (types + constant propagation + mutation)
    # ------------------------------------------------------------------
    def _record_assignment(self, node: ast.AST) -> None:
        targets: List[ast.expr]
        value: Optional[ast.expr]
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign):
            targets, value = [node.target], node.value
            if isinstance(node.target, ast.Name):
                self.local_types[node.target.id] = annotation_type_names(
                    node.annotation
                )
        else:  # AugAssign
            targets, value = [node.target], None  # type: ignore[attr-defined]
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                self.summary.mutated_attrs.add(target.attr)
            elif isinstance(target, ast.Subscript):
                base = target.value
                if (
                    isinstance(base, ast.Attribute)
                    and isinstance(base.value, ast.Name)
                    and base.value.id == "self"
                ):
                    self.summary.mutated_attrs.add(base.attr)
            elif isinstance(target, ast.Name) and value is not None:
                self.local_assigns[target.id] = value
                inferred = self.infer_type_names(value)
                if inferred:
                    self.local_types.setdefault(target.id, inferred)

    # ------------------------------------------------------------------
    # Calls
    # ------------------------------------------------------------------
    def _record_call(self, node: ast.Call, caught: FrozenSet[str]) -> None:
        callee = self._resolve_callee(node.func)
        self.summary.calls.append(
            CallSite(
                caller=self.info.qualname,
                callee=callee,
                node=node,
                caught=caught,
            )
        )
        self._maybe_rng_site(node)
        self._maybe_emit_site(node)
        self._maybe_self_mutation(node)

    def _maybe_self_mutation(self, node: ast.Call) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        base = func.value
        if (
            isinstance(base, ast.Name)
            and base.id == "self"
        ):
            self.summary.self_calls.add(func.attr)
        if func.attr in _MUTATING_CONTAINER_METHODS:
            if (
                isinstance(base, ast.Attribute)
                and isinstance(base.value, ast.Name)
                and base.value.id == "self"
            ):
                self.summary.mutated_attrs.add(base.attr)

    def _resolve_callee(self, func: ast.expr, _depth: int = 0) -> str:
        if _depth > 6:
            return ""
        table = self.project.symbols
        if isinstance(func, ast.Name):
            local = self.local_functions.get(func.id)
            if local is not None:
                return local.qualname
            resolved = table.resolve(self.module, func.id)
            if resolved is None:
                return ""
            kind, value = resolved
            if kind == "function":
                return value.qualname  # type: ignore[union-attr]
            if kind == "class":
                info = value  # type: ignore[assignment]
                ctor = info.methods.get("__init__")  # type: ignore[union-attr]
                return (
                    ctor.qualname
                    if ctor is not None
                    else f"{info.qualname}.__init__"  # type: ignore[union-attr]
                )
            return ""
        if not isinstance(func, ast.Attribute):
            return ""
        # self.method() — own class first, then project ancestors.
        if isinstance(func.value, ast.Name) and func.value.id == "self":
            return self._resolve_self_method(func.attr)
        # module-qualified call (alias.helper, package.module.helper)
        dotted = dotted_name(func)
        if dotted:
            resolved = table.resolve_dotted(self.module, dotted)
            if resolved is not None and resolved[0] == "function":
                return resolved[1].qualname  # type: ignore[union-attr]
        # typed-receiver call: resolve through the inferred class.
        receiver_types = self.infer_type_names(func.value, _depth + 1)
        for class_name in receiver_types:
            info = self.project.symbols.find_class(class_name)
            if info is not None and func.attr in info.methods:
                return info.methods[func.attr].qualname
        return ""

    def _resolve_self_method(self, name: str) -> str:
        info = self.class_info
        seen: Set[str] = set()
        while info is not None and info.qualname not in seen:
            seen.add(info.qualname)
            if name in info.methods:
                return info.methods[name].qualname
            # Follow the first resolvable project base.
            parent: Optional[ClassInfo] = None
            module = self.project.modules.get(info.module)
            if module is not None:
                for base in info.base_nodes:
                    terminal = terminal_identifier(base)
                    resolved = (
                        self.project.symbols.resolve(module, terminal)
                        if terminal
                        else None
                    )
                    if resolved is not None and resolved[0] == "class":
                        parent = resolved[1]  # type: ignore[assignment]
                        break
            info = parent
        return ""

    # ------------------------------------------------------------------
    # RNG sites
    # ------------------------------------------------------------------
    def _maybe_rng_site(self, node: ast.Call) -> None:
        kind = self._rng_constructor_kind(node.func)
        if kind is None:
            return
        if kind == "SystemRandom":
            self.summary.rng_sites.append(
                RngSite(node=node, kind=kind,
                        provenance=Provenance.unseeded())
            )
            return
        seed_expr = self._seed_argument(node)
        provenance = (
            Provenance.unseeded()
            if seed_expr is None
            else self.seed_provenance(seed_expr)
        )
        self.summary.rng_sites.append(
            RngSite(node=node, kind=kind, provenance=provenance)
        )

    def _rng_constructor_kind(self, func: ast.expr) -> Optional[str]:
        terminal = terminal_identifier(func)
        if terminal == "SystemRandom":
            return terminal
        if terminal not in _RNG_CONSTRUCTORS:
            return None
        dotted = dotted_name(func)
        if dotted:
            head = dotted.rsplit(".", 1)[0]
            if head.endswith(_RNG_MODULES) or head in (
                "random", "np", "numpy"
            ):
                return terminal
        if isinstance(func, ast.Name):
            # ``from random import Random`` / ``from numpy.random import
            # default_rng`` — resolve the import to be sure.
            imported = self.module.symbol_imports.get(func.id)
            if imported is not None and imported[0].split(".")[0] in (
                "random", "numpy", "np"
            ):
                return terminal
            if terminal == "default_rng":
                return terminal
        return None

    def _seed_argument(self, node: ast.Call) -> Optional[ast.expr]:
        if node.args:
            return node.args[0]
        for keyword in node.keywords:
            if keyword.arg in ("seed", "entropy", "x"):
                return keyword.value
            if keyword.arg is None:
                # **kwargs might carry a seed; don't guess.
                return keyword.value
        return None

    # ------------------------------------------------------------------
    # Provenance evaluation
    # ------------------------------------------------------------------
    def seed_provenance(
        self, expr: ast.expr, _depth: int = 0
    ) -> Provenance:
        """Provenance of ``expr`` as a seed value (intraprocedural)."""
        if _depth > 8:
            return Provenance.unknown()
        if isinstance(expr, ast.Constant):
            if expr.value is None:
                return Provenance.unseeded()
            if isinstance(expr.value, bool):
                return Provenance.seeded()
            if isinstance(expr.value, (int, float, str, bytes)):
                return Provenance.seeded()
            return Provenance.unknown()
        if isinstance(expr, ast.Name):
            return self._name_provenance(expr.id, _depth)
        if isinstance(expr, ast.Attribute):
            return self._attribute_provenance(expr, _depth)
        if isinstance(expr, ast.Call):
            return self._call_provenance(expr, _depth)
        if isinstance(expr, ast.BinOp):
            return self._combine(
                [expr.left, expr.right], _depth
            )
        if isinstance(expr, ast.UnaryOp):
            return self.seed_provenance(expr.operand, _depth + 1)
        if isinstance(expr, ast.BoolOp):
            return self._combine(list(expr.values), _depth)
        if isinstance(expr, ast.IfExp):
            return self._combine([expr.body, expr.orelse], _depth)
        if isinstance(expr, (ast.Tuple, ast.List)):
            return self._combine(list(expr.elts), _depth)
        return Provenance.unknown()

    def _combine(
        self, exprs: Sequence[ast.expr], depth: int
    ) -> Provenance:
        provenances = [
            self.seed_provenance(expr, depth + 1) for expr in exprs
        ]
        if any(p.kind == "unknown" for p in provenances):
            return Provenance.unknown()
        for provenance in provenances:
            if provenance.kind == "param":
                return provenance
        if any(p.kind == "unseeded" for p in provenances):
            return Provenance.unseeded()
        return Provenance.seeded()

    def _name_provenance(self, name: str, depth: int) -> Provenance:
        if name in self.info.param_names():
            return Provenance.from_param(name)
        assigned = self.local_assigns.get(name)
        if assigned is not None:
            return self.seed_provenance(assigned, depth + 1)
        module_value = self.module.assignments.get(name)
        if module_value is not None and isinstance(
            module_value, ast.Constant
        ):
            return self.seed_provenance(module_value, depth + 1)
        return Provenance.unknown()

    def _attribute_provenance(
        self, expr: ast.Attribute, depth: int
    ) -> Provenance:
        if (
            isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
            and self.class_info is not None
        ):
            param = self.class_info.attr_from_param.get(expr.attr)
            if param is not None:
                # The obligation moves to the *constructor's* callers.
                return Provenance.from_param(f"__ctor__:{param}")
        return Provenance.unknown()

    def _call_provenance(self, expr: ast.Call, depth: int) -> Provenance:
        terminal = terminal_identifier(expr.func)
        if terminal in _DERIVE_CALLS:
            return Provenance.seeded()
        if terminal == "RngFactory":
            if not expr.args and not expr.keywords:
                return Provenance.unseeded()
            return self._combine(
                [*expr.args, *[k.value for k in expr.keywords]], depth
            )
        if terminal == "SeedSequence":
            entropy = None
            if expr.args:
                entropy = expr.args[0]
            for keyword in expr.keywords:
                if keyword.arg == "entropy":
                    entropy = keyword.value
            if entropy is None:
                return Provenance.unseeded()
            return self.seed_provenance(entropy, depth + 1)
        if terminal in _COMBINING_CALLS:
            operands = [*expr.args, *[k.value for k in expr.keywords]]
            if not operands:
                return Provenance.unknown()
            return self._combine(operands, depth)
        if terminal == "spawn_rng":
            if not expr.args and not expr.keywords:
                return Provenance.unseeded()
            return self._combine(
                [*expr.args, *[k.value for k in expr.keywords]], depth
            )
        return Provenance.unknown()

    # ------------------------------------------------------------------
    # Emit sites
    # ------------------------------------------------------------------
    _EMIT_METHODS = frozenset({"event", "count", "gauge", "observe"})

    def _maybe_emit_site(self, node: ast.Call) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr not in self._EMIT_METHODS:
            return
        if not self._is_obs_receiver(func.value):
            return
        name = self._literal_name(node)
        keywords = tuple(
            keyword.arg for keyword in node.keywords
            if keyword.arg is not None
        )
        has_star = any(keyword.arg is None for keyword in node.keywords)
        self.summary.emit_sites.append(
            EmitSite(
                node=node,
                method=func.attr,
                name=name,
                keywords=keywords,
                has_star_kwargs=has_star,
            )
        )

    def _is_obs_receiver(self, receiver: ast.expr) -> bool:
        # Module receivers (itertools.count) are never obs handles.
        if isinstance(receiver, ast.Name):
            resolved = self.project.symbols.resolve(
                self.module, receiver.id
            )
            if resolved is not None and resolved[0] == "module":
                return False
        inferred = self.infer_type_names(receiver)
        if "Instrumentation" in inferred:
            return True
        terminal = terminal_identifier(receiver)
        return "obs" in terminal.lower() or terminal == "instrumentation"

    def _literal_name(self, node: ast.Call) -> Optional[str]:
        if not node.args:
            return None
        first = node.args[0]
        if isinstance(first, ast.Constant) and isinstance(
            first.value, str
        ):
            return first.value
        if isinstance(first, ast.Name):
            assigned = self.local_assigns.get(first.id)
            if isinstance(assigned, ast.Constant) and isinstance(
                assigned.value, str
            ):
                return assigned.value
        return None

    # ------------------------------------------------------------------
    # Type inference
    # ------------------------------------------------------------------
    def infer_type_names(
        self, expr: ast.expr, _depth: int = 0
    ) -> FrozenSet[str]:
        """Identifiers naming the plausible types of ``expr``.

        Sources: parameter and local annotations, ``self`` attribute
        types, constructor calls, and resolved callees' return
        annotations. Unknown expressions yield an empty set.
        """
        if _depth > 6:
            return frozenset()
        if isinstance(expr, ast.Name):
            if expr.id == "self" and self.class_info is not None:
                return frozenset({self.class_info.name})
            known = self.local_types.get(expr.id)
            if known:
                return known
            assigned = self.local_assigns.get(expr.id)
            if assigned is not None:
                return self.infer_type_names(assigned, _depth + 1)
            return frozenset()
        if isinstance(expr, ast.Attribute):
            base_types = self.infer_type_names(expr.value, _depth + 1)
            out: Set[str] = set()
            for class_name in base_types:
                info = self.project.symbols.find_class(class_name)
                if info is not None:
                    out |= info.attr_type_names.get(
                        expr.attr, frozenset()
                    )
            return frozenset(out)
        if isinstance(expr, ast.Call):
            callee = self._resolve_callee(expr.func, _depth + 1)
            if callee:
                summary_info = self.project.function_by_qualname.get(callee)
                if summary_info is not None:
                    if summary_info.name == "__init__":
                        return frozenset(
                            {summary_info.class_qualname.rsplit(".", 1)[-1]}
                        )
                    returns = summary_info.node.returns  # type: ignore[attr-defined]
                    return annotation_type_names(returns)
            # Unresolved constructor by bare class name.
            terminal = terminal_identifier(expr.func)
            if terminal and terminal[:1].isupper():
                if self.project.symbols.find_class(terminal) is not None:
                    return frozenset({terminal})
            return frozenset()
        return frozenset()


# ---------------------------------------------------------------------------
# Obs catalogue
# ---------------------------------------------------------------------------


@dataclass
class ObsCatalogue:
    """The event/metric vocabulary RL009 validates emit sites against."""

    #: Event name -> allowed field names.
    events: Dict[str, FrozenSet[str]]
    #: Metric name -> allowed label names.
    metrics: Dict[str, FrozenSet[str]]

    @classmethod
    def from_module(cls, module: ModuleInfo) -> Optional["ObsCatalogue"]:
        """Extract the catalogue from ``repro/obs/schema.py``'s AST."""
        events = cls._literal_dict(module, "EVENTS")
        metrics = cls._literal_dict(module, "METRICS")
        if events is None or metrics is None:
            return None
        return cls(
            events={
                name: frozenset(fields) for name, fields in events.items()
            },
            metrics={
                name: frozenset(spec.get("labels", ()))
                for name, spec in metrics.items()
            },
        )

    @classmethod
    def from_import(cls) -> Optional["ObsCatalogue"]:
        """Fallback: read the live catalogue from the installed package."""
        try:
            from repro.obs import schema
        except ImportError:  # pragma: no cover - schema ships with lint
            return None
        return cls(
            events={
                name: frozenset(fields)
                for name, fields in schema.EVENTS.items()
            },
            metrics={
                name: frozenset(spec.get("labels", ()))  # type: ignore[arg-type]
                for name, spec in schema.METRICS.items()
            },
        )

    @staticmethod
    def _literal_dict(
        module: ModuleInfo, name: str
    ) -> Optional[Dict[str, Dict[str, object]]]:
        node = module.assignments.get(name)
        if node is None:
            return None
        try:
            value = ast.literal_eval(node)
        except (ValueError, SyntaxError):
            return None
        return value if isinstance(value, dict) else None


# ---------------------------------------------------------------------------
# Escape analysis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EscapedRaise:
    """One exception that escapes a function, with its witness chain."""

    #: Terminal name of the escaping exception type.
    name: str
    #: The raise statement it originates from.
    site: RaiseSite
    #: Qualname of the function containing the raise.
    origin: str
    #: Call chain from the analyzed function down to ``origin``.
    chain: Tuple[str, ...] = ()


#: Known builtin exception hierarchy (terminal names), enough to decide
#: whether ``except X`` catches a raise of ``Y`` without imports.
_BUILTIN_BASES: Dict[str, Tuple[str, ...]] = {
    "FramingError": ("WireError",),
    "StallError": ("WireError",),
    "WireError": ("ProtocolError",),
    "PlaylistError": ("ProtocolError", "ValueError"),
    "MultipartError": ("ProtocolError", "ValueError"),
    "UnicodeDecodeError": ("ValueError",),
    "UnicodeEncodeError": ("ValueError",),
    "KeyError": ("LookupError",),
    "IndexError": ("LookupError",),
    "FileNotFoundError": ("OSError",),
    "TimeoutError": ("OSError",),
    "ConnectionError": ("OSError",),
    "BrokenPipeError": ("ConnectionError", "OSError"),
    "ConnectionResetError": ("ConnectionError", "OSError"),
    "ZeroDivisionError": ("ArithmeticError",),
    "OverflowError": ("ArithmeticError",),
}


class ProjectContext:
    """Everything a project-level rule may look at, tree-wide."""

    def __init__(self, modules: Sequence[ModuleInfo]) -> None:
        self.modules: Dict[str, ModuleInfo] = {
            module.name: module for module in modules if module.name
        }
        self.symbols = SymbolTable(self.modules)
        self.class_by_qualname: Dict[str, ClassInfo] = {}
        self.function_by_qualname: Dict[str, FunctionInfo] = {}
        for module in self.modules.values():
            for info in module.classes.values():
                self.class_by_qualname[info.qualname] = info
                for method in info.methods.values():
                    self.function_by_qualname[method.qualname] = method
            for function in module.functions.values():
                self.function_by_qualname[function.qualname] = function
        self.summaries: Dict[str, FunctionSummary] = {}
        self.call_graph = CallGraph()
        self._walkers: Dict[str, _FunctionWalker] = {}
        self._build_summaries()
        self._catalogue: Optional[ObsCatalogue] = None
        self._catalogue_built = False
        self._escape_cache: Dict[str, Dict[str, EscapedRaise]] = {}

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_contexts(
        cls, contexts: Iterable[object]
    ) -> "ProjectContext":
        """Build from engine :class:`~repro.lint.core.ModuleContext`s."""
        modules = []
        for context in contexts:
            rel_parts = getattr(context, "rel_parts", ())
            name = module_name_from_rel_parts(rel_parts)
            if not name:
                continue
            modules.append(
                ModuleInfo(
                    name=name,
                    path=getattr(context, "path", "<unknown>"),
                    tree=getattr(context, "tree"),
                )
            )
        return cls(modules)

    def _build_summaries(self) -> None:
        for module in self.modules.values():
            for function in self._iter_functions(module):
                walker = _FunctionWalker(self, module, function)
                summary = walker.walk()
                self.summaries[function.qualname] = summary
                self._walkers[function.qualname] = walker
                for site in summary.calls:
                    self.call_graph.add(site)
                # Nested defs get their own summaries too.
                for nested in walker.local_functions.values():
                    if nested.qualname not in self.summaries:
                        nested_walker = _FunctionWalker(
                            self, module, nested
                        )
                        nested_summary = nested_walker.walk()
                        self.summaries[nested.qualname] = nested_summary
                        self._walkers[nested.qualname] = nested_walker
                        for site in nested_summary.calls:
                            self.call_graph.add(site)

    def _iter_functions(
        self, module: ModuleInfo
    ) -> Iterable[FunctionInfo]:
        for function in module.functions.values():
            yield function
        for info in module.classes.values():
            for method in info.methods.values():
                yield method

    # ------------------------------------------------------------------
    # Obs catalogue
    # ------------------------------------------------------------------
    @property
    def obs_catalogue(self) -> Optional[ObsCatalogue]:
        """The schema catalogue: static when ``obs/schema.py`` is in the
        linted tree, imported otherwise."""
        if not self._catalogue_built:
            self._catalogue_built = True
            schema_module = self.modules.get("repro.obs.schema")
            if schema_module is not None:
                self._catalogue = ObsCatalogue.from_module(schema_module)
            if self._catalogue is None:
                self._catalogue = ObsCatalogue.from_import()
        return self._catalogue

    # ------------------------------------------------------------------
    # Exception matching
    # ------------------------------------------------------------------
    def exception_ancestors(self, name: str) -> Set[str]:
        """Terminal names of ``name``'s ancestors (project + builtin)."""
        out: Set[str] = set()
        stack = [name]
        while stack:
            current = stack.pop()
            parents: Set[str] = set(_BUILTIN_BASES.get(current, ()))
            info = self.symbols.find_class(current)
            if info is not None:
                parents |= self.symbols.ancestor_names(info)
            for parent in parents:
                if parent not in out:
                    out.add(parent)
                    stack.append(parent)
        return out

    def catches(self, handler_names: FrozenSet[str], raised: str) -> bool:
        """Whether ``except <handler_names>`` stops a raise of ``raised``."""
        if not handler_names:
            return False
        if {"Exception", "BaseException"} & handler_names:
            return True
        if raised in handler_names:
            return True
        return bool(self.exception_ancestors(raised) & handler_names)

    # ------------------------------------------------------------------
    # Escape analysis
    # ------------------------------------------------------------------
    def escapes(
        self, qualname: str, _active: Optional[Set[str]] = None
    ) -> Dict[str, EscapedRaise]:
        """Exception names escaping ``qualname``, with witness chains.

        Direct raises are filtered by the ``try`` context at the raise;
        callee escapes are filtered by the ``try`` context at the call
        site. Recursion through cycles under-approximates (the branch in
        progress contributes nothing), which errs toward silence.
        """
        cached = self._escape_cache.get(qualname)
        if cached is not None:
            return cached
        active = _active if _active is not None else set()
        if qualname in active:
            return {}
        active.add(qualname)
        summary = self.summaries.get(qualname)
        out: Dict[str, EscapedRaise] = {}
        if summary is None:
            active.discard(qualname)
            return out
        for raise_site in summary.raises:
            names = (
                [raise_site.name]
                if raise_site.name
                else sorted(raise_site.reraises)
            )
            for name in names:
                if not name or name in ("BaseException",):
                    continue
                if self.catches(raise_site.caught, name):
                    continue
                out.setdefault(
                    name,
                    EscapedRaise(
                        name=name,
                        site=raise_site,
                        origin=qualname,
                        chain=(qualname,),
                    ),
                )
        for call in summary.calls:
            if not call.callee:
                continue
            for name, escaped in self.escapes(
                call.callee, _active=active
            ).items():
                if self.catches(call.caught, name):
                    continue
                out.setdefault(
                    name,
                    EscapedRaise(
                        name=name,
                        site=escaped.site,
                        origin=escaped.origin,
                        chain=(qualname, *escaped.chain),
                    ),
                )
        active.discard(qualname)
        if not (active - {qualname}):
            # Only memoize top-level results: mid-recursion sets are
            # truncated by the cycle guard.
            self._escape_cache[qualname] = out
        return out

    # ------------------------------------------------------------------
    # Authority mutators (RL010)
    # ------------------------------------------------------------------
    def mutating_methods(self, info: ClassInfo) -> Set[str]:
        """Methods of ``info`` that mutate instance state.

        Direct mutators assign/augassign a ``self`` attribute (or mutate
        one of its containers in place); public methods that delegate to
        a public direct mutator on ``self`` count too (``revoke_cell``
        -> ``revoke``). Constructors are exempt, and *private* helpers
        reached from read paths (lazy normalisation like ``_roll``) do
        not drag their public callers in.
        """
        direct: Set[str] = set()
        for name, method in info.methods.items():
            if name in _CTOR_METHODS:
                continue
            summary = self.summaries.get(method.qualname)
            if summary is not None and summary.mutated_attrs:
                direct.add(name)
        out = set(direct)
        public_direct = {
            name for name in direct if not name.startswith("_")
        }
        for name, method in info.methods.items():
            if name in out or name in _CTOR_METHODS:
                continue
            summary = self.summaries.get(method.qualname)
            if summary is not None and (
                summary.self_calls & public_direct
            ):
                out.add(name)
        return out

    # ------------------------------------------------------------------
    # Call-site argument binding (RL008 obligation propagation)
    # ------------------------------------------------------------------
    def path_of(self, qualname: str) -> str:
        """Source path of the module defining ``qualname``."""
        info = self.function_by_qualname.get(qualname)
        if info is None:
            summary = self.summaries.get(qualname)
            info = summary.info if summary is not None else None
        if info is None:
            return "<unknown>"
        module = self.modules.get(info.module)
        return module.path if module is not None else "<unknown>"

    def bound_argument(
        self, site: CallSite, param: str
    ) -> Optional[ast.expr]:
        """The expression ``site`` binds to the callee parameter ``param``.

        Returns ``None`` when the argument is absent (the callee's
        default applies) or the binding cannot be decided statically
        (``*args`` splats before the slot).
        """
        callee = self.function_by_qualname.get(site.callee)
        if callee is None:
            return None
        params = list(callee.param_names())
        if params and params[0] == "self":
            params = params[1:]
        if param not in params:
            return None
        for keyword in site.node.keywords:
            if keyword.arg == param:
                return keyword.value
        index = params.index(param)
        positional = site.node.args
        if any(isinstance(arg, ast.Starred) for arg in positional):
            return None
        if index < len(positional):
            return positional[index]
        return None

    def argument_provenance(
        self, site: CallSite, param: str
    ) -> Tuple[Provenance, Optional[ast.expr]]:
        """Seed provenance of the value ``site`` passes for ``param``.

        Evaluated in the *caller's* environment. A missing argument
        inherits the provenance of the callee's default (an absent
        default reads as unseeded ``None`` for RNG-style signatures).
        """
        walker = self._walkers.get(site.caller)
        if walker is None:
            return Provenance.unknown(), None
        expr = self.bound_argument(site, param)
        if expr is None:
            callee = self.function_by_qualname.get(site.callee)
            default = (
                callee.param_default(param) if callee is not None else None
            )
            if default is None:
                return Provenance.unknown(), None
            # Provenance comes from the callee's default, but any
            # finding must anchor at the *call site* — the default's
            # node carries line numbers from the wrong file.
            return walker.seed_provenance(default), None
        return walker.seed_provenance(expr), expr
