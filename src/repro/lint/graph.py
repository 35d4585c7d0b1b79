"""Module graph, symbol table and call graph for project-level lint.

The per-module rules (RL001-RL005, RL007, RL012) see one file at a
time; the cross-module rules (RL008-RL011) need to know *who calls
whom* across the whole ``src/repro`` tree. This module builds that
picture from the ASTs the engine already parsed:

* :class:`ModuleInfo` — one module's bindings: its imports (plain,
  aliased, ``from``-imports, ``import *``), top-level functions,
  classes with their methods and attribute types, and module-level
  assignments;
* :class:`SymbolTable` — resolves a name used in one module to the
  function/class that defines it, following aliases, re-exports and
  star imports across module boundaries (cycle-safe);
* :class:`CallGraph` — one :class:`CallSite` per resolved call,
  annotated with the exception names the surrounding ``try`` blocks
  would catch (the raw material of the RL011 escape analysis).

Resolution is deliberately conservative: a name the table cannot
resolve stays unresolved and the project rules skip it — the rules
prefer missing a violation over flagging idiomatic code.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = [
    "CallGraph",
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "RaiseSite",
    "SymbolTable",
    "annotation_type_names",
    "module_name_from_rel_parts",
]


def module_name_from_rel_parts(rel_parts: Sequence[str]) -> str:
    """Dotted module name for repro-relative path parts.

    ``("core", "permits.py")`` becomes ``"repro.core.permits"``;
    ``("core", "__init__.py")`` becomes ``"repro.core"``. Parts outside
    a ``repro`` tree (empty tuple) yield ``""``.
    """
    if not rel_parts:
        return ""
    parts = list(rel_parts)
    last = parts[-1]
    if not last.endswith(".py"):
        return ""
    stem = last[: -len(".py")]
    if stem == "__init__":
        parts = parts[:-1]
    else:
        parts[-1] = stem
    return ".".join(["repro", *parts]) if parts else "repro"


def annotation_type_names(node: Optional[ast.AST]) -> FrozenSet[str]:
    """Every plain identifier mentioned in an annotation expression.

    ``Optional[CapTracker]`` yields ``{"Optional", "CapTracker"}``;
    string annotations (forward references) are parsed and folded in.
    Callers intersect the result with the class names they care about,
    so the typing wrappers riding along are harmless.
    """
    if node is None:
        return frozenset()
    names: Set[str] = set()
    stack: List[ast.AST] = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, ast.Name):
            names.add(current.id)
        elif isinstance(current, ast.Attribute):
            names.add(current.attr)
        elif isinstance(current, ast.Constant) and isinstance(
            current.value, str
        ):
            try:
                stack.append(ast.parse(current.value, mode="eval").body)
            except SyntaxError:
                pass
        stack.extend(ast.iter_child_nodes(current))
    return frozenset(names)


@dataclass
class FunctionInfo:
    """One function or method definition, addressable project-wide."""

    #: Fully qualified name, e.g. ``repro.core.permits.PermitServer.revoke``.
    qualname: str
    #: Dotted module the definition lives in.
    module: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    #: Qualname of the owning class for methods, ``""`` for functions.
    class_qualname: str = ""

    @property
    def name(self) -> str:
        """The bare function name."""
        return self.qualname.rsplit(".", 1)[-1]

    def param_names(self) -> Tuple[str, ...]:
        """Positional + keyword-only parameter names, ``self``/``cls`` kept."""
        args = self.node.args  # type: ignore[attr-defined]
        ordered = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        return tuple(arg.arg for arg in ordered)

    def param_annotation(self, name: str) -> Optional[ast.AST]:
        """The annotation node of parameter ``name`` (``None`` if absent)."""
        args = self.node.args  # type: ignore[attr-defined]
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            if arg.arg == name:
                return arg.annotation
        return None

    def param_default(self, name: str) -> Optional[ast.AST]:
        """The default-value node of parameter ``name`` (``None`` if required)."""
        args = self.node.args  # type: ignore[attr-defined]
        positional = [*args.posonlyargs, *args.args]
        offset = len(positional) - len(args.defaults)
        for index, arg in enumerate(positional):
            if arg.arg == name and index >= offset:
                return args.defaults[index - offset]
        for index, arg in enumerate(args.kwonlyargs):
            if arg.arg == name:
                return args.kw_defaults[index]
        return None


@dataclass
class ClassInfo:
    """One class definition with its methods and attribute types."""

    qualname: str
    module: str
    node: ast.ClassDef
    #: Base-class expressions, unresolved (the symbol table resolves).
    base_nodes: List[ast.expr] = field(default_factory=list)
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: Attribute name -> identifiers from its annotation (``AnnAssign``
    #: in the class body, or ``self.x = <param>`` in ``__init__`` /
    #: ``__post_init__`` where the parameter is annotated).
    attr_type_names: Dict[str, FrozenSet[str]] = field(default_factory=dict)
    #: Attribute name -> the ``__init__``/``__post_init__`` parameter it
    #: is assigned from verbatim (``self.seed = seed``), for provenance.
    attr_from_param: Dict[str, str] = field(default_factory=dict)

    @property
    def name(self) -> str:
        """The bare class name."""
        return self.qualname.rsplit(".", 1)[-1]


_CTOR_METHODS = ("__init__", "__post_init__")


class ModuleInfo:
    """Symbol-level view of one parsed module."""

    def __init__(self, name: str, path: str, tree: ast.Module) -> None:
        self.name = name
        self.path = path
        self.tree = tree
        #: Bound name -> dotted module (``import a.b as c`` binds ``c``;
        #: plain ``import a.b`` binds the root ``a``).
        self.module_imports: Dict[str, str] = {}
        #: Bound name -> (module, symbol) for ``from m import s as b``.
        self.symbol_imports: Dict[str, Tuple[str, str]] = {}
        #: Modules star-imported with ``from m import *``.
        self.star_imports: List[str] = []
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: Module-level simple assignments: name -> value expression.
        self.assignments: Dict[str, ast.expr] = {}
        self._collect()

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    def _collect(self) -> None:
        for node in self.tree.body:
            if isinstance(node, ast.Import):
                self._collect_import(node)
            elif isinstance(node, ast.ImportFrom):
                self._collect_import_from(node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions[node.name] = FunctionInfo(
                    qualname=f"{self.name}.{node.name}",
                    module=self.name,
                    node=node,
                )
            elif isinstance(node, ast.ClassDef):
                self._collect_class(node)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.assignments[target.id] = node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name):
                    self.assignments[node.target.id] = node.value

    def _collect_import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.asname:
                self.module_imports[alias.asname] = alias.name
            else:
                root = alias.name.split(".", 1)[0]
                self.module_imports[root] = root

    def _collect_import_from(self, node: ast.ImportFrom) -> None:
        target = self._resolve_relative(node.module, node.level)
        if target is None:
            return
        for alias in node.names:
            if alias.name == "*":
                self.star_imports.append(target)
            else:
                bound = alias.asname or alias.name
                self.symbol_imports[bound] = (target, alias.name)

    def _resolve_relative(
        self, module: Optional[str], level: int
    ) -> Optional[str]:
        if level == 0:
            return module
        if not self.name:
            return None
        # ``self.name`` is the module; its package is one level up
        # (``repro.core.permits`` -> ``repro.core`` at level 1).
        parts = self.name.split(".")
        if len(parts) < level:
            return None
        base = parts[: len(parts) - level]
        if module:
            base.append(module)
        return ".".join(base) if base else None

    def _collect_class(self, node: ast.ClassDef) -> None:
        info = ClassInfo(
            qualname=f"{self.name}.{node.name}",
            module=self.name,
            node=node,
            base_nodes=list(node.bases),
        )
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.methods[stmt.name] = FunctionInfo(
                    qualname=f"{info.qualname}.{stmt.name}",
                    module=self.name,
                    node=stmt,
                    class_qualname=info.qualname,
                )
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                info.attr_type_names[stmt.target.id] = annotation_type_names(
                    stmt.annotation
                )
        for ctor_name in _CTOR_METHODS:
            ctor = info.methods.get(ctor_name)
            if ctor is not None:
                self._collect_ctor_attrs(info, ctor)
        self.classes[node.name] = info

    def _collect_ctor_attrs(
        self, info: ClassInfo, ctor: FunctionInfo
    ) -> None:
        for stmt in ast.walk(ctor.node):
            if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                continue
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            for target in targets:
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                attr = target.attr
                if isinstance(stmt, ast.AnnAssign):
                    info.attr_type_names.setdefault(
                        attr, annotation_type_names(stmt.annotation)
                    )
                value = stmt.value
                if isinstance(value, ast.Name):
                    if value.id in ctor.param_names():
                        info.attr_from_param.setdefault(attr, value.id)
                        annotation = ctor.param_annotation(value.id)
                        if annotation is not None:
                            info.attr_type_names.setdefault(
                                attr, annotation_type_names(annotation)
                            )
                elif (
                    isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Name)
                    and len(value.args) == 1
                    and isinstance(value.args[0], ast.Name)
                    and value.args[0].id in ctor.param_names()
                    and value.func.id in ("int", "float", "str")
                ):
                    # ``self.seed = int(seed)`` — the cast keeps the
                    # parameter provenance.
                    info.attr_from_param.setdefault(attr, value.args[0].id)

    # ------------------------------------------------------------------
    # Local lookup
    # ------------------------------------------------------------------
    def public_names(self) -> Set[str]:
        """Names a ``from module import *`` would bind (no ``_`` names)."""
        names = set(self.functions) | set(self.classes)
        names |= set(self.assignments)
        names |= set(self.symbol_imports)
        names |= set(self.module_imports)
        return {name for name in names if not name.startswith("_")}


class SymbolTable:
    """Project-wide name resolution over a set of :class:`ModuleInfo`."""

    def __init__(self, modules: Dict[str, ModuleInfo]) -> None:
        self.modules = modules

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def resolve(
        self, module: ModuleInfo, name: str, _seen: Optional[Set[str]] = None
    ) -> Optional[Tuple[str, object]]:
        """Resolve bare ``name`` as used inside ``module``.

        Returns ``("function", FunctionInfo)``, ``("class", ClassInfo)``,
        ``("module", dotted_name)`` or ``None``. Import chains and star
        imports are followed across modules, cycle-safe.
        """
        if name in module.functions:
            return ("function", module.functions[name])
        if name in module.classes:
            return ("class", module.classes[name])
        if name in module.symbol_imports:
            target_module, symbol = module.symbol_imports[name]
            return self._resolve_in(target_module, symbol, _seen or set())
        if name in module.module_imports:
            return ("module", module.module_imports[name])
        for star_target in module.star_imports:
            resolved = self._resolve_star(star_target, name, _seen or set())
            if resolved is not None:
                return resolved
        return None

    def _resolve_in(
        self, module_name: str, symbol: str, seen: Set[str]
    ) -> Optional[Tuple[str, object]]:
        key = f"{module_name}:{symbol}"
        if key in seen:
            return None
        seen.add(key)
        # ``from a import b`` can name a submodule just as well as a
        # symbol; prefer the symbol when both exist.
        target = self.modules.get(module_name)
        if target is not None:
            resolved = self.resolve(target, symbol, _seen=seen)
            if resolved is not None:
                return resolved
        submodule = f"{module_name}.{symbol}"
        if submodule in self.modules:
            return ("module", submodule)
        if target is None and module_name.startswith("repro"):
            return None
        if target is None:
            # stdlib / third-party: keep the dotted path so callers can
            # at least pattern-match (``random.Random``).
            return ("module", submodule)
        return None

    def _resolve_star(
        self, module_name: str, name: str, seen: Set[str]
    ) -> Optional[Tuple[str, object]]:
        if module_name in seen:
            return None
        seen.add(module_name)
        target = self.modules.get(module_name)
        if target is None or name.startswith("_"):
            return None
        if name in target.public_names():
            return self.resolve(target, name, _seen=seen)
        return None

    def resolve_dotted(
        self, module: ModuleInfo, dotted: str
    ) -> Optional[Tuple[str, object]]:
        """Resolve a dotted reference (``alias.Class.method`` etc.)."""
        parts = dotted.split(".")
        resolved = self.resolve(module, parts[0])
        for part in parts[1:]:
            if resolved is None:
                return None
            kind, value = resolved
            if kind == "module":
                resolved = self._resolve_in(str(value), part, set())
            elif kind == "class":
                info = value  # type: ClassInfo  # noqa: F842
                method = info.methods.get(part)  # type: ignore[union-attr]
                resolved = ("function", method) if method else None
            else:
                return None
        return resolved

    # ------------------------------------------------------------------
    # Class hierarchy
    # ------------------------------------------------------------------
    def ancestor_names(self, info: ClassInfo) -> Set[str]:
        """Terminal names of every ancestor reachable in the project.

        Unresolvable bases (builtins like ``ValueError``) contribute
        their bare name, which is exactly what exception matching needs.
        """
        out: Set[str] = set()
        stack: List[ClassInfo] = [info]
        seen: Set[str] = set()
        while stack:
            current = stack.pop()
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            module = self.modules.get(current.module)
            for base in current.base_nodes:
                terminal = (
                    base.id
                    if isinstance(base, ast.Name)
                    else base.attr
                    if isinstance(base, ast.Attribute)
                    else ""
                )
                if not terminal:
                    continue
                out.add(terminal)
                if module is not None:
                    resolved = self.resolve(module, terminal)
                    if resolved is not None and resolved[0] == "class":
                        stack.append(resolved[1])  # type: ignore[arg-type]
        return out

    def find_class(self, name: str) -> Optional[ClassInfo]:
        """The unique project class with bare name ``name`` (else None)."""
        matches = [
            info
            for module in self.modules.values()
            for cls_name, info in module.classes.items()
            if cls_name == name
        ]
        return matches[0] if len(matches) == 1 else None


@dataclass(frozen=True)
class CallSite:
    """One call expression, resolved (or not) to a project function."""

    #: Qualname of the function containing the call.
    caller: str
    #: Qualname of the resolved callee (``""`` when unresolved).
    callee: str
    node: ast.Call
    #: Exception names the enclosing ``try`` blocks catch at this site.
    caught: FrozenSet[str] = frozenset()


@dataclass(frozen=True)
class RaiseSite:
    """One ``raise`` statement and what the enclosing handlers catch."""

    #: Terminal name of the raised exception (``""`` for bare re-raise).
    name: str
    node: ast.Raise
    caught: FrozenSet[str] = frozenset()
    #: For a bare ``raise`` inside a handler: what that handler caught.
    reraises: FrozenSet[str] = frozenset()


class CallGraph:
    """Call edges between project functions, with reverse lookup."""

    def __init__(self) -> None:
        self.sites: List[CallSite] = []
        self._by_caller: Dict[str, List[CallSite]] = {}
        self._by_callee: Dict[str, List[CallSite]] = {}

    def add(self, site: CallSite) -> None:
        """Record one call site in both indexes."""
        self.sites.append(site)
        self._by_caller.setdefault(site.caller, []).append(site)
        if site.callee:
            self._by_callee.setdefault(site.callee, []).append(site)

    def callers_of(self, qualname: str) -> Sequence[CallSite]:
        """Every resolved call site targeting ``qualname``."""
        return self._by_callee.get(qualname, ())

    def functions(self) -> Iterator[str]:
        """Every function that makes at least one call."""
        return iter(self._by_caller)
