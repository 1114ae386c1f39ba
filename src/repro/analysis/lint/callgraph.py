"""Project call graph for the whole-program lint rules (RPR101–RPR103).

The file-local rules (RPR001–RPR004) see one module at a time, so a
single helper call can smuggle an effect into a pure path undetected.
This module builds the interprocedural view: every function and method
in the linted file set becomes a node, every statically-resolvable call
an edge, and the effect-inference pass (:mod:`repro.analysis.lint
.effects`) propagates effects over the edges.

The build is two-phase so the parallel lint runner can fan out:

* :func:`extract_module` turns one parsed :class:`SourceModule` into a
  picklable :class:`ModuleSummary` — functions, classes, call sites with
  *locally* resolved targets, per-scope type bindings.  No AST nodes
  survive extraction, so summaries cross process boundaries.
* :class:`CallGraph` links summaries: imports are resolved across
  modules, constructor calls land on ``__init__``, method calls resolve
  through annotation/assignment-derived receiver types with *virtual
  dispatch* (a call through a base class also reaches every project
  subclass override — this is how ``POLICY_REGISTRY`` dispatch through
  :class:`~repro.cache.policy.ReplacementPolicy` is covered), decorators
  and ``functools.partial`` contribute edges, and injectable
  :data:`DEFAULT_EDGE_HINTS` add edges no static analysis can see.

Calls that cannot be resolved — subscripted callables
(``REGISTRY[name]()``), ``getattr(...)()``, call results called again,
function-valued locals — degrade to *warnings* collected on the graph,
never a crash and never a silent drop.
"""

from __future__ import annotations

import ast
import builtins
from dataclasses import dataclass, field
from fnmatch import fnmatch
from typing import Iterator, Mapping

from repro.analysis.lint.framework import SourceModule

__all__ = [
    "CallKind",
    "CallSite",
    "FunctionInfo",
    "ClassInfo",
    "ModuleSummary",
    "CallGraph",
    "UnresolvedCall",
    "DEFAULT_EDGE_HINTS",
    "extract_module",
    "module_name_for",
]

#: pseudo-function holding a module's import-time statements
MODULE_BODY = "<module>"

#: names of builtin callables (used to separate "unknown local callable"
#: — a dynamic-dispatch warning — from plain builtin calls)
_BUILTIN_NAMES = frozenset(dir(builtins))

#: wrappers whose *argument* runs elsewhere (executor hop / thread pool):
#: the wrapped callable must NOT contribute edges to the caller
_EXECUTOR_HOPS = frozenset(
    {
        "asyncio.to_thread",
        "loop.run_in_executor",
        "run_in_executor",
        "concurrent.futures.ThreadPoolExecutor.submit",
    }
)

#: callables whose first argument is itself called later in-thread —
#: the call site contributes an edge to the argument
_PARTIAL_WRAPPERS = frozenset({"functools.partial", "partial"})


def module_name_for(display_path: str) -> str:
    """Dotted module name derived from a posix display path.

    ``src/repro/cache/lru.py`` → ``repro.cache.lru`` (any path with a
    ``repro`` component anchors there, so absolute and repo-relative
    invocations agree); paths outside the package fall back to the
    relative path with ``/`` → ``.`` so same-directory fixtures can
    import each other by stem.
    """
    parts = display_path.split("/")
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if "repro" in parts:
        parts = parts[parts.index("repro") :]
    parts = [p for p in parts if p and p not in (".", "..")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else display_path


class CallKind:
    """How a call site was locally classified (resolution finishes at link)."""

    DIRECT = "direct"  #: dotted target (local def, import, or external)
    SELF = "self"  #: ``self.meth(...)`` / ``cls.meth(...)``
    METHOD = "method"  #: ``obj.meth(...)`` with a typed/untyped receiver
    DYNAMIC = "dynamic"  #: ``xs[i]()``, ``getattr(..)()``, ``f()()``, local var


@dataclass(frozen=True)
class CallSite:
    """One call expression inside one function.

    ``region`` partitions a function body for order-sensitive rules:
    region 0 is the straight-line top level, and every loop body gets a
    fresh id — statements inside a loop execute repeatedly, so ordering
    constraints only hold *within* one region, never across regions.
    """

    line: int
    col: int
    call: str  #: source text of the callee expression (``ast.unparse``)
    kind: str  #: a :class:`CallKind` value
    target: str | None  #: dotted target (import-resolved) for DIRECT calls
    receiver_type: str | None = None  #: dotted class name for METHOD calls
    method: str | None = None  #: attribute name for SELF/METHOD calls
    region: int = 0  #: 0 = function top level, >0 = a loop body


@dataclass(frozen=True)
class UnresolvedCall:
    """A dynamic call the graph cannot follow (recorded, never fatal)."""

    path: str
    function: str
    line: int
    call: str
    reason: str

    def as_dict(self) -> dict[str, object]:
        return {
            "path": self.path,
            "function": self.function,
            "line": self.line,
            "call": self.call,
            "reason": self.reason,
        }


@dataclass
class FunctionInfo:
    """One function/method (or the module-body pseudo-function)."""

    id: str  #: ``<module>.<qualname>`` — globally unique node id
    module: str
    path: str
    qualname: str  #: ``Class.method`` / ``func`` / ``outer.<locals>.inner``
    line: int
    is_async: bool
    class_name: str | None  #: dotted-local class for methods
    parent: str | None  #: enclosing function id for nested defs
    decorators: tuple[str, ...] = ()  #: import-resolved dotted decorators
    calls: tuple[CallSite, ...] = ()
    #: intrinsic (directly-performed) effects: (effect, line, call text)
    intrinsic: tuple[tuple[str, int, str], ...] = ()


@dataclass
class ClassInfo:
    """One class: bases, methods, and inferred attribute types."""

    name: str  #: local (possibly nested) class name
    module: str
    line: int
    bases: tuple[str, ...]  #: import-resolved dotted base names
    methods: dict[str, str] = field(default_factory=dict)  #: name → fn id
    #: ``self.attr`` → dotted type name (annotation- or ctor-derived)
    attr_types: dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleSummary:
    """Everything the linker needs from one file (picklable)."""

    module: str
    path: str
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    imports: dict[str, str] = field(default_factory=dict)
    unresolved: list[UnresolvedCall] = field(default_factory=list)


#: caller-id fnmatch pattern → callee-id fnmatch patterns.  The shipped
#: hints wire the registry-based dispatch sites static resolution cannot
#: see: ``make_policy`` instantiates every registered policy class via a
#: class-valued local.  Tests inject their own hints.
DEFAULT_EDGE_HINTS: Mapping[str, tuple[str, ...]] = {
    "repro.cache.registry.make_policy": ("repro.cache.*.__init__",),
}


# --------------------------------------------------------------------- #
# extraction (per-file, parallelisable)


def _dotted_source(node: ast.expr) -> str | None:
    """``a.b.c`` chains as a dotted string, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _import_map(tree: ast.Module) -> dict[str, str]:
    out: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if alias.name != "*":
                    out[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return out


def _safe_unparse(node: ast.expr) -> str:
    try:
        return ast.unparse(node)
    except (ValueError, RecursionError):  # pragma: no cover - deep nesting
        return "<expr>"


class _Extractor:
    """Walks one module, building its :class:`ModuleSummary`."""

    def __init__(self, module: SourceModule, effect_tables: "_EffectTables"):
        self.src = module
        self.tables = effect_tables
        self.summary = ModuleSummary(
            module=module_name_for(module.display_path),
            path=module.display_path,
        )
        self.imports = _import_map(module.tree)
        self.summary.imports = dict(self.imports)
        self._region_counters: dict[str, int] = {}

    # -------------------------------------------------------------- #

    def run(self) -> ModuleSummary:
        mod = self.summary.module
        body_fn = FunctionInfo(
            id=f"{mod}.{MODULE_BODY}",
            module=mod,
            path=self.summary.path,
            qualname=MODULE_BODY,
            line=1,
            is_async=False,
            class_name=None,
            parent=None,
        )
        self.summary.functions[body_fn.id] = body_fn
        self._walk_body(
            self.src.tree.body, owner=body_fn, class_ctx=None, prefix=""
        )
        return self.summary

    def _walk_body(
        self,
        body: list[ast.stmt],
        *,
        owner: FunctionInfo,
        class_ctx: ClassInfo | None,
        prefix: str,
    ) -> None:
        """Collect defs/classes from ``body``; everything else belongs to
        ``owner`` (module body, class body, or enclosing function)."""
        calls: list[CallSite] = list(owner.calls)
        intrinsic: list[tuple[str, int, str]] = list(owner.intrinsic)
        local_types = _LocalTypes(self.imports, self.summary, class_ctx)
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(stmt, class_ctx=class_ctx, prefix=prefix)
                continue
            if isinstance(stmt, ast.ClassDef):
                self._add_class(stmt, owner=owner, prefix=prefix)
                continue
            local_types.feed(stmt)
            self._scan(stmt, owner, calls, intrinsic, local_types, 0, root=stmt)
        owner.calls = tuple(calls)
        owner.intrinsic = tuple(intrinsic)

    def _next_region(self, owner_id: str) -> int:
        self._region_counters[owner_id] = (
            self._region_counters.get(owner_id, 0) + 1
        )
        return self._region_counters[owner_id]

    def _scan(
        self,
        node: ast.AST,
        owner: FunctionInfo,
        calls: list[CallSite],
        intrinsic: list[tuple[str, int, str]],
        local_types: "_LocalTypes",
        region: int,
        *,
        root: ast.stmt,
    ) -> None:
        """Recursive statement walk: records calls and ``global`` uses,
        skips nested def/class, allocates a fresh region per loop body."""
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ) and node is not root:
            return
        if isinstance(node, ast.Call):
            self._record_call(node, owner, calls, intrinsic, local_types, region)
        elif isinstance(node, ast.Global):
            intrinsic.append(
                ("global_state", node.lineno, f"global {', '.join(node.names)}")
            )
        child_region = region
        if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
            child_region = self._next_region(owner.id)
        for child in ast.iter_child_nodes(node):
            self._scan(
                child, owner, calls, intrinsic, local_types, child_region,
                root=root,
            )

    # -------------------------------------------------------------- #

    def _add_function(
        self,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        *,
        class_ctx: ClassInfo | None,
        prefix: str,
    ) -> None:
        qualname = f"{prefix}{node.name}" if prefix else node.name
        mod = self.summary.module
        fn = FunctionInfo(
            id=f"{mod}.{qualname}",
            module=mod,
            path=self.summary.path,
            qualname=qualname,
            line=node.lineno,
            is_async=isinstance(node, ast.AsyncFunctionDef),
            class_name=class_ctx.name if class_ctx is not None else None,
            parent=None,
            decorators=tuple(
                resolved
                for resolved in (
                    self._resolve_dotted(dec) for dec in node.decorator_list
                )
                if resolved is not None
            ),
        )
        self.summary.functions[fn.id] = fn
        if class_ctx is not None and "." not in qualname.replace(
            f"{class_ctx.name}.", "", 1
        ):
            class_ctx.methods[node.name] = fn.id
        # the function's own statements (nested defs become children)
        local_types = _LocalTypes(self.imports, self.summary, class_ctx)
        local_types.feed_args(node.args)
        calls: list[CallSite] = []
        intrinsic: list[tuple[str, int, str]] = []
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                child_prefix = f"{qualname}.<locals>."
                child = self._add_nested(stmt, fn, class_ctx, child_prefix)
                self.summary.functions[child.id] = child
                continue
            if isinstance(stmt, ast.ClassDef):
                self._add_class(stmt, owner=fn, prefix=f"{qualname}.<locals>.")
                continue
            local_types.feed(stmt)
            if class_ctx is not None and node.name == "__init__":
                self._collect_attr_types(stmt, class_ctx, local_types)
            self._scan(stmt, fn, calls, intrinsic, local_types, 0, root=stmt)
        fn.calls = tuple(calls)
        fn.intrinsic = tuple(intrinsic)
        # annotation-derived attribute types also come from non-__init__
        # AnnAssign on self (e.g. dataclass-style declarations)
        if class_ctx is not None:
            for stmt in node.body:
                self._collect_attr_types(stmt, class_ctx, local_types)

    def _add_nested(
        self,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        parent: FunctionInfo,
        class_ctx: ClassInfo | None,
        prefix: str,
    ) -> FunctionInfo:
        # build via the normal path, then re-parent
        before = set(self.summary.functions)
        self._add_function(node, class_ctx=None, prefix=prefix)
        created = [
            f for fid, f in self.summary.functions.items() if fid not in before
        ]
        child = next(
            f for f in created if f.qualname == f"{prefix}{node.name}"
        )
        child.parent = parent.id
        return child

    def _add_class(
        self, node: ast.ClassDef, *, owner: FunctionInfo, prefix: str
    ) -> None:
        name = f"{prefix}{node.name}" if prefix else node.name
        bases = tuple(
            resolved
            for resolved in (self._resolve_dotted(b) for b in node.bases)
            if resolved is not None
        )
        cls = ClassInfo(
            name=name, module=self.summary.module, line=node.lineno, bases=bases
        )
        self.summary.classes[name] = cls
        # class-body statements run at import time → owner keeps them
        self._walk_body(
            node.body, owner=owner, class_ctx=cls, prefix=f"{name}."
        )

    def _collect_attr_types(
        self, stmt: ast.stmt, cls: ClassInfo, local_types: "_LocalTypes"
    ) -> None:
        """``self.x = Ctor(...)`` / ``self.x: T = ...`` / ``self.x = param``."""
        target: ast.expr | None = None
        value: ast.expr | None = None
        annotation: ast.expr | None = None
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target, value = stmt.targets[0], stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            target, value, annotation = stmt.target, stmt.value, stmt.annotation
        if (
            not isinstance(target, ast.Attribute)
            or not isinstance(target.value, ast.Name)
            or target.value.id != "self"
        ):
            return
        attr = target.attr
        if attr in cls.attr_types:
            return
        if annotation is not None:
            resolved = self._resolve_annotation(annotation)
            if resolved is not None:
                cls.attr_types[attr] = resolved
                return
        if isinstance(value, ast.Call):
            ctor = self._resolve_dotted(value.func)
            if ctor is not None:
                cls.attr_types[attr] = ctor
                return
        if isinstance(value, ast.Name):
            inferred = local_types.type_of_name(value.id)
            if inferred is not None:
                cls.attr_types[attr] = inferred

    def _resolve_annotation(self, node: ast.expr) -> str | None:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            # string annotation: take the head identifier chain
            head = node.value.split("[")[0].split("|")[0].strip()
            return self._resolve_name_chain(head) if head else None
        if isinstance(node, ast.Subscript):
            node = node.value
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            left = self._resolve_annotation(node.left)
            return left if left is not None else self._resolve_annotation(node.right)
        dotted = _dotted_source(node)
        if dotted is None or dotted in ("None",):
            return None
        return self._qualify(dotted)

    def _resolve_name_chain(self, chain: str) -> str | None:
        return self._qualify(chain) if chain.replace(".", "").isidentifier() else None

    def _resolve_dotted(self, node: ast.expr) -> str | None:
        if isinstance(node, ast.Call):  # decorator factories: @timed("x")
            node = node.func
        dotted = _dotted_source(node)
        return None if dotted is None else self._qualify(dotted)

    def _qualify(self, dotted: str) -> str:
        """Import-resolve the head of a dotted chain."""
        head, _, rest = dotted.partition(".")
        origin = self.imports.get(head)
        if origin is None:
            return dotted
        return f"{origin}.{rest}" if rest else origin

    # -------------------------------------------------------------- #

    def _record_call(
        self,
        node: ast.Call,
        owner: FunctionInfo,
        calls: list[CallSite],
        intrinsic: list[tuple[str, int, str]],
        local_types: "_LocalTypes",
        region: int,
    ) -> None:
        func = node.func
        text = _safe_unparse(func)
        dotted = _dotted_source(func)
        if dotted is None:
            # methods on literals (''.join, [1].count, f"...".format) can
            # never be project code — skip silently; everything else is a
            # genuine dynamic-dispatch site worth surfacing
            base: ast.expr = func
            while isinstance(base, ast.Attribute):
                base = base.value
            if not isinstance(
                base,
                (
                    ast.Constant,
                    ast.JoinedStr,
                    ast.List,
                    ast.Tuple,
                    ast.Dict,
                    ast.Set,
                    ast.ListComp,
                    ast.SetComp,
                    ast.DictComp,
                    ast.GeneratorExp,
                ),
            ):
                self.summary.unresolved.append(
                    UnresolvedCall(
                        path=self.summary.path,
                        function=owner.id,
                        line=node.lineno,
                        call=text,
                        reason="dynamic callee expression",
                    )
                )
            return
        qualified = self._qualify(dotted)

        # intrinsic effects come straight from the resolved dotted name;
        # ambiguous method tails (.write/.flush/...) only count as
        # filesystem I/O when the receiver is IO-typed — asyncio's
        # StreamWriter.write is non-blocking and must not match
        receiver_io = False
        if "." in dotted:
            receiver = dotted.rsplit(".", 1)[0]
            rtype = local_types.type_of(receiver)
            if rtype is not None:
                tail = rtype.rsplit(".", 1)[-1]
                receiver_io = tail in ("IO", "TextIO", "BinaryIO", "BufferedWriter")
        effect = self.tables.effect_for(qualified, node, receiver_io=receiver_io)
        if effect is not None:
            intrinsic.append((effect, node.lineno, f"{text}()"))

        if qualified in _EXECUTOR_HOPS or dotted in _EXECUTOR_HOPS:
            # the wrapped callable runs on an executor thread: no edge
            return
        if qualified in _PARTIAL_WRAPPERS or dotted in _PARTIAL_WRAPPERS:
            # the partial's target runs in-thread when the partial is
            # called; conservatively charge it to the builder
            if node.args:
                inner = _dotted_source(node.args[0])
                if inner is not None:
                    calls.append(
                        self._classify(
                            node,
                            inner,
                            _safe_unparse(node.args[0]),
                            local_types,
                            region,
                        )
                    )
            return
        calls.append(self._classify(node, dotted, text, local_types, region))

    def _classify(
        self,
        node: ast.Call,
        dotted: str,
        text: str,
        local_types: "_LocalTypes",
        region: int,
    ) -> CallSite:
        head, _, rest = dotted.partition(".")
        if not rest:
            # bare name call: local def / import / builtin / local variable
            if local_types.is_local_callable_var(head):
                self.summary.unresolved.append(
                    UnresolvedCall(
                        path=self.summary.path,
                        function="",
                        line=node.lineno,
                        call=text,
                        reason="call through a function-valued local",
                    )
                )
                return CallSite(
                    line=node.lineno,
                    col=node.col_offset,
                    call=text,
                    kind=CallKind.DYNAMIC,
                    target=None,
                    region=region,
                )
            return CallSite(
                line=node.lineno,
                col=node.col_offset,
                call=text,
                kind=CallKind.DIRECT,
                target=self._qualify(head),
                region=region,
            )
        if head in ("self", "cls") and rest and "." not in rest:
            return CallSite(
                line=node.lineno,
                col=node.col_offset,
                call=text,
                kind=CallKind.SELF,
                target=None,
                method=rest,
                region=region,
            )
        # receiver.method(...): type the receiver if we can
        receiver_dotted = dotted.rsplit(".", 1)[0]
        method = dotted.rsplit(".", 1)[1]
        receiver_type = local_types.type_of(receiver_dotted)
        if receiver_type is None and head in self.imports:
            # module-attribute call: a plain DIRECT dotted target
            return CallSite(
                line=node.lineno,
                col=node.col_offset,
                call=text,
                kind=CallKind.DIRECT,
                target=self._qualify(dotted),
                region=region,
            )
        return CallSite(
            line=node.lineno,
            col=node.col_offset,
            call=text,
            kind=CallKind.METHOD,
            target=self._qualify(dotted),
            receiver_type=receiver_type,
            method=method,
            region=region,
        )


class _LocalTypes:
    """Flow-insensitive receiver typing inside one scope.

    Sources, in priority order: parameter annotations, ``AnnAssign``
    annotations, ``x = Ctor(...)`` constructor assignments.  ``self.attr``
    receivers resolve through the enclosing class's collected attribute
    types at *link* time (the extractor only records the class name).
    """

    def __init__(
        self,
        imports: dict[str, str],
        summary: ModuleSummary,
        class_ctx: ClassInfo | None,
    ):
        self.imports = imports
        self.summary = summary
        self.class_ctx = class_ctx
        self.names: dict[str, str] = {}
        self.callable_vars: set[str] = set()

    def _qualify(self, dotted: str) -> str:
        head, _, rest = dotted.partition(".")
        origin = self.imports.get(head)
        if origin is None:
            return dotted
        return f"{origin}.{rest}" if rest else origin

    def _annotation_type(self, node: ast.expr | None) -> str | None:
        if node is None:
            return None
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            head = node.value.split("[")[0].split("|")[0].strip()
            return self._qualify(head) if head.replace(".", "").isidentifier() else None
        if isinstance(node, ast.Subscript):
            node = node.value
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            return self._annotation_type(node.left) or self._annotation_type(
                node.right
            )
        dotted = _dotted_source(node)
        if dotted is None or dotted == "None":
            return None
        resolved = self._qualify(dotted)
        if dotted in ("Callable",) or resolved.endswith("typing.Callable"):
            return None
        return resolved

    def feed_args(self, args: ast.arguments) -> None:
        for arg in [
            *args.posonlyargs,
            *args.args,
            *args.kwonlyargs,
            *filter(None, (args.vararg, args.kwarg)),
        ]:
            ann = self._annotation_type(arg.annotation)
            if ann is not None:
                self.names.setdefault(arg.arg, ann)
            elif arg.annotation is not None and self._is_callable_annotation(
                arg.annotation
            ):
                self.callable_vars.add(arg.arg)
            elif arg.annotation is None and arg.arg not in ("self", "cls"):
                # an unannotated parameter used as a call target is a
                # dynamic dispatch site
                self.callable_vars.add(arg.arg)

    def _is_callable_annotation(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Subscript):
            node = node.value
        dotted = _dotted_source(node)
        return dotted is not None and dotted.split(".")[-1] == "Callable"

    def feed(self, stmt: ast.stmt) -> None:
        target: ast.expr | None = None
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target, value = stmt.targets[0], stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            ann = self._annotation_type(stmt.annotation)
            if ann is not None and isinstance(stmt.target, ast.Name):
                self.names.setdefault(stmt.target.id, ann)
                return
            target, value = stmt.target, stmt.value
        if not isinstance(target, ast.Name) or value is None:
            return
        if isinstance(value, ast.Call):
            ctor = _dotted_source(value.func)
            if ctor is not None:
                resolved = self._qualify(ctor)
                tail = resolved.split(".")[-1]
                # heuristic: Capitalised targets are constructors
                if tail[:1].isupper():
                    self.names.setdefault(target.id, resolved)
        elif isinstance(value, (ast.Lambda,)):
            self.callable_vars.add(target.id)
        elif isinstance(value, ast.Name) and value.id in self.callable_vars:
            self.callable_vars.add(target.id)

    def type_of_name(self, name: str) -> str | None:
        return self.names.get(name)

    def type_of(self, receiver: str) -> str | None:
        """Dotted receiver (``x`` or ``self.attr``) → dotted type name."""
        if "." not in receiver:
            return self.names.get(receiver)
        head, _, rest = receiver.partition(".")
        if head == "self" and self.class_ctx is not None and "." not in rest:
            return self.class_ctx.attr_types.get(rest)
        return None

    def is_local_callable_var(self, name: str) -> bool:
        return name in self.callable_vars and name not in _BUILTIN_NAMES


# --------------------------------------------------------------------- #
# effect tables shared with effects.py (extraction needs them to tag
# intrinsic sites without a second walk)


class _EffectTables:
    """Maps resolved call targets to intrinsic effect names."""

    def __init__(self) -> None:
        from repro.analysis.lint.effects import (
            CLOCK_CALLS,
            FS_CALLS,
            FS_METHODS,
            FS_PATH_METHODS,
            NETWORK_CALLS,
            PROCESS_PREFIXES,
            SLEEP_CALLS,
        )

        self.clock = CLOCK_CALLS
        self.fs = FS_CALLS
        self.fs_methods = FS_METHODS
        self.fs_path_methods = FS_PATH_METHODS
        self.network = NETWORK_CALLS
        self.process_prefixes = PROCESS_PREFIXES
        self.sleep = SLEEP_CALLS

    def effect_for(
        self, qualified: str, node: ast.Call, *, receiver_io: bool = False
    ) -> str | None:
        from repro.analysis.lint.effects import rng_effect

        if qualified in self.sleep:
            return "sleep"
        if qualified in self.clock:
            return "wall_clock"
        if qualified in self.fs:
            return "filesystem"
        if qualified in self.network:
            return "network"
        for prefix in self.process_prefixes:
            if qualified == prefix or qualified.startswith(prefix + "."):
                return "process"
        tail = qualified.split(".")[-1]
        if "." in qualified and tail in self.fs_path_methods:
            return "filesystem"
        if receiver_io and tail in self.fs_methods and "." in qualified:
            return "filesystem"
        return rng_effect(qualified, node)


def extract_module(module: SourceModule) -> ModuleSummary:
    """One file → its picklable call-graph summary."""
    return _Extractor(module, _EffectTables()).run()


# --------------------------------------------------------------------- #
# linking


class CallGraph:
    """Cross-module call graph over a set of :class:`ModuleSummary`.

    ``edges`` maps a function id to ``(callee_id, line, call_text)``
    triples, deterministically ordered.  ``unresolved`` aggregates every
    dynamic call the linker and extractors could not follow.
    """

    def __init__(
        self,
        summaries: list[ModuleSummary],
        *,
        edge_hints: Mapping[str, tuple[str, ...]] | None = None,
    ):
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}  #: "<module>.<Class>" → info
        self.unresolved: list[UnresolvedCall] = []
        self._method_index: dict[tuple[str, str], str] = {}
        self._subclasses: dict[str, list[str]] = {}
        self._module_functions: dict[tuple[str, str], str] = {}
        hints = DEFAULT_EDGE_HINTS if edge_hints is None else edge_hints

        for summary in summaries:
            for fid, fn in summary.functions.items():
                self.functions[fid] = fn
            for name, cls in summary.classes.items():
                self.classes[f"{cls.module}.{name}"] = cls
            self.unresolved.extend(summary.unresolved)
        for key, cls in self.classes.items():
            for method, fid in cls.methods.items():
                self._method_index[(key, method)] = fid
        for fid, fn in self.functions.items():
            if fn.class_name is None:
                self._module_functions[(fn.module, fn.qualname)] = fid
        # subclass closure for virtual dispatch
        for key, cls in self.classes.items():
            for base in cls.bases:
                base_key = self._resolve_class(base, cls.module)
                if base_key is not None:
                    self._subclasses.setdefault(base_key, []).append(key)

        self.edges: dict[str, tuple[tuple[str, int, str], ...]] = {}
        for fid in sorted(self.functions):
            self.edges[fid] = tuple(self._link_function(self.functions[fid]))
        self._apply_hints(hints)

    # -------------------------------------------------------------- #

    def _resolve_class(self, dotted: str, from_module: str) -> str | None:
        """A dotted class reference → the ``classes`` key, if known."""
        if dotted in self.classes:
            return dotted
        local = f"{from_module}.{dotted}"
        if local in self.classes:
            return local
        # suffix match: "CacheState" or "state.CacheState" referenced
        # from another module resolves to the unique project class
        tail = dotted.split(".")[-1]
        matches = sorted(
            key for key in self.classes if key.rsplit(".", 1)[-1] == tail
        )
        if len(matches) == 1:
            return matches[0]
        if dotted.count("."):
            narrowed = sorted(m for m in matches if m.endswith(dotted))
            if len(narrowed) == 1:
                return narrowed[0]
        return None

    def _resolve_function(self, dotted: str, from_module: str) -> str | None:
        if dotted in self.functions:
            return dotted
        local = f"{from_module}.{dotted}"
        if local in self.functions:
            return local
        # constructor: ClassName(...) → ClassName.__init__
        cls_key = self._resolve_class(dotted, from_module)
        if cls_key is not None:
            init = self._method_with_inheritance(cls_key, "__init__")
            return init
        # suffix match against module-level functions of other modules
        parts = dotted.rsplit(".", 1)
        if len(parts) == 2:
            mod, name = parts
            candidate = self._module_functions.get((mod, name))
            if candidate is not None:
                return candidate
        return None

    def _method_with_inheritance(self, cls_key: str, method: str) -> str | None:
        seen: set[str] = set()
        stack = [cls_key]
        while stack:
            key = stack.pop()
            if key in seen:
                continue
            seen.add(key)
            fid = self._method_index.get((key, method))
            if fid is not None:
                return fid
            cls = self.classes.get(key)
            if cls is None:
                continue
            for base in cls.bases:
                base_key = self._resolve_class(base, cls.module)
                if base_key is not None:
                    stack.append(base_key)
        return None

    def _virtual_targets(self, cls_key: str, method: str) -> list[str]:
        """The statically-defined method plus every subclass override."""
        out: list[str] = []
        own = self._method_with_inheritance(cls_key, method)
        if own is not None:
            out.append(own)
        stack = list(self._subclasses.get(cls_key, ()))
        seen: set[str] = set()
        while stack:
            key = stack.pop()
            if key in seen:
                continue
            seen.add(key)
            fid = self._method_index.get((key, method))
            if fid is not None:
                out.append(fid)
            stack.extend(self._subclasses.get(key, ()))
        return sorted(set(out))

    def _link_function(
        self, fn: FunctionInfo
    ) -> Iterator[tuple[str, int, str]]:
        cls_key = (
            f"{fn.module}.{fn.class_name}" if fn.class_name is not None else None
        )
        for site in fn.calls:
            if site.kind == CallKind.DYNAMIC:
                continue
            if site.kind == CallKind.SELF and site.method is not None:
                if cls_key is not None:
                    for target in self._virtual_targets(cls_key, site.method):
                        yield (target, site.line, site.call)
                continue
            if site.kind == CallKind.METHOD and site.method is not None:
                receiver = site.receiver_type
                if receiver is None and site.target is not None:
                    resolved = self._resolve_function(site.target, fn.module)
                    if resolved is not None:
                        yield (resolved, site.line, site.call)
                    continue
                if receiver is not None:
                    rec_key = self._resolve_class(receiver, fn.module)
                    if rec_key is not None:
                        for target in self._virtual_targets(
                            rec_key, site.method
                        ):
                            yield (target, site.line, site.call)
                    continue
                continue
            if site.target is not None:  # DIRECT
                resolved = self._resolve_function(site.target, fn.module)
                if resolved is not None:
                    yield (resolved, site.line, site.call)
        # decorators wrap every invocation of the function
        for dec in fn.decorators:
            resolved = self._resolve_function(dec, fn.module)
            if resolved is not None:
                yield (resolved, fn.line, f"@{dec}")

    def _apply_hints(self, hints: Mapping[str, tuple[str, ...]]) -> None:
        if not hints:
            return
        all_ids = sorted(self.functions)
        for caller_pat in sorted(hints):
            callee_pats = hints[caller_pat]
            callers = [fid for fid in all_ids if fnmatch(fid, caller_pat)]
            if not callers:
                continue
            targets: list[str] = []
            for pat in callee_pats:
                targets.extend(fid for fid in all_ids if fnmatch(fid, pat))
            for caller in callers:
                fn = self.functions[caller]
                extra = tuple(
                    (t, fn.line, f"<hint:{caller_pat}>")
                    for t in sorted(set(targets))
                    if t != caller
                )
                self.edges[caller] = self.edges.get(caller, ()) + extra
