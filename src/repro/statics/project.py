"""Per-file summaries for the whole-program (``--flow``) statics layer.

The flow rules (:mod:`repro.statics.flow`) need facts no single-file AST
visit can provide: who calls whom, which mailboxes are registered where,
what flows into a ``schedule()`` three calls away.  Rather than keeping
every file's AST alive, the project layer reduces each file to a plain
JSON-able :class:`FileSummary` — symbol table entries, resolved-enough
call sites, message-flow sites, local taint seeds — and the global
phases (:mod:`repro.statics.graphs`, :mod:`repro.statics.taint`) link
summaries only.

Because a summary is a pure function of the file's bytes, it caches
content-keyed on disk (sha256 of source + format version): the CI flow
gate re-parses only files that changed since the last run, which is what
keeps the whole-program pass inside its time budget.

Granularity: one :class:`FunctionSummary` per top-level function, per
method, and one ``<module>`` pseudo-function for module-level
statements.  Nested ``def``\\ s (the deployment's sender closures, say)
are *folded into* their enclosing function — their calls, sends, and
sinks belong to the closure's builder for flow purposes — except their
``return`` statements, which do not taint the outer return.
"""

from __future__ import annotations

import ast
import functools
import hashlib
import json
import os
from dataclasses import dataclass, field, fields
from collections.abc import Callable, Iterator, Sequence
from typing import (Any, Optional, TypeVar, Union, cast, get_args,
                    get_origin, get_type_hints)

from repro.statics.engine import scope_of
from repro.statics.rules import (SINK_FNS, ImportMap, call_name,
                                 float_reason, hash_id_key_sites,
                                 set_iteration_sites, time_argument)

#: Bump when the summary format or the extraction logic changes: a
#: version mismatch is simply a cache miss.
SUMMARY_VERSION = 1

T = TypeVar("T")

#: Calls that yield integers (or otherwise launder float taint away).
_SANITIZERS = frozenset({"int", "exact_ns", "len", "round", "floor",
                         "ceil", "ns"})

#: Builtins that propagate their arguments' taint to their result.
_PROPAGATORS = frozenset({"min", "max", "abs", "sum", "divmod", "sorted",
                          "list", "tuple"})

#: Cross-boundary send primitives: a call to any of these means the
#: enclosing function feeds data across an actor boundary.
BOUNDARY_SENDS = frozenset({"send_ctrl", "send_up", "forward_init"})

#: The mailbox API the message-flow graph is extracted from.
MAILBOX_SEND = "send_ctrl"
MAILBOX_REGISTER = "register_mailbox"


# ----------------------------------------------------------------------
# Plain-data records
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Taint:
    """A local taint value: which float sources, parameters, and call
    returns an expression (transitively, within one function) depends
    on.  Call ids index the owning function's ``calls`` list; the global
    fixpoint resolves them."""

    sources: tuple[str, ...] = ()
    params: tuple[str, ...] = ()
    calls: tuple[int, ...] = ()

    @property
    def empty(self) -> bool:
        return not (self.sources or self.params or self.calls)

    def merged(self, other: "Taint") -> "Taint":
        if other.empty:
            return self
        if self.empty:
            return other
        return Taint(
            sources=tuple(sorted(set(self.sources) | set(other.sources))),
            params=tuple(sorted(set(self.params) | set(other.params))),
            calls=tuple(sorted(set(self.calls) | set(other.calls))))


EMPTY_TAINT = Taint()


@dataclass
class CallSite:
    """One call expression, classified just enough to resolve globally.

    ``kind``: ``"name"`` (plain or dotted module function / constructor),
    ``"self"`` (method on the enclosing instance), ``"method"`` (method
    on a receiver whose local type is ``recv`` — or unresolved when
    ``recv`` is None).
    """

    id: int
    line: int
    col: int
    kind: str
    name: str
    recv: Optional[str] = None
    args: list[Taint] = field(default_factory=list)
    kwargs: dict[str, Taint] = field(default_factory=dict)


@dataclass
class Sink:
    """A scheduling call's time argument inside one function.

    ``direct`` flags taint visible inside the argument expression itself
    — SIM001's (per-file) territory, which DET005 therefore skips."""

    line: int
    col: int
    fn: str
    taint: Taint
    direct: bool


@dataclass
class MsgSite:
    """One ``send_ctrl`` / ``register_mailbox`` call site.

    ``spec`` is the mailbox-name argument reduced to one of:
    ``("exact", name)``, ``("scheme", prefix)`` for f-strings with a
    constant prefix, ``("ref", identifier)`` for names resolved at link
    time against module constants, ``("ref_call", callee)`` for helper
    functions returning a name, or ``("dynamic", repr)``."""

    api: str
    line: int
    col: int
    spec_kind: str
    spec_value: str
    #: For registrations: the handler argument, reduced to a resolvable
    #: hint ({"kind": "name"|"call"|"method", ...}) or None.
    handler: Optional[dict[str, str]] = None


@dataclass
class OrderSite:
    """A nondeterministic-ordering site (DET003/DET004 shape) inside one
    function — promoted to MSG002 when the function feeds a boundary."""

    rule: str
    line: int
    col: int
    desc: str


@dataclass
class AccessSite:
    """A store to / call of a private member on a non-``self`` receiver
    whose local type resolved — FLOW001 raw material."""

    line: int
    col: int
    recv_type: str
    member: str
    mode: str  # "store" | "call"


@dataclass
class FunctionSummary:
    """Everything the global phases need to know about one function."""

    qualname: str
    name: str
    module: str
    path: str
    lineno: int
    class_name: Optional[str] = None
    params: list[str] = field(default_factory=list)
    calls: list[CallSite] = field(default_factory=list)
    sinks: list[Sink] = field(default_factory=list)
    returns: Taint = EMPTY_TAINT
    #: Mailbox-name spec when every return is a constant / const-prefix
    #: f-string (``("exact", v)`` / ``("scheme", p)``), else None.
    returns_str_spec: Optional[tuple[str, str]] = None
    msg_sites: list[MsgSite] = field(default_factory=list)
    boundary_send: bool = False
    order_sites: list[OrderSite] = field(default_factory=list)
    private_access: list[AccessSite] = field(default_factory=list)


@dataclass
class ClassSummary:
    """One class: bases as written, method names, and the attribute
    types the constructor's annotated parameters pin down."""

    name: str
    module: str
    lineno: int
    bases: list[str] = field(default_factory=list)
    methods: list[str] = field(default_factory=list)
    #: instance attr -> local type ref ("Class", "list:Class", ...).
    attr_types: dict[str, str] = field(default_factory=dict)


@dataclass
class FileSummary:
    """The whole-file record the global phases link against."""

    path: str
    module: str
    scope: str
    sha: str
    #: local alias -> dotted module (``import x.y as z``).
    import_modules: dict[str, str] = field(default_factory=dict)
    #: local name -> (module, original) (``from m import n as l``).
    import_names: dict[str, tuple[str, str]] = field(default_factory=dict)
    #: module-level string constants.
    constants: dict[str, str] = field(default_factory=dict)
    classes: dict[str, ClassSummary] = field(default_factory=dict)
    functions: list[FunctionSummary] = field(default_factory=list)
    parse_error: Optional[str] = None


# ----------------------------------------------------------------------
# JSON codec
# ----------------------------------------------------------------------


def encode(value: Any) -> Any:
    """A record as plain JSON data: dataclasses become dicts in field
    order, tuples become lists, atoms are kept as is."""
    if value is None or isinstance(value, (str, int, float)):
        return value
    if isinstance(value, (list, tuple)):
        return [encode(item) for item in value]
    if isinstance(value, dict):
        return {key: encode(item) for key, item in value.items()}
    return {name: encode(getattr(value, name))
            for name in _field_names(type(value))}


@functools.lru_cache(maxsize=None)
def _field_names(cls: Any) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


def decode(cls: type[T], data: Any) -> T:
    """Rebuild a record of type ``cls`` from :func:`encode`'s output."""
    return cast(T, _decoder(cls)(data))


def _identity(data: Any) -> Any:
    return data


@functools.lru_cache(maxsize=None)
def _decoder(hint: Any) -> Callable[[Any], Any]:
    """The decoder for one type hint, built once per type: dataclasses
    field by field (positionally) from their resolved hints, containers
    element-wise (tuples here are homogeneous), ``Optional`` passing
    None through, atoms as is.  Containers of atoms are rebuilt without
    a per-item call: a warm run decodes every summary."""
    if hasattr(hint, "__dataclass_fields__"):
        hints = get_type_hints(hint)
        decoders = [(f.name, _decoder(hints[f.name])) for f in fields(hint)]
        return lambda data: hint(*[dec(data[name])
                                   for name, dec in decoders])
    origin: Any = get_origin(hint)
    args = get_args(hint)
    if origin is Union:
        inner = _decoder(next(a for a in args if a is not type(None)))
        if inner is _identity:
            return _identity
        return lambda data: None if data is None else inner(data)
    if origin in (list, tuple):
        item = _decoder(args[0])
        if item is _identity:
            return origin
        return lambda data: origin([item(x) for x in data])
    if origin is dict:
        value = _decoder(args[1])
        if value is _identity:
            return dict
        return lambda data: {k: value(v) for k, v in data.items()}
    return _identity


# ----------------------------------------------------------------------
# Module naming
# ----------------------------------------------------------------------


def module_name_of(path: str) -> str:
    """Dotted module name for files under a ``repro`` package tree;
    the bare stem otherwise (flat namespace — how the fixture corpus's
    mini-projects import each other)."""
    parts = os.path.normpath(path).split(os.sep)
    if "repro" in parts:
        tail = parts[parts.index("repro"):]
        tail[-1] = tail[-1][:-3] if tail[-1].endswith(".py") else tail[-1]
        if tail[-1] == "__init__":
            tail = tail[:-1]
        return ".".join(tail)
    stem = parts[-1]
    return stem[:-3] if stem.endswith(".py") else stem


# ----------------------------------------------------------------------
# Extraction
# ----------------------------------------------------------------------


def _walk_own(fn: ast.AST) -> Iterator[ast.AST]:
    """Walk a function's own statements, pruning nested function and
    class definitions (their returns are not the outer function's)."""
    stack: list[ast.AST] = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def _walk_folded(fn: ast.AST) -> Iterator[ast.AST]:
    """Walk a function including nested defs/lambdas, pruning nested
    ClassDefs only (their methods are summarized separately)."""
    stack: list[ast.AST] = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, ast.ClassDef):
            stack.extend(ast.iter_child_nodes(node))


def _annotation_type(annotation: Optional[ast.expr]) -> Optional[str]:
    """Reduce a type annotation to a local type ref: ``"C"``,
    ``"list:C"`` for list/tuple/sequence containers, ``"dict:C"`` for
    mapping values; peels ``Optional``/quotes."""
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) and isinstance(
            annotation.value, str):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(annotation, ast.Name):
        return annotation.id
    if isinstance(annotation, ast.Attribute):
        return annotation.attr
    if isinstance(annotation, ast.Subscript):
        head = annotation.value
        head_name = (head.id if isinstance(head, ast.Name)
                     else head.attr if isinstance(head, ast.Attribute)
                     else None)
        if head_name is None:
            return None
        inner = annotation.slice
        if head_name in ("Optional",):
            return _annotation_type(inner)
        if head_name in ("list", "List", "Sequence", "Iterable", "tuple",
                         "Tuple", "frozenset", "set", "Set"):
            elt = (inner.elts[0] if isinstance(inner, ast.Tuple)
                   and inner.elts else inner)
            base = _annotation_type(elt)
            return f"list:{base}" if base else None
        if head_name in ("dict", "Dict", "Mapping", "MutableMapping"):
            if isinstance(inner, ast.Tuple) and len(inner.elts) == 2:
                base = _annotation_type(inner.elts[1])
                return f"dict:{base}" if base else None
    return None


def _element_type(ref: Optional[str]) -> Optional[str]:
    if ref and ":" in ref:
        return ref.split(":", 1)[1]
    return None


class _Extractor:
    """One file's extraction pass."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.tree = tree
        self.module = module_name_of(path)
        self.imports = ImportMap(tree)
        self.summary = FileSummary(
            path=path, module=self.module, scope=scope_of(path),
            sha=content_key(source), import_modules=self.imports.modules,
            import_names=self.imports.names)
        #: local type query for the function currently being
        #: summarized; rebound by :meth:`_type_env` per function.
        self._expr_type: Callable[[ast.expr], Optional[str]] = \
            lambda expr: None
        #: the current function's folded subtree (name-spec scope).
        self._fn_nodes: Sequence[ast.AST] = ()
        self._collect_constants()
        self._collect_classes()

    # -- module-level tables -------------------------------------------
    def _collect_constants(self) -> None:
        for stmt in self.tree.body:
            targets: list[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            if (value is not None and isinstance(value, ast.Constant)
                    and isinstance(value.value, str)):
                for target in targets:
                    if isinstance(target, ast.Name):
                        self.summary.constants[target.id] = value.value

    def _collect_classes(self) -> None:
        for stmt in self.tree.body:
            if not isinstance(stmt, ast.ClassDef):
                continue
            cls = ClassSummary(name=stmt.name, module=self.module,
                               lineno=stmt.lineno)
            for base in stmt.bases:
                if isinstance(base, ast.Name):
                    cls.bases.append(base.id)
                elif isinstance(base, ast.Attribute):
                    cls.bases.append(base.attr)
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    cls.methods.append(item.name)
                    self._collect_attr_types(cls, item)
                elif (isinstance(item, ast.AnnAssign)
                      and isinstance(item.target, ast.Name)):
                    ref = _annotation_type(item.annotation)
                    if ref is not None:
                        cls.attr_types[item.target.id] = ref
            self.summary.classes[stmt.name] = cls

    def _collect_attr_types(self, cls: ClassSummary,
                            method: ast.AST) -> None:
        """``self.x = param`` with an annotated param, and annotated
        ``self.x: T`` assignments, type the instance attribute."""
        args = getattr(method, "args", None)
        if args is None or not args.args:
            return
        self_name = args.args[0].arg
        param_types: dict[str, str] = {}
        for arg in list(args.args) + list(args.kwonlyargs):
            ref = _annotation_type(arg.annotation)
            if ref is not None:
                param_types[arg.arg] = ref
        for node in _walk_own(method):
            target: Optional[ast.expr] = None
            value: Optional[ast.expr] = None
            annotation: Optional[ast.expr] = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign):
                target, value, annotation = node.target, node.value, \
                    node.annotation
            if (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == self_name):
                ref: Optional[str] = None
                if annotation is not None:
                    ref = _annotation_type(annotation)
                elif isinstance(value, ast.Name):
                    ref = param_types.get(value.id)
                elif (isinstance(value, ast.Call)
                      and isinstance(value.func, ast.Name)
                      and value.func.id[:1].isupper()):
                    ref = value.func.id
                elif isinstance(value, ast.ListComp) and isinstance(
                        value.elt, ast.Call) and isinstance(
                        value.elt.func, ast.Name) \
                        and value.elt.func.id[:1].isupper():
                    ref = f"list:{value.elt.func.id}"
                if ref is not None and target.attr not in cls.attr_types:
                    cls.attr_types[target.attr] = ref

    # -- function summaries --------------------------------------------
    def extract(self) -> FileSummary:
        module_fn = self._function_summary(
            "<module>", self.tree, class_name=None, lineno=1,
            module_level=True)
        if (module_fn.calls or module_fn.sinks or module_fn.msg_sites
                or module_fn.order_sites or module_fn.private_access):
            self.summary.functions.append(module_fn)
        for stmt in self.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.summary.functions.append(self._function_summary(
                    stmt.name, stmt, class_name=None, lineno=stmt.lineno))
            elif isinstance(stmt, ast.ClassDef):
                for item in stmt.body:
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        self.summary.functions.append(
                            self._function_summary(
                                item.name, item, class_name=stmt.name,
                                lineno=item.lineno))
        return self.summary

    def _function_summary(self, name: str, fn: ast.AST,
                          class_name: Optional[str], lineno: int,
                          module_level: bool = False) -> FunctionSummary:
        qual = (f"{self.module}:{class_name}.{name}" if class_name
                else f"{self.module}:{name}")
        out = FunctionSummary(qualname=qual, name=name, module=self.module,
                              path=self.path, lineno=lineno,
                              class_name=class_name)
        args = getattr(fn, "args", None)
        if args is not None:
            out.params = [a.arg for a in
                          list(args.posonlyargs) + list(args.args)]
        if module_level:
            body: list[ast.stmt] = [
                stmt for stmt in self.tree.body
                if not isinstance(stmt, (ast.FunctionDef,
                                         ast.AsyncFunctionDef,
                                         ast.ClassDef))]
            holder = ast.Module(body=body, type_ignores=[])
            walk_nodes = list(_walk_folded(holder))
            own_nodes = list(_walk_own(holder))
        else:
            walk_nodes = list(_walk_folded(fn))
            own_nodes = list(_walk_own(fn))
        walk_nodes.sort(key=lambda n: (getattr(n, "lineno", 0),
                                       getattr(n, "col_offset", 0)))

        type_env = self._type_env(fn, walk_nodes, class_name)
        self._fn_nodes = walk_nodes  # name-spec resolution scope
        call_nodes = [n for n in walk_nodes if isinstance(n, ast.Call)]
        call_ids = {id(n): i for i, n in enumerate(call_nodes)}
        env = self._taint_env(walk_nodes, out.params, call_ids)

        for i, node in enumerate(call_nodes):
            site = self._call_site(i, node, type_env, class_name)
            site.args = [self._taint_of(a, env, out.params, call_ids)
                         for a in node.args]
            site.kwargs = {
                kw.arg: self._taint_of(kw.value, env, out.params, call_ids)
                for kw in node.keywords if kw.arg is not None}
            out.calls.append(site)
            callee = call_name(node)
            if callee in BOUNDARY_SENDS:
                out.boundary_send = True
            if callee in (MAILBOX_SEND, MAILBOX_REGISTER):
                out.msg_sites.append(self._msg_site(node, callee, env))
            if callee in SINK_FNS:
                self._sink(node, callee, env, out, call_ids)

        returns = EMPTY_TAINT
        ret_specs: list[Optional[tuple[str, str]]] = []
        for node in own_nodes:
            if isinstance(node, ast.Return) and node.value is not None:
                returns = returns.merged(self._taint_of(
                    node.value, env, out.params, call_ids))
                ret_specs.append(_literal_spec(node.value))
        out.returns = returns
        if ret_specs and all(s is not None for s in ret_specs):
            uniq = {s for s in ret_specs if s is not None}
            if len(uniq) == 1:
                out.returns_str_spec = next(iter(uniq))
        self._order_sites(fn if not module_level else self.tree,
                          module_level, out)
        self._private_access(walk_nodes, type_env, class_name, out)
        return out

    # -- local type environment ----------------------------------------
    def _type_env(self, fn: ast.AST, walk_nodes: Sequence[ast.AST],
                  class_name: Optional[str]) -> dict[str, str]:
        env: dict[str, str] = {}
        args = getattr(fn, "args", None)
        self_name = None
        if args is not None:
            params = list(args.posonlyargs) + list(args.args) + \
                list(args.kwonlyargs)
            if class_name is not None and args.args:
                self_name = args.args[0].arg
            for arg in params:
                ref = _annotation_type(arg.annotation)
                if ref is not None:
                    env[arg.arg] = ref
        own_attrs = (self.summary.classes[class_name].attr_types
                     if class_name in self.summary.classes else {})

        def expr_type(expr: ast.expr) -> Optional[str]:
            if isinstance(expr, ast.Name):
                return env.get(expr.id)
            if isinstance(expr, ast.Attribute):
                if (isinstance(expr.value, ast.Name)
                        and expr.value.id == self_name):
                    return own_attrs.get(expr.attr)
                base = expr_type(expr.value)
                if base and ":" not in base:
                    other = self.summary.classes.get(base)
                    if other is not None:
                        return other.attr_types.get(expr.attr)
                return None
            if isinstance(expr, ast.Subscript):
                return _element_type(expr_type(expr.value))
            if isinstance(expr, ast.Call):
                func = expr.func
                if isinstance(func, ast.Name) and func.id[:1].isupper():
                    return func.id
                return None
            if isinstance(expr, ast.ListComp) and isinstance(
                    expr.elt, ast.Call) and isinstance(
                    expr.elt.func, ast.Name) \
                    and expr.elt.func.id[:1].isupper():
                return f"list:{expr.elt.func.id}"
            return None

        for _ in range(3):          # a couple of passes settles chains
            changed = False
            for node in walk_nodes:
                if isinstance(node, ast.AnnAssign) and isinstance(
                        node.target, ast.Name):
                    ref = _annotation_type(node.annotation)
                    if ref is not None and env.get(node.target.id) != ref:
                        env[node.target.id] = ref
                        changed = True
                elif isinstance(node, ast.Assign) and len(node.targets) == 1 \
                        and isinstance(node.targets[0], ast.Name):
                    ref = expr_type(node.value)
                    if ref is not None and env.get(
                            node.targets[0].id) != ref:
                        env[node.targets[0].id] = ref
                        changed = True
                elif isinstance(node, (ast.For, ast.AsyncFor)) and \
                        isinstance(node.target, ast.Name):
                    ref = _element_type(expr_type(node.iter))
                    if ref is not None and env.get(node.target.id) != ref:
                        env[node.target.id] = ref
                        changed = True
            if not changed:
                break
        self._expr_type = expr_type  # reused by _private_access
        return env

    # -- taint ----------------------------------------------------------
    def _taint_env(self, walk_nodes: Sequence[ast.AST],
                   params: Sequence[str],
                   call_ids: dict[int, int]) -> dict[str, Taint]:
        env: dict[str, Taint] = {}
        for _ in range(10):
            changed = False
            for node in walk_nodes:
                target: Optional[str] = None
                value: Optional[ast.expr] = None
                augment = False
                if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                        and isinstance(node.targets[0], ast.Name):
                    target, value = node.targets[0].id, node.value
                elif isinstance(node, ast.AnnAssign) and isinstance(
                        node.target, ast.Name) and node.value is not None:
                    target, value = node.target.id, node.value
                elif isinstance(node, ast.AugAssign) and isinstance(
                        node.target, ast.Name):
                    target, value, augment = node.target.id, node.value, True
                if target is None or value is None:
                    continue
                new = self._taint_of(value, env, params, call_ids)
                if augment:
                    new = new.merged(env.get(target, EMPTY_TAINT))
                if new != env.get(target, EMPTY_TAINT):
                    env[target] = new.merged(env.get(target, EMPTY_TAINT))
                    changed = True
            if not changed:
                break
        return env

    def _taint_of(self, expr: ast.expr, env: dict[str, Taint],
                  params: Sequence[str],
                  call_ids: dict[int, int]) -> Taint:
        if isinstance(expr, ast.Call):
            return self._call_taint(expr, env, params, call_ids)
        reason = float_reason(expr, self.imports)
        if reason is not None:
            return Taint(sources=(reason,))
        if isinstance(expr, ast.Name):
            if expr.id in env:
                return env[expr.id]
            if expr.id in params:
                return Taint(params=(expr.id,))
            return EMPTY_TAINT
        if isinstance(expr, ast.BinOp):
            if isinstance(expr.op, ast.FloorDiv):
                return EMPTY_TAINT  # integer-laundering, as in SIM001
            return self._taint_of(expr.left, env, params, call_ids).merged(
                self._taint_of(expr.right, env, params, call_ids))
        if isinstance(expr, ast.UnaryOp):
            return self._taint_of(expr.operand, env, params, call_ids)
        if isinstance(expr, ast.IfExp):
            return self._taint_of(expr.body, env, params, call_ids).merged(
                self._taint_of(expr.orelse, env, params, call_ids))
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            out = EMPTY_TAINT
            for elt in expr.elts:
                out = out.merged(self._taint_of(elt, env, params, call_ids))
            return out
        if isinstance(expr, ast.Subscript):
            return self._taint_of(expr.value, env, params, call_ids)
        if isinstance(expr, ast.Starred):
            return self._taint_of(expr.value, env, params, call_ids)
        return EMPTY_TAINT

    def _call_taint(self, expr: ast.Call, env: dict[str, Taint],
                    params: Sequence[str],
                    call_ids: dict[int, int]) -> Taint:
        name = call_name(expr)
        if name in _SANITIZERS:
            return EMPTY_TAINT
        reason = float_reason(expr, self.imports)
        if reason is not None:
            return Taint(sources=(reason,))
        func = expr.func
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and self.imports.module_alias(func.value.id, "math")):
            return Taint(sources=(f"math.{func.attr}() float result",))
        if name in _PROPAGATORS:
            out = EMPTY_TAINT
            for arg in expr.args:
                out = out.merged(self._taint_of(arg, env, params, call_ids))
            return out
        site_id = call_ids.get(id(expr))
        if site_id is not None and self._maybe_project_call(expr):
            return Taint(calls=(site_id,))
        return EMPTY_TAINT

    def _maybe_project_call(self, expr: ast.Call) -> bool:
        """Cheap triage: could this call resolve to a project function?
        (Attribute calls on unresolved receivers and known non-project
        builtins cannot; they stay opaque and untainted.)"""
        func = expr.func
        if isinstance(func, ast.Name):
            return True
        if isinstance(func, ast.Attribute):
            return isinstance(func.value, (ast.Name, ast.Attribute))
        return False

    # -- call sites ------------------------------------------------------
    def _call_site(self, index: int, node: ast.Call,
                   type_env: dict[str, str],
                   class_name: Optional[str]) -> CallSite:
        func = node.func
        line, col = node.lineno, node.col_offset + 1
        if isinstance(func, ast.Name):
            return CallSite(id=index, line=line, col=col, kind="name",
                            name=func.id)
        if isinstance(func, ast.Attribute):
            recv = func.value
            if isinstance(recv, ast.Name):
                if class_name is not None and recv.id == "self":
                    return CallSite(id=index, line=line, col=col,
                                    kind="self", name=func.attr,
                                    recv=class_name)
                mod = self.summary.import_modules.get(recv.id)
                if mod is not None:
                    return CallSite(id=index, line=line, col=col,
                                    kind="name",
                                    name=f"{mod}.{func.attr}")
                return CallSite(id=index, line=line, col=col,
                                kind="method", name=func.attr,
                                recv=type_env.get(recv.id))
            recv_type = self._expr_type(recv)
            if recv_type is not None and ":" in recv_type:
                recv_type = None
            return CallSite(id=index, line=line, col=col, kind="method",
                            name=func.attr, recv=recv_type)
        return CallSite(id=index, line=line, col=col, kind="method",
                        name="<dynamic>")

    # -- message sites ---------------------------------------------------
    def _msg_site(self, node: ast.Call, api: str,
                  env: dict[str, Taint]) -> MsgSite:
        name_arg: Optional[ast.expr] = node.args[0] if node.args else None
        for kw in node.keywords:
            if kw.arg in ("name", "mailbox") and name_arg is None:
                name_arg = kw.value
        kind, value = self._name_spec(name_arg)
        handler: Optional[dict[str, str]] = None
        if api == MAILBOX_REGISTER:
            handler_arg: Optional[ast.expr] = (node.args[1]
                                               if len(node.args) > 1
                                               else None)
            for kw in node.keywords:
                if kw.arg == "handler" and handler_arg is None:
                    handler_arg = kw.value
            handler = self._handler_hint(handler_arg)
        return MsgSite(api="send" if api == MAILBOX_SEND else "register",
                       line=node.lineno, col=node.col_offset + 1,
                       spec_kind=kind, spec_value=value, handler=handler)

    def _name_spec(self, expr: Optional[ast.expr],
                   depth: int = 0) -> tuple[str, str]:
        if expr is None or depth > 4:
            return "dynamic", "<missing>"
        literal = _literal_spec(expr)
        if literal is not None:
            return literal
        if isinstance(expr, ast.Name):
            if expr.id in self.summary.constants:
                return "exact", self.summary.constants[expr.id]
            assigned = self._local_str_assignment(expr.id)
            if assigned is not None:
                return self._name_spec(assigned, depth + 1)
            return "ref", expr.id
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name):
                return "ref_call", func.id
            if isinstance(func, ast.Attribute):
                return "ref_call", func.attr
        return "dynamic", ast.dump(expr)[:60]

    def _local_str_assignment(self, name: str) -> Optional[ast.expr]:
        """The unique assignment to ``name`` within the function being
        summarized (closures assign the mailbox name right outside the
        nested sender, so the folded subtree sees it), falling back to
        a unique file-wide assignment."""
        def unique_in(nodes: Iterator[ast.AST]) -> Optional[ast.expr]:
            found: list[ast.expr] = []
            for node in nodes:
                if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                        and isinstance(node.targets[0], ast.Name) \
                        and node.targets[0].id == name:
                    found.append(node.value)
            return found[0] if len(found) == 1 else None

        local = unique_in(iter(self._fn_nodes))
        if local is not None:
            return local
        return unique_in(ast.walk(self.tree))

    def _handler_hint(self,
                      expr: Optional[ast.expr]) -> Optional[dict[str, str]]:
        if expr is None:
            return None
        if isinstance(expr, ast.Name):
            return {"kind": "name", "name": expr.id}
        if isinstance(expr, ast.Attribute):
            return {"kind": "method", "name": expr.attr}
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name):
                return {"kind": "call", "name": func.id}
            if isinstance(func, ast.Attribute):
                return {"kind": "call", "name": func.attr}
        return {"kind": "opaque", "name": ""}

    # -- sinks -----------------------------------------------------------
    def _sink(self, node: ast.Call, callee: str, env: dict[str, Taint],
              out: FunctionSummary, call_ids: dict[int, int]) -> None:
        time_arg = time_argument(node)
        if time_arg is None:
            return
        taint = self._taint_of(time_arg, env, out.params, call_ids)
        direct = any(float_reason(sub, self.imports) is not None
                     for sub in ast.walk(time_arg))
        out.sinks.append(Sink(line=node.lineno, col=node.col_offset + 1,
                              fn=callee, taint=taint, direct=direct))

    # -- ordering sites --------------------------------------------------
    def _order_sites(self, root: ast.AST, module_level: bool,
                     out: FunctionSummary) -> None:
        # The per-file DET003/DET004 scanners over this function's
        # subtree; the flow layer promotes them to MSG002 only when the
        # function feeds a cross-boundary send.
        sites = [("DET003", node, desc)
                 for node, desc in set_iteration_sites(root)]
        sites += [("DET004", node, desc)
                  for node, desc in hash_id_key_sites(root)]
        fn_lines: set[int] = set()
        if module_level:
            # The module pseudo-function's subtree is the whole tree;
            # function bodies report their own sites.
            for stmt in self.tree.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    end = getattr(stmt, "end_lineno", stmt.lineno)
                    fn_lines.update(range(stmt.lineno, end + 1))
        for rule, node, desc in sites:
            if node.lineno not in fn_lines:
                out.order_sites.append(OrderSite(
                    rule=rule, line=node.lineno, col=node.col_offset + 1,
                    desc=desc))

    # -- private access --------------------------------------------------
    def _private_access(self, walk_nodes: Sequence[ast.AST],
                        type_env: dict[str, str],
                        class_name: Optional[str],
                        out: FunctionSummary) -> None:
        def recv_of(expr: ast.expr) -> Optional[str]:
            if isinstance(expr, ast.Name):
                if expr.id == "self":
                    return None
                ref = type_env.get(expr.id)
                return ref if ref and ":" not in ref else None
            if isinstance(expr, (ast.Attribute, ast.Subscript)):
                ref = self._expr_type(expr)
                if ref is None:
                    return None
                return ref if ":" not in ref else None
            return None

        def is_private(member: str) -> bool:
            return member.startswith("_") and not member.startswith("__")

        for node in walk_nodes:
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    base = target
                    while isinstance(base, ast.Subscript):
                        base = base.value
                    if isinstance(base, ast.Attribute) and is_private(
                            base.attr):
                        recv = recv_of(base.value)
                        if recv is not None:
                            out.private_access.append(AccessSite(
                                line=base.lineno,
                                col=base.col_offset + 1,
                                recv_type=recv, member=base.attr,
                                mode="store"))
            elif isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Attribute):
                func = node.func
                if is_private(func.attr):
                    recv = recv_of(func.value)
                    if recv is not None:
                        out.private_access.append(AccessSite(
                            line=node.lineno, col=node.col_offset + 1,
                            recv_type=recv, member=func.attr, mode="call"))
                elif (func.attr in ("append", "extend", "add", "update",
                                    "remove", "discard", "pop", "clear",
                                    "insert")
                      and isinstance(func.value, ast.Attribute)
                      and is_private(func.value.attr)):
                    recv = recv_of(func.value.value)
                    if recv is not None:
                        out.private_access.append(AccessSite(
                            line=node.lineno, col=node.col_offset + 1,
                            recv_type=recv, member=func.value.attr,
                            mode="store"))


def _literal_spec(expr: ast.expr) -> Optional[tuple[str, str]]:
    """Constant string → exact; f-string with a constant prefix and at
    least one interpolation → scheme(prefix)."""
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return "exact", expr.value
    if isinstance(expr, ast.JoinedStr):
        has_format = any(isinstance(v, ast.FormattedValue)
                         for v in expr.values)
        if not has_format:
            return None
        first = expr.values[0] if expr.values else None
        if (isinstance(first, ast.Constant)
                and isinstance(first.value, str) and first.value):
            return "scheme", first.value
        return "dynamic", "<f-string>"
    return None


# ----------------------------------------------------------------------
# Entry points + cache
# ----------------------------------------------------------------------


def content_key(source: str) -> str:
    digest = hashlib.sha256()
    digest.update(f"v{SUMMARY_VERSION}\n".encode())
    digest.update(source.encode("utf-8", errors="replace"))
    return digest.hexdigest()


def summarize_source(source: str, path: str,
                     cache_dir: Optional[str] = None) -> FileSummary:
    """Summarize one source blob, round-tripping through the
    content-keyed cache under ``cache_dir`` when it is given — the only
    reader and writer of cache entries.  A hit skips the parse entirely;
    a missing, stale (other ``version`` or ``path``) or corrupt entry is
    a miss, recomputed and rewritten."""
    cache_path = None
    if cache_dir is not None:
        cache_path = os.path.join(cache_dir, f"{content_key(source)}.json")
        try:
            with open(cache_path, encoding="utf-8") as handle:
                data = json.load(handle)
            if data.get("version") == SUMMARY_VERSION \
                    and data.get("path") == path:
                return decode(FileSummary, data)
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            pass  # a miss: recompute below
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        summary = FileSummary(path=path, module=module_name_of(path),
                              scope=scope_of(path), sha=content_key(source),
                              parse_error=f"{exc.msg} (line {exc.lineno})")
    else:
        summary = _Extractor(path, source, tree).extract()
    if cache_path is not None:
        os.makedirs(cache_dir or ".", exist_ok=True)
        tmp = f"{cache_path}.tmp.{os.getpid()}"
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump({"version": SUMMARY_VERSION, **encode(summary)},
                          handle)
            os.replace(tmp, cache_path)
        except OSError:
            pass  # cache write failure is never an analysis failure
    return summary
