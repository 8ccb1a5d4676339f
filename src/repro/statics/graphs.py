"""Whole-program linking: symbol table, call graph, message-flow graph.

A :class:`Program` takes the per-file summaries produced by
:mod:`repro.statics.project` and resolves the references a single file
cannot: which function a call site lands in, which class a receiver
type names, which module constant a mailbox ``ref`` spec points at.
Resolution is deliberately *partial* — anything genuinely dynamic stays
unresolved and the rules treat it conservatively — but the repo's actor
wiring (explicit imports, annotated parameters, f-string mailbox
schemes) resolves almost entirely.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import Optional

from repro.statics.project import (CallSite, ClassSummary, FileSummary,
                                   FunctionSummary, MsgSite)

#: Methods whose joint presence marks a class as an *actor*: it owns a
#: mailbox transport, so its private state is reachable from other
#: actors only through messages (FLOW001's ownership model).  A class
#: whose method is registered as a mailbox *handler* is an actor too —
#: it owns state mutated from message deliveries.
ACTOR_METHODS = frozenset({"register_mailbox", "send_ctrl"})

#: Method names defined by builtin containers/str: never candidates for
#: the unique-name call-resolution fallback (``out.append(...)`` on a
#: local list must not resolve to some project class's ``append``).
_BUILTIN_METHODS = frozenset(
    name for typ in (list, dict, set, frozenset, tuple, str, bytes)
    for name in dir(typ))


class Program:
    """The linked whole-program view the flow rules run against."""

    def __init__(self, files: list[FileSummary]) -> None:
        self.files: list[FileSummary] = sorted(files, key=lambda f: f.path)
        #: dotted module name -> file summary (last one wins on
        #: collision, which only bare-stem fixture modules can produce).
        self.modules: dict[str, FileSummary] = {}
        #: (module, function name / Class.method) -> summary
        self.functions: dict[str, FunctionSummary] = {}
        #: (module, class name) -> summary
        self.classes: dict[tuple[str, str], ClassSummary] = {}
        self._classes_by_name: dict[str, list[ClassSummary]] = {}
        self._methods_by_name: dict[str, list[FunctionSummary]] = {}
        for summary in self.files:
            self.modules[summary.module] = summary
            for fn in summary.functions:
                self.functions[fn.qualname] = fn
                if fn.class_name is not None:
                    self._methods_by_name.setdefault(fn.name, []).append(fn)
            for cls in summary.classes.values():
                self.classes[(summary.module, cls.name)] = cls
                self._classes_by_name.setdefault(cls.name, []).append(cls)
        self._mro_cache: dict[tuple[str, str], list[ClassSummary]] = {}
        self._callees_cache: dict[str, list[str]] = {}
        self._reaches_boundary: Optional[dict[str, bool]] = None
        self._handler_names: Optional[frozenset[str]] = None

    # -- symbol resolution ---------------------------------------------
    def file_of(self, fn: FunctionSummary) -> FileSummary:
        return self.modules[fn.module]

    def resolve_class(self, module: str,
                      name: str) -> Optional[ClassSummary]:
        """Resolve a class *name as written in ``module``*: local class,
        explicit import, then unique global name as a fallback."""
        local = self.classes.get((module, name))
        if local is not None:
            return local
        file = self.modules.get(module)
        if file is not None:
            ref = file.import_names.get(name)
            if ref is not None:
                target = self.classes.get((ref[0], ref[1]))
                if target is not None:
                    return target
        candidates = self._classes_by_name.get(name, [])
        if len(candidates) == 1:
            return candidates[0]
        return None

    def mro(self, cls: ClassSummary) -> list[ClassSummary]:
        """The class and its resolvable ancestors (linearised, cycles
        guarded)."""
        key = (cls.module, cls.name)
        cached = self._mro_cache.get(key)
        if cached is not None:
            return cached
        out: list[ClassSummary] = []
        seen: set[tuple[str, str]] = set()
        stack = [cls]
        while stack:
            current = stack.pop(0)
            ck = (current.module, current.name)
            if ck in seen:
                continue
            seen.add(ck)
            out.append(current)
            for base in current.bases:
                resolved = self.resolve_class(current.module, base)
                if resolved is not None:
                    stack.append(resolved)
        self._mro_cache[key] = out
        return out

    def related(self, a: ClassSummary, b: ClassSummary) -> bool:
        """True when one class is (transitively) a base of the other."""
        ka, kb = (a.module, a.name), (b.module, b.name)
        return any((c.module, c.name) == kb for c in self.mro(a)) or \
            any((c.module, c.name) == ka for c in self.mro(b))

    def method_of(self, cls: ClassSummary,
                  name: str) -> Optional[FunctionSummary]:
        for ancestor in self.mro(cls):
            fn = self.functions.get(
                f"{ancestor.module}:{ancestor.name}.{name}")
            if fn is not None:
                return fn
        return None

    def _handler_method_names(self) -> frozenset[str]:
        """Method names registered as mailbox handlers anywhere in the
        program (``register_mailbox(name, agent.on_message)`` marks
        ``on_message``)."""
        if self._handler_names is None:
            names: set[str] = set()
            for _, site in self.iter_msg_sites():
                if site.api == "register" and site.handler is not None \
                        and site.handler.get("kind") == "method":
                    names.add(site.handler["name"])
            self._handler_names = frozenset(names)
        return self._handler_names

    def is_actor(self, cls: ClassSummary) -> bool:
        methods: set[str] = set()
        for ancestor in self.mro(cls):
            methods.update(ancestor.methods)
        if ACTOR_METHODS <= methods:
            return True
        return bool(methods & self._handler_method_names())

    def actor_classes(self) -> list[ClassSummary]:
        return [cls for (_, _), cls in sorted(self.classes.items())
                if self.is_actor(cls)]

    # -- call graph ------------------------------------------------------
    def resolve_call(self, fn: FunctionSummary,
                     site: CallSite) -> list[FunctionSummary]:
        """Possible targets of ``site`` inside ``fn`` (empty when the
        callee is a builtin / stdlib / genuinely dynamic)."""
        if site.kind == "self" and site.recv is not None:
            cls = self.classes.get((fn.module, site.recv))
            if cls is not None:
                target = self.method_of(cls, site.name)
                return [target] if target is not None else []
            return []
        if site.kind == "name":
            return self._resolve_name(fn.module, site.name)
        # kind == "method"
        if site.recv is not None:
            cls = self.resolve_class(fn.module, site.recv)
            if cls is not None:
                target = self.method_of(cls, site.name)
                return [target] if target is not None else []
        # Unresolved receiver: a uniquely-named project method still
        # resolves (one definition means one possible target) — except
        # builtin-container method names, where the receiver is far
        # more likely a plain list/dict than the one project class
        # that happens to define, say, ``append``.
        if site.name in _BUILTIN_METHODS:
            return []
        unique = self._methods_by_name.get(site.name, [])
        if len(unique) == 1:
            return [unique[0]]
        return []

    def _resolve_name(self, module: str,
                      name: str) -> list[FunctionSummary]:
        file = self.modules.get(module)
        if "." in name:          # module-alias call: pkg.fn(...)
            mod_part, fn_name = name.rsplit(".", 1)
            target_file = self.modules.get(mod_part)
            if target_file is None:
                return []
            return self._module_symbol(target_file.module, fn_name)
        if file is not None:
            ref = file.import_names.get(name)
            if ref is not None:
                return self._module_symbol(ref[0], ref[1])
        return self._module_symbol(module, name)

    def _module_symbol(self, module: str,
                       name: str) -> list[FunctionSummary]:
        fn = self.functions.get(f"{module}:{name}")
        if fn is not None:
            return [fn]
        cls = self.classes.get((module, name))
        if cls is not None:      # constructor call -> __init__
            init = self.method_of(cls, "__init__")
            return [init] if init is not None else []
        return []

    def callees(self, fn: FunctionSummary) -> list[str]:
        cached = self._callees_cache.get(fn.qualname)
        if cached is not None:
            return cached
        out: list[str] = []
        seen: set[str] = set()
        for site in fn.calls:
            for target in self.resolve_call(fn, site):
                if target.qualname not in seen:
                    seen.add(target.qualname)
                    out.append(target.qualname)
        self._callees_cache[fn.qualname] = out
        return out

    def closure(self, fn: FunctionSummary) -> set[str]:
        """Transitive callee closure of ``fn`` (including itself)."""
        out: set[str] = set()
        stack = [fn.qualname]
        while stack:
            qual = stack.pop()
            if qual in out:
                continue
            out.add(qual)
            target = self.functions.get(qual)
            if target is not None:
                stack.extend(self.callees(target))
        return out

    def reaches_boundary_send(self, fn: FunctionSummary) -> bool:
        """True when ``fn`` (or anything it transitively calls) invokes
        a cross-actor send primitive."""
        if self._reaches_boundary is None:
            flags = {f.qualname: f.boundary_send
                     for f in self.functions.values()}
            changed = True
            while changed:       # propagate callee flags to callers
                changed = False
                for f in self.functions.values():
                    if flags[f.qualname]:
                        continue
                    if any(flags.get(c, False) for c in self.callees(f)):
                        flags[f.qualname] = True
                        changed = True
            self._reaches_boundary = flags
        return self._reaches_boundary.get(fn.qualname, False)

    # -- message-flow graph ----------------------------------------------
    def iter_msg_sites(self) -> Iterator[tuple[FunctionSummary, MsgSite]]:
        for file in self.files:
            for fn in file.functions:
                for site in fn.msg_sites:
                    yield fn, site

    def resolved_spec(self, fn: FunctionSummary,
                      site: MsgSite) -> tuple[str, str]:
        """Resolve a mailbox-name spec to ``("exact", name)`` /
        ``("scheme", prefix)`` / ``("dynamic", why)``.

        ``ref`` specs chase module constants through imports;
        ``ref_call`` specs chase helper functions whose every return is
        a constant or constant-prefix f-string (``_agg_mailbox`` →
        ``("scheme", "agg:")``).
        """
        kind, value = site.spec_kind, site.spec_value
        if kind in ("exact", "scheme"):
            return kind, value
        if kind == "ref":
            file = self.file_of(fn)
            if value in file.constants:
                return "exact", file.constants[value]
            ref = file.import_names.get(value)
            if ref is not None:
                target_file = self.modules.get(ref[0])
                if target_file is not None and ref[1] in \
                        target_file.constants:
                    return "exact", target_file.constants[ref[1]]
            return "dynamic", f"unresolved name {value!r}"
        if kind == "ref_call":
            for target in self._resolve_name(fn.module, value):
                spec = target.returns_str_spec
                if spec is not None and spec[0] in ("exact", "scheme"):
                    return spec[0], spec[1]
            return "dynamic", f"unresolved helper {value}()"
        return "dynamic", value

    # -- debugging dump --------------------------------------------------
    def dump(self) -> str:
        """Deterministic text rendering of the linked graphs, for
        ``repro statics --flow --graph-dump``."""
        lines: list[str] = []
        lines.append(f"program: {len(self.files)} file(s), "
                     f"{len(self.functions)} function(s), "
                     f"{len(self.classes)} class(es)")
        actors = self.actor_classes()
        lines.append("")
        lines.append(f"actor classes ({len(actors)}):")
        for cls in actors:
            lines.append(f"  {cls.module}:{cls.name}")
        lines.append("")
        lines.append("message sites:")
        for fn, site in self.iter_msg_sites():
            kind, value = self.resolved_spec(fn, site)
            lines.append(f"  {site.api:<8} {kind}:{value!r}  at "
                         f"{fn.path}:{site.line} in {fn.qualname}")
        lines.append("")
        lines.append("call graph (project-resolved edges):")
        for qual in sorted(self.functions):
            callees = self.callees(self.functions[qual])
            if callees:
                boundary = (" [boundary]" if
                            self.reaches_boundary_send(
                                self.functions[qual]) else "")
            else:
                boundary = ""
            if callees or boundary:
                lines.append(f"  {qual}{boundary}")
                for callee in sorted(callees):
                    lines.append(f"    -> {callee}")
        return "\n".join(lines)
