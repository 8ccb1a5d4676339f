"""The whole-program rule families (``repro statics --flow``).

Four families run over the linked :class:`~repro.statics.graphs.Program`:

``FLOW001``
    Cross-shard race detector.  A class owning a mailbox transport
    (defines/inherits ``register_mailbox`` *and* ``send_ctrl``) is an
    *actor*; its underscore-private state may be touched only by its
    own methods or by code in its defining module (the wiring that
    constructs it).  Any other store/call is state reached without a
    mailbox or the total-order merge — exactly the race the sharded
    runtime's determinism proof assumes away.

``MSG001``
    Dead-letter check.  Every statically-known mailbox name sent to
    must have a matching registration and vice versa; constant names
    match exactly, f-string names (``f"agg:{switch}"``) match as
    prefix *schemes*.

``MSG002``
    Nondeterministic ordering on merge/flush paths.  The per-file
    DET003/DET004 site scanners, promoted interprocedurally: a
    set/dict-ordered iteration or ``hash()``/``id()`` sort key inside
    any function whose call-graph closure reaches a cross-boundary
    send (``send_ctrl``/``send_up``/``forward_init``) is flagged in
    *every* scope, because its output feeds another actor.

``DET005``
    Interprocedural float-time taint — SIM001 across call boundaries
    (:mod:`repro.statics.taint`).

Unlike the per-file pass, ``--flow`` analyses its input paths as *one
program*: resolution quality depends on seeing callee and caller
together, so CI runs it over the actor packages in one invocation
(``make statics-flow``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.statics.engine import Report, apply_pragmas, iter_python_files
from repro.statics.findings import Finding
from repro.statics.graphs import Program
from repro.statics.pragmas import parse_pragmas
from repro.statics.project import FileSummary, summarize_source

#: Default analysis roots when ``--flow`` is given no paths: the flow
#: families model production actor wiring, so ``tests`` is not a
#: default root (fixtures and unit tests poke internals deliberately).
FLOW_DEFAULT_PATHS = ("src",)


@dataclass(frozen=True)
class FlowRuleInfo:
    """Registry entry for one whole-program rule family."""

    id: str
    title: str
    hint: str


FLOW_RULES: tuple[FlowRuleInfo, ...] = (
    FlowRuleInfo(
        id="FLOW001",
        title="cross-actor access to private actor state",
        hint="actors exchange state through registered mailboxes and "
             "the total-order merge, never by reaching into another "
             "actor's privates (docs/DETERMINISM.md#whole-program-rules)"),
    FlowRuleInfo(
        id="MSG001",
        title="mailbox sent to without registration (or vice versa)",
        hint="pair every send_ctrl(name) with a register_mailbox(name); "
             "f-string names match as prefix schemes"),
    FlowRuleInfo(
        id="MSG002",
        title="nondeterministic ordering feeding a cross-boundary send",
        hint="data crossing an actor boundary must be ordered by "
             "deterministic keys (sorted tuples), not set/dict/hash "
             "order"),
    FlowRuleInfo(
        id="DET005",
        title="interprocedural float taint reaching a time argument",
        hint="simulated time is integer ns end to end; convert with "
             "exact_ns at the edge, before the value starts flowing "
             "toward schedule()"),
)

FLOW_RULE_IDS: tuple[str, ...] = tuple(rule.id for rule in FLOW_RULES)
_HINTS = {rule.id: rule.hint for rule in FLOW_RULES}


# ----------------------------------------------------------------------
# Program loading
# ----------------------------------------------------------------------


def load_program(paths: tuple[str, ...],
                 cache_dir: Optional[str] = None
                 ) -> tuple[Program, dict[str, str]]:
    """Summarize every python file under ``paths`` (through the
    content-keyed cache when ``cache_dir`` is set) and link them.
    Returns the program plus each file's source (for pragma scanning —
    the source was already read to compute the cache key, so this costs
    nothing extra)."""
    summaries: list[FileSummary] = []
    sources: dict[str, str] = {}
    for path in iter_python_files(paths):
        with open(path, encoding="utf-8") as handle:
            sources[path] = handle.read()
        summaries.append(summarize_source(sources[path], path, cache_dir))
    return Program(summaries), sources


# ----------------------------------------------------------------------
# Rule families
# ----------------------------------------------------------------------


def _finding(rule: str, path: str, line: int, col: int,
             message: str) -> Finding:
    return Finding(rule=rule, path=path, line=line, col=col,
                   message=message, hint=_HINTS[rule])


def _flow001(program: Program) -> list[Finding]:
    out: list[Finding] = []
    for file in program.files:
        for fn in file.functions:
            own_class = (program.classes.get((fn.module, fn.class_name))
                         if fn.class_name is not None else None)
            for access in fn.private_access:
                target = program.resolve_class(fn.module,
                                               access.recv_type)
                if target is None or not program.is_actor(target):
                    continue
                if target.module == fn.module:
                    continue    # the actor's own module wires it up
                if own_class is not None and program.related(
                        own_class, target):
                    continue
                verb = ("stores to" if access.mode == "store"
                        else "calls private method")
                out.append(_finding(
                    "FLOW001", fn.path, access.line, access.col,
                    f"{fn.qualname} {verb} "
                    f"{access.recv_type}.{access.member} — private "
                    f"state of actor {target.module}:{target.name} — "
                    f"without a mailbox hop"))
    return out


def _msg001(program: Program) -> list[Finding]:
    sends: list[tuple[str, str, str, int, int]] = []
    regs: list[tuple[str, str, str, int, int]] = []
    for fn, site in program.iter_msg_sites():
        kind, value = program.resolved_spec(fn, site)
        if kind == "dynamic":
            continue            # unknowable statically; tests cover it
        row = (kind, value, fn.path, site.line, site.col)
        (sends if site.api == "send" else regs).append(row)

    def matches(kind: str, value: str, pool:
                list[tuple[str, str, str, int, int]]) -> bool:
        for other_kind, other_value, _, _, _ in pool:
            if kind == "exact" and other_kind == "exact":
                if value == other_value:
                    return True
            elif kind == "exact" and other_kind == "scheme":
                if value.startswith(other_value):
                    return True
            elif kind == "scheme" and other_kind == "exact":
                if other_value.startswith(value):
                    return True
            elif kind == "scheme" and other_kind == "scheme":
                if value == other_value or \
                        value.startswith(other_value) or \
                        other_value.startswith(value):
                    return True
        return False

    out: list[Finding] = []
    for kind, value, path, line, col in sends:
        if not matches(kind, value, regs):
            what = (f"mailbox {value!r}" if kind == "exact"
                    else f"mailbox scheme {value!r}*")
            out.append(_finding(
                "MSG001", path, line, col,
                f"send_ctrl to {what} has no matching "
                f"register_mailbox anywhere in the program "
                f"(dead letter)"))
    for kind, value, path, line, col in regs:
        if not matches(kind, value, sends):
            what = (f"mailbox {value!r}" if kind == "exact"
                    else f"mailbox scheme {value!r}*")
            out.append(_finding(
                "MSG001", path, line, col,
                f"register_mailbox for {what} is never sent to "
                f"(dead mailbox)"))
    return out


def _msg002(program: Program) -> list[Finding]:
    out: list[Finding] = []
    for file in program.files:
        for fn in file.functions:
            if not fn.order_sites:
                continue
            if not program.reaches_boundary_send(fn):
                continue
            for site in fn.order_sites:
                out.append(_finding(
                    "MSG002", fn.path, site.line, site.col,
                    f"{site.desc} in {fn.qualname}, which feeds a "
                    f"cross-boundary send ({site.rule} "
                    f"interprocedurally)"))
    return out


def _det005(program: Program) -> list[Finding]:
    from repro.statics.taint import TaintAnalysis
    analysis = TaintAnalysis(program)
    out: list[Finding] = []
    for hit in analysis.sink_findings():
        via = (f" via {' -> '.join(hit.chain)}" if hit.chain else "")
        out.append(_finding(
            "DET005", hit.path, hit.line, hit.col,
            f"float-tainted value can reach the {hit.sink_fn}() time "
            f"argument in {hit.fn_qualname}{via}: "
            f"{'; '.join(hit.sources)}"))
    return out


_FAMILY_RUNNERS = {
    "FLOW001": _flow001,
    "MSG001": _msg001,
    "MSG002": _msg002,
    "DET005": _det005,
}


def collect_findings(program: Program,
                     rule_ids: Optional[set[str]] = None) -> list[Finding]:
    """Run the requested families (all four by default)."""
    active = (set(FLOW_RULE_IDS) if rule_ids is None
              else rule_ids & set(FLOW_RULE_IDS))
    out: list[Finding] = []
    for rule_id in FLOW_RULE_IDS:
        if rule_id in active:
            out.extend(_FAMILY_RUNNERS[rule_id](program))
    return out


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def run_flow(paths: tuple[str, ...], *,
             cache_dir: Optional[str] = None,
             rule_ids: Optional[set[str]] = None,
             report_unused_pragmas: bool = True,
             known_rules: Optional[set[str]] = None
             ) -> tuple[Report, Program]:
    """Whole-program analysis over ``paths`` as one linked program.

    Pragma semantics mirror the per-file engine: an
    ``# statics: allow[FLOW001] reason`` on (or above) the finding line
    suppresses it; unused-pragma auditing covers only the *active* flow
    families, so per-file-rule pragmas in the same file are untouched.
    """
    program, sources = load_program(paths, cache_dir)
    active = (set(FLOW_RULE_IDS) if rule_ids is None
              else rule_ids & set(FLOW_RULE_IDS))
    known = set(known_rules) if known_rules is not None else set(
        FLOW_RULE_IDS)
    findings = collect_findings(program, active)
    by_path: dict[str, list[Finding]] = {}
    for finding in findings:
        by_path.setdefault(finding.path, []).append(finding)
    report = Report(files_checked=len(program.files))
    for path in sorted(sources):
        source = sources[path]
        table = (parse_pragmas(source, path, known)
                 if "statics:" in source else None)
        apply_pragmas(report, path, by_path.get(path, ()), table, active,
                      report_unused_pragmas)
    for summary in program.files:
        if summary.parse_error is not None:
            report.findings.append(Finding(
                rule="PARSE001", path=summary.path, line=1, col=1,
                message=f"file does not parse: {summary.parse_error}",
                hint="statics needs a syntactically valid tree"))
    report.findings.sort(key=Finding.sort_key)
    return report, program
