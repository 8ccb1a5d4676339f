"""Command-line interface: ``python -m repro <command>``.

Commands:

``experiments [--list] [--only a,b] [--quick] [--jobs N] [--no-cache]``
    Run the full experiment suite through the shared trial runner —
    every experiment's trial specs are submitted as **one** batch, so
    ``--jobs 4`` parallelises across experiments, not just within one.
    ``--list`` prints the available experiments instead of running.
``run <name> [--quick] [--jobs N] [--no-cache] [--cache-dir DIR]``
    Run one experiment (``table1``, ``fig9`` … ``fig13``,
    ``ablation-ideal``, ``sweep-ptp``, ``faults``, ``recovery``,
    ``scaling`` …) and print its report.  The fault-aware experiments
    accept ``--fault-profile <json|file>`` with a serialized
    :class:`~repro.faults.FaultProfile` (see docs/FAULTS.md; the flag is
    not called ``--profile`` because that already selects cProfile
    output).  ``updates`` additionally accepts ``--update-plan
    <json|file>`` with a serialized :class:`~repro.updates.UpdatePlan`
    (docs/UPDATES.md).  ``--shards N`` partitions each trial's network
    across N worker processes for experiments that support
    space-parallel simulation (docs/SHARDING.md; currently ``scaling``,
    ``recovery`` and ``updates``).  ``--agg-degree D`` routes snapshot
    records through
    the hierarchical aggregation fabric for experiments that support it
    (docs/AGGREGATION.md; currently ``scaling``).
``metrics``
    List the snapshot-capable metrics and whether they support channel
    state.
``statics [paths] [--json] [--sarif F] [--rules A,B] [--flow] [...]``
    Run the determinism & simulation-invariant static analysis pass
    (docs/DETERMINISM.md) over ``src tests`` or the given paths; exits
    non-zero on findings.  CI gates on ``repro statics src tests``.
    ``--profile external`` audits out-of-tree simulation models with
    the repo-convention rules (DET002, TRIAL001) dropped.  ``--flow``
    links the paths into one program and runs the whole-program
    families (cross-actor races, mailbox dead letters, ordering and
    float taint feeding cross-boundary sends).
``serve [--epochs N] [--interval-us U] [--conservation] [...]``
    Snapshot-as-a-service (docs/SERVICE.md): run a continuous epoch
    pipeline under the sustained memcache incast workload — bounded
    delta store, coalescing backpressure — then answer epoch-range,
    conservation, and heavy-hitter queries from the stored history.
    ``--fault-smoke`` runs the chaos-smoke crash scenario instead.
``demo``
    A 30-second tour: build the testbed, take snapshots, print results.

Caching: results are keyed by (spec fingerprint, code version) under
``--cache-dir`` (default ``.repro-cache``), so a re-run recomputes only
trials whose spec or code changed.  ``--no-cache`` disables reads and
writes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Optional

from repro.core.deployment import GAUGE_METRICS
from repro.specs import Spec


def _make_runner(args: argparse.Namespace):
    """Build the TrialRunner the flags describe (progress on stderr)."""
    from repro.runtime import TrialCache, TrialRunner

    if args.no_cache:
        cache = None
    else:
        try:
            cache = TrialCache(args.cache_dir)
        except OSError as exc:
            print(f"cannot use cache dir {args.cache_dir!r}: {exc}",
                  file=sys.stderr)
            raise SystemExit(2) from exc
    if args.profile and args.jobs > 1:
        print("[--profile forces serial execution; ignoring --jobs]",
              file=sys.stderr)
    return TrialRunner(jobs=args.jobs, cache=cache,
                       profile_dir=args.profile,
                       progress=lambda msg: print(f"  [{msg}]",
                                                  file=sys.stderr))


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def _add_runner_flags(parser: argparse.ArgumentParser) -> None:
    from repro.runtime import DEFAULT_CACHE_DIR

    parser.add_argument("--quick", action="store_true",
                        help="reduced configuration (CI-sized)")
    parser.add_argument("--jobs", type=_positive_int, default=1, metavar="N",
                        help="worker processes (default: 1, serial)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk result cache")
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                        metavar="DIR",
                        help=f"result cache root (default: {DEFAULT_CACHE_DIR})")
    parser.add_argument("--profile", metavar="DIR", default=None,
                        help="dump one cProfile .prof file per trial into "
                             "DIR (forces serial, bypasses the cache; "
                             "inspect with python -m repro.perf.profiles)")
    # Named --fault-profile (not --profile, which already means cProfile
    # output above) — see docs/FAULTS.md.
    parser.add_argument("--fault-profile", metavar="JSON|FILE", default=None,
                        help="serialized FaultProfile (inline JSON or a "
                             "path to a .json file) applied to the "
                             "fault-aware experiments: faults and scaling "
                             "run it as their scenario, recovery sweeps "
                             "its policies against it")
    parser.add_argument("--update-plan", metavar="JSON|FILE", default=None,
                        help="serialized UpdatePlan (inline JSON or a path "
                             "to a .json file) swapped in as the updates "
                             "experiment's scenario and swept over its "
                             "clock-error levels — see docs/UPDATES.md")
    parser.add_argument("--shards", type=_positive_int, default=None,
                        metavar="N",
                        help="space-parallel simulation shards for the "
                             "experiments that support them (currently "
                             "scaling, recovery and updates); each trial "
                             "partitions its network across N worker "
                             "processes — see docs/SHARDING.md")
    parser.add_argument("--agg-degree", type=_nonnegative_int, default=None,
                        metavar="D",
                        help="aggregation-tree fan-out for the experiments "
                             "that support the hierarchical snapshot "
                             "fabric (currently scaling); 0 models a flat "
                             "observer intake, >= 1 enables the tree — "
                             "see docs/AGGREGATION.md")


def _load_spec(flag: str, root: type[Spec], text: str) -> Optional[dict]:
    """Parse a spec flag (``--fault-profile``, ``--update-plan``): inline
    JSON or a path to a JSON file, validated by round-tripping through
    ``root.from_jsonable``.  Returns None (after printing the reason) on
    bad input."""
    raw = text
    if os.path.exists(text):
        with open(text, encoding="utf-8") as handle:
            raw = handle.read()
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        print(f"{flag} is neither a file nor valid JSON: {exc}",
              file=sys.stderr)
        return None
    try:
        return root.from_jsonable(data).to_jsonable()
    except (ValueError, TypeError, KeyError) as exc:
        print(f"invalid {root.noun}: {exc}", file=sys.stderr)
        return None


def _apply_axes(args: argparse.Namespace, configs: dict) -> bool:
    """Thread the config-axis flags into every selected config that has
    the matching attribute.  A flag that no selected experiment accepts,
    or a spec that does not parse, is refused: returns False after
    printing the reason."""
    from repro.faults import FaultProfile
    from repro.updates import UpdatePlan

    # flag, its value, the spec family it parses as (None: argparse
    # already did), the "applied" label, the config attributes that take
    # it (the first one a config has), what a refusing experiment lacks,
    # and where to try instead.
    axes: tuple[tuple[Any, ...], ...] = (
        ("--fault-profile", args.fault_profile, FaultProfile,
         "fault profile", ("profile", "profiles"),
         "accept a fault profile", "faults, scaling, recovery"),
        ("--update-plan", args.update_plan, UpdatePlan,
         "update plan", ("plan",), "accept an update plan", "updates"),
        ("--shards", args.shards, None, f"{args.shards} shards",
         ("shards",), "support sharded simulation",
         "scaling, recovery, updates"),
        ("--agg-degree", args.agg_degree, None,
         f"agg degree {args.agg_degree}", ("agg_degree",),
         "support the aggregation fabric", "scaling"),
    )
    for flag, value, root, label, attrs, ability, hint in axes:
        if value is None:
            continue
        if root is not None:
            value = _load_spec(flag, root, value)
            if value is None:
                return False
        applied = []
        for name, config in configs.items():
            attr = next((a for a in attrs if hasattr(config, a)), None)
            if attr is None:
                continue
            # recovery's ``profiles`` sweeps its policies against just
            # the one profile given.
            setattr(config, attr,
                    {"cli-profile": value} if attr == "profiles" else value)
            applied.append(name)
        if not applied:
            who = (f"{next(iter(configs))} does not" if len(configs) == 1
                   else "none of the selected experiments")
            print(f"{flag}: {who} {ability} (try {hint})", file=sys.stderr)
            return False
        print(f"[{label} applied to: {', '.join(applied)}]", file=sys.stderr)
    return True


def cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments import registry

    reg = registry()
    if args.list:
        for name, exp in reg.items():
            print(f"  {name:<21} {exp.description}")
        return 0

    # Subset selection: positional names (`repro experiments faults`)
    # and/or the --only list; no selection runs the whole suite.
    selected = list(args.names or [])
    if args.only:
        selected.extend(n.strip() for n in args.only.split(",") if n.strip())
    names = selected or list(reg)
    unknown = [n for n in names if n not in reg]
    if unknown:
        print(f"unknown experiment(s) {', '.join(unknown)}; run "
              "`python -m repro experiments --list`", file=sys.stderr)
        return 2

    # One combined batch across all selected experiments: the runner
    # sees every trial at once, so --jobs fans out across experiments.
    runner = _make_runner(args)
    configs = {name: reg[name].config(quick=args.quick) for name in names}
    if not _apply_axes(args, configs):
        return 2
    batches = {name: reg[name].specs(configs[name]) for name in names}
    flat = [spec for name in names for spec in batches[name]]
    results = runner.run_batch(flat)

    cursor = 0
    reports = []
    for name in names:
        count = len(batches[name])
        chunk = results[cursor:cursor + count]
        cursor += count
        reports.append(reg[name].assemble(configs[name], chunk).report())
    print("\n\n".join(reports))
    stats = runner.last_stats
    print(f"\n[{stats.summary()}]", file=sys.stderr)
    if stats.trial_seconds:
        # Per-experiment wall-clock (executed trials only; cache hits
        # cost nothing and are not attributed).
        print("[per-experiment wall-clock]", file=sys.stderr)
        for name in names:
            timed = [stats.trial_seconds[s.describe()]
                     for s in batches[name]
                     if s.describe() in stats.trial_seconds]
            if timed:
                print(f"  {name:<21} {sum(timed):>8.2f}s "
                      f"({len(timed)} trials)", file=sys.stderr)
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments import registry

    reg = registry()
    if args.name not in reg:
        print(f"unknown experiment {args.name!r}; run "
              "`python -m repro experiments --list`", file=sys.stderr)
        return 2
    exp = reg[args.name]
    runner = _make_runner(args)
    config = exp.config(quick=args.quick)
    if not _apply_axes(args, {args.name: config}):
        return 2
    result = exp.run(config, runner=runner)
    print(result.report())
    print(f"\n[{runner.last_stats.summary()}]", file=sys.stderr)
    return 0


def cmd_metrics(_args: argparse.Namespace) -> int:
    from repro.counters import COUNTER_REGISTRY

    names = sorted(set(COUNTER_REGISTRY) |
                   {"queue_depth", "queue_watermark", "fib_version"})
    print(f"{'metric':<20} {'kind':<12} channel state")
    for name in names:
        kind = "gauge" if name in GAUGE_METRICS else "accumulator"
        cs = "no (gauge)" if name in GAUGE_METRICS else (
            "yes" if name in ("packet_count", "byte_count") else "no rule")
        print(f"{name:<20} {kind:<12} {cs}")
    return 0


def cmd_statics(args: argparse.Namespace) -> int:
    from repro.statics.cli import main as statics_main

    argv: list[str] = list(args.paths)
    if args.as_json:
        argv.append("--json")
    if args.rules:
        argv.extend(["--rules", args.rules])
    if args.list_rules:
        argv.append("--list-rules")
    if args.profile != "default":
        argv.extend(["--profile", args.profile])
    if args.flow:
        argv.append("--flow")
    if args.graph_dump:
        argv.append("--graph-dump")
    if args.sarif:
        argv.extend(["--sarif", args.sarif])
    if args.jobs != 1:
        argv.extend(["--jobs", str(args.jobs)])
    if args.forbid_pragmas:
        argv.append("--forbid-pragmas")
    if args.no_cache:
        argv.append("--no-cache")
    if args.flow_cache_dir:
        argv.extend(["--cache-dir", args.flow_cache_dir])
    return statics_main(argv)


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.pipeline import PipelineConfig
    from repro.sim.engine import US
    from repro.runtime.streaming import ServiceRun, ServiceSpec

    if args.fault_smoke:
        from repro.service.smoke import main as smoke_main

        return smoke_main()

    spec = ServiceSpec(
        seed=args.seed,
        num_leaves=args.leaves,
        num_spines=args.spines,
        hosts_per_leaf=args.hosts_per_leaf,
        interval_ns=args.interval_us * US,
        metric=args.metric,
        agg_degree=args.agg_degree,
        pipeline=PipelineConfig(retention=args.retention,
                                keyframe_interval=args.keyframe_interval,
                                queue_capacity=args.queue_capacity))
    run = ServiceRun(spec)

    def progress(r: ServiceRun) -> None:
        print(f"  [{r.pipeline.ingested}/{args.epochs} epochs stored, "
              f"{r.pipeline.store.encoded_bytes} store bytes, "
              f"backlog {r.pipeline.backlog}]", file=sys.stderr)

    report = run.run(args.epochs,
                     on_chunk=progress if args.verbose else None,
                     max_wall_seconds=args.max_wall_seconds)
    engine = run.query_engine()
    doc: dict = {
        "epochs_stored": report.epochs_stored,
        "ticks": report.ticks,
        "sim_time_ms": report.sim_time_ns // 1_000_000,
        "wall_seconds": round(report.wall_seconds, 3),
        "epochs_per_sec": round(report.epochs_per_sec, 1),
        "events_per_sec": round(report.events_per_sec, 1),
        "pipeline": report.stats,
        "summary": engine.summary(),
    }
    if args.query_range:
        start, end = args.query_range
        doc["range"] = engine.range(start, end)
    if args.conservation:
        doc["conservation"] = engine.conservation()
    if args.heavy_hitters:
        doc["heavy_hitters"] = engine.heavy_hitters(top=args.heavy_hitters)
    if args.as_json:
        json.dump(doc, sys.stdout, indent=2, default=str)
        sys.stdout.write("\n")
        return 0
    print(f"served {doc['epochs_stored']} epochs "
          f"({doc['epochs_per_sec']} epochs/s wall, "
          f"{doc['sim_time_ms']} ms simulated)")
    summary = doc["summary"]
    print(f"store: {summary['epochs_stored']} epochs "
          f"[{summary['min_epoch']}..{summary['max_epoch']}], "
          f"{summary['encoded_bytes']} bytes, "
          f"{summary['keyframes']} keyframes, "
          f"{summary['evicted']} evicted, "
          f"{summary['merged_epochs']} merged under backpressure")
    if "conservation" in doc:
        cons = doc["conservation"]
        verdict = ("ok" if not cons["violations"]
                   else f"VIOLATIONS: {cons['violations']}")
        print(f"conservation: {cons['checked']} epochs checked, {verdict}")
    if "heavy_hitters" in doc:
        hh = doc["heavy_hitters"]
        print(f"heavy hitters @ epoch {hh['epoch']}:")
        for unit in hh["units"]:
            print(f"  {unit['device']}:{unit['port']}:{unit['direction']} "
                  f"= {unit['value']}")
        for flow in hh["flows"]:
            print(f"  {flow['unit']} {flow['flow']} ~{flow['estimate']}")
    if "range" in doc:
        print(f"range query returned {len(doc['range'])} epochs")
    return 0


def cmd_demo(_args: argparse.Namespace) -> int:
    from repro.core import deploy
    from repro.sim.engine import MS
    from repro.sim.network import Network, NetworkConfig
    from repro.topology import leaf_spine
    from repro.workloads.synthetic import PoissonConfig, PoissonWorkload

    print("building the SIGCOMM'18 testbed (2 leaves x 2 spines x 6 hosts)…")
    network = Network(leaf_spine(), NetworkConfig(seed=1))
    PoissonWorkload(network, PoissonConfig(rate_pps=20_000,
                                           stop_ns=400 * MS,
                                           sport_churn=True)).start()
    deployment = deploy(network, metric="packet_count")
    epochs = deployment.schedule_campaign(count=5, interval_ns=20 * MS)
    network.run(until=400 * MS)
    print(f"{'epoch':>6} {'sync (us)':>10} {'total packets':>14}")
    for epoch in epochs:
        snap = deployment.observer.snapshot(epoch)
        sync = (deployment.sync_spread_ns(epoch) or 0) / 1e3
        print(f"{epoch:>6} {sync:>10.1f} {snap.total_value():>14}")
    print("\neach row is a causally consistent, network-wide cut — "
          "try `python -m repro run fig9 --quick` next.")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Synchronized Network Snapshots (Speedlight) reproduction")
    sub = parser.add_subparsers(dest="command")

    exp_parser = sub.add_parser(
        "experiments",
        help="run the full experiment suite (or --list to enumerate)")
    exp_parser.add_argument("names", nargs="*", metavar="NAME",
                            help="experiments to run (default: all)")
    exp_parser.add_argument("--list", action="store_true",
                            help="list available experiments and exit")
    exp_parser.add_argument("--only", metavar="A,B",
                            help="comma-separated subset to run")
    _add_runner_flags(exp_parser)

    run_parser = sub.add_parser("run", help="run one experiment")
    run_parser.add_argument("name")
    _add_runner_flags(run_parser)

    sub.add_parser("metrics", help="list snapshot-capable metrics")

    statics_parser = sub.add_parser(
        "statics",
        help="determinism & simulation-invariant static analysis")
    statics_parser.add_argument("paths", nargs="*", metavar="PATH",
                                help="files/directories (default: src tests)")
    statics_parser.add_argument("--json", action="store_true",
                                dest="as_json",
                                help="machine-readable output")
    statics_parser.add_argument("--rules", metavar="A,B", default=None,
                                help="run only these rule ids")
    statics_parser.add_argument("--list-rules", action="store_true",
                                help="list the rules and exit")
    statics_parser.add_argument("--profile",
                                choices=("default", "external"),
                                default="default",
                                help="'external' audits out-of-tree "
                                     "simulation models (drops DET002/"
                                     "TRIAL001, forces the 'sim' scope, "
                                     "requires explicit paths)")
    statics_parser.add_argument("--flow", action="store_true",
                                help="whole-program analysis "
                                     "(FLOW001/MSG001/MSG002/DET005)")
    statics_parser.add_argument("--graph-dump", action="store_true",
                                dest="graph_dump",
                                help="with --flow: dump the linked "
                                     "call/message graphs")
    statics_parser.add_argument("--sarif", metavar="FILE", default=None,
                                help="also write SARIF 2.1.0 output")
    statics_parser.add_argument("--jobs", type=int, default=1,
                                metavar="N",
                                help="parallel per-file parse phase")
    statics_parser.add_argument("--forbid-pragmas", action="store_true",
                                dest="forbid_pragmas",
                                help="fail if anything was suppressed "
                                     "by a pragma")
    statics_parser.add_argument("--no-cache", action="store_true",
                                dest="no_cache",
                                help="with --flow: disable the summary "
                                     "cache")
    statics_parser.add_argument("--cache-dir", metavar="DIR", default=None,
                                dest="flow_cache_dir",
                                help="with --flow: summary cache root "
                                     "(default: .repro-cache/statics-flow)")

    serve_parser = sub.add_parser(
        "serve",
        help="snapshot-as-a-service: continuous epochs under sustained "
             "incast, with queries over the bounded delta store "
             "(docs/SERVICE.md)")
    serve_parser.add_argument("--epochs", type=_positive_int, default=500,
                              metavar="N",
                              help="epochs to store before reporting "
                                   "(default: 500)")
    serve_parser.add_argument("--interval-us", type=_positive_int,
                              default=2000, metavar="US",
                              help="snapshot cadence in microseconds "
                                   "(default: 2000)")
    serve_parser.add_argument("--metric", default="packet_count",
                              help="snapshot metric (heavy_hitter enables "
                                   "flow drilldown; default: packet_count)")
    serve_parser.add_argument("--seed", type=int, default=42)
    serve_parser.add_argument("--leaves", type=_positive_int, default=2)
    serve_parser.add_argument("--spines", type=_positive_int, default=1)
    serve_parser.add_argument("--hosts-per-leaf", type=_positive_int,
                              default=2)
    serve_parser.add_argument("--agg-degree", type=_nonnegative_int,
                              default=None, metavar="D",
                              help="route records through the aggregation "
                                   "fabric (docs/AGGREGATION.md)")
    serve_parser.add_argument("--retention", type=_positive_int,
                              default=1024,
                              help="store ring size in epochs "
                                   "(default: 1024)")
    serve_parser.add_argument("--keyframe-interval", type=_positive_int,
                              default=64,
                              help="entries between full keyframes "
                                   "(default: 64)")
    serve_parser.add_argument("--queue-capacity", type=_positive_int,
                              default=64,
                              help="ingest queue bound; overflow coalesces "
                                   "epochs (default: 64)")
    serve_parser.add_argument("--query-range", type=int, nargs=2,
                              metavar=("START", "END"),
                              help="print stored epochs in [START, END]")
    serve_parser.add_argument("--conservation", action="store_true",
                              help="audit stored history against the "
                                   "per-link conservation law")
    serve_parser.add_argument("--heavy-hitters", type=_positive_int,
                              default=None, metavar="N",
                              help="print the N heaviest units (and flows, "
                                   "with --metric heavy_hitter)")
    serve_parser.add_argument("--max-wall-seconds", type=float, default=None,
                              help="stop early after this much wall time")
    serve_parser.add_argument("--json", action="store_true", dest="as_json",
                              help="machine-readable report")
    serve_parser.add_argument("--verbose", action="store_true",
                              help="per-chunk progress on stderr")
    serve_parser.add_argument("--fault-smoke", action="store_true",
                              help="run the service-under-faults smoke "
                                   "check instead (CP crash mid-stream; "
                                   "exit 0 iff the store stays queryable)")

    sub.add_parser("demo", help="a 30-second end-to-end tour")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "experiments": cmd_experiments,
        "run": cmd_run,
        "metrics": cmd_metrics,
        "statics": cmd_statics,
        "serve": cmd_serve,
        "demo": cmd_demo,
    }
    if args.command is None:
        parser.print_help()
        return 0
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - module entry
    raise SystemExit(main())
