"""Benchmark of the snapshot simulator: three workloads, end-to-end and
per-layer metrics.

One workload (what a benchmark driver runs; the process is fresh, so
``peak_rss_mb`` is this workload's)::

    python3 snapbench/run.py --workload lb_campaign --seed 1 \
        --seconds 35 --trace 0

Every workload, each in its own process, with a metric table; exits
non-zero when any correctness check fails::

    python3 snapbench/run.py --all --seed 1 --seconds 35

``--trace 0`` repeats the workload until ``--seconds`` have passed and
reports the end-to-end metrics, with host times normalized for machine
speed by ``reference.py``.  ``--trace 1`` makes one untimed
repetition, one traced through ``Simulator.trace`` and one under
cProfile, and reports the per-layer metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``README.md`` beside this file defines every metric.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: Set-up is repeated at least this often per run; its median is setup_s.
SETUP_SAMPLES = 11
#: Sim-time and query percentiles are shown only with this many samples.
MIN_SAMPLES = 100

#: Workload names (also the keys of ``workloads.WORKLOADS``), known
#: without importing the program.
NAMES = ("lb_campaign", "update_rollout", "fabric_serve")

#: End-to-end metrics in the JSON result: (name, unit).
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"),
              ("step_ms.p50", "ms"), ("step_ms.p90", "ms"),
              ("epochs_per_s", "1/s"))


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of ``values``."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def repetition(workload_cls, seed: int, session, rep: int = 0,
               profiler: Optional[cProfile.Profile] = None):
    """Set up, run, analyze and verify one fresh workload instance."""
    gc.collect()
    workload = workload_cls(seed, rep)
    if session.normalized:
        session.calibrate()
    started = time.perf_counter()
    workload.setup(session)
    session.setup_s = time.perf_counter() - started
    if session.normalized:
        session.norm_setup_s = session.normalize(session.setup_s)
    if profiler is not None:
        profiler.enable()
    workload.run(session)
    started = time.perf_counter()
    workload.analyze(session)
    session.analysis_s = time.perf_counter() - started
    if profiler is not None:
        profiler.disable()
    if session.normalized:
        session.norm_wall_s = (sum(session.norm_steps_s)
                               + session.normalize(session.analysis_s))
    session.wall_s = session.sim_s + session.analysis_s
    workload.verify(session)
    return session


def outcome(sessions) -> tuple[bool, int, int]:
    """(correct, attempted, failed) over repetitions."""
    attempted = failed = 0
    for s in sessions:
        attempted += s.epochs_requested + len(s.checks)
        failed += (s.epochs_requested - s.epochs_usable
                   + sum(not ok for ok in s.checks.values()))
    return failed == 0, attempted, failed


def failed_checks(sessions) -> list[str]:
    return sorted({name for s in sessions
                   for name, ok in s.checks.items() if not ok})


def timed_runs(workload_cls, seed: int, seconds: float) -> dict[str, Any]:
    """Repeat the workload for ``seconds``; end-to-end metrics.

    Times are normalized for machine speed (``reference.py``), then
    reported as medians over repetitions; step times are pooled over all
    repetitions.  Set-up is sampled at least ``SETUP_SAMPLES`` times.
    """
    from workloads import Session

    sessions = []
    started = time.perf_counter()
    while not sessions or time.perf_counter() - started < seconds:
        sessions.append(repetition(workload_cls, seed,
                                   Session(normalized=True),
                                   rep=len(sessions)))
    setups = [s.norm_setup_s for s in sessions]
    while len(setups) < SETUP_SAMPLES:
        gc.collect()
        workload = workload_cls(seed, len(setups))
        extra = Session(normalized=True)
        extra.calibrate()
        began = time.perf_counter()
        workload.setup(extra)
        setups.append(extra.normalize(time.perf_counter() - began))
    steps_ms = [t * 1e3 for s in sessions for t in s.norm_steps_s]
    first = sessions[0]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(s.norm_wall_s for s in sessions),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "step_ms.p50": percentile(steps_ms, 50),
        "step_ms.p90": percentile(steps_ms, 90),
        "epochs_per_s": statistics.median(
            s.epochs_delivered / sum(s.norm_steps_s) for s in sessions),
    }
    correct, attempted, failed = outcome(sessions)
    # Shown in the table, not in the JSON result: sim-time metrics do
    # not move with host speed, queries exist only on the service
    # workload, and failures are the result's own fields.
    extra_rows = {"fail_frac": (failed / attempted, "ratio",
                                f"{failed}/{attempted}")}
    for name, samples, scale, unit in (
            ("latency_us", first.latency_ns, 1e-3, "us"),
            ("sync_us", first.sync_ns, 1e-3, "us"),
            ("query_ms", [v for s in sessions
                          for vs in s.queries_ms.values() for v in vs],
             1.0, "ms")):
        for q in (50, 90):
            value = (percentile(samples, q) * scale
                     if len(samples) >= MIN_SAMPLES else None)
            extra_rows[f"{name}.p{q}"] = (value, unit, f"n={len(samples)}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "values": values, "extra": extra_rows,
            "reps": len(sessions), "failed_checks": failed_checks(sessions)}


def layer_runs(workload_cls, seed: int) -> dict[str, Any]:
    """Untraced, traced and profiled repetitions; per-layer metrics."""
    from layers import (EVENT_LAYERS, PROFILE_LAYERS, EventTracer,
                        profile_shares)
    from workloads import Session

    plain = repetition(workload_cls, seed, Session())
    tracer = EventTracer()
    traced = repetition(workload_cls, seed, Session(tracer=tracer))
    profiler = cProfile.Profile()
    profiled = repetition(workload_cls, seed, Session(), profiler=profiler)
    same_output = plain.digest == traced.digest == profiled.digest
    shares = profile_shares(profiler)

    m: dict[str, float] = {}
    for layer in EVENT_LAYERS:
        m[f"{layer}.events"] = tracer.events.get(layer, 0)
        m[f"{layer}.event_s"] = tracer.seconds.get(layer, 0.0)
    m["sim.engine.events"] = plain.events
    m["sim.engine.events_per_s"] = plain.events / plain.sim_s
    m["sim.engine.pending_max"] = plain.pending_max
    m["sim.engine.compactions"] = plain.compactions
    m["bench.trace_overhead"] = traced.wall_s / plain.wall_s
    other_events = plain.events - sum(tracer.events.get(layer, 0)
                                      for layer in EVENT_LAYERS)
    m["bench.unmapped_event_share"] = other_events / max(1, plain.events)
    for layer in PROFILE_LAYERS:
        m[f"{layer}.prof_share"] = shares.get(layer, 0.0)
    m["other.prof_share"] = 1.0 - sum(m[f"{layer}.prof_share"]
                                      for layer in PROFILE_LAYERS)
    for name in TIMERS:
        m[name] = plain.timers.get(name, 0.0)
    for kind in ("range", "snapshot", "conservation"):
        samples = plain.queries_ms.get(kind)
        m[f"service.query.{kind}_ms"] = (statistics.median(samples)
                                         if samples else 0.0)
    for name, samples in (("core.observer.latency_us", plain.latency_ns),
                          ("core.observer.sync_us", plain.sync_ns)):
        for q in (50, 90):
            m[f"{name}.p{q}"] = (percentile(samples, q) * 1e-3
                                 if samples else 0.0)
    for name in COUNTS:
        m[name] = plain.counts.get(name, 0)
    m["core.observer.usable_ratio"] = (plain.epochs_usable
                                       / max(1, plain.epochs_requested))

    # The trace must be passive and the map complete: the traced run
    # executes the very same events with the same outputs.
    sessions = [plain, traced, profiled]
    correct, attempted, failed = outcome(sessions)
    passive = (sum(tracer.events.values()) == plain.events == traced.events
               and plain.counts == traced.counts)
    mapped = m["bench.unmapped_event_share"] <= 0.01
    checks = failed_checks(sessions)
    if not passive:
        checks.append("trace_is_passive")
    if not mapped:
        checks.append("layer_map_covers_events")
    if not same_output:
        checks.append("repetitions_reproduce_output")
    return {"correct": correct and passive and mapped and same_output,
            "attempted": attempted, "failed": failed, "metrics": m,
            "failed_checks": checks}


#: Public-call timers (seconds unless the name says ms).
TIMERS = ("topology.build_s", "sim.network.build_s", "core.deploy_s",
          "workloads.start_s", "updates.compile_s", "updates.verdict_s",
          "analysis.balance_s", "analysis.link_audit_s",
          "analysis.consistency_s")

#: Exact counts read from public attributes after the untraced run.
COUNTS = ("sim.switch.packets_processed", "sim.switch.packets_dropped",
          "sim.switch.max_depth_packets", "sim.switch.ttl_expired",
          "sim.channel.packets_delivered",
          "core.control_plane.received", "core.control_plane.dropped",
          "core.control_plane.max_backlog",
          "core.control_plane.reinitiations_sent",
          "core.observer.epochs_complete", "core.observer.epochs_partial",
          "core.observer.epochs_abandoned", "core.observer.retry_rounds",
          "core.aggregation.records_forwarded",
          "core.aggregation.partial_flushes",
          "core.aggregation.max_backlog",
          "service.coalesced_epochs", "service.store_promoted",
          "service.store_keyframes", "service.store_bytes",
          "service.ingest_ratio",
          "updates.loop_drops", "updates.blackhole_drops",
          "updates.stale_devices", "analysis.trace_rows")


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if ".latency_us." in name or ".sync_us." in name:
        return "us"
    if name.endswith(("_share", "_ratio", ".trace_overhead")):
        return "ratio"
    if name.endswith("store_bytes"):
        return "bytes"
    return "count"


def per_layer_names() -> list[str]:
    """Every per-layer metric name, in report order."""
    from layers import EVENT_LAYERS, PROFILE_LAYERS

    names = [f"{layer}.{what}" for layer in EVENT_LAYERS
             for what in ("events", "event_s")]
    names += ["sim.engine.events", "sim.engine.events_per_s",
              "sim.engine.pending_max", "sim.engine.compactions",
              "bench.trace_overhead", "bench.unmapped_event_share"]
    names += [f"{layer}.prof_share" for layer in PROFILE_LAYERS]
    names.append("other.prof_share")
    names += list(TIMERS)
    names += [f"service.query.{k}_ms"
              for k in ("range", "snapshot", "conservation")]
    names += [f"core.observer.{n}_us.p{q}" for n in ("latency", "sync")
              for q in (50, 90)]
    names += list(COUNTS)
    names.append("core.observer.usable_ratio")
    return names


def run_one(args) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"snapbench: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    workload_cls = WORKLOADS[args.workload]
    if args.trace:
        result = layer_runs(workload_cls, args.seed)
        metrics = {name: {"value": result["metrics"][name],
                          "unit": unit_of(name)}
                   for name in per_layer_names()}
        for name, entry in metrics.items():
            print(f"{args.workload:15s} {name:42s} "
                  f"{entry['value']:>14.6g} {entry['unit']}")
    else:
        result = timed_runs(workload_cls, args.seed, args.seconds)
        metrics = {name: {"value": result["values"][name], "unit": unit}
                   for name, unit in END_TO_END}
        print(f"{args.workload}: {result['reps']} repetitions")
        for name, entry in metrics.items():
            print(f"  {name:16s} {entry['value']:>14.6g} {entry['unit']}")
        for name, (value, unit, note) in result["extra"].items():
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"  {name:16s} {shown:>14s} {unit}  ({note})")
    for name in result["failed_checks"]:
        print(f"  FAILED CHECK: {name}")
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so peak RSS is per workload."""
    status = 0
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {proc.returncode})")
            status = 1
            continue
        if proc.returncode != 0 or not result["correct"]:
            status = 1
        print(f"{name}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}\n")
    return status


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=NAMES)
    which.add_argument("--all", action="store_true",
                       help="run every workload, each in a fresh process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
