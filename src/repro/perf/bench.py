"""Hot-path micro-benchmark suite for the discrete-event core.

Times the three layers the optimization targets, from innermost out:

* ``event_loop`` — the engine alone: self-rescheduling tickers through
  ``schedule``/``schedule_fast``, no network model.  Measures raw
  events/second of the heap + dispatch loop.
* ``timer_churn`` — schedule-then-cancel at a 75% cancellation rate:
  the cancellation side table and amortised heap compaction.
* ``snapshot_round`` — a 4-switch leaf-spine carrying Poisson traffic
  through a short synchronized-snapshot campaign: the full packet path
  (queues, links, snapshot headers, notifications).
* ``fig10_knee`` — one Figure 10 max-rate knee search end-to-end
  through the trial runtime: the shape of a real experiment trial.
* ``agg_smoke`` / ``agg_knee`` — the whole-fabric snapshot-rate knee
  with and without the hierarchical aggregation tree
  (:mod:`repro.core.aggregation`): ``agg_smoke`` is the CI-sized k=4
  comparison, ``agg_knee`` the headline k=8 run whose ``speedup`` field
  is the tentpole's acceptance number.
* ``service_smoke`` — the snapshot service (:mod:`repro.service`)
  sustaining >= 10^4 continuous epochs under a memcache incast:
  epochs/second of the full intake -> delta store pipeline, with the
  store's exact byte accounting asserted flat after the retention ring
  fills (the bounded-memory acceptance check — the bench *fails* if
  store memory grows with run length).

Throughput benchmarks are normalized by a fixed pure-Python calibration
loop so the regression gate survives machine changes: ``score =
events_per_sec / calibration_ops_per_sec`` is (to first order)
machine-independent, while raw ``seconds`` are recorded for human eyes.
The knee benchmarks are *model*-normalized instead — their knees are
deterministic simulation outputs, so the score is a saturation duty
cycle that only a code change can move.  ``BENCH_core.json`` keeps a
history of labelled entries; CI re-runs the quick suite and fails when
any ``GATE_BENCHES`` score regresses by more than the configured
fraction against the committed baseline entry.  The baseline is the
entry labelled :data:`BASELINE_LABEL` whose ``quick`` flag matches the
run's own: quick runs are gated against quick baselines, full runs
against full ones.

Usage::

    python -m repro.perf.bench                         # run, print table
    python -m repro.perf.bench --out BENCH_core.json --label mybranch
    python -m repro.perf.bench --quick \
        --check-against BENCH_core.json --max-regression 0.25

See ``docs/PERF.md`` for methodology and recorded numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.sim.engine import MS, Simulator

SCHEMA_VERSION = 1
DEFAULT_BENCH_FILE = "BENCH_core.json"
#: The benchmark whose normalized score gates CI regressions.
GATE_BENCH = "event_loop"
#: Every benchmark the regression gate checks (when the baseline entry
#: has a score for it): the engine hot path, the sharded core, and the
#: two model-normalized knees (Fig. 10 per-switch, aggregation fabric).
GATE_BENCHES = (GATE_BENCH, "shard_smoke", "fig10_knee", "agg_smoke",
                "service_smoke")
#: The committed entry label every gate compares against (``make bench``,
#: ``make bench-smoke`` and CI alike; ``--baseline-label`` overrides).
BASELINE_LABEL = "packet-path"


# ----------------------------------------------------------------------
# Calibration
# ----------------------------------------------------------------------

def calibrate(loops: int = 2_000_000) -> float:
    """Ops/second of a fixed pure-Python integer loop.

    Everything the suite measures is pure-Python bytecode dispatch, so
    dividing a benchmark's events/second by this rate yields a score
    that tracks *code* changes, not *machine* changes.
    """
    started = time.perf_counter()
    acc = 0
    for i in range(loops):
        acc += i & 7
    seconds = time.perf_counter() - started
    assert acc >= 0  # keep the loop un-eliminable
    return loops / seconds


# ----------------------------------------------------------------------
# Benchmarks
# ----------------------------------------------------------------------

def bench_event_loop(events: int = 400_000, tickers: int = 32) -> dict[str, Any]:
    """Raw engine throughput: ``tickers`` self-rescheduling callbacks."""
    sim = Simulator()

    def tick(period: int) -> None:
        sim.schedule_fast(period, tick, period)

    def slow_tick(period: int) -> None:
        sim.schedule(period, slow_tick, period)

    # Mixed population: mostly fast-path, a few through the validated
    # public path, with co-prime-ish periods so heap order keeps churning.
    for i in range(tickers):
        fn = slow_tick if i % 4 == 0 else tick
        sim.schedule(i + 1, fn, 97 + 13 * i)

    started = time.perf_counter()
    executed = sim.run(max_events=events)
    seconds = time.perf_counter() - started
    return {"seconds": seconds, "events": executed,
            "events_per_sec": executed / seconds}


def bench_timer_churn(timers: int = 150_000, cancel_mod: int = 4) -> dict[str, Any]:
    """Cancellation-heavy load: 3 of every 4 timers are cancelled."""
    sim = Simulator()

    def expire() -> None:
        pass

    started = time.perf_counter()
    for i in range(timers):
        handle = sim.schedule(1_000 + i % 977, expire)
        if i % cancel_mod:
            handle.cancel()
    executed = sim.run()
    seconds = time.perf_counter() - started
    return {"seconds": seconds, "events": executed,
            "events_per_sec": executed / seconds,
            "timers": timers, "compactions": sim.compactions}


def bench_snapshot_round(snapshots: int = 4, rate_pps: float = 40_000.0) -> dict[str, Any]:
    """A 4-switch leaf-spine snapshot campaign over Poisson traffic."""
    from repro.core import deploy
    from repro.sim.network import Network, NetworkConfig
    from repro.topology import leaf_spine
    from repro.workloads.synthetic import PoissonConfig, PoissonWorkload

    interval = 5 * MS
    horizon = (snapshots + 2) * interval
    network = Network(leaf_spine(num_leaves=2, num_spines=2, hosts_per_leaf=2),
                      NetworkConfig(seed=11))
    PoissonWorkload(network, PoissonConfig(rate_pps=rate_pps,
                                           stop_ns=snapshots * interval,
                                           sport_churn=True)).start()
    deployment = deploy(network, metric="packet_count", channel_state=True)
    deployment.schedule_campaign(count=snapshots, interval_ns=interval)

    started = time.perf_counter()
    network.run(until=horizon)
    seconds = time.perf_counter() - started
    events = network.sim.events_run
    return {"seconds": seconds, "events": events,
            "events_per_sec": events / seconds, "snapshots": snapshots}


def bench_fig10_knee(ports: int = 16, burst: int = 25,
                     search_iterations: int = 7) -> dict[str, Any]:
    """One Figure 10 knee search through the trial runtime.

    The score is *model-normalized*, not calibration-normalized: the
    knee is a deterministic simulation output, so the natural unit is
    the serial-service duty cycle ``rate x 2 x ports x service_ns`` — 1.0
    when the channel is saturated.  A knee regression (a protocol or
    channel change that lowers the sustainable rate) moves the score;
    machine speed cannot.
    """
    from repro.core import ControlPlaneConfig
    from repro.experiments import fig10
    from repro.runtime.runner import execute_spec

    config = fig10.Fig10Config(port_counts=[ports], burst=burst,
                               search_iterations=search_iterations)
    spec = fig10.specs(config)[0]
    started = time.perf_counter()
    result = execute_spec(spec)
    seconds = time.perf_counter() - started
    rate = result.data["max_rate_hz"]
    service_ns = ControlPlaneConfig().notification_service_ns
    return {"seconds": seconds, "ports": ports, "max_rate_hz": rate,
            "score": round(rate * 2 * ports * service_ns / 1e9, 4)}


def _agg_knee_rates(k: int, degree: int, burst: int,
                    search_iterations: int) -> "tuple[float, float, int]":
    """(flat max rate, tree max rate, units) of one whole-fabric
    aggregation knee comparison on a fat-tree of arity ``k``."""
    from repro.experiments import fig10
    from repro.runtime.runner import execute_spec

    config = fig10.AggKneeConfig(arities=[k], degrees=[0, degree],
                                 burst=burst,
                                 search_iterations=search_iterations)
    rates: dict[int, float] = {}
    for spec in fig10.agg_specs(config):
        rates[spec.params["degree"]] = execute_spec(spec).data["max_rate_hz"]
    switches = 5 * k ** 2 // 4
    return rates[0], rates[degree], 2 * k * switches


def _agg_result(k: int, degree: int, burst: int,
                search_iterations: int, seconds: float,
                flat_rate: float, tree_rate: float,
                units: int) -> dict[str, Any]:
    from repro.core import AggregationConfig

    # Model-normalized like fig10_knee: the root relay's per-record duty
    # cycle at the tree's knee rate.  Machine-independent; drops when an
    # aggregation change lowers the sustainable whole-fabric rate.
    per_record_ns = AggregationConfig().relay_per_record_ns
    return {"seconds": seconds, "k": k, "degree": degree, "units": units,
            "max_rate_hz": round(tree_rate, 1),
            "flat_rate_hz": round(flat_rate, 1),
            "speedup": round(tree_rate / flat_rate, 1) if flat_rate else None,
            "score": round(tree_rate * units * per_record_ns / 1e9, 4)}


def bench_agg_knee(k: int = 8, degree: int = 4, burst: int = 10,
                   search_iterations: int = 6) -> dict[str, Any]:
    """The headline aggregation measurement: whole-fabric knee on a
    fat-tree k=8 (80 switches, 1280 units), flat intake vs. the
    degree-4 tree.  ``speedup`` is the tentpole's acceptance number."""
    started = time.perf_counter()
    flat_rate, tree_rate, units = _agg_knee_rates(k, degree, burst,
                                                  search_iterations)
    seconds = time.perf_counter() - started
    return _agg_result(k, degree, burst, search_iterations, seconds,
                       flat_rate, tree_rate, units)


def bench_agg_smoke(k: int = 4, degree: int = 4, burst: int = 6,
                    search_iterations: int = 6) -> dict[str, Any]:
    """The CI-sized aggregation gate: the same knee comparison on a
    fat-tree k=4.  Identical parameters in quick and full runs, so the
    quick CI score is directly comparable to the committed baseline."""
    started = time.perf_counter()
    flat_rate, tree_rate, units = _agg_knee_rates(k, degree, burst,
                                                  search_iterations)
    seconds = time.perf_counter() - started
    return _agg_result(k, degree, burst, search_iterations, seconds,
                       flat_rate, tree_rate, units)


def _shard_bench_setup(worker, rate_pps: float, stop_ns: int,
                       snapshots: int, interval_ns: int):
    """Per-shard setup of the shard-scaling benchmark: Poisson traffic
    from this shard's hosts to *all* hosts (so a constant share crosses
    the cut) under a short snapshot campaign.  Module-level so the
    process runner could pickle it too."""
    from repro.core import deploy
    from repro.workloads.synthetic import PoissonConfig, PoissonWorkload

    topo = worker.network.topology
    local = [h for h in topo.hosts
             if worker.plan.assignment[h] == worker.shard_id]
    pairs = [(src, dst) for src in local for dst in topo.hosts if dst != src]
    PoissonWorkload(worker.network, PoissonConfig(
        seed=worker.shard_id + 1, rate_pps=rate_pps, stop_ns=stop_ns,
        pairs=pairs, sport_churn=True)).start()
    deployment = deploy(worker, metric="packet_count")
    if deployment.is_observer_shard and snapshots:
        deployment.schedule_campaign(snapshots, interval_ns)
    return lambda: worker.sim.events_run


def _run_sharded_once(topo, shards: int, rate_pps: float, duration_ns: int,
                      snapshots: int, interval_ns: int) -> dict[str, float]:
    """One sharded run; returns total events, wall seconds, and the
    critical-path seconds (slowest shard's busy time plus everything the
    coordinator did outside the workers).

    The in-process runner is used deliberately: per-shard busy time
    measured in one process is independent of how many cores the
    benchmark host happens to have, whereas the process runner's wall
    clock on an oversubscribed host measures the host, not the code.
    ``events / critical-path seconds`` is the wall-clock rate a host
    with >= ``shards`` idle cores would sustain, minus pipe transport.
    """
    from repro.sim.network import NetworkConfig
    from repro.sim.shard import InProcessShardRunner

    runner = InProcessShardRunner(
        topo, NetworkConfig(seed=13), shards=shards,
        setup=_shard_bench_setup,
        setup_args=(rate_pps, duration_ns, snapshots, interval_ns),
        busy_clock=time.perf_counter)
    started = time.perf_counter()
    per_shard_events = runner.run(until=duration_ns)
    wall = time.perf_counter() - started
    events = sum(per_shard_events)
    busy = [w.busy_s for w in runner.workers]
    coordinator = max(0.0, wall - sum(busy))
    # shards=1 runs the plain path (busy_s stays 0): critical == wall.
    critical = (max(busy) + coordinator) if any(busy) else wall
    return {"events": events, "wall_s": wall, "critical_s": critical,
            "rounds": runner.rounds}


def bench_shard_scaling(k: int = 8, shard_counts: "tuple[int, ...]" = (1, 2, 4),
                        rate_pps: float = 50.0, duration_ms: int = 25,
                        snapshots: int = 3,
                        fabric_prop_ns: int = 20_000) -> dict[str, Any]:
    """Space-parallel scaling on a fat-tree: aggregate events/s vs shard
    count.  ``events_per_sec`` (the scored quantity) is the aggregate
    critical-path throughput at the highest shard count; ``speedup`` is
    its ratio to the single-shard run."""
    from repro.topology import fat_tree

    topo = fat_tree(k=k, fabric_prop_ns=fabric_prop_ns)
    duration_ns = duration_ms * MS
    interval_ns = 5 * MS
    eps: dict[int, float] = {}
    total_seconds = 0.0
    total_events = 0
    rounds = 0
    for shards in shard_counts:
        run = _run_sharded_once(topo, shards, rate_pps, duration_ns,
                                snapshots, interval_ns)
        eps[shards] = run["events"] / run["critical_s"]
        total_seconds += run["wall_s"]
        total_events += int(run["events"])
        rounds = max(rounds, int(run["rounds"]))
    first, last = shard_counts[0], shard_counts[-1]
    return {"seconds": total_seconds, "events": total_events,
            "events_per_sec": eps[last],
            "k": k, "shards": f"{first}..{last}", "rounds": rounds,
            "speedup": round(eps[last] / eps[first], 2)}


def bench_shard_smoke(k: int = 4, shards: int = 2, rate_pps: float = 400.0,
                      duration_ms: int = 15) -> dict[str, Any]:
    """The CI-sized sharded-core gate: one 2-shard run on a small
    fat-tree; the normalized aggregate (critical-path) events/s score is
    regression-checked like ``event_loop``."""
    from repro.topology import fat_tree

    topo = fat_tree(k=k, fabric_prop_ns=20_000)
    run = _run_sharded_once(topo, shards, rate_pps, duration_ms * MS,
                            snapshots=2, interval_ns=5 * MS)
    return {"seconds": run["wall_s"], "events": int(run["events"]),
            "events_per_sec": run["events"] / run["critical_s"],
            "k": k, "shards": shards, "rounds": int(run["rounds"])}


def bench_service_smoke(epochs: int = 10_000) -> dict[str, Any]:
    """The snapshot-as-a-service sustained-throughput gate.

    Drives :class:`repro.runtime.streaming.ServiceRun` — a leaf-spine
    under memcache incast with a continuous 1 ms snapshot cadence —
    until ``epochs`` epoch documents are stored, then reports wall-clock
    epochs/second and events/second (the latter is the normalized,
    regression-gated score, comparable across epoch counts because the
    run is steady-state).

    Bounded memory is *asserted*, not just reported: the store's exact
    canonical-JSON byte accounting is sampled every simulation chunk
    once the retention ring has filled, and the bench raises if the
    ring overflows or the byte count drifts past a constant band —
    store memory growing with run length is a correctness regression,
    not a slowdown.
    """
    from repro.runtime.streaming import ServiceRun, ServiceSpec
    from repro.service.pipeline import PipelineConfig
    from repro.sim.engine import US

    retention = 512
    run = ServiceRun(ServiceSpec(
        seed=11, interval_ns=1 * MS, mean_request_gap_ns=2000 * US,
        pipeline=PipelineConfig(retention=retention, keyframe_interval=32),
        chunk_ns=200 * MS))
    store = run.pipeline.store
    samples: list[int] = []

    def sample_store(_run: Any) -> None:
        if store.appended >= retention:
            samples.append(store.encoded_bytes)

    report = run.run(epochs=epochs, on_chunk=sample_store)
    samples.append(store.encoded_bytes)

    entries = len(store)
    if entries > retention:
        raise RuntimeError(
            f"service store overflowed its ring: {entries} entries "
            f"held, retention is {retention}")
    flatness = max(samples) / min(samples)
    if flatness > 1.5:
        raise RuntimeError(
            f"service store memory is not flat: encoded bytes ranged "
            f"{min(samples)}..{max(samples)} ({flatness:.2f}x) after "
            f"the retention ring filled")
    return {"seconds": report.wall_seconds, "events": report.events,
            "events_per_sec": report.events_per_sec,
            "epochs": report.epochs_stored,
            "epochs_per_sec": round(report.epochs_per_sec, 1),
            "store_bytes": store.encoded_bytes,
            "flatness": round(flatness, 3)}


# ----------------------------------------------------------------------
# Suite driver
# ----------------------------------------------------------------------

@dataclass
class BenchResult:
    """One labelled run of the suite (one entry of ``BENCH_core.json``)."""

    label: str
    quick: bool
    calibration_ops_per_sec: float
    results: dict[str, dict[str, Any]] = field(default_factory=dict)
    timestamp: str = ""
    python: str = ""
    machine: str = ""

    def to_json(self) -> dict[str, Any]:
        return {"label": self.label, "timestamp": self.timestamp,
                "python": self.python, "machine": self.machine,
                "quick": self.quick,
                "calibration_ops_per_sec": round(
                    self.calibration_ops_per_sec, 1),
                "results": self.results}

    def score(self, name: str = GATE_BENCH) -> Optional[float]:
        entry = self.results.get(name)
        return None if entry is None else entry.get("score")

    def table(self) -> str:
        lines = [f"{'benchmark':<16} {'seconds':>9} {'events/s':>12} "
                 f"{'score':>8}  notes"]
        for name, r in self.results.items():
            eps = r.get("events_per_sec")
            score = r.get("score")
            notes = ", ".join(f"{k}={v}" for k, v in r.items()
                              if k not in ("seconds", "events",
                                           "events_per_sec", "score"))
            lines.append(
                f"{name:<16} {r['seconds']:>9.3f} "
                f"{(f'{eps:,.0f}' if eps else '-'):>12} "
                f"{(f'{score:.4f}' if score is not None else '-'):>8}  "
                f"{notes}")
        lines.append(f"calibration: "
                     f"{self.calibration_ops_per_sec / 1e6:.1f} Mops/s")
        return "\n".join(lines)


def _best_of(fn, repeat: int) -> dict[str, Any]:
    """Best (minimum-seconds) of ``repeat`` runs — the standard defence
    against scheduler noise for micro-benchmarks."""
    best: Optional[dict[str, Any]] = None
    for _ in range(repeat):
        run = fn()
        if best is None or run["seconds"] < best["seconds"]:
            best = run
    return best


def run_suite(label: str = "adhoc", quick: bool = False,
              repeat: int = 3,
              progress=None) -> BenchResult:
    """Run every benchmark; returns the labelled :class:`BenchResult`."""
    note = progress or (lambda msg: None)
    repeat = max(1, repeat)

    note("calibrating")
    calibration = max(calibrate() for _ in range(2))

    # Plans are (name, fn) or (name, fn, repeat_cap): sustained runs like
    # service_smoke are self-averaging, so best-of-N only burns time.
    if quick:
        plans = [
            ("event_loop", lambda: bench_event_loop(events=150_000)),
            ("timer_churn", lambda: bench_timer_churn(timers=60_000)),
            ("snapshot_round", lambda: bench_snapshot_round(snapshots=2)),
            ("fig10_knee", lambda: bench_fig10_knee(
                ports=8, burst=15, search_iterations=6)),
            ("shard_smoke", lambda: bench_shard_smoke(duration_ms=10)),
            ("agg_smoke", bench_agg_smoke),
            ("service_smoke", lambda: bench_service_smoke(epochs=2_500), 1),
        ]
    else:
        plans = [
            ("event_loop", bench_event_loop),
            ("timer_churn", bench_timer_churn),
            ("snapshot_round", bench_snapshot_round),
            ("fig10_knee", bench_fig10_knee),
            ("shard_smoke", bench_shard_smoke),
            ("shard_scaling", bench_shard_scaling),
            ("agg_smoke", bench_agg_smoke),
            ("agg_knee", bench_agg_knee),
            ("service_smoke", bench_service_smoke, 1),
        ]

    result = BenchResult(
        label=label, quick=quick, calibration_ops_per_sec=calibration,
        timestamp=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        python=f"{platform.python_implementation()} "
               f"{platform.python_version()}",
        machine=platform.machine())

    for name, fn, *cap in plans:
        note(f"running {name}")
        r = _best_of(fn, min([repeat, *cap]))
        r["seconds"] = round(r["seconds"], 4)
        if "events_per_sec" in r:
            r["events_per_sec"] = round(r["events_per_sec"], 1)
            # Machine-normalized throughput; the regression gate's unit.
            r["score"] = round(r["events_per_sec"] / calibration, 4)
        result.results[name] = r
    return result


# ----------------------------------------------------------------------
# History file + regression gate
# ----------------------------------------------------------------------

def load_history(path: str) -> dict[str, Any]:
    if not os.path.exists(path):
        return {"schema": SCHEMA_VERSION, "suite": "core", "entries": []}
    with open(path) as fh:
        data = json.load(fh)
    if data.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"{path}: unsupported schema {data.get('schema')!r}")
    return data


def append_entry(path: str, result: BenchResult) -> None:
    """Append ``result`` to the history, replacing any entry with the
    same label and ``quick`` flag (a label keeps one quick and one full
    entry)."""
    history = load_history(path)
    history["entries"] = [e for e in history["entries"]
                          if (e.get("label"), bool(e.get("quick")))
                          != (result.label, result.quick)]
    history["entries"].append(result.to_json())
    with open(path, "w") as fh:
        json.dump(history, fh, indent=2, sort_keys=False)
        fh.write("\n")


def baseline_entry(history: dict[str, Any], label: Optional[str] = None,
                   *, quick: bool) -> dict[str, Any]:
    """The entry labelled ``label`` (default :data:`BASELINE_LABEL`)
    measured with the same ``quick`` flag as the run it gates.

    Quick and full runs use different iteration counts and problem
    sizes, so their scores are not comparable; a missing match raises
    ``LookupError`` rather than falling back to the other kind.
    """
    label = BASELINE_LABEL if label is None else label
    for entry in history.get("entries", []):
        if entry.get("label") == label and bool(entry.get("quick")) == quick:
            return entry
    kind = "quick" if quick else "full"
    raise LookupError(f"no {kind} baseline entry labelled {label!r}; record "
                      f"one with --label {label}"
                      f"{' --quick' if quick else ''} --out FILE")


def check_regression(current: BenchResult, baseline: dict[str, Any],
                     max_regression: float = 0.25,
                     bench: str = GATE_BENCH) -> "tuple[bool, str]":
    """Compare normalized scores; ``(ok, human_message)``.

    ``max_regression`` is the tolerated fractional drop (0.25 == a 25%
    slower normalized event loop fails).  Improvements always pass.
    """
    base_score = (baseline.get("results", {}).get(bench, {}) or {}).get("score")
    cur_score = current.score(bench)
    if base_score is None or cur_score is None:
        return True, (f"{bench}: no normalized score to compare "
                      f"(baseline={base_score}, current={cur_score}) — skipped")
    change = cur_score / base_score - 1.0
    message = (f"{bench}: score {cur_score:.4f} vs baseline "
               f"{base_score:.4f} ({baseline.get('label')!r}) — "
               f"{change:+.1%}")
    if change < -max_regression:
        return False, message + f" exceeds the {max_regression:.0%} budget"
    return True, message


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the discrete-event core micro-benchmark suite")
    parser.add_argument("--quick", action="store_true",
                        help="smaller iteration counts (CI smoke)")
    parser.add_argument("--label", default="adhoc",
                        help="entry label recorded in the history file")
    parser.add_argument("--repeat", type=int, default=3,
                        help="best-of-N repetitions per benchmark")
    parser.add_argument("--out", metavar="FILE",
                        help=f"append the entry to FILE "
                             f"(e.g. {DEFAULT_BENCH_FILE})")
    parser.add_argument("--check-against", metavar="FILE",
                        help="compare against a baseline entry in FILE and "
                             "exit 1 on regression")
    parser.add_argument("--baseline-label", default=None,
                        help=f"baseline entry label (default: "
                             f"{BASELINE_LABEL!r}); the entry's quick flag "
                             f"must match this run's")
    parser.add_argument("--max-regression", type=float, default=0.25,
                        help="tolerated fractional score drop (default 0.25)")
    args = parser.parse_args(argv)

    result = run_suite(label=args.label, quick=args.quick,
                       repeat=args.repeat, progress=print)
    print()
    print(result.table())

    if args.out:
        append_entry(args.out, result)
        print(f"\nrecorded entry {result.label!r} in {args.out}")

    if args.check_against:
        history = load_history(args.check_against)
        try:
            baseline = baseline_entry(history, args.baseline_label,
                                      quick=args.quick)
        except LookupError as exc:
            print(f"\n{args.check_against}: {exc.args[0]}")
            return 1
        print()
        failed = False
        for bench in GATE_BENCHES:
            ok, message = check_regression(result, baseline,
                                           max_regression=args.max_regression,
                                           bench=bench)
            print(message)
            failed = failed or not ok
        return 1 if failed else 0
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via make bench
    raise SystemExit(main())
