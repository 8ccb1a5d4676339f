"""The benchmark's three workloads, driven through public APIs only.

Each workload turns one ``--seed`` into its inputs (network, traffic and
clock-error seeds, query offsets) and then runs one *repetition*:

* ``setup``   — topology, network, deployment, workload start, plan
  compilation (``setup_s``);
* ``run``     — the simulation, stepped in cadence-sized ``sim.run``
  calls (``step_ms``);
* ``analyze`` — what a user of the result computes next: balance
  statistics, update verdicts and audits, or service queries
  (``wall_s`` is ``run`` plus ``analyze``);
* ``verify``  — untimed: correctness checks, the output digest and the
  exact per-layer counts.

Repetition ``i`` of seed ``s`` draws its inputs from ``(s, i)``: a timed
run averages over several inputs of the same shape, so the input-size
variance of bursty traffic shrinks, while the traced and profiled runs
all repeat repetition 0 and must reproduce its output digest exactly.
Why each workload was chosen is in ``README.md`` beside this file.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict
from typing import Any, Callable, Iterator, Optional

from repro.analysis import epoch_record
from repro.analysis.consistency import ConsistencyChecker
from repro.analysis.invariants import LinkAudit
from repro.analysis.stats import balance_stddevs
from repro.core import ObserverConfig, deploy
from repro.core.aggregation import AggregationConfig
from repro.core.snapshot import GlobalSnapshot, SnapshotStatus
from repro.experiments.updates import canonical_plan
from repro.lb import FlowletBalancer
from repro.lb.flowlet import FlowletConfig
from repro.service import (ContinuousCampaign, PipelineConfig, QueryEngine,
                           SnapshotPipeline)
from repro.sim.engine import MS, US, Simulator
from repro.sim.network import Network, NetworkConfig
from repro.sim.switch import Direction
from repro.topology import fat_tree, leaf_spine
from repro.updates import (UpdateContext, UpdateVerifier, inject_clock_error,
                           noiseless_ptp)
from repro.workloads import HadoopTerasortWorkload
from repro.workloads.hadoop import HadoopConfig
from repro.workloads.synthetic import PoissonConfig, PoissonWorkload

import reference
from layers import EventTracer


def _canon(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _digest(payload: Any) -> str:
    return hashlib.sha256(_canon(payload).encode()).hexdigest()[:16]


class Session:
    """Everything one repetition measures, counts and checks."""

    def __init__(self, tracer: Optional[EventTracer] = None,
                 stepped: bool = True, normalized: bool = False) -> None:
        self.tracer = tracer
        self.stepped = stepped
        #: Bracket timed intervals with the reference loop and keep
        #: normalized copies of the times (see reference.py).
        self.normalized = normalized
        self._loop_s = 0.0
        self.norm_steps_s: list[float] = []
        self.timers: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(int)
        self.checks: dict[str, bool] = {}
        self.steps_s: list[float] = []
        self.sim_s = 0.0
        self.setup_s = 0.0
        self.analysis_s = 0.0
        self.wall_s = 0.0
        self.norm_setup_s = 0.0
        self.norm_wall_s = 0.0
        self.events = 0
        self.pending_max = 0
        self.compactions = 0
        self.epochs_requested = 0
        self.epochs_usable = 0
        #: Epochs the workload delivers to its user: stored in the
        #: service's store, or resolved usable elsewhere.
        self.epochs_delivered = 0
        self.latency_ns: list[int] = []
        self.sync_ns: list[int] = []
        self.queries_ms: dict[str, list[float]] = defaultdict(list)
        self.digest = ""

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        started = time.perf_counter()
        try:
            yield
        finally:
            self.timers[name] += time.perf_counter() - started

    def watch(self, observer) -> None:
        """Record each epoch's sim-time latency (requested instant to
        resolution) and its capture spread as it resolves."""
        sim = observer.sim

        def resolved(snapshot: GlobalSnapshot) -> None:
            self.latency_ns.append(sim.now - snapshot.requested_wall_ns)
            if snapshot.records:
                self.sync_ns.append(snapshot.capture_spread_ns)

        observer.on_resolved(resolved)

    def calibrate(self) -> tuple[float, float]:
        """Time the reference loop; (previous timing, this timing)."""
        before, self._loop_s = self._loop_s, reference.loop_seconds()
        return before, self._loop_s

    def normalize(self, seconds: float) -> float:
        """``seconds`` measured since the last calibration, normalized."""
        return seconds * reference.scale(*self.calibrate())

    def drive(self, sims: list[Simulator], until_ns: int, step_ns: int,
              on_step: Optional[Callable[[], None]] = None) -> None:
        """Run ``sims`` to ``until_ns`` in lockstep, ``step_ns`` at a
        time (or in one call each when not stepped), timing each step."""
        if self.tracer is not None:
            for sim in sims:
                sim.trace = self.tracer.hook
        ends = [until_ns]
        if self.stepped:
            ends = list(range(sims[0].now + step_ns, until_ns, step_ns)) + ends
        before = sum(sim.events_run for sim in sims)
        for end in ends:
            started = time.perf_counter()
            for sim in sims:
                sim.run(until=end)
            elapsed = time.perf_counter() - started
            if self.tracer is not None:
                self.tracer.flush()
            self.steps_s.append(elapsed)
            self.sim_s += elapsed
            if self.normalized:
                self.norm_steps_s.append(self.normalize(elapsed))
            self.pending_max = max(self.pending_max,
                                   sum(sim.pending for sim in sims))
            if on_step is not None:
                on_step()
        for sim in sims:
            sim.trace = None
            self.compactions += sim.compactions
        self.events += sum(sim.events_run for sim in sims) - before

    def account(self, snapshots: list[GlobalSnapshot]) -> None:
        """Epoch outcomes: a requested epoch that is not usable fails."""
        for snap in snapshots:
            self.epochs_requested += 1
            self.epochs_usable += snap.usable
            status = snap.status
            if status is SnapshotStatus.COMPLETE:
                self.counts["core.observer.epochs_complete"] += 1
            elif status is SnapshotStatus.PARTIAL:
                self.counts["core.observer.epochs_partial"] += 1
            elif status is SnapshotStatus.ABANDONED:
                self.counts["core.observer.epochs_abandoned"] += 1

    def count_layers(self, network: Network, deployment) -> None:
        """Exact per-layer counts read from public attributes."""
        c = self.counts
        for name in sorted(network.switches):
            switch = network.switches[name]
            c["sim.switch.ttl_expired"] += switch.packets_ttl_expired
            for port in switch.ports:
                queue = port.egress.queue
                c["sim.switch.packets_processed"] += (
                    port.ingress.packets_processed
                    + port.egress.packets_processed)
                c["sim.switch.packets_dropped"] += queue.packets_dropped
                c["sim.switch.max_depth_packets"] = max(
                    c["sim.switch.max_depth_packets"],
                    queue.max_depth_packets)
        c["sim.channel.packets_delivered"] += sum(
            link.packets_delivered for link in network.links)
        notes = deployment.notification_stats()
        c["core.control_plane.received"] += notes["received"]
        c["core.control_plane.dropped"] += notes["dropped"]
        for cp in deployment.control_planes.values():
            c["core.control_plane.max_backlog"] = max(
                c["core.control_plane.max_backlog"], cp.channel.max_backlog)
            c["core.control_plane.reinitiations_sent"] += (
                cp.reinitiations_sent)
        c["core.observer.retry_rounds"] += deployment.observer.retry_rounds
        if deployment.aggregation is not None:
            agg = deployment.aggregation.stats()
            c["core.aggregation.records_forwarded"] += (
                agg["records_forwarded"])
            c["core.aggregation.partial_flushes"] += agg["partial_flushes"]
            c["core.aggregation.max_backlog"] = max(
                c["core.aggregation.max_backlog"], agg["max_backlog"])
        c["analysis.trace_rows"] += len(network.trace_log)


class Workload:
    """One benchmark workload; subclasses fill in the four phases."""

    name = ""
    #: Simulated time per timed ``sim.run`` step.
    step_ns = 0

    def __init__(self, seed: int, rep: int = 0) -> None:
        self.rng = random.Random(f"snapbench/{self.name}/{seed}/{rep}")

    def draw_seed(self) -> int:
        return self.rng.randrange(1, 2**31)

    def setup(self, s: Session) -> None:
        raise NotImplementedError

    def run(self, s: Session) -> None:
        raise NotImplementedError

    def analyze(self, s: Session) -> None:
        raise NotImplementedError

    def verify(self, s: Session) -> None:
        raise NotImplementedError


class LbCampaign(Workload):
    """Figure 12's shape: gauge snapshots of a flowlet-balanced
    leaf-spine under bursty Hadoop shuffle traffic."""

    name = "lb_campaign"
    step_ns = 5 * MS
    ROUNDS = 30
    WARMUP_NS = 20 * MS
    SETTLE_NS = 20 * MS

    def __init__(self, seed: int, rep: int = 0) -> None:
        super().__init__(seed, rep)
        self.net_seed = self.draw_seed()
        self.traffic_seed = self.draw_seed()
        last = self.WARMUP_NS + (self.ROUNDS - 1) * self.step_ns
        self.until_ns = last + self.SETTLE_NS

    def setup(self, s: Session) -> None:
        with s.timer("topology.build_s"):
            topo = leaf_spine(num_leaves=2, num_spines=2, hosts_per_leaf=3)
        with s.timer("sim.network.build_s"):
            self.network = Network(topo, NetworkConfig(
                seed=self.net_seed,
                lb_factory=lambda salt: FlowletBalancer(
                    FlowletConfig(salt=salt, timeout_ns=20 * US))))
        with s.timer("workloads.start_s"):
            HadoopTerasortWorkload(self.network, HadoopConfig(
                seed=self.traffic_seed, stop_ns=self.until_ns,
                burst_gap_ns=30 * US, mean_burst_ns=2 * MS,
                mean_pause_ns=10 * MS)).start()
        with s.timer("core.deploy_s"):
            self.deployment = deploy(
                self.network, metric="ewma_interarrival", max_sid=4095,
                observer=ObserverConfig(lead_time_ns=self.WARMUP_NS))
        self.epochs = self.deployment.schedule_campaign(self.ROUNDS,
                                                        self.step_ns)
        s.watch(self.deployment.observer)

    def run(self, s: Session) -> None:
        s.drive([self.network.sim], self.until_ns, self.step_ns)

    def analyze(self, s: Session) -> None:
        with s.timer("analysis.balance_s"):
            observer = self.deployment.observer
            rows = []
            for epoch in self.epochs:
                snap = observer.snapshot(epoch)
                if not snap.complete:
                    continue
                rows.append({leaf: {port: float(snap.value_of(
                                        leaf, port, Direction.EGRESS))
                                    for port in self.network.uplink_ports(leaf)}
                             for leaf in ("leaf0", "leaf1")})
            self.stddevs = balance_stddevs(rows)
            self.rows = rows

    def verify(self, s: Session) -> None:
        observer = self.deployment.observer
        snaps = [observer.snapshot(e) for e in self.epochs]
        s.account(snaps)
        s.epochs_delivered = sum(snap.usable for snap in snaps)
        s.checks["every_round_complete"] = all(snap.complete for snap in snaps)
        s.checks["balance_per_leaf_and_round"] = (
            len(self.stddevs) == 2 * len(self.epochs))
        s.count_layers(self.network, self.deployment)
        s.digest = _digest({"stddevs": [repr(v) for v in self.stddevs],
                            "rows": [[sorted(r[leaf].items()) for leaf in r]
                                     for r in self.rows]})


class UpdateRollout(Workload):
    """The coordinated-update cell: one ``timed`` and one ``twophase``
    rollout at 40 µs clock error, each with a ``fib_version`` verdict
    pass and an audit pass (``packet_count`` + channel state +
    data-plane trace, then ``LinkAudit`` and the checker replay)."""

    name = "update_rollout"
    step_ns = 5 * MS
    HORIZON_NS = 100 * MS
    UNTIL_NS = 120 * MS
    SIGMA_NS = 40 * US
    GAP_NS = 80 * US
    TTL = 6
    STRATEGIES = ("timed", "twophase")
    PASSES = ("verdict", "audit")

    def __init__(self, seed: int, rep: int = 0) -> None:
        super().__init__(seed, rep)
        self.net_seed = self.draw_seed()
        self.clock_seed = self.draw_seed()
        self.plan_seed = self.draw_seed()
        #: Per-sender start offsets of the all-to-all flows.
        self.offsets = [self.rng.randrange(self.GAP_NS) for _ in range(4)]

    def _start_traffic(self, network: Network) -> None:
        hosts = sorted(network.hosts)
        packets = self.HORIZON_NS // self.GAP_NS
        for i, src in enumerate(hosts):
            host = network.hosts[src]
            host.default_ttl = self.TTL
            for j, dst in enumerate(hosts):
                if src != dst:
                    host.send_flow(dst, packets, sport=9000 + j, dport=7000,
                                   gap_ns=self.GAP_NS,
                                   start_delay_ns=self.offsets[i])

    def setup(self, s: Session) -> None:
        self.cells: dict[tuple[str, str], dict[str, Any]] = {}
        for strategy in self.STRATEGIES:
            with s.timer("topology.build_s"):
                topo = leaf_spine(num_leaves=4, num_spines=2,
                                  hosts_per_leaf=1)
            with s.timer("updates.compile_s"):
                schedule = canonical_plan(strategy).compile(
                    UpdateContext.for_topology(topo,
                                               horizon_ns=self.HORIZON_NS,
                                               seed=self.plan_seed))
                verifier = UpdateVerifier(schedule)
            for kind in self.PASSES:
                audit = kind == "audit"
                with s.timer("sim.network.build_s"):
                    network = Network(topo, NetworkConfig(
                        seed=self.net_seed, ptp_config=noiseless_ptp(),
                        enable_tracing=audit))
                    inject_clock_error(network, self.SIGMA_NS,
                                       seed=self.clock_seed)
                with s.timer("core.deploy_s"):
                    deployment = deploy(
                        network,
                        metric="packet_count" if audit else "fib_version",
                        channel_state=audit, updates=schedule)
                epochs = {w: deployment.observer.take_snapshot(at_wall_ns=at)
                          for w, at in sorted(
                              verifier.snapshot_instants().items())}
                with s.timer("workloads.start_s"):
                    self._start_traffic(network)
                s.watch(deployment.observer)
                self.cells[strategy, kind] = dict(
                    network=network, deployment=deployment, epochs=epochs,
                    verifier=verifier)

    def run(self, s: Session) -> None:
        # The four simulations are independent; stepping them together
        # makes a step one cadence of the whole workload.
        s.drive([cell["network"].sim for cell in self.cells.values()],
                self.UNTIL_NS, self.step_ns)

    def analyze(self, s: Session) -> None:
        for (_strategy, kind), cell in self.cells.items():
            observer = cell["deployment"].observer
            snaps = {w: observer.snapshot(e)
                     for w, e in cell["epochs"].items()}
            if kind == "verdict":
                with s.timer("updates.verdict_s"):
                    verifier = cell["verifier"]
                    drops = list(cell["deployment"].update_driver.drops)
                    cell["verdicts"] = [
                        verifier.verdict_data(
                            wave,
                            (UpdateVerifier.device_generations(snaps[wave.index])
                             if snaps[wave.index].usable else None),
                            cell["epochs"][wave.index], drops)
                        for wave in verifier.schedule.waves]
                continue
            ordered = [snaps[w] for w in sorted(snaps)]
            with s.timer("analysis.link_audit_s"):
                cell["link_audit"] = LinkAudit(
                    cell["network"]).audit_completed(ordered)
            with s.timer("analysis.consistency_s"):
                checker = ConsistencyChecker(cell["deployment"].ids,
                                             metric="packet_count")
                checker.ingest(cell["network"].trace_log)
                cell["consistency"] = checker.audit(ordered,
                                                    channel_state=True)

    @staticmethod
    def _swaps_skewed(applied, waves: list[int]) -> bool:
        """Ground truth that a clock-timed rollout is not atomic: each
        wave's swaps fire at more than one true instant."""
        instants: dict[int, set[int]] = defaultdict(set)
        for update in applied:
            if update.op == "swap":
                instants[update.wave].add(update.true_ns)
        return all(len(instants[w]) > 1 for w in waves)

    def verify(self, s: Session) -> None:
        summary = {}
        for (strategy, kind), cell in self.cells.items():
            observer = cell["deployment"].observer
            snaps = [observer.snapshot(e) for e in cell["epochs"].values()]
            s.account(snaps)
            s.epochs_delivered += sum(snap.usable for snap in snaps)
            s.count_layers(cell["network"], cell["deployment"])
            if kind == "audit":
                s.checks[f"{strategy}.link_audit_ok"] = cell["link_audit"].ok
                s.checks[f"{strategy}.consistency_ok"] = (
                    cell["consistency"].ok)
                summary[strategy, kind] = [cell["link_audit"].ok,
                                           cell["consistency"].ok,
                                           len(cell["network"].trace_log)]
                continue
            verdicts = cell["verdicts"]
            loops = sum(v.loop_drops for v in verdicts)
            holes = sum(v.blackhole_drops for v in verdicts)
            s.counts["updates.loop_drops"] += loops
            s.counts["updates.blackhole_drops"] += holes
            if strategy == "timed":
                # Whether a straddling cut witnesses the mixed state
                # depends on a packet crossing the skew window, so the
                # measured atomicity is reported, not checked: a tight
                # clock draw can leave every wave at 1.0.  What the
                # program guarantees is checked instead.
                s.counts["updates.stale_devices"] += sum(
                    len(v.stale_devices) for v in verdicts)
                s.checks["timed.verdicts_conclusive"] = all(
                    v.conclusive for v in verdicts)
                s.checks["timed.swaps_skewed"] = self._swaps_skewed(
                    cell["deployment"].update_driver.applied,
                    [v.wave for v in verdicts])
            else:
                s.checks[f"{strategy}.no_loop_drops"] = loops == 0
                s.checks[f"{strategy}.no_blackhole_drops"] = holes == 0
            summary[strategy, kind] = [asdict(v) for v in verdicts]
        s.digest = _digest(sorted(summary.items()))


class FabricServe(Workload):
    """The snapshot service on fat-tree k=4 behind a degree-4
    aggregation tree, streaming into a ring smaller than the number of
    epochs it stores, then serving a closed loop of queries."""

    name = "fabric_serve"
    step_ns = 1500 * US
    EPOCHS = 150
    LEAD_NS = 5 * MS
    DRAIN_NS = 30 * MS
    RATE_PPS = 200.0
    RETENTION = 48
    KEYFRAME_INTERVAL = 16
    RANGE = 8
    AGG_DEGREE = 4
    QUERY_KINDS = ("range", "snapshot", "conservation")
    QUERIES_PER_KIND = 10
    #: Store size may vary this much once the ring is full.
    FLATNESS = 1.5

    def __init__(self, seed: int, rep: int = 0) -> None:
        super().__init__(seed, rep)
        self.net_seed = self.draw_seed()
        self.traffic_seed = self.draw_seed()
        kinds = [k for k in self.QUERY_KINDS
                 for _ in range(self.QUERIES_PER_KIND)]
        self.rng.shuffle(kinds)
        #: (kind, position of the first epoch as a share of the ring).
        self.queries = [(kind, self.rng.random()) for kind in kinds]
        self.until_ns = ((self.EPOCHS - 1) * self.step_ns + self.LEAD_NS
                         + self.DRAIN_NS)

    def setup(self, s: Session) -> None:
        with s.timer("topology.build_s"):
            topo = fat_tree(k=4)
        with s.timer("sim.network.build_s"):
            self.network = Network(topo, NetworkConfig(seed=self.net_seed))
        with s.timer("core.deploy_s"):
            self.deployment = deploy(
                self.network, metric="packet_count",
                observer=ObserverConfig(lead_time_ns=self.LEAD_NS),
                aggregation=AggregationConfig(degree=self.AGG_DEGREE))
        with s.timer("workloads.start_s"):
            PoissonWorkload(self.network, PoissonConfig(
                seed=self.traffic_seed, rate_pps=self.RATE_PPS,
                stop_ns=self.until_ns, sport_churn=True)).start()
        sim = self.network.sim
        observer = self.deployment.observer
        self.pipeline = SnapshotPipeline(sim, observer, config=PipelineConfig(
            retention=self.RETENTION,
            keyframe_interval=self.KEYFRAME_INTERVAL))
        self.campaign = ContinuousCampaign(sim, observer, self.step_ns)
        self.campaign.start(max_ticks=self.EPOCHS)
        s.watch(observer)
        self.store_sizes: list[tuple[int, int]] = []

    def _sample_store(self) -> None:
        store = self.pipeline.store
        self.store_sizes.append((len(store), store.encoded_bytes))

    def run(self, s: Session) -> None:
        s.drive([self.network.sim], self.until_ns, self.step_ns,
                on_step=self._sample_store)

    def analyze(self, s: Session) -> None:
        engine = QueryEngine(self.pipeline.store,
                             link_audit=LinkAudit(self.network))
        epochs = engine.epochs()
        self.answers = []
        for kind, position in self.queries:
            first = int(position * (len(epochs) - self.RANGE + 1))
            lo, hi = epochs[first], epochs[first + self.RANGE - 1]
            started = time.perf_counter()
            if kind == "range":
                answer: Any = engine.range(lo, hi)
            elif kind == "snapshot":
                answer = engine.snapshot(lo)
            else:
                answer = engine.conservation(lo, hi)
            s.queries_ms[kind].append((time.perf_counter() - started) * 1e3)
            self.answers.append((kind, lo, hi, answer))

    def _query_ok(self, kind: str, lo: int, hi: int, answer: Any) -> bool:
        observer = self.deployment.observer
        if kind == "range":
            expected = []
            for epoch in range(lo, hi + 1):
                doc = epoch_record(observer.snapshot(epoch))
                doc["merged_epochs"] = 0
                expected.append(doc)
            return _canon(answer) == _canon(expected)
        if kind == "snapshot":
            return (answer is not None
                    and answer.records == observer.snapshot(lo).records)
        return answer["checked"] > 0 and not answer["violating_epochs"]

    def _answer_digest(self, kind: str, answer: Any) -> Any:
        if kind == "snapshot":
            return epoch_record(answer)
        return answer

    def verify(self, s: Session) -> None:
        observer = self.deployment.observer
        pipeline = self.pipeline
        snaps = [observer.snapshot(e) for e in sorted(observer.snapshots)]
        s.account(snaps)
        s.epochs_delivered = pipeline.ingested
        # Epochs folded away under backpressure were requested but never
        # stored on their own: they fail like unusable ones.
        s.epochs_usable -= pipeline.coalesced_epochs
        s.checks["every_epoch_requested"] = self.campaign.ticks == self.EPOCHS
        s.checks["stream_drained"] = (pipeline.backlog == 0
                                      and pipeline.ingested == self.EPOCHS)
        s.checks["store_within_retention"] = all(
            entries <= self.RETENTION for entries, _b in self.store_sizes)
        full = [size for entries, size in self.store_sizes
                if entries == self.RETENTION]
        s.checks["store_bytes_flat"] = bool(
            full and max(full) <= self.FLATNESS * min(full))
        for i, (kind, lo, hi, answer) in enumerate(self.answers):
            s.checks[f"query{i}.{kind}"] = self._query_ok(kind, lo, hi,
                                                          answer)
        stats = pipeline.stats()
        c = s.counts
        c["service.coalesced_epochs"] = stats["coalesced_epochs"]
        c["service.store_promoted"] = stats["store_promoted"]
        c["service.store_keyframes"] = stats["store_keyframes"]
        c["service.store_bytes"] = stats["store_encoded_bytes"]
        c["service.ingest_ratio"] = pipeline.ingested / max(1, self.EPOCHS)
        s.count_layers(self.network, self.deployment)
        s.digest = _digest({
            "store": list(pipeline.store.scan()),
            "answers": [[kind, lo, hi, self._answer_digest(kind, answer)]
                        for kind, lo, hi, answer in self.answers]})


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (LbCampaign, UpdateRollout, FabricServe)}
