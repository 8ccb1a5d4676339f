"""Coordinated updates verified by snapshots: strategy x clock error.

The paper motivates snapshots with "is my network update consistent?"
(§8) but never closes the loop.  This experiment does: each trial runs
a canonical rollout — rebalance, detour, revert, drain, restore — on a
4-leaf/2-spine fabric under one update *strategy* and one injected
clock-error level, then renders per-wave verdicts from synchronized
snapshots that straddle each wave's generation-bumping instant
(:mod:`repro.updates.verify`).

The expected ordering (the reproduction target):

* :class:`~repro.updates.TimedSwap` — every device swaps at the same
  instant *on its own clock*.  Atomicity degrades monotonically as the
  injected PTP error grows, transient loops appear (TTL-expiry drops in
  the detour wave's mixed window) and the drain wave's withdrawal races
  its redirects into attributed black holes.
* :class:`~repro.updates.PhasedUpdate` — safe orderings with
  inter-phase gaps stay loop-free while the gap exceeds the skew, at
  the cost of a long mixed window (partial atomicity by design).
* :class:`~repro.updates.TwoPhaseVersioned` — per-packet version tags
  keep **every** error level loop-free and black-hole-free; only the
  commit instant (still clock-timed) shows in the atomicity score.

Each verdict pass runs with ``metric="fib_version"`` (gauge snapshots
of the forwarding generation).  A second *audit* pass re-runs the same
cell with ``metric="packet_count"`` + channel state and checks the
straddling cuts against :class:`~repro.analysis.invariants.LinkAudit`
and the ground-truth conservation law — updates may drop packets in
mixed windows; they must never corrupt a snapshot.

The plan and its compiled schedule ride in each TrialSpec's params
(JSON forms, same contract as the fault experiments — docs/SPECS.md),
so scenarios participate in the cache fingerprint.  ``--fault-profile``
composes chaos on top; ``--update-plan`` swaps in a serialized plan;
``--shards N`` space-partitions each cell (verdicts must not change).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from collections.abc import Sequence
from typing import Any, Optional

from repro.analysis.consistency import ConsistencyChecker
from repro.analysis.invariants import LinkAudit
from repro.core import deploy
from repro.experiments.harness import TextTable, header
from repro.faults import FaultInjector, FaultProfile, FaultSchedule, \
    ProfileContext
from repro.runtime import TrialResult, TrialRunner, TrialSpec, make_result, \
    trial
from repro.sim.engine import MS, US
from repro.sim.network import Network, NetworkConfig
from repro.sim.shard import ShardWorker, run_sharded
from repro.topology import leaf_spine
from repro.updates import (DropRecord, PhasedUpdate, TimedSwap,
                           TwoPhaseVersioned, UpdateContext, UpdatePlan,
                           UpdateSchedule, UpdateVerifier,
                           inject_clock_error, noiseless_ptp)

__all__ = [
    "STRATEGIES",
    "UpdatesConfig",
    "UpdatesResult",
    "assemble",
    "canonical_plan",
    "run",
    "run_updates_trial",
    "scenarios",
    "specs",
]

#: Simulated horizon of one cell; the last wave fires at 75 ms and the
#: tail covers two-phase cleanups plus snapshot assembly.
HORIZON_NS = 100 * MS
RUN_UNTIL_NS = HORIZON_NS + 20 * MS

#: The built-in strategies, in presentation order.
STRATEGIES = ["timed", "phased", "twophase"]

#: The canonical rollout's route intents, shared by every strategy:
#: (instant, label, safe phase order, route changes).  Intents assume
#: the 4-leaf/2-spine testbed; ``canonical_plan`` turns them into a
#: concrete composed plan.
_LEAVES = [f"leaf{i}" for i in range(4)]
_REMOTE = {leaf: tuple(f"server{j}" for j in range(4)
                       if f"leaf{j}" != leaf)
           for leaf in _LEAVES}
_INTENTS: list[tuple[int, str, tuple[str, ...], tuple]] = [
    # Pin every leaf's remote traffic onto spine0 (pure atomicity wave:
    # no loop or black-hole risk whichever order devices swap in).
    (15 * MS, "rebalance", (),
     tuple((leaf, dst, ("spine0",))
           for leaf in _LEAVES for dst in _REMOTE[leaf])),
    # Detour server1 via the spine1 valley.  Under skew the pair is a
    # textbook loop: spine0 (fast clock) starts valleying through leaf0
    # while leaf0 (slow clock) still points back at spine0.
    (30 * MS, "detour", ("leaf0", "spine0"),
     (("leaf0", "server1", ("spine1",)),
      ("spine0", "server1", ("leaf0",)))),
    # Revert the detour (the reverse ordering happens to be safe here:
    # the slow clock swaps last, which is the consistent order).
    (45 * MS, "revert", ("spine0", "leaf0"),
     (("leaf0", "server1", ("spine0",)),
      ("spine0", "server1", ("leaf1",)))),
    # Drain spine0 for server3: the withdrawal races the redirects —
    # a fast-clocked withdrawal black-holes traffic the slow leaves
    # still send its way (attributed, because the wave withdrew).
    (60 * MS, "drain", ("leaf0", "leaf1", "leaf2", "spine0"),
     (("leaf0", "server3", ("spine1",)),
      ("leaf1", "server3", ("spine1",)),
      ("leaf2", "server3", ("spine1",)),
      ("spine0", "server3", ()))),
    # Restore the initial ECMP everywhere.
    (75 * MS, "restore", (),
     tuple([(leaf, dst, ("spine0", "spine1"))
            for leaf in _LEAVES for dst in _REMOTE[leaf]]
           + [("spine0", "server3", ("leaf3",))])),
]


def canonical_plan(strategy: str) -> UpdatePlan:
    """The canonical five-wave rollout under one update strategy."""
    parts: list[UpdatePlan] = []
    for at_ns, label, order, routes in _INTENTS:
        if strategy == "timed":
            parts.append(TimedSwap(at_ns=at_ns, routes=routes, label=label))
        elif strategy == "phased":
            parts.append(PhasedUpdate(at_ns=at_ns, gap_ns=2 * MS,
                                      routes=routes, order=order,
                                      label=label))
        elif strategy == "twophase":
            parts.append(TwoPhaseVersioned(at_ns=at_ns, routes=routes,
                                           label=label))
        else:
            raise ValueError(f"unknown update strategy {strategy!r} "
                             f"(expected one of {STRATEGIES})")
    plan = parts[0]
    for part in parts[1:]:
        plan = plan | part
    return plan


@dataclass
class UpdatesConfig:
    seed: int = 69
    #: Injected PTP error levels: per-switch clock offsets are drawn
    #: once per level from a content-keyed Gaussian with this sigma
    #: (``repro.updates.inject_clock_error``), so the realized skew
    #: pattern is fixed across shard counts and scales with the level.
    clock_error_ns: list[int] = field(
        default_factory=lambda: [0, 2_000, 5_000, 15_000, 40_000, 100_000])
    strategies: list[str] = field(default_factory=lambda: list(STRATEGIES))
    #: Inter-packet gap of each all-to-all background flow.
    gap_ns: int = 12 * US
    #: Sender TTL: low enough that a transient loop expires inside the
    #: mixed window, high enough for the longest legitimate path.
    ttl: int = 6
    #: Serialized :class:`~repro.updates.UpdatePlan`
    #: (``plan.to_jsonable()``).  When set, the experiment sweeps this
    #: single plan over the clock-error levels instead of the built-in
    #: strategy set (the ``--update-plan`` CLI path).
    plan: Optional[dict] = None
    #: Serialized :class:`~repro.faults.FaultProfile`; composes a chaos
    #: layer on top of every cell (the ``--fault-profile`` CLI path).
    profile: Optional[dict] = None
    #: Re-run each cell with ``metric="packet_count"`` + channel state
    #: and audit the straddling cuts (single-process cells only).
    audit: bool = True
    #: Space-parallel shards per trial (``--shards``); verdicts must
    #: not depend on the shard count.
    shards: int = 1

    @classmethod
    def quick(cls) -> "UpdatesConfig":
        return cls(clock_error_ns=[0, 15_000, 100_000],
                   strategies=["timed", "twophase"], audit=False)

    @classmethod
    def chaos(cls) -> "UpdatesConfig":
        """Updates under faults: the quick grid with a mild independent
        chaos layer on top (``make chaos-smoke``)."""
        from repro.faults import IndependentFaults
        profile = IndependentFaults(
            intensity=0.25, kinds=("link_delay", "cp_slow"))
        config = cls.quick()
        config.profile = profile.to_jsonable()
        return config


def scenarios(config: UpdatesConfig) -> list[tuple[str, UpdatePlan]]:
    """The (strategy label, plan) pairs this config sweeps."""
    if config.plan is not None:
        plan = UpdatePlan.from_jsonable(config.plan)
        return [(f"plan-{plan.spec_type}", plan)]
    return [(strategy, canonical_plan(strategy))
            for strategy in config.strategies]


def _topology():
    return leaf_spine(num_leaves=4, num_spines=2, hosts_per_leaf=1)


def _fault_schedule(config: UpdatesConfig) -> Optional[dict]:
    if config.profile is None:
        return None
    profile = FaultProfile.from_jsonable(config.profile)
    context = ProfileContext.for_topology(
        _topology(), horizon_ns=HORIZON_NS, start_ns=10 * MS,
        seed=config.seed)
    return profile.compile(context).to_jsonable()


def specs(config: UpdatesConfig) -> list[TrialSpec]:
    """One spec per (strategy, clock-error) cell; the plan and its
    compiled schedule ride in the params, so the scenario is part of
    the cache fingerprint."""
    context = UpdateContext.for_topology(_topology(),
                                         horizon_ns=HORIZON_NS,
                                         seed=config.seed)
    faults = _fault_schedule(config)
    out = []
    for label, plan in scenarios(config):
        schedule = plan.compile(context).to_jsonable()
        for sigma in config.clock_error_ns:
            params: dict[str, Any] = dict(
                scenario=label, sigma_ns=sigma,
                plan=plan.to_jsonable(), schedule=schedule,
                gap_ns=config.gap_ns, ttl=config.ttl,
                audit=config.audit)
            if faults is not None:
                params["faults"] = faults
            if config.shards > 1:
                # Added only when sharded, so single-process
                # fingerprints (and their cached results) are
                # unchanged; verdicts must agree regardless.
                params["shards"] = config.shards
            out.append(TrialSpec(kind="updates_sweep", params=params,
                                 seed=config.seed,
                                 label=f"updates/{label}@{sigma}"))
    return out


def _start_traffic(network: Network, hosts: Sequence[str], gap_ns: int,
                   ttl: int) -> None:
    """Deterministic all-to-all background traffic.

    Flow definitions are derived from the *global* host list so a shard
    worker (which owns a subset of the hosts) emits exactly the packets
    the single-process run emits from those hosts.
    """
    num = int(HORIZON_NS // gap_ns)
    for i, src in enumerate(hosts):
        host = network.hosts.get(src)
        if host is None:
            continue
        host.default_ttl = ttl
        for j, dst in enumerate(hosts):
            if src == dst:
                continue
            host.send_flow(dst, num, sport=9000 + j, dport=7000,
                           gap_ns=gap_ns, start_delay_ns=17 * i)


def _arm_faults(network: Network, deployment, params: dict):
    if "faults" not in params:
        return None
    injector = FaultInjector(network,
                             FaultSchedule.from_jsonable(params["faults"]),
                             deployment=deployment)
    injector.arm()
    return injector


def _wave_cuts(observer, wave_epochs: dict[int, int]) -> dict[int, dict]:
    """Per wave: the straddling cut reduced to plain data (epoch,
    usability, per-device minimum ingress generation)."""
    cuts = {}
    for wave_index, epoch in wave_epochs.items():
        snap = observer.snapshot(epoch)
        usable = snap is not None and snap.usable
        cuts[wave_index] = {
            "epoch": epoch,
            "usable": usable,
            "gens": (UpdateVerifier.device_generations(snap)
                     if usable else None),
        }
    return cuts


def _render(verifier: UpdateVerifier, cuts: dict[int, dict],
            drops: Sequence[DropRecord]) -> list:
    return [verifier.verdict_data(
                wave,
                cuts.get(wave.index, {}).get("gens"),
                cuts.get(wave.index, {}).get("epoch"),
                drops)
            for wave in verifier.schedule.waves]


def _single_cell(spec: TrialSpec, schedule: UpdateSchedule,
                 verifier: UpdateVerifier) -> dict[str, Any]:
    p = spec.params
    topo = _topology()
    hosts = sorted(topo.hosts)
    network = Network(topo, NetworkConfig(seed=spec.seed,
                                          ptp_config=noiseless_ptp()))
    offsets = inject_clock_error(network, p["sigma_ns"], seed=spec.seed)
    deployment = deploy(network, metric="fib_version", updates=schedule)
    injector = _arm_faults(network, deployment, p)
    wave_epochs = {w: deployment.observer.take_snapshot(at_wall_ns=at)
                   for w, at in sorted(verifier.snapshot_instants().items())}
    _start_traffic(network, hosts, p["gap_ns"], p["ttl"])
    network.run(until=RUN_UNTIL_NS)

    cuts = _wave_cuts(deployment.observer, wave_epochs)
    drops = list(deployment.update_driver.drops)
    data = _fold(verifier, cuts, drops)
    data["offsets"] = offsets
    data["updates_applied"] = len(deployment.update_driver.applied)
    data["faults_applied"] = injector.applied if injector else 0
    if p.get("audit", True):
        data.update(_audit_cell(spec, schedule, verifier))
    return data


def _audit_cell(spec: TrialSpec, schedule: UpdateSchedule,
                verifier: UpdateVerifier) -> dict[str, Any]:
    """The conservation pass: same cell, ``packet_count`` + channel
    state, straddling cuts audited against the link non-negativity
    invariant and the trace-replayed conservation law."""
    p = spec.params
    topo = _topology()
    network = Network(topo, NetworkConfig(seed=spec.seed,
                                          ptp_config=noiseless_ptp(),
                                          enable_tracing=True))
    inject_clock_error(network, p["sigma_ns"], seed=spec.seed)
    deployment = deploy(network, metric="packet_count", channel_state=True,
                        updates=schedule)
    _arm_faults(network, deployment, p)
    epochs = [deployment.observer.take_snapshot(at_wall_ns=at)
              for _w, at in sorted(verifier.snapshot_instants().items())]
    _start_traffic(network, sorted(topo.hosts), p["gap_ns"], p["ttl"])
    network.run(until=RUN_UNTIL_NS)

    snapshots = [deployment.observer.snapshot(e) for e in epochs]
    link_audit = LinkAudit(network).audit_completed(snapshots)
    checker = ConsistencyChecker(deployment.ids, metric="packet_count")
    checker.ingest(network.trace_log)
    consistency = checker.audit(snapshots, channel_state=True)
    return {
        "audit_ok": link_audit.ok,
        "audit_summary": str(link_audit),
        "consistency_ok": consistency.ok,
        "consistency_summary": str(consistency),
        "consistency_violations": list(consistency.violations),
    }


def _sharded_setup(worker: ShardWorker, schedule_json: dict, sigma_ns: int,
                   seed: int, gap_ns: int, ttl: int, hosts: list):
    """Per-shard setup (module-level so the process runner can pickle
    it).  Each worker arms the slice of the schedule it owns; the
    observer shard pre-schedules the straddling snapshots; every shard
    ships its drop log home as plain tuples."""
    schedule = UpdateSchedule.from_jsonable(schedule_json)
    inject_clock_error(worker.network, sigma_ns, seed=seed)
    local = schedule.restrict(set(worker.network.switches))
    deployment = deploy(worker, metric="fib_version", updates=local)
    wave_epochs: dict[int, int] = {}
    if deployment.is_observer_shard:
        verifier = UpdateVerifier(schedule)
        for w, at in sorted(verifier.snapshot_instants().items()):
            wave_epochs[w] = deployment.observer.take_snapshot(at_wall_ns=at)
    _start_traffic(worker.network, hosts, gap_ns, ttl)

    def finish() -> dict:
        result: dict[str, Any] = {
            "drops": [(d.time_ns, d.device, d.kind, d.dst)
                      for d in deployment.update_driver.drops],
            "applied": len(deployment.update_driver.applied),
        }
        if deployment.is_observer_shard:
            result["cuts"] = _wave_cuts(deployment.observer, wave_epochs)
        return result

    return finish


def _sharded_cell(spec: TrialSpec, schedule: UpdateSchedule,
                  verifier: UpdateVerifier) -> dict[str, Any]:
    from repro.core.sharded import OBSERVER_SHARD

    p = spec.params
    topo = _topology()
    results = run_sharded(
        topo, NetworkConfig(seed=spec.seed, ptp_config=noiseless_ptp()),
        shards=p["shards"], until=RUN_UNTIL_NS, setup=_sharded_setup,
        setup_args=(p["schedule"], p["sigma_ns"], spec.seed,
                    p["gap_ns"], p["ttl"], sorted(topo.hosts)))
    drops = [DropRecord(*row) for shard in results
             for row in shard["drops"]]
    drops.sort(key=lambda d: (d.time_ns, d.device, d.kind, d.dst))
    cuts = results[OBSERVER_SHARD]["cuts"]
    data = _fold(verifier, cuts, drops)
    data["updates_applied"] = sum(shard["applied"] for shard in results)
    data["faults_applied"] = 0
    return data


def _fold(verifier: UpdateVerifier, cuts: dict[int, dict],
          drops: Sequence[DropRecord]) -> dict[str, Any]:
    verdicts = _render(verifier, cuts, drops)
    atoms = [v.atomicity for v in verdicts if v.atomicity is not None]
    return {
        "verdicts": [asdict(v) for v in verdicts],
        "mean_atomicity": (sum(atoms) / len(atoms)) if atoms else None,
        "conclusive_waves": sum(1 for v in verdicts if v.conclusive),
        "total_waves": len(verdicts),
        "loop_drops": sum(v.loop_drops for v in verdicts),
        "blackhole_drops": sum(v.blackhole_drops for v in verdicts),
        "attributed_blackholes": sum(v.attributed_blackholes
                                     for v in verdicts),
        "stale_devices": sorted({d for v in verdicts
                                 for d in v.stale_devices}),
    }


@trial("updates_sweep")
def run_updates_trial(spec: TrialSpec) -> TrialResult:
    schedule = UpdateSchedule.from_jsonable(spec.params["schedule"])
    verifier = UpdateVerifier(schedule)
    if spec.params.get("shards", 1) > 1:
        data = _sharded_cell(spec, schedule, verifier)
    else:
        data = _single_cell(spec, schedule, verifier)
    return make_result(spec, data)


@dataclass
class UpdatesResult:
    config: UpdatesConfig
    #: (scenario label, sigma_ns) -> trial data
    rows: dict[tuple[str, int], dict[str, Any]]

    def _series(self, label: str) -> list[tuple[int, dict[str, Any]]]:
        return sorted(((sigma, row) for (lab, sigma), row
                       in self.rows.items() if lab == label),
                      key=lambda item: item[0])

    @property
    def labels(self) -> list[str]:
        return sorted({label for label, _sigma in self.rows})

    @property
    def ordering_ok(self) -> bool:
        """The reproduction target: TimedSwap atomicity monotonically
        non-increasing in the injected clock error, TwoPhaseVersioned
        loop-free (and black-hole-free) at every level."""
        ok = True
        timed = [row["mean_atomicity"] for _s, row in self._series("timed")
                 if row["mean_atomicity"] is not None]
        ok &= all(a >= b - 1e-9 for a, b in zip(timed, timed[1:]))
        for _sigma, row in self._series("twophase"):
            ok &= row["loop_drops"] == 0 and row["blackhole_drops"] == 0
        return bool(ok)

    @property
    def all_audits_ok(self) -> bool:
        return all(row.get("audit_ok", True)
                   and row.get("consistency_ok", True)
                   for row in self.rows.values())

    def report(self) -> str:
        table = TextTable(["Strategy", "Clock err (us)", "Atomicity",
                           "Loops", "Black holes", "Attributed",
                           "Conclusive", "Audits"])
        for label in self.labels:
            for sigma, row in self._series(label):
                mean = row["mean_atomicity"]
                audit = "-"
                if "audit_ok" in row:
                    audit = ("OK" if row["audit_ok"]
                             and row["consistency_ok"] else "VIOLATED")
                table.add(label, f"{sigma / 1e3:g}",
                          f"{mean:.3f}" if mean is not None else "-",
                          row["loop_drops"], row["blackhole_drops"],
                          row["attributed_blackholes"],
                          f"{row['conclusive_waves']}/{row['total_waves']}",
                          audit)
        lines = [
            header("Coordinated updates, verified by snapshots",
                   "atomicity / loop / black-hole verdicts per strategy "
                   "and injected clock error (docs/UPDATES.md)"),
            table.render(),
            "atomicity = fraction of each wave's devices whose minimum "
            "captured ingress generation met the wave's expectation, "
            "averaged over conclusive waves.",
            f"expected ordering (timed degrades monotonically, twophase "
            f"loop-free at every level): "
            f"{'OK' if self.ordering_ok else 'VIOLATED'}",
        ]
        if not self.all_audits_ok:
            lines.append("*** AUDIT VIOLATIONS — snapshots corrupted by "
                         "an update; see per-row summaries ***")
        return "\n".join(lines)


def assemble(config: UpdatesConfig,
             results: Sequence[TrialResult]) -> UpdatesResult:
    return UpdatesResult(
        config=config,
        rows={(r.params["scenario"], r.params["sigma_ns"]): dict(r.data)
              for r in results})


def run(config: Optional[UpdatesConfig] = None,
        runner: Optional[TrialRunner] = None) -> UpdatesResult:
    config = config or UpdatesConfig()
    runner = runner or TrialRunner()
    return assemble(config, runner.run_batch(specs(config)))


if __name__ == "__main__":  # pragma: no cover - manual entry point
    print(run(UpdatesConfig.quick()).report())
