"""Pinned packet path: the exact event stream of every per-packet feature.

The golden trace (tests/integration/test_golden_trace.py) pins one
two-switch scenario: single CoS, ECMP, full deployment, no faults.  Each
cell here pins a packet-path feature that scenario never exercises:

* two CoS lanes with mixed-class traffic;
* host TTL plus a ``drop_monitor`` (TTL expiry and unroutable drops);
* two-phase staged routes plus ingress stamps, then the commit swap;
* the flowlet and ECMP balancers on a multi-spine fabric;
* ``queue_capacity_packets`` tail drops;
* an egress pause/resume fault and a link latency spike (the channel's
  FIFO-clamped slow path);
* ``enable_tracing=True`` (the trace log is pinned too);
* partial deployment (header strip toward a snapshot-disabled peer);
* broadcast probes that cross wires (TTL 2);
* a 2-shard run whose traffic crosses a ``BoundaryLink``.

Each cell records the ``(time, seq, fn_qualname)`` digest and event
count, a digest of every per-unit counter (``packets_processed``, egress
``packets_dropped`` and ``max_depth_packets``, switch
``packets_ttl_expired`` / ``packets_unroutable``,
``Link.packets_delivered``) with their totals, and, where tracing is on,
a digest of ``trace_log``.  Packet uids come from a process-wide counter,
so the trace-log and drop digests renumber them in first-seen order.

The pins were recorded before the packet-path fast paths landed (idle
egress queue, wire bound at connect time, leaner unit bodies).  A
packet-path optimisation must reproduce every entry exactly; never
re-record to make one pass.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core import DeploymentConfig, SpeedlightDeployment
from repro.core.sharded import ShardedSpeedlightDeployment
from repro.faults import FaultInjector, FaultSchedule
from repro.lb import EcmpBalancer, FlowletBalancer, FlowletConfig
from repro.sim.engine import MS, US
from repro.sim.network import Network, NetworkConfig
from repro.sim.packet import FlowKey, Packet
from repro.sim.shard import InProcessShardRunner
from repro.sim.switch import SwitchConfig
from repro.topology import leaf_spine, linear, single_switch
from repro.workloads.synthetic import (OnOffConfig, OnOffWorkload,
                                       PoissonConfig, PoissonWorkload)

UNTIL = 20 * MS


class _TwoClassPoisson(PoissonWorkload):
    """Poisson traffic split over two CoS classes by source port parity."""

    def emit(self, src, dst, *, sport, dport, size_bytes, seq=0, proto=6):
        if not self.active:
            return
        flow = FlowKey(src, dst, sport, dport, proto)
        self.network.host(src).send_packet(
            Packet(flow=flow, size_bytes=size_bytes, seq=seq, cos=sport % 2))
        self.packets_emitted += 1


def _sha(items) -> str:
    return hashlib.sha256(
        json.dumps(items, sort_keys=True).encode()).hexdigest()


def _renumber(uid: int, seen: dict[int, int]) -> int:
    return seen.setdefault(uid, len(seen))


def _event_digest(sim):
    digest = hashlib.sha256()

    def trace(time, seq, fn):
        name = getattr(fn, "__qualname__", None) or repr(fn)
        digest.update(f"{time}:{seq}:{name}\n".encode())

    sim.trace = trace
    return digest


def _counters(network) -> tuple[str, list[int]]:
    """Digest of every per-unit counter, plus (processed, dropped,
    max_depth, ttl_expired, unroutable, delivered) totals."""
    rows = []
    totals = [0] * 6
    for name in sorted(network.switches):
        switch = network.switches[name]
        for port in switch.ports:
            queue = port.egress.queue
            row = [name, port.index, port.ingress.packets_processed,
                   port.egress.packets_processed, queue.packets_dropped,
                   queue.max_depth_packets]
            rows.append(row)
            totals[0] += row[2] + row[3]
            totals[1] += row[4]
            totals[2] = max(totals[2], row[5])
        rows.append([name, switch.packets_ttl_expired,
                     switch.packets_unroutable])
        totals[3] += switch.packets_ttl_expired
        totals[4] += switch.packets_unroutable
    for link in network.links:
        rows.append([link.name, link.packets_delivered])
        totals[5] += link.packets_delivered
    return _sha(rows), totals


def _trace_log_digest(network) -> str:
    seen: dict[int, int] = {}
    return _sha([[_renumber(e.packet_uid, seen), str(e.unit), e.time_ns,
                  e.carried_sid, e.unit_sid_after, e.channel, e.is_data,
                  e.size_bytes] for e in network.trace_log])


def _record(network, digest, **extra) -> dict:
    counters, totals = _counters(network)
    out = {"events": network.sim.events_run, "digest": digest.hexdigest(),
           "counters": counters, "totals": totals}
    if network.config.enable_tracing:
        out["trace_log"] = _trace_log_digest(network)
    out.update(extra)
    return out


def _totals(deployment, epochs) -> list[int]:
    return [deployment.observer.snapshot(e).total_value() for e in epochs]


# ----------------------------------------------------------------------
# Cells
# ----------------------------------------------------------------------
def cell_cos2():
    network = Network(leaf_spine(hosts_per_leaf=2), NetworkConfig(
        seed=11, switch_config=SwitchConfig(num_cos=2)))
    _TwoClassPoisson(network, PoissonConfig(
        seed=3, rate_pps=12_000, stop_ns=UNTIL, sport_churn=True)).start()
    deployment = SpeedlightDeployment(network, DeploymentConfig(
        metric="packet_count", channel_state=True))
    epochs = deployment.schedule_campaign(count=2, interval_ns=6 * MS)
    digest = _event_digest(network.sim)
    network.run(until=UNTIL)
    return _record(network, digest, snapshots=_totals(deployment, epochs))


def cell_ttl_drop_monitor():
    network = Network(leaf_spine(hosts_per_leaf=2), NetworkConfig(seed=12))
    drops: list = []
    seen: dict[int, int] = {}

    def monitor(device, kind, packet, time_ns):
        drops.append([device, kind, _renumber(packet.uid, seen),
                      packet.flow.dst, time_ns])

    for switch in network.switches.values():
        switch.drop_monitor = monitor
    for host in network.hosts.values():
        host.default_ttl = 2  # cross-leaf paths need three hops
    PoissonWorkload(network, PoissonConfig(
        seed=4, rate_pps=8_000, stop_ns=UNTIL, sport_churn=True)).start()
    # A destination no switch routes to: unroutable at the first leaf.
    network.host("server0").send_flow("ghost", 40, sport=7, dport=7,
                                      gap_ns=50 * US)
    deployment = SpeedlightDeployment(network, DeploymentConfig(
        metric="packet_count"))
    deployment.schedule_campaign(count=2, interval_ns=6 * MS)
    digest = _event_digest(network.sim)
    network.run(until=UNTIL)
    return _record(network, digest, drops=[len(drops), _sha(drops)])


def cell_two_phase():
    network = Network(leaf_spine(hosts_per_leaf=2), NetworkConfig(seed=13))
    PoissonWorkload(network, PoissonConfig(
        seed=5, rate_pps=10_000, stop_ns=UNTIL, sport_churn=True)).start()
    deployment = SpeedlightDeployment(network, DeploymentConfig(
        metric="fib_version"))
    sim = network.sim
    # Pin leaf0's cross-leaf traffic to spine1 under tag "v1".
    leaf0 = network.switch("leaf0")
    via_spine1 = [network.port_toward("leaf0", "spine1")]
    changes = [(dst, via_spine1) for dst in ("server2", "server3")]
    host_ports = [network.port_toward("leaf0", h)
                  for h in ("server0", "server1")]
    for name, switch in sorted(network.switches.items()):
        staged = changes if name == "leaf0" else [
            (dst, switch.routes[dst]) for dst in sorted(switch.routes)]
        sim.schedule(4 * MS, switch.stage_routes, "v1", staged)
    for port in host_ports:
        sim.schedule(7 * MS, leaf0.set_ingress_stamp, port, "v1")
    leaf0.schedule_route_swap(12 * MS, changes)
    for port in host_ports:
        sim.schedule(14 * MS, leaf0.set_ingress_stamp, port, None)
    for switch in network.switches.values():
        sim.schedule(16 * MS, switch.clear_staged, "v1")
    epochs = deployment.schedule_campaign(count=3, interval_ns=5 * MS)
    digest = _event_digest(sim)
    network.run(until=UNTIL)
    return _record(network, digest, snapshots=_totals(deployment, epochs),
                   generations=[s.fib_generation for _, s in
                                sorted(network.switches.items())])


def _balancer_cell(lb_factory, seed):
    network = Network(leaf_spine(num_spines=3, hosts_per_leaf=2),
                      NetworkConfig(seed=seed, lb_factory=lb_factory))
    OnOffWorkload(network, OnOffConfig(
        seed=6, stop_ns=UNTIL, mean_on_ns=300 * US, mean_off_ns=1 * MS,
        on_gap_ns=8 * US)).start()
    deployment = SpeedlightDeployment(network, DeploymentConfig(
        metric="packet_count"))
    epochs = deployment.schedule_campaign(count=2, interval_ns=6 * MS)
    digest = _event_digest(network.sim)
    network.run(until=UNTIL)
    balancers = [[s.lb.decisions, getattr(s.lb, "flowlets_started", 0)]
                 for _, s in sorted(network.switches.items())]
    return _record(network, digest, snapshots=_totals(deployment, epochs),
                   balancers=balancers)


def cell_flowlet():
    return _balancer_cell(
        lambda salt: FlowletBalancer(FlowletConfig(timeout_ns=20 * US,
                                                   salt=salt)), 14)


def cell_ecmp():
    return _balancer_cell(lambda salt: EcmpBalancer(salt), 15)


def cell_tail_drop():
    network = Network(single_switch(num_hosts=3), NetworkConfig(
        seed=16, switch_config=SwitchConfig(queue_capacity_packets=8)))
    # 2:1 fan-in at line rate onto server2's port.
    network.host("server0").send_flow("server2", 600, sport=1, dport=2)
    network.host("server1").send_flow("server2", 600, sport=3, dport=4,
                                      start_delay_ns=3 * US)
    deployment = SpeedlightDeployment(network, DeploymentConfig(
        metric="packet_count", channel_state=True))
    epochs = deployment.schedule_campaign(count=2, interval_ns=2 * MS)
    digest = _event_digest(network.sim)
    network.run(until=UNTIL)
    return _record(network, digest, snapshots=_totals(deployment, epochs))


def cell_pause_and_spike():
    network = Network(linear(num_switches=2, hosts_per_switch=2),
                      NetworkConfig(seed=17))
    PoissonWorkload(network, PoissonConfig(
        seed=7, rate_pps=15_000, stop_ns=UNTIL, sport_churn=True)).start()
    deployment = SpeedlightDeployment(network, DeploymentConfig(
        metric="packet_count", channel_state=True))
    schedule = FaultSchedule()
    schedule.add("unit_stall", 3 * MS, target="sw0", duration_ns=1 * MS)
    schedule.add("queue_squeeze", 3 * MS, target="sw1", duration_ns=2 * MS,
                  capacity=4)
    schedule.add("link_delay", 8 * MS, target="sw0-sw1",
                  duration_ns=2 * MS, extra_ns=150 * US)
    FaultInjector(network, schedule, deployment=deployment).arm()
    epochs = deployment.schedule_campaign(count=3, interval_ns=5 * MS)
    digest = _event_digest(network.sim)
    network.run(until=UNTIL)
    return _record(network, digest, snapshots=_totals(deployment, epochs))


def cell_tracing():
    network = Network(leaf_spine(hosts_per_leaf=2), NetworkConfig(
        seed=18, enable_tracing=True))
    PoissonWorkload(network, PoissonConfig(
        seed=8, rate_pps=6_000, stop_ns=UNTIL, sport_churn=True)).start()
    deployment = SpeedlightDeployment(network, DeploymentConfig(
        metric="packet_count", channel_state=True))
    epochs = deployment.schedule_campaign(count=2, interval_ns=6 * MS)
    digest = _event_digest(network.sim)
    network.run(until=UNTIL)
    return _record(network, digest, snapshots=_totals(deployment, epochs))


def cell_partial_deployment():
    network = Network(leaf_spine(hosts_per_leaf=2), NetworkConfig(
        seed=19, enable_tracing=True))
    PoissonWorkload(network, PoissonConfig(
        seed=9, rate_pps=8_000, stop_ns=UNTIL, sport_churn=True)).start()
    deployment = SpeedlightDeployment(network, DeploymentConfig(
        metric="packet_count", switches=["leaf0", "spine0"]))
    epochs = deployment.schedule_campaign(count=2, interval_ns=6 * MS)
    digest = _event_digest(network.sim)
    network.run(until=UNTIL)
    strips = [[name, p.index, p.egress.strip_header_for_peer]
              for name, s in sorted(network.switches.items())
              for p in s.ports]
    return _record(network, digest, snapshots=_totals(deployment, epochs),
                   strips=_sha(strips))


def cell_broadcast_probes():
    network = Network(leaf_spine(hosts_per_leaf=2), NetworkConfig(seed=20))
    PoissonWorkload(network, PoissonConfig(
        seed=10, rate_pps=4_000, stop_ns=UNTIL, sport_churn=True)).start()
    deployment = SpeedlightDeployment(network, DeploymentConfig(
        metric="packet_count", channel_state=True))
    for name, cp in sorted(deployment.control_planes.items()):
        for at in (3 * MS, 9 * MS):
            network.sim.schedule(at, cp.inject_probes, 2)
    epochs = deployment.schedule_campaign(count=2, interval_ns=6 * MS)
    digest = _event_digest(network.sim)
    network.run(until=UNTIL)
    probes = [cp.probes_sent for _, cp in
              sorted(deployment.control_planes.items())]
    return _record(network, digest, snapshots=_totals(deployment, epochs),
                   probes=probes)


def _shard_setup(worker):
    hosts = worker.network.topology.hosts
    local = [h for h in hosts
             if worker.plan.assignment[h] == worker.shard_id]
    PoissonWorkload(worker.network, PoissonConfig(
        seed=worker.shard_id + 1, rate_pps=4_000, stop_ns=UNTIL,
        pairs=[(src, dst) for src in local for dst in hosts if dst != src],
        sport_churn=True)).start()
    deployment = ShardedSpeedlightDeployment(worker, DeploymentConfig(
        metric="packet_count"))
    epochs = (deployment.schedule_campaign(2, 6 * MS)
              if deployment.is_observer_shard else [])
    digest = _event_digest(worker.sim)

    def finish():
        out = _record(worker.network, digest)
        out["boundary"] = sorted(worker.network.scope.boundary_links)
        if deployment.is_observer_shard:
            out["snapshots"] = _totals(deployment, epochs)
        return out

    return finish


def cell_two_shards():
    runner = InProcessShardRunner(
        leaf_spine(hosts_per_leaf=2), NetworkConfig(seed=21), shards=2,
        setup=_shard_setup)
    return runner.run(until=UNTIL)


CELLS = {
    "cos2": cell_cos2,
    "ttl_drop_monitor": cell_ttl_drop_monitor,
    "two_phase": cell_two_phase,
    "flowlet": cell_flowlet,
    "ecmp": cell_ecmp,
    "tail_drop": cell_tail_drop,
    "pause_and_spike": cell_pause_and_spike,
    "tracing": cell_tracing,
    "partial_deployment": cell_partial_deployment,
    "broadcast_probes": cell_broadcast_probes,
    "two_shards": cell_two_shards,
}

#: Recorded before the packet-path fast paths; never re-record to make a
#: packet-path change pass.
PINNED: dict = {
    "broadcast_probes": {
        "events": 10623,
        "digest": ("cc978ec55ea477ecb4ac266269cf3ce1"
                   "c128bcc2ba83597083efc1a3bac72c18"),
        "counters": ("ba9584fd9c1efeb2bf067251fce970a7"
                     "3167e2abc68ca3206a1dd747f6e1c19e"),
        "totals": [5007, 0, 3, 0, 0, 3324],
        "snapshots": [1086, 2462],
        "probes": [16, 16, 8, 8],
    },
    "cos2": {
        "events": 29627,
        "digest": ("cd7f54ae6317e68d094043a93de03c1e"
                   "37d3b73244bf2087ce2cc1982fefaccd"),
        "counters": ("4fe919017e844a5b489dedcf1e869d71"
                     "64661f455ba35c9b3b3de2f90079f977"),
        "totals": [13738, 0, 6, 0, 0, 9624],
        "snapshots": [3602, 7642],
    },
    "ecmp": {
        "events": 71406,
        "digest": ("4f21f28de3d46a1fe1bb48fa99675c50"
                   "32dda136d889883e90a80378c03f59e6"),
        "counters": ("91590fc858d9fea438a562501e01d5fe"
                     "e8619fc83fbdde7825ecb01f41b96248"),
        "totals": [33630, 0, 2, 0, 0, 23697],
        "snapshots": [8084, 16805],
        "balancers": [[2252, 0], [2683, 0], [0, 0], [0, 0], [0, 0]],
    },
    "flowlet": {
        "events": 71406,
        "digest": ("dff69a7dc9409becc692817b4e257720"
                   "d0ddf1b9aa910c433397480f595b2459"),
        "counters": ("7156bc298298361c181d47793c860d1f"
                     "58337c8ea0836fd2862ccd5af61cd0bb"),
        "totals": [33630, 0, 2, 0, 0, 23697],
        "snapshots": [8084, 16808],
        "balancers": [[2252, 59], [2683, 66], [0, 0], [0, 0], [0, 0]],
    },
    "partial_deployment": {
        "events": 19109,
        "digest": ("32e7396b0df25859cb8caf898b5a237a"
                   "ae92dc3fd37c6e277c97f54c02d646c7"),
        "counters": ("ca80e3aee9ee7bf1261b2dfadb60cf58"
                     "68fb514462f56d122b70c04106e5adbe"),
        "totals": [8848, 0, 2, 0, 0, 6330],
        "trace_log": ("e9851418139278bf01c573e45d19122d"
                      "52462bd2f36aa2ee1d2770da21ede53e"),
        "snapshots": [1142, 2490],
        "strips": ("3919cc46c15115cdf18d220e30e0f086"
                   "521d93367032f2a1f6450474f17dfd33"),
    },
    "pause_and_spike": {
        "events": 29579,
        "digest": ("c72bb766142de19fd65094a88dc64457"
                   "a35d98005d2eb50209614ad5a3bb17b1"),
        "counters": ("3b62ac577485d86524685f3ad8f89173"
                     "443d750ef352267c1ad49af10e96e09d"),
        "totals": [12274, 28, 62, 0, 0, 9729],
        "snapshots": [3032, 6024, 9164],
    },
    "tail_drop": {
        "events": 6130,
        "digest": ("cf5b9089ebd21c095d477488d9ab5577"
                   "eaaf9eb21ae86a1128718374b32e028d"),
        "counters": ("341ae2eebeb7d499c88faa539fc68244"
                     "f4adda6682a01913290ae6c2de6d3c4d"),
        "totals": [2430, 587, 8, 0, 0, 1813],
        "snapshots": [2400, 2400],
    },
    "tracing": {
        "events": 14983,
        "digest": ("8be809a5c737dc909f4bb190451dd29b"
                   "e15899cdc4c26a274dfd10dd9afb9fb6"),
        "counters": ("8524e951ff73db66289682b4a2af3b0a"
                     "3edda6a9f201456f48e56ad7c4a5094b"),
        "totals": [6926, 0, 3, 0, 0, 4828],
        "trace_log": ("9b3ab848d81df9340dc755c4573ebbef"
                      "b331721956e7bde2e3bcb3d98a75c9bf"),
        "snapshots": [1592, 3492],
    },
    "ttl_drop_monitor": {
        "events": 15334,
        "digest": ("b0301e6623f55810f511f791802ffc6d"
                   "b9f256c2064546326297a13752d77934"),
        "counters": ("84da0dfcf299d78de8ea4c875bc3afab"
                     "caa22f4d290cbd8b876d8c49300aafe5"),
        "totals": [7571, 0, 1, 1245, 40, 5033],
        "drops": [1285, "3ca985da5ce63487c09e23bc9b919ec7"
                  "97713cd07208a9f3cb8bbcb158902d75"],
    },
    "two_phase": {
        "events": 24530,
        "digest": ("2dfe53de32f91db8961eaddf6c1dfe98"
                   "6e1754f185cfff2e9eb3a6c966cc888e"),
        "counters": ("7499de872bf666874136c50c5136c71d"
                     "a63600ccaf3ad5c570eb59743b866053"),
        "totals": [11319, 0, 2, 0, 0, 8055],
        "snapshots": [0, 4, 4],
        "generations": [1, 0, 0, 0],
    },
    "two_shards": [
        {
            "events": 4826,
            "digest": ("e2e1ed662480882d590edb1c5dc2cddf"
                       "5721118e076edabf9d286fd94c9b4bde"),
            "counters": ("8da102eda36498b483e0f5a135caa261"
                         "19fb8ec8451a885821e5401a1dd6443e"),
            "totals": [2192, 0, 2, 0, 0, 1547],
            "boundary": ["leaf0-spine1", "leaf1-spine0"],
            "snapshots": [1020, 2502],
        },
        {
            "events": 4822,
            "digest": ("2ee9fa7c95956bd4e4c581d9ad92de74"
                       "7399041fcc05c01a44ccaf21be2aa6c6"),
            "counters": ("9bfbfde580635fd8427e948a1e17fb9b"
                         "bbe5b7380b3cf9b763275de3ac693bb0"),
            "totals": [2246, 0, 2, 0, 0, 1589],
            "boundary": ["leaf0-spine1", "leaf1-spine0"],
        },
    ],
}


@pytest.mark.parametrize("name", sorted(CELLS))
def test_packet_path_pinned(name):
    assert CELLS[name]() == PINNED[name]
