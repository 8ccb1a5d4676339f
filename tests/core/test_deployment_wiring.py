"""Pinned deployment wiring: the exact event stream of every delivery path.

The golden trace (tests/integration/test_golden_trace.py) pins the flat
single-process design only.  This module pins the rest of the transport
matrix — record shipping, aggregate forwarding, initiation fan-out and
tree-aware retries, each both inside one shard and across a shard cut —
on ``fat_tree(k=4)`` with ``NetworkConfig(seed=7)`` and a 3-epoch
campaign:

* shards {1, 3} x aggregation {off, flat-modeled ``degree=0``, tree
  ``degree=4``};
* a ``degree=4`` tree with a crashed mid-tree relay, on 1 and 3 shards
  (exercises partial flushes, silent-relay exclusion and the per-subtree
  retry path).

Each cell records every shard's ``(time, seq, fn_qualname)`` digest and
event count, the observer's per-epoch outcome, and its retry counters.
A refactor of the deployment wiring must reproduce every entry exactly;
a mismatch means a message moved, changed its callback, or drew RNG in
a different order.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core import AggregationConfig, DeploymentConfig, ObserverConfig
from repro.core.sharded import OBSERVER_SHARD, ShardedSpeedlightDeployment
from repro.sim.engine import MS
from repro.sim.network import NetworkConfig
from repro.sim.shard import InProcessShardRunner
from repro.topology import fat_tree
from repro.workloads.synthetic import PoissonConfig, PoissonWorkload

UNTIL = 300 * MS
#: Total offered load across all host pairs, packets/second.
LOAD_PPS = 10_000

#: Short timeouts so the crashed-relay cell resolves well inside UNTIL
#: (retry_timeout outlasts the partial-flush cascade; device_timeout
#: outlasts the retry round — see tests/core/test_tree_retry.py).
_OBSERVER = ObserverConfig(lead_time_ns=5 * MS, retry_timeout_ns=25 * MS,
                           max_retries=1, device_timeout_ns=70 * MS)


def _setup(worker, degree, crash_relay):
    topo = worker.network.topology
    hosts = topo.hosts
    local = [h for h in hosts
             if worker.plan.assignment[h] == worker.shard_id]
    PoissonWorkload(worker.network, PoissonConfig(
        seed=worker.shard_id + 1,
        rate_pps=LOAD_PPS / (len(hosts) * (len(hosts) - 1)), stop_ns=UNTIL,
        pairs=[(src, dst) for src in local for dst in hosts if dst != src],
        sport_churn=True)).start()
    aggregation = (None if degree is None else
                   AggregationConfig(degree=degree, flush_timeout_ns=10 * MS))
    deployment = ShardedSpeedlightDeployment(worker, DeploymentConfig(
        metric="packet_count", aggregation=aggregation, observer=_OBSERVER))
    if crash_relay:
        tree = deployment.aggregation.tree
        relay = next(n for n in tree.order
                     if tree.children[n] and tree.parent[n] is not None)
        if relay in deployment.control_planes:
            deployment.control_planes[relay].crash()
    epochs = (deployment.schedule_campaign(3, 10 * MS)
              if deployment.is_observer_shard else [])

    digest = hashlib.sha256()

    def trace(time, seq, fn):
        name = getattr(fn, "__qualname__", None) or repr(fn)
        digest.update(f"{time}:{seq}:{name}\n".encode())

    worker.sim.trace = trace

    def finish():
        out = {"events": worker.sim.events_run, "digest": digest.hexdigest()}
        if deployment.is_observer_shard:
            observer = deployment.observer
            out["snapshots"] = [
                (s.status.value, s.total_value(), sorted(s.excluded_devices))
                for s in (observer.snapshot(e) for e in epochs)]
            out["retries"] = (observer.retry_rounds, observer.retry_unicasts,
                              observer.retry_fabric_sends,
                              observer.retry_subtree_sends)
        return out

    return finish


def _run_cell(shards, degree, crash_relay):
    runner = InProcessShardRunner(
        fat_tree(k=4), NetworkConfig(seed=7), shards=shards, setup=_setup,
        setup_args=(degree, crash_relay))
    return runner.run(until=UNTIL)


#: (shards, aggregation degree or None, crash a mid-tree relay).
CELLS = [(shards, degree, False)
         for shards in (1, 3) for degree in (None, 0, 4)]
CELLS += [(1, 4, True), (3, 4, True)]

#: The crashed relay plus the subtree it strands (every cell with a
#: crash excludes exactly these devices).
CRASHED_SUBTREE = [
    "agg1_0", "agg1_1", "agg2_0", "agg2_1",
    "agg3_0", "agg3_1", "core0_0", "edge1_0",
    "edge1_1", "edge2_0", "edge2_1", "edge3_0",
    "edge3_1",
]

#: Recorded on the pre-refactor wiring; never re-record to make a
#: wiring change pass.
PINNED: dict = {
    (1, None, False): [
        {
            "events": 51259,
            "digest": ("095251faa1795d0ba492fa6350ab3626"
                       "1f638923136e7a7505b9b02405573fd0"),
            "snapshots": [
                ("complete", 482, []),
                ("complete", 1432, []),
                ("complete", 2322, []),
            ],
            "retries": (0, 0, 0, 0),
        },
    ],
    (1, 0, False): [
        {
            "events": 52342,
            "digest": ("0546d7f07f38ad913c9c79b8b55fc024"
                       "799aaf99e409ac16425948787ff85399"),
            "snapshots": [
                ("complete", 482, []),
                ("complete", 1432, []),
                ("complete", 2322, []),
            ],
            "retries": (2, 40, 0, 0),
        },
    ],
    (1, 4, False): [
        {
            "events": 50899,
            "digest": ("2628234403a8e76dd0c49ceb05570df7"
                       "6fed919994fe2f9a4b00719d68c7091b"),
            "snapshots": [
                ("complete", 482, []),
                ("complete", 1432, []),
                ("complete", 2322, []),
            ],
            "retries": (0, 0, 0, 0),
        },
    ],
    (3, None, False): [
        {
            "events": 15338,
            "digest": ("b014c6750c8b1599124f46109722fcc6"
                       "6d8cac11a97f3400edb92778151d1b62"),
            "snapshots": [
                ("complete", 442, []),
                ("complete", 1390, []),
                ("complete", 2268, []),
            ],
            "retries": (0, 0, 0, 0),
        },
        {
            "events": 15715,
            "digest": ("89751935a262dc9f7b7d5cc4cac0c4eb"
                       "e812a97d8a42a35f91f1fdceb23bc3ab"),
        },
        {
            "events": 20547,
            "digest": ("eed2aabe7e056ea1828ec6833413aae3"
                       "e4b26443e98c31dc02db3d655f02739f"),
        },
    ],
    (3, 0, False): [
        {
            "events": 16057,
            "digest": ("f496bffae46a8190ef2e9486fffc6224"
                       "7bafc679b48943cb659eb0abd27002b9"),
            "snapshots": [
                ("complete", 442, []),
                ("complete", 1390, []),
                ("complete", 2268, []),
            ],
            "retries": (2, 40, 0, 0),
        },
        {
            "events": 15925,
            "digest": ("fff0d54edb7ed9b73b022a7ca38f189f"
                       "9d204689a18c6e00404a22407180a069"),
        },
        {
            "events": 20727,
            "digest": ("f12eb421df626dcd50048c93a7fd052b"
                       "b2b44b36dc4e6136d8c2f2b3b7fb3c96"),
        },
    ],
    (3, 4, False): [
        {
            "events": 14909,
            "digest": ("413a991aada25d412234ea6ebee0278a"
                       "2c740c4721ac063f5288e4e6b84f3460"),
            "snapshots": [
                ("complete", 442, []),
                ("complete", 1390, []),
                ("complete", 2268, []),
            ],
            "retries": (0, 0, 0, 0),
        },
        {
            "events": 15727,
            "digest": ("cd604c9ecfd89d6b5516e420673a7fd7"
                       "b8e11bcba6f06e9af4fb82f0f1a5adfa"),
        },
        {
            "events": 20565,
            "digest": ("2d99af7f5200bd48fa0ad9a4148b2fdd"
                       "d083e09aa0fec1e4bf877ada3107f974"),
        },
    ],
    (1, 4, True): [
        {
            "events": 51167,
            "digest": ("bec009fa826bb21039ff7ba464add2a7"
                       "5ff7f015f353b3b8984ec595575831b9"),
            "snapshots": [
                ("complete", 168, CRASHED_SUBTREE),
                ("complete", 496, CRASHED_SUBTREE),
                ("complete", 794, CRASHED_SUBTREE),
            ],
            "retries": (3, 3, 3, 9),
        },
    ],
    (3, 4, True): [
        {
            "events": 15023,
            "digest": ("d652a132834632d70d43710b91c82948"
                       "dedbb7a29aea82858db17c9e09ffe126"),
            "snapshots": [
                ("complete", 166, CRASHED_SUBTREE),
                ("complete", 490, CRASHED_SUBTREE),
                ("complete", 772, CRASHED_SUBTREE),
            ],
            "retries": (3, 3, 3, 9),
        },
        {
            "events": 15879,
            "digest": ("e42c3e9f85a62634ddb65ff395193124"
                       "70d2c3bf47e5eb3eaf7ff1ff9ba1b97e"),
        },
        {
            "events": 20564,
            "digest": ("197bd1cae00ae33fdb1a0e86d576e1e7"
                       "d2c2f4afadffd98ff7f4679368b67dc1"),
        },
    ],
}


@pytest.mark.parametrize("cell", CELLS, ids=lambda c: "shards%d-agg%s%s" % (
    c[0], c[1], "-crash" if c[2] else ""))
def test_wiring_is_pinned(cell):
    out = _run_cell(*cell)
    assert out[OBSERVER_SHARD]["snapshots"]  # observer shard reported
    assert out == PINNED[cell]
