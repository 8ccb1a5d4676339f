"""Deployment builder: enable Speedlight on a simulated network.

:class:`SpeedlightDeployment` performs the wiring an operator (plus the
P4 compiler) performs on a real network:

* instantiate the chosen metric counter on every processing unit of
  every participating switch;
* attach a snapshot agent (hardware-constrained
  :class:`~repro.core.dataplane.SpeedlightUnit` by default, or the
  idealised :class:`~repro.core.ideal.IdealUnit` for ablations) to each
  unit;
* start one :class:`~repro.core.control_plane.SwitchControlPlane` per
  switch, registered with the shared PTP service's clock for that
  switch;
* create the :class:`~repro.core.observer.SnapshotObserver` and connect
  record shipping over the management plane;
* route every management-plane message through two delivery primitives
  — *up* (a record or aggregate toward a tree parent or the observer)
  and *down* (an initiation toward one switch's aggregation agent) —
  the only code that knows where a destination lives;
* compute each unit's **gating channels** (whose Last Seen entries gate
  completion when channel state is collected) from the topology, and
  configure header stripping at deployment boundaries (partial
  deployment, §10).

Gating defaults: an ingress unit gates on its external channel only when
the link peer is a snapshot-enabled switch (host channels carry no
tagged in-flight packets, so they are excluded — the §6 "removal of
non-utilized upstream neighbors" knob, applied automatically); an egress
unit gates on every connected ingress port of its switch except its own
(a packet never hairpins out the port it arrived on).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from collections.abc import Callable
from functools import partial
from typing import Optional

from repro.core.aggregation import (AggregateMessage, AggregationAgent,
                                    AggregationConfig, AggregationFabric,
                                    AggregationTree, RelayChannel)
from repro.core.control_plane import (ControlPlaneConfig, SwitchControlPlane,
                                      UnitSnapshotRecord)
from repro.core.dataplane import SpeedlightUnit
from repro.core.ideal import IdealUnit
from repro.core.ids import IdSpace
from repro.core.observer import ObserverConfig, SnapshotObserver
from repro.core.recovery import RecoveryPolicy
from repro.counters import (FibVersionCounter, QueueDepthCounter,
                            QueueHighWatermark, make_counter)
from repro.sim.network import Network
from repro.sim.packet import Packet
from repro.sim.switch import Direction, Switch, UnitId
from repro.topology.graph import NodeKind

#: Metrics that are gauges: channel state (in-flight accumulation) has
#: no meaning for them and the deployment rejects the combination.
GAUGE_METRICS = frozenset({"queue_depth", "queue_watermark",
                           "ewma_interarrival", "ewma_packet_rate",
                           "fib_version"})

#: Per-metric contribution of one in-flight packet to channel state.
_IN_FLIGHT_FNS: dict[str, Callable[[Packet], int]] = {
    "packet_count": lambda pkt: 1,
    "byte_count": lambda pkt: pkt.size_bytes,
}


def _make_flat_sink(name: str, cp: SwitchControlPlane, send_root):
    """Flat-modeled (degree=0) record sink: every unit record crosses
    the observer intake as its own single-record message — the honest
    serial cost of the paper's unicast observer."""

    def ship(record: UnitSnapshotRecord) -> None:
        send_root(AggregateMessage(
            source=name, epoch=record.epoch, records=[record],
            min_finalized=cp.min_finalized_epoch(), complete=False))

    return ship


@dataclass
class DeploymentConfig:
    """Configuration of a Speedlight deployment."""

    #: Metric name from :data:`repro.counters.COUNTER_REGISTRY`.
    metric: str = "packet_count"
    #: Collect channel state (in-flight packets)?  Requires an
    #: accumulator metric.
    channel_state: bool = False
    #: Snapshot-ID register ceiling; None disables wraparound (Table 1's
    #: plain "Packet Count" variant).
    max_sid: Optional[int] = 255
    #: Participating switches; None means all (partial deployment, §10).
    switches: Optional[list[str]] = None
    #: Use the idealised Figure 3 units instead of Speedlight's
    #: hardware-constrained ones (ablation only; forces unbounded IDs).
    ideal_units: bool = False
    #: Gate ingress completion on host-facing channels too (needs
    #: host-driven traffic on every such port to complete).
    gate_host_channels: bool = False
    #: CoS classes whose sub-channels gate completion (None = all lanes
    #: the switches are configured with).  Classes that carry no traffic
    #: stall channel-state completion until probes or re-initiation cover
    #: them, so operators running traffic in a subset of classes should
    #: list that subset here (§6's neighbor-exclusion knob, per class).
    cos_classes: Optional[list[int]] = None
    control_plane: ControlPlaneConfig = field(default_factory=ControlPlaneConfig)
    observer: ObserverConfig = field(default_factory=ObserverConfig)
    #: Hierarchical snapshot fabric (repro.core.aggregation).  None — the
    #: default — wires nothing and keeps the flat unicast event stream
    #: bit-identical; ``AggregationConfig(degree=0)`` is the flat-modeled
    #: baseline (observer intake pays per-record service), ``degree>=1``
    #: builds the aggregation tree.
    aggregation: Optional[AggregationConfig] = None
    #: Recovery policy overlay: when set, its §6 recovery fields are
    #: applied over ``control_plane``/``observer`` (which keep supplying
    #: every non-recovery field, e.g. transport or lead time).
    recovery: Optional[RecoveryPolicy] = None


class SpeedlightDeployment:
    """A fully wired Speedlight instance on a simulated network.

    Construct it from a :class:`DeploymentConfig`;
    :func:`repro.core.deploy` is the keyword front end.
    """

    def __init__(self, network: Network, config: DeploymentConfig) -> None:
        if config.recovery is not None:
            config = replace(
                config,
                control_plane=config.recovery.control_plane_config(
                    config.control_plane),
                observer=config.recovery.observer_config(config.observer))
        self.network = network
        self.config = config
        if config.channel_state and config.metric in GAUGE_METRICS:
            raise ValueError(
                f"metric {config.metric!r} is a gauge; channel state is "
                "meaningless for gauges — snapshot it without channel state "
                "(the paper's queue-depth example, §4.2)")
        if config.channel_state and config.metric not in _IN_FLIGHT_FNS:
            raise ValueError(
                f"metric {config.metric!r} has no in-flight contribution "
                "rule; register one or disable channel state")
        self.ids = IdSpace(None if config.ideal_units else config.max_sid)
        self.agents: dict[UnitId, object] = {}
        self.control_planes: dict[str, SwitchControlPlane] = {}
        self.observer = SnapshotObserver(network.sim, network.mgmt, self.ids,
                                         config.observer)
        self.aggregation: Optional[AggregationFabric] = None
        #: Armed update driver (:mod:`repro.updates.driver`), attached by
        #: :func:`repro.core.deploy` when an update plan is given; None —
        #: the default — means no coordinated update is scheduled.
        self.update_driver = None
        self._deploy()
        self._wire_aggregation()
        network.refresh_header_stripping()

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    @property
    def switch_names(self) -> list[str]:
        if self.config.switches is not None:
            return list(self.config.switches)
        return sorted(self.network.switches)

    def _deploy(self) -> None:
        for name in self.switch_names:
            self._deploy_switch(name)
        # Gating depends on which peers are enabled, so compute after all
        # switches have their agents attached.
        for name in self.switch_names:
            self._register_units(name)

    def _deploy_switch(self, name: str) -> None:
        switch = self.network.switch(name)
        cp = SwitchControlPlane(
            switch, self.network.ptp.clocks[name], self.ids,
            channel_state=self.config.channel_state,
            config=self.config.control_plane,
            ideal_dataplane=self.config.ideal_units)
        self.control_planes[name] = cp
        for port_index in switch.connected_ports():
            port = switch.ports[port_index]
            for unit in (port.ingress, port.egress):
                counter = self._make_counter(unit)
                unit.counters.add(self.config.metric, counter)
                agent = self._make_agent(unit, counter)
                unit.snapshot_agent = agent
                self.agents[unit.unit_id] = agent

    def _make_counter(self, unit):
        if self.config.metric == "queue_depth":
            if unit.unit_id.direction is Direction.EGRESS:
                return QueueDepthCounter.for_egress_unit(unit)
            # Ingress units have no queue; a constant-zero gauge keeps
            # the record schema uniform across directions.
            return QueueDepthCounter(lambda: 0)
        if self.config.metric == "queue_watermark":
            if unit.unit_id.direction is Direction.EGRESS:
                return QueueHighWatermark.for_egress_unit(unit)
            return QueueHighWatermark(lambda: 0)
        if self.config.metric == "fib_version":
            if unit.unit_id.direction is Direction.INGRESS:
                return FibVersionCounter.for_ingress_unit(unit)
            # Forwarding decisions happen at ingress only.
            return FibVersionCounter(lambda: 0)
        return make_counter(self.config.metric)

    def _make_agent(self, unit, counter):
        switch = unit.switch
        if self.config.ideal_units:
            return IdealUnit(unit.unit_id, counter.read,
                             channel_state=self.config.channel_state,
                             notify=switch.send_notification,
                             in_flight_value_fn=self._in_flight_fn())
        return SpeedlightUnit(unit.unit_id, self.ids, counter.read,
                              channel_state=self.config.channel_state,
                              notify=switch.send_notification,
                              in_flight_value_fn=self._in_flight_fn())

    def _in_flight_fn(self) -> Optional[Callable[[Packet], int]]:
        return _IN_FLIGHT_FNS.get(self.config.metric)

    def _register_units(self, name: str) -> None:
        switch = self.network.switch(name)
        cp = self.control_planes[name]
        connected = switch.connected_ports()
        feasible = (self.network.feasible_channels(name)
                    if self.config.channel_state else set())
        for port_index in connected:
            port = switch.ports[port_index]
            cp.register_unit(port.ingress.snapshot_agent,
                             self._ingress_gating(name, port_index))
            cp.register_unit(port.egress.snapshot_agent,
                             self._egress_gating(switch, feasible, port_index))
        self.observer.register_device(
            name, cp,
            {UnitId(name, p, d) for p in connected
             for d in (Direction.INGRESS, Direction.EGRESS)})

    def _cos_classes(self, switch: Switch) -> list[int]:
        if self.config.cos_classes is not None:
            return [c for c in self.config.cos_classes
                    if 0 <= c < switch.config.num_cos]
        return list(range(switch.config.num_cos))

    def _ingress_gating(self, switch_name: str, port: int) -> list[int]:
        if not self.config.channel_state:
            return []
        peer, kind = self.network.peer_of_port(switch_name, port)
        peer_enabled = (kind is NodeKind.SWITCH and peer in self.switch_names)
        if peer_enabled or self.config.gate_host_channels:
            # One external sub-channel per CoS lane (lane 0 is the
            # classic EXTERNAL_CHANNEL).
            return self._cos_classes(self.network.switch(switch_name))
        return []

    def _egress_gating(self, switch: Switch, feasible_channels,
                       port: int) -> list[int]:
        """Channels whose Last Seen gates this egress's completion: every
        (feasible ingress port, configured CoS class) pair — derived from
        the routing function so completion never gates on structurally
        idle channels (§6)."""
        if not self.config.channel_state:
            return []
        classes = self._cos_classes(switch)
        return sorted({switch.egress_channel_id(p_in, cos)
                       for (p_in, p_out) in feasible_channels
                       if p_out == port
                       for cos in classes})

    # ------------------------------------------------------------------
    # Record shipping and the aggregation fabric (repro.core.aggregation)
    # ------------------------------------------------------------------
    def _wire_aggregation(self) -> None:
        """Point every control plane's record shipping at its first hop.

        Runs after :meth:`_deploy`, so every control plane exists, and
        assigns each ``cp.ship`` exactly once.  With no aggregation a
        record goes straight up to the observer.  ``degree=0`` (the
        flat-modeled Fig. 10 baseline) keeps unicast initiation but
        sends each record as its own message through the observer's
        modeled intake.  ``degree>=1`` hands records to the co-resident
        :class:`~repro.core.aggregation.AggregationAgent`, whose
        aggregates climb the tree, and gives the observer the tree for
        fan-out initiation and subtree retries.  Every hop is a
        :meth:`_deliver_up` or :meth:`_deliver_down`, so this
        orchestration is the same on every shard.
        """
        cfg = self.config.aggregation
        planes = self.control_planes
        to_observer = partial(self._deliver_up, None)
        if cfg is None:
            for cp in planes.values():
                cp.ship = to_observer
            return
        intake = RelayChannel(self.network.sim, cfg,
                              self.observer.on_aggregate)
        if cfg.degree == 0:
            for name in sorted(planes):
                planes[name].ship = _make_flat_sink(name, planes[name],
                                                    to_observer)
            self.aggregation = AggregationFabric(config=cfg, tree=None,
                                                 intake=intake)
            return
        # The tree spans the whole logical deployment; this process
        # hosts agents only for the switches it deploys.
        members = (self.config.switches if self.config.switches is not None
                   else self.network.topology.switches)
        tree = AggregationTree.build(self.network.topology, members,
                                     cfg.degree)
        agents: dict[str, AggregationAgent] = {}
        for name in sorted(planes):
            cp = planes[name]
            agent = AggregationAgent(self.network.sim, cfg, name, tree)
            agent.control_plane = cp
            agent.expected_local = 2 * len(
                self.network.switch(name).connected_ports())
            agent.send_up = partial(self._deliver_up, tree.parent[name])
            agent.forward_init = self._deliver_down
            cp.agg_agent = agent
            cp.ship = agent.on_local_record
            agents[name] = agent
        self.aggregation = AggregationFabric(config=cfg, tree=tree,
                                             intake=intake, agents=agents)
        self.observer.attach_fabric(tree, self._deliver_down)

    # ------------------------------------------------------------------
    # Delivery primitives
    # ------------------------------------------------------------------
    def _deliver_up(self, parent: Optional[str],
                    message: UnitSnapshotRecord | AggregateMessage) -> None:
        """Deliver ``message`` to tree node ``parent``'s relay channel,
        or to the observer when ``parent`` is None.

        Without a fabric only bare records travel, straight to the
        observer; with one, every upward message is an aggregate, and
        the observer takes it through its modeled intake channel.
        """
        fabric = self.aggregation
        if fabric is None:
            deliver = self.observer.on_unit_record
        elif parent is None:
            deliver = fabric.intake.deliver
        else:
            deliver = fabric.agents[parent].channel.deliver
        self.network.mgmt.send(deliver, message)

    def _deliver_down(self, device: str, epoch: int, at_wall_ns: int) -> None:
        """Deliver an initiation to ``device``'s aggregation agent, which
        registers it locally and relays it down the device's subtree."""
        fabric = self.aggregation
        assert fabric is not None, "initiation sent with no fabric wired"
        self.network.mgmt.send(fabric.agents[device].on_initiation,
                               epoch, at_wall_ns)

    # ------------------------------------------------------------------
    # Convenience passthroughs
    # ------------------------------------------------------------------
    def take_snapshot(self, at_wall_ns: Optional[int] = None) -> int:
        return self.observer.take_snapshot(at_wall_ns)

    def schedule_campaign(self, count: int, interval_ns: int,
                          start_wall_ns: Optional[int] = None) -> list[int]:
        return self.observer.schedule_campaign(count, interval_ns, start_wall_ns)

    def inject_probes(self) -> None:
        """Force snapshot-ID propagation on every switch (liveness)."""
        for cp in self.control_planes.values():
            cp.inject_probes()

    def sync_spread_ns(self, epoch: int) -> Optional[int]:
        """Synchronization of one snapshot ID, defined as in §8.1: the
        difference between the earliest and latest data-plane timestamps
        on any notification carrying that ID."""
        times: list[int] = []
        for cp in self.control_planes.values():
            times.extend(t for (e, _u, t) in cp.progress_log if e == epoch)
        if len(times) < 2:
            return None
        return max(times) - min(times)

    def notification_stats(self) -> dict[str, int]:
        """Aggregate notification-channel health across switches."""
        stats = {"received": 0, "processed": 0, "dropped": 0, "backlog": 0}
        for cp in self.control_planes.values():
            stats["received"] += cp.channel.received
            stats["processed"] += cp.channel.processed
            stats["dropped"] += cp.channel.dropped
            stats["backlog"] += cp.channel.backlog
        return stats
