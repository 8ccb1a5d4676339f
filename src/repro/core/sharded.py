"""Speedlight on a sharded network: one deployment slice per shard.

The paper's deployment is already space-parallel in spirit — "control
planes are responsible for their own switch" (§8.2) and the observer is
just a host.  Sharding the simulator therefore maps cleanly:

* every shard deploys counters, agents, and control planes on its own
  switches, exactly like the single-process
  :class:`~repro.core.deployment.SpeedlightDeployment`;
* the **observer lives in shard 0**;
* the slice overrides only the deployment's two delivery primitives,
  *up* (a record or aggregate toward a tree parent or the observer) and
  *down* (an initiation toward one switch's aggregation agent).  A
  target on this shard gets the plain management-plane send; a remote
  one gets the same payload in its mailbox (``observer``,
  ``agg-observer`` or ``agg:<switch>``) over the cross-shard batch
  transport — the sender samples its usual management-plane latency
  locally, and the transport adds at least the plan's lookahead on top,
  so delivery obeys the conservative horizon bound;
* shard 0 registers every *remote* switch with its observer through a
  :class:`RemoteControlPlane` proxy.  The observer only ever calls
  ``schedule_initiation`` on registered devices
  (:class:`~repro.core.observer.InitiationTarget`), so the proxy simply
  forwards ``(epoch, at_wall_ns)`` to the owning shard's ``cp:<switch>``
  mailbox.  Initiation is wall-clock-addressed ("take the snapshot at
  time T"), so the extra transport latency only consumes lead time — it
  does not skew the snapshot instant.

Channel state is not supported sharded: in-flight accumulation gates on
cross-switch Last Seen state whose gating sets the per-shard deployment
cannot see across the cut.  The clean protocol path (the §8 scaling
study) is exactly what sharding is for — bigger fabrics, more switches.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.aggregation import AggregateMessage, AggregationAgent
from repro.core.control_plane import SwitchControlPlane, UnitSnapshotRecord
from repro.core.deployment import DeploymentConfig, SpeedlightDeployment
from repro.sim.shard import ShardWorker
from repro.sim.switch import Direction, UnitId

__all__ = ["OBSERVER_SHARD", "RemoteControlPlane",
           "ShardedSpeedlightDeployment"]

#: The shard that hosts the snapshot observer.
OBSERVER_SHARD = 0

#: Mailbox names of the cross-shard control plane.
OBSERVER_MAILBOX = "observer"

#: Cross-shard intake for aggregation-root messages (observer shard).
AGG_OBSERVER_MAILBOX = "agg-observer"


def _cp_mailbox(switch_name: str) -> str:
    return f"cp:{switch_name}"


def _agg_mailbox(switch_name: str) -> str:
    return f"agg:{switch_name}"


class RemoteControlPlane:
    """Shard-0 proxy for a control plane owned by another shard.

    The observer's ``mgmt.send(cp.schedule_initiation, epoch, at_wall)``
    lands here after the locally sampled management latency; the proxy
    forwards over the batch transport, which reserves the plan's
    lookahead.  Total delivery latency is therefore
    ``mgmt latency + max(0, lookahead)`` — still far below any sane
    observer lead time.
    """

    def __init__(self, switch_name: str, worker: ShardWorker) -> None:
        self.switch_name = switch_name
        self._worker = worker

    def schedule_initiation(self, epoch: int, at_wall_ns: int) -> None:
        self._worker.send_ctrl(_cp_mailbox(self.switch_name),
                               (epoch, at_wall_ns))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RemoteControlPlane({self.switch_name!r} @ shard "
                f"{self._worker.plan.assignment[self.switch_name]})")


def _make_initiation_handler(cp: SwitchControlPlane):
    def handle(payload: Any) -> None:
        epoch, at_wall_ns = payload
        cp.schedule_initiation(epoch, at_wall_ns)
    return handle


def _make_agg_handler(agent: AggregationAgent):
    """Dispatch one agent's ``agg:<switch>`` mailbox: upward aggregates
    enter its relay channel, downward ``("init", ...)`` tuples enter the
    initiation fan-out."""
    def handle(payload: Any) -> None:
        if isinstance(payload, AggregateMessage):
            agent.channel.deliver(payload)
        else:
            _tag, epoch, at_wall_ns = payload
            agent.on_initiation(epoch, at_wall_ns)
    return handle


class ShardedSpeedlightDeployment(SpeedlightDeployment):
    """The per-shard slice of one logical Speedlight deployment.

    Construct one inside every shard's ``setup`` callable.  On shard 0
    (:data:`OBSERVER_SHARD`) the deployment's :attr:`observer` is *the*
    observer — drive campaigns there; on other shards the inherited
    observer exists but is inert, and :meth:`take_snapshot` /
    :meth:`schedule_campaign` refuse to run.

    The slice differs from the plain deployment only in *where* a
    message is delivered: the two delivery primitives keep a message on
    the management plane when its target lives on this shard and hand it
    to the batch transport when it does not.  With a one-shard plan
    every target is local — same wiring, same event stream.
    """

    def __init__(self, worker: ShardWorker, config: DeploymentConfig) -> None:
        if worker.plan.num_shards > 1:
            if config.channel_state:
                raise ValueError(
                    "channel state is not supported on a sharded "
                    "deployment (cross-shard gating sets are invisible "
                    "to the per-shard slices); run shards=1 or disable "
                    "channel_state")
            if config.switches is not None:
                raise ValueError(
                    "sharded deployments are full deployments; partial "
                    "deployment (§10) requires shards=1")
        self.worker = worker
        self.is_observer_shard = worker.shard_id == OBSERVER_SHARD
        super().__init__(worker.network, config)
        self._register_mailboxes()

    # ------------------------------------------------------------------
    # Delivery primitives, keyed on shard ownership
    # ------------------------------------------------------------------
    # Every shard builds the *same* aggregation tree from the full
    # topology and hosts agents for its own switches only, so a switch
    # is local exactly when this shard deployed it.  A remote delivery
    # samples the management-plane latency a local one would pay, then
    # rides the batch transport, which reserves at least the plan's
    # lookahead.

    def _is_local(self, switch_name: Optional[str]) -> bool:
        """Does ``switch_name`` (None: the observer) live on this shard?"""
        if switch_name is None:
            return self.is_observer_shard
        return switch_name in self.control_planes

    def _deliver_up(self, parent: Optional[str],
                    message: UnitSnapshotRecord | AggregateMessage) -> None:
        if self._is_local(parent):
            super()._deliver_up(parent, message)
            return
        # One send per mailbox name, so the flow statics (MSG001) can
        # pair each with its registration.
        extra_ns = self.network.mgmt.one_way_latency_ns()
        if parent is not None:
            self.worker.send_ctrl(_agg_mailbox(parent), message,
                                  extra_ns=extra_ns)
        elif self.aggregation is not None:
            self.worker.send_ctrl(AGG_OBSERVER_MAILBOX, message,
                                  extra_ns=extra_ns)
        else:
            self.worker.send_ctrl(OBSERVER_MAILBOX, message,
                                  extra_ns=extra_ns)

    def _deliver_down(self, device: str, epoch: int, at_wall_ns: int) -> None:
        if self._is_local(device):
            super()._deliver_down(device, epoch, at_wall_ns)
            return
        self.worker.send_ctrl(_agg_mailbox(device),
                              ("init", epoch, at_wall_ns),
                              extra_ns=self.network.mgmt.one_way_latency_ns())

    # ------------------------------------------------------------------
    # Mailboxes
    # ------------------------------------------------------------------
    def _register_mailboxes(self) -> None:
        """Register the destinations remote shards deliver to: the
        observer's intakes and remote-device census on shard 0, each
        other shard's control planes, and every local agent."""
        worker = self.worker
        fabric = self.aggregation
        if self.is_observer_shard:
            worker.register_mailbox(OBSERVER_MAILBOX,
                                    self.observer.on_unit_record)
            if fabric is not None:
                worker.register_mailbox(AGG_OBSERVER_MAILBOX,
                                        fabric.intake.deliver)
            self._register_remote_devices()
        else:
            for name, cp in self.control_planes.items():
                worker.register_mailbox(_cp_mailbox(name),
                                        _make_initiation_handler(cp))
        if fabric is not None:
            for name in sorted(fabric.agents):
                worker.register_mailbox(_agg_mailbox(name),
                                        _make_agg_handler(fabric.agents[name]))

    def _register_remote_devices(self) -> None:
        """Give shard 0's observer the full device census: remote
        switches appear behind :class:`RemoteControlPlane` proxies with
        unit sets derived from the full topology (every builder connects
        every port, so the connected set is ``range(degree)``)."""
        plan = self.worker.plan
        topo = self.network.topology
        for name in topo.switches:
            if plan.assignment[name] == self.worker.shard_id:
                continue
            proxy = RemoteControlPlane(name, self.worker)
            units = {UnitId(name, port, direction)
                     for port in range(topo.degree(name))
                     for direction in (Direction.INGRESS, Direction.EGRESS)}
            self.observer.register_device(name, proxy, units)

    # ------------------------------------------------------------------
    # Guard rails
    # ------------------------------------------------------------------
    def take_snapshot(self, at_wall_ns: Optional[int] = None) -> int:
        if not self.is_observer_shard:
            raise RuntimeError("snapshots are driven from the observer "
                               f"shard (shard {OBSERVER_SHARD})")
        return super().take_snapshot(at_wall_ns)

    def schedule_campaign(self, count: int, interval_ns: int,
                          start_wall_ns: Optional[int] = None) -> list[int]:
        if not self.is_observer_shard:
            raise RuntimeError("campaigns are driven from the observer "
                               f"shard (shard {OBSERVER_SHARD})")
        return super().schedule_campaign(count, interval_ns, start_wall_ns)
