"""One-call deployment builder: :func:`repro.core.deploy`.

Every experiment used to spell out the same two lines::

    deployment = SpeedlightDeployment(
        network, DeploymentConfig(metric="packet_count", channel_state=True))

:func:`deploy` collapses that boilerplate — and is the single place
where the optional overlays (recovery policies, the aggregation fabric,
coordinated update plans) compose::

    deployment = deploy(network, metric="packet_count", channel_state=True,
                        recovery=recovery_preset("paper"),
                        aggregation=AggregationConfig(degree=4),
                        updates=plan, update_horizon_ns=100 * MS)

Passing a :class:`~repro.sim.shard.ShardWorker` instead of a
:class:`~repro.sim.network.Network` builds the cross-shard variant
(:class:`~repro.core.sharded.ShardedSpeedlightDeployment`) with the
same surface.  The constructors take a
:class:`~repro.core.deployment.DeploymentConfig` only; ``deploy`` is
their keyword front end plus update wiring, nothing else.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.deployment import DeploymentConfig, SpeedlightDeployment
from repro.sim.network import Network

__all__ = ["deploy"]


def _compile_updates(network: Network, updates: Any,
                     update_horizon_ns: Optional[int],
                     update_seed: int):
    """Normalize the ``updates`` argument into an armed-ready schedule."""
    from repro.updates.plan import UpdateContext, UpdatePlan, UpdateSchedule

    if isinstance(updates, UpdateSchedule):
        return updates
    if not isinstance(updates, UpdatePlan):
        # JSON form (inline dict, e.g. straight off --update-plan).
        updates = UpdatePlan.from_jsonable(updates)
    if update_horizon_ns is None:
        raise ValueError(
            "deploy(updates=<plan>) needs update_horizon_ns to compile "
            "the plan's window (pass a compiled UpdateSchedule to skip "
            "compilation)")
    ctx = UpdateContext.for_topology(network.topology,
                                     horizon_ns=update_horizon_ns,
                                     seed=update_seed)
    return updates.compile(ctx)


def deploy(target, *, updates: Any = None,
           update_horizon_ns: Optional[int] = None, update_seed: int = 0,
           **config_fields: Any) -> SpeedlightDeployment:
    """Wire a Speedlight deployment onto ``target`` in one call.

    ``target`` is a :class:`~repro.sim.network.Network` (single-process)
    or a :class:`~repro.sim.shard.ShardWorker` (space-parallel; builds
    the sharded deployment).  Every keyword other than the three
    ``update*`` ones is a
    :class:`~repro.core.deployment.DeploymentConfig` field, passed
    through as given; fields left out keep the config's defaults.

    ``updates`` accepts an :class:`~repro.updates.plan.UpdatePlan`, its
    JSON form, or a pre-compiled
    :class:`~repro.updates.plan.UpdateSchedule`; plans additionally need
    ``update_horizon_ns`` (the compile window).  The compiled schedule
    is armed through an :class:`~repro.updates.driver.UpdateDriver`
    exposed as ``deployment.update_driver`` — with no plan the driver is
    absent and the event stream stays bit-identical (sharded callers
    pre-slice the schedule with
    :meth:`~repro.updates.plan.UpdateSchedule.restrict` and pass the
    slice).
    """
    config = DeploymentConfig(**config_fields)

    if isinstance(target, Network):
        network = target
        deployment = SpeedlightDeployment(network, config)
    else:
        from repro.core.sharded import ShardedSpeedlightDeployment

        network = target.network
        deployment = ShardedSpeedlightDeployment(target, config)

    if updates is not None:
        from repro.updates.driver import UpdateDriver

        schedule = _compile_updates(network, updates, update_horizon_ns,
                                    update_seed)
        driver = UpdateDriver(network, schedule)
        driver.arm()
        deployment.update_driver = driver
    return deployment
