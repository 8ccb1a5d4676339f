"""Tests for the update-plan algebra (specs, compilation, JSON)."""

import pytest

from repro.sim.engine import MS
from repro.topology import leaf_spine
from repro.updates import (Compose, PhasedUpdate, TimedSwap,
                           TwoPhaseVersioned, UpdateContext, UpdatePlan,
                           UpdateSchedule)

ROUTES = (("leaf0", "server1", ("spine1",)),
          ("spine0", "server1", ("leaf0",)))


def _ctx(**kwargs):
    kwargs.setdefault("horizon_ns", 100 * MS)
    return UpdateContext.for_topology(leaf_spine(hosts_per_leaf=1), **kwargs)


class TestSpecs:
    def test_routes_normalized_to_tuples(self):
        plan = TimedSwap(at_ns=10 * MS,
                         routes=[["leaf0", "server1", ["spine1"]]])
        assert plan.routes == (("leaf0", "server1", ("spine1",)),)

    def test_string_via_rejected(self):
        # A bare string would silently iterate per character.
        with pytest.raises(ValueError):
            TimedSwap(at_ns=10 * MS, routes=[("leaf0", "server1", "spine1")])

    def test_compose_flattens(self):
        a, b, c = (TimedSwap(at_ns=i * MS, routes=ROUTES)
                   for i in (10, 20, 30))
        plan = a | b | c
        assert isinstance(plan, Compose)
        assert len(plan.parts) == 3
        assert all(not isinstance(p, Compose) for p in plan.parts)

    def test_phased_order_must_cover_devices(self):
        with pytest.raises(ValueError):
            PhasedUpdate(at_ns=10 * MS, routes=ROUTES,
                         order=("leaf0",))._phases()
        with pytest.raises(ValueError):
            PhasedUpdate(at_ns=10 * MS, routes=ROUTES,
                         order=("leaf0", "spine0", "leaf9"))._phases()


class TestJsonRoundTrip:
    @pytest.mark.parametrize("plan", [
        TimedSwap(at_ns=20 * MS, routes=ROUTES, label="detour"),
        PhasedUpdate(at_ns=20 * MS, gap_ns=1 * MS, routes=ROUTES,
                     order=("leaf0", "spine0")),
        TwoPhaseVersioned(at_ns=20 * MS, routes=ROUTES, tag="x"),
        TimedSwap(at_ns=10 * MS, routes=ROUTES)
        | TwoPhaseVersioned(at_ns=40 * MS, routes=ROUTES),
    ])
    def test_plan_round_trips(self, plan):
        assert UpdatePlan.from_jsonable(plan.to_jsonable()) == plan

    def test_round_trip_compiles_identically(self):
        plan = (TimedSwap(at_ns=10 * MS, routes=ROUTES)
                | TwoPhaseVersioned(at_ns=40 * MS, routes=ROUTES))
        ctx = _ctx()
        rt = UpdatePlan.from_jsonable(plan.to_jsonable())
        assert rt.compile(ctx).to_jsonable() == plan.compile(ctx).to_jsonable()

    def test_schedule_round_trips(self):
        schedule = (TimedSwap(at_ns=10 * MS, routes=ROUTES)).compile(_ctx())
        rt = UpdateSchedule.from_jsonable(schedule.to_jsonable())
        assert rt.commands == schedule.commands
        assert rt.waves == schedule.waves

    def test_unknown_plan_type_rejected(self):
        with pytest.raises(ValueError, match="unknown update plan type"):
            UpdatePlan.from_jsonable({"type": "nope"})


class TestCompile:
    def test_timed_swap_one_command_per_device(self):
        schedule = TimedSwap(at_ns=20 * MS, routes=ROUTES).compile(_ctx())
        assert sorted((c.device, c.op) for c in schedule) == [
            ("leaf0", "swap"), ("spine0", "swap")]
        assert all(c.at_ns == 20 * MS for c in schedule)
        [wave] = schedule.waves
        assert wave.verdict_at_ns == 20 * MS

    def test_instants_clamped_into_window(self):
        ctx = _ctx()
        schedule = TimedSwap(at_ns=500 * MS, routes=ROUTES).compile(ctx)
        assert all(c.at_ns == ctx.end_ns - 1 for c in schedule)

    def test_unknown_device_rejected(self):
        plan = TimedSwap(at_ns=10 * MS,
                         routes=(("tor9", "server1", ("spine1",)),))
        with pytest.raises(ValueError):
            plan.compile(_ctx())

    def test_phased_spreads_instants(self):
        plan = PhasedUpdate(at_ns=10 * MS, gap_ns=2 * MS, routes=ROUTES,
                            order=("leaf0", "spine0"))
        schedule = plan.compile(_ctx())
        instants = {c.device: c.at_ns for c in schedule}
        assert instants == {"leaf0": 10 * MS, "spine0": 12 * MS}
        [wave] = schedule.waves
        assert wave.verdict_at_ns == 12 * MS

    def test_twophase_stage_stamp_swap_cleanup(self):
        plan = TwoPhaseVersioned(at_ns=20 * MS, lead_ns=5 * MS,
                                 drain_ns=2 * MS, routes=ROUTES)
        schedule = plan.compile(_ctx())
        ops = {}
        for cmd in schedule:
            ops.setdefault(cmd.op, []).append(cmd)
        assert {c.device for c in ops["stage"]} == {"leaf0", "spine0"}
        assert all(c.at_ns == 15 * MS for c in ops["stage"])
        # Stamps land on every edge switch (host-facing ports exist).
        assert {c.device for c in ops["stamp"]} == {"leaf0", "leaf1"}
        assert all(c.at_ns == 20 * MS for c in ops["stamp"])
        assert all(c.at_ns == 22 * MS for c in ops["swap"])
        assert all(c.at_ns == 24 * MS for c in ops["cleanup"])
        assert len({c.tag for c in schedule if c.tag}) == 1
        [wave] = schedule.waves
        assert wave.verdict_at_ns == 22 * MS  # the commit instant

    def test_compose_numbers_waves(self):
        plan = (TimedSwap(at_ns=10 * MS, routes=ROUTES)
                | TimedSwap(at_ns=40 * MS, routes=ROUTES))
        schedule = plan.compile(_ctx())
        assert [w.index for w in schedule.waves] == [0, 1]
        assert {c.wave for c in schedule} == {0, 1}

    def test_restrict_keeps_waves_filters_commands(self):
        schedule = TimedSwap(at_ns=10 * MS, routes=ROUTES).compile(_ctx())
        local = schedule.restrict({"leaf0"})
        assert [c.device for c in local] == ["leaf0"]
        assert local.waves == schedule.waves

    def test_empty_plan_compiles_to_strict_noop(self):
        # No routes -> no commands AND no waves: arming the schedule
        # must leave the event stream untouched (golden-trace guard).
        schedule = TimedSwap(at_ns=10 * MS, routes=()).compile(_ctx())
        assert len(schedule) == 0
        assert schedule.waves == []
