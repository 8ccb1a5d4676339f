"""The spec contract (docs/SPECS.md), checked once for both families.

Fault profiles and update plans share one base (:mod:`repro.specs`);
every test here runs against each family, so a family that drifts from
the contract — or a new tag registered without a sample — fails here.
"""

import json
import operator
from dataclasses import dataclass

import pytest

from repro.faults import (Cascade, CorrelatedGroup, FaultProfile,
                          IndependentFaults, MaintenanceWindow,
                          ProfileContext)
from repro.faults import Compose as ProfileCompose
from repro.sim.engine import MS
from repro.specs import Spec
from repro.updates import (PhasedUpdate, TimedSwap, TwoPhaseVersioned,
                           UpdateContext, UpdatePlan)
from repro.updates import Compose as PlanCompose

ROUTES = (("leaf0", "server1", ("spine1",)),
          ("spine0", "server1", ("leaf0",)))


@dataclass(frozen=True)
class Family:
    root: type
    compose: type
    context: type
    #: One sample per registered tag.
    samples: dict


FAULTS = Family(
    root=FaultProfile, compose=ProfileCompose, context=ProfileContext,
    samples={
        "independent": IndependentFaults(intensity=1.5,
                                         kinds=("link_down", "cp_crash")),
        "correlated": CorrelatedGroup(switch="sw1", at_ns=20 * MS,
                                      jitter_ns=100),
        "maintenance": MaintenanceWindow(targets=("sw0-sw1", "sw1-sw2"),
                                         stagger_ns=1 * MS),
        "cascade": Cascade(origin="sw0", probability=0.75, include_cp=True),
        "compose": ProfileCompose(parts=(
            IndependentFaults(intensity=0.5),
            ProfileCompose(parts=(Cascade(origin="sw2"),)))),
    })

UPDATES = Family(
    root=UpdatePlan, compose=PlanCompose, context=UpdateContext,
    samples={
        "timed_swap": TimedSwap(at_ns=20 * MS, routes=ROUTES, label="x"),
        "phased": PhasedUpdate(at_ns=20 * MS, gap_ns=1 * MS, routes=ROUTES,
                               order=("spine0", "leaf0")),
        "two_phase": TwoPhaseVersioned(at_ns=20 * MS, routes=ROUTES,
                                       tag="v2"),
        "compose": PlanCompose(parts=(
            TimedSwap(at_ns=10 * MS, routes=ROUTES),
            PlanCompose(parts=(TwoPhaseVersioned(at_ns=40 * MS,
                                                 routes=ROUTES),)))),
    })

FAMILIES = [pytest.param(FAULTS, id="faults"),
            pytest.param(UPDATES, id="updates")]


def _other(family):
    return UPDATES if family is FAULTS else FAULTS


@pytest.mark.parametrize("family", FAMILIES)
class TestSpecContract:
    def test_samples_cover_the_registry(self, family):
        assert set(family.samples) == set(family.root.registry)

    def test_every_tag_round_trips_through_json_text(self, family):
        for tag, spec in family.samples.items():
            data = spec.to_jsonable()
            assert data["type"] == tag
            text = json.dumps(data, sort_keys=True)
            restored = family.root.from_jsonable(json.loads(text))
            assert restored == spec
            assert json.dumps(restored.to_jsonable(), sort_keys=True) == text

    def test_missing_tag_rejected(self, family):
        for data in ({}, {"at_ns": 1}, "compose", ["compose"]):
            with pytest.raises(ValueError, match="'type' tag"):
                family.root.from_jsonable(data)

    def test_unknown_tag_rejected(self, family):
        with pytest.raises(ValueError,
                           match=f"unknown {family.root.noun} type"):
            family.root.from_jsonable({"type": "gremlins"})

    def test_unknown_field_rejected(self, family):
        for tag in family.samples:
            with pytest.raises(ValueError, match="unknown field"):
                family.root.from_jsonable({"type": tag, "bogus": 3})

    def test_nested_parts_are_validated(self, family):
        with pytest.raises(ValueError, match="unknown field"):
            family.root.from_jsonable(
                {"type": "compose", "parts": [{"type": "compose",
                                               "bogus": 3}]})

    def test_or_flattens_into_the_family_compose(self, family):
        a, b, c = [s for s in family.samples.values()
                   if not isinstance(s, family.compose)][:3]
        composite = a | (b | c)
        assert type(composite) is family.compose
        assert composite.parts == (a, b, c)

    def test_compose_part_from_other_family_rejected(self, family):
        foreign = next(iter(_other(family).samples.values()))
        with pytest.raises(TypeError,
                           match=f"expected {family.root.__name__}"):
            family.compose(parts=(foreign,))

    def test_other_family_json_rejected(self, family):
        foreign = next(iter(_other(family).samples.values()))
        with pytest.raises(ValueError,
                           match=f"unknown {family.root.noun} type"):
            family.root.from_jsonable(foreign.to_jsonable())

    def test_context_rejects_bad_window(self, family):
        with pytest.raises(ValueError, match="horizon_ns"):
            family.context(horizon_ns=0)
        with pytest.raises(ValueError, match="start_ns"):
            family.context(horizon_ns=1, start_ns=-1)

    def test_context_window_and_clamp(self, family):
        ctx = family.context(horizon_ns=10, start_ns=5, switches=["a"])
        assert ctx.switches == ("a",)
        assert ctx.end_ns == 15
        assert [ctx.clamp(t) for t in (0, 5, 9, 15, 99)] == [5, 5, 9, 14, 14]


class TestFamiliesStayApart:
    def test_cross_family_or_rejected(self):
        profile = IndependentFaults(intensity=1.0)
        plan = TimedSwap(at_ns=10 * MS, routes=ROUTES)
        with pytest.raises(TypeError):
            operator.or_(profile, plan)
        with pytest.raises(TypeError):
            operator.or_(plan, profile)

    def test_compose_registries_distinct(self):
        assert FaultProfile.registry is not UpdatePlan.registry
        assert FaultProfile.registry["compose"] is ProfileCompose
        assert UpdatePlan.registry["compose"] is PlanCompose
        assert not hasattr(Spec, "registry")

    def test_compose_json_raises_in_its_own_family(self):
        data = FAULTS.samples["compose"].to_jsonable()
        assert type(FaultProfile.from_jsonable(data)) is ProfileCompose
        data = UPDATES.samples["compose"].to_jsonable()
        assert type(UpdatePlan.from_jsonable(data)) is PlanCompose
