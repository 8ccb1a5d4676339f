"""Self-tests of the benchmark harness.

Run from the repository root with ``python -m pytest snapbench -q``.
They use shrunken copies of the three workloads, so they take seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
from layers import EVENT_LAYERS, EventTracer, layer_of_module  # noqa: E402
from workloads import (WORKLOADS, FabricServe, LbCampaign,  # noqa: E402
                       Session, UpdateRollout)

from repro.sim.engine import US  # noqa: E402

#: Sizes small enough for a test, large enough that every layer of the
#: full workload still runs (eviction included).
SMALL = {
    LbCampaign: dict(ROUNDS=4),
    UpdateRollout: dict(GAP_NS=400 * US),
    FabricServe: dict(EPOCHS=24, RETENTION=8, KEYFRAME_INTERVAL=4,
                      RANGE=3, QUERIES_PER_KIND=2),
}


def small(cls):
    return type(f"Small{cls.__name__}", (cls,), SMALL[cls])


@pytest.fixture(params=sorted(WORKLOADS), name="workload")
def workload_fixture(request):
    return small(WORKLOADS[request.param])


def test_names_match_workloads():
    assert sorted(run.NAMES) == sorted(WORKLOADS)


def test_benchmark_json_lists_what_the_harness_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.unit_of(name) for name in run.per_layer_names()}


def test_layer_map():
    assert layer_of_module("repro.sim.switch") == "sim.switch"
    assert layer_of_module("repro.core.control_plane") == "core.control_plane"
    assert layer_of_module("repro.workloads.hadoop") == "workloads"
    assert layer_of_module("repro.service.pipeline") == "service"
    assert layer_of_module("heapq") == "sim.engine"
    assert layer_of_module("json") == "unmapped"


def test_inputs_come_from_the_seed():
    for cls in WORKLOADS.values():
        same = {k: v for k, v in vars(cls(7)).items() if k != "rng"}
        again = {k: v for k, v in vars(cls(7)).items() if k != "rng"}
        other = {k: v for k, v in vars(cls(8)).items() if k != "rng"}
        assert same == again
        assert same != other
        next_rep = {k: v for k, v in vars(cls(7, 1)).items() if k != "rng"}
        assert same != next_rep


def test_short_run_passes_its_checks(workload):
    s = run.repetition(workload, 3, Session())
    assert s.epochs_requested > 0
    assert s.epochs_usable == s.epochs_requested
    assert all(s.checks.values()), s.checks


def test_every_event_function_maps_to_a_layer(workload):
    tracer = EventTracer()
    s = run.repetition(workload, 3, Session(tracer=tracer))
    unmapped = {fn for fn, layer in tracer.functions.items()
                if layer not in EVENT_LAYERS}
    assert not unmapped
    assert sum(tracer.events.values()) == s.events


def test_stepped_equals_one_run_call(workload):
    stepped = run.repetition(workload, 3, Session())
    whole = run.repetition(workload, 3, Session(stepped=False))
    assert len(stepped.steps_s) > len(whole.steps_s)
    assert stepped.events == whole.events
    assert stepped.digest == whole.digest


def test_trace_is_passive(workload):
    plain = run.repetition(workload, 3, Session())
    tracers = [EventTracer(), EventTracer()]
    traced = [run.repetition(workload, 3, Session(tracer=t))
              for t in tracers]
    assert dict(tracers[0].events) == dict(tracers[1].events)
    for s in traced:
        assert s.events == plain.events
        assert s.digest == plain.digest
        assert s.counts == plain.counts


def test_flat_intake_falls_behind_at_the_service_cadence():
    flat = type("FlatFabricServe", (small(FabricServe),),
                dict(AGG_DEGREE=0, EPOCHS=40))
    s = run.repetition(flat, 3, Session())
    assert not s.checks["stream_drained"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "snapbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "snapbench/run.py", "--workload", "lb_campaign",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        check=False)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_result_line_has_the_contract_keys(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "lb_campaign", "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [name for name, _u in run.END_TO_END]
