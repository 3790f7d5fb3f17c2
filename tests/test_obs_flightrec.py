"""Flight recorder: ring bounds, dump triggers, global hook, sim hook."""

from __future__ import annotations

import json

import pytest

from repro.obs.flightrec import (
    DEFAULT_DUMP_ON,
    FlightRecorder,
    flight_record,
    get_flight_recorder,
    set_flight_recorder,
)


@pytest.fixture(autouse=True)
def _clean_global_recorder():
    set_flight_recorder(None)
    yield
    set_flight_recorder(None)


class TestRing:
    def test_bounded_with_drop_accounting(self):
        recorder = FlightRecorder(capacity=3, clock=lambda: 0.0)
        for i in range(7):
            recorder.record("tick", i=i)
        entries = recorder.entries()
        assert len(entries) == 3
        assert [e["i"] for e in entries] == [4, 5, 6]
        assert recorder.recorded_total == 7
        assert recorder.dropped == 4

    def test_find_by_kind(self):
        recorder = FlightRecorder(clock=lambda: 0.0)
        recorder.record("span", name="a")
        recorder.record("dispatch", queries=3)
        recorder.record("span", name="b")
        assert [e["name"] for e in recorder.find("span")] == ["a", "b"]

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)


class TestDump:
    def test_trigger_kinds_dump_immediately(self, tmp_path):
        path = tmp_path / "dump.json"
        recorder = FlightRecorder(
            capacity=8, process="main", dump_path=str(path),
            clock=lambda: 42.0,
        )
        recorder.record("dispatch", queries=5)
        assert not path.exists()  # not a trigger kind
        recorder.record("worker_death", worker="w0")
        artifact = json.loads(path.read_text())
        assert artifact["reason"] == "worker_death"
        assert artifact["process"] == "main"
        kinds = [e["kind"] for e in artifact["entries"]]
        assert kinds == ["dispatch", "worker_death"]

    def test_default_triggers(self):
        assert DEFAULT_DUMP_ON == {
            "worker_death", "deadline_miss", "fault_transition"
        }

    def test_manual_dump_without_path_returns_artifact(self):
        recorder = FlightRecorder(clock=lambda: 1.0)
        recorder.record("metric_delta", metric="errors", delta=1)
        artifact = recorder.dump(reason="test")
        assert artifact["entries"][0]["metric"] == "errors"
        assert recorder.last_dump is artifact
        assert recorder.dumps_written == 1


class TestGlobalHook:
    def test_noop_without_recorder(self):
        flight_record("deadline_miss", op="route")  # must not raise
        assert get_flight_recorder() is None

    def test_routes_into_installed_recorder(self):
        recorder = FlightRecorder(clock=lambda: 0.0)
        set_flight_recorder(recorder)
        flight_record("dispatch", queries=2)
        assert recorder.find("dispatch")[0]["queries"] == 2


class TestSimulatorHook:
    def test_fault_transitions_recorded(self):
        from repro.faults import FaultPlan
        from repro.faults.plan import Crash
        from repro.graphs import connected_random_udg
        from repro.sim.config import SimConfig
        from repro.wcds.algorithm2 import algorithm2_distributed

        recorder = FlightRecorder(clock=lambda: 0.0)
        set_flight_recorder(recorder)
        graph = connected_random_udg(30, 4.0, seed=3)
        victim = max(graph.nodes())
        plan = FaultPlan(crashes=(Crash(time=2.0, node=victim),))
        algorithm2_distributed(
            graph, sim=SimConfig(fault_plan=plan, transport=True, seed=3)
        )
        transitions = recorder.find("fault_transition")
        assert transitions, "simulator must flight-record plan transitions"
        assert any(t["dead"] >= 1 for t in transitions)


class TestServiceHooks:
    def test_deadline_miss_recorded(self):
        from repro.graphs import connected_random_udg
        from repro.service import BackboneService

        recorder = FlightRecorder(clock=lambda: 0.0)
        set_flight_recorder(recorder)
        graph = connected_random_udg(30, 4.0, seed=3)
        service = BackboneService(graph)
        node = next(iter(sorted(graph.nodes())))
        # An impossible deadline: any successful answer misses it.
        response = service.dominator(node, deadline=1e-12)
        assert response.deadline_missed
        misses = recorder.find("deadline_miss")
        assert misses and misses[0]["op"] == "dominator"

    def test_fault_signal_recorded(self):
        from repro.faults.plan import LossBurst
        from repro.graphs import connected_random_udg
        from repro.service import BackboneService

        recorder = FlightRecorder(clock=lambda: 0.0)
        set_flight_recorder(recorder)
        service = BackboneService(connected_random_udg(30, 4.0, seed=3))
        service.fault_signal(LossBurst(start=0.0, end=1.0, rate=0.5))
        assert recorder.find("fault_signal")[0]["event"] == "LossBurst"
