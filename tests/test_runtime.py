"""The spawn-worker runtime shared by the fleet runner and the shard pool.

Both pools inherit worker-death handling and start-up cleanup from
:mod:`repro.runtime`, so a dead fleet worker is counted and
flight-recorded exactly like a dead shard worker, and a pool that fails
while starting leaves no process or shared-memory segment behind.
"""

import multiprocessing
from multiprocessing.connection import Connection

import pytest

from repro.graphs import connected_random_udg
from repro.obs import MetricsRegistry
from repro.obs.flightrec import FlightRecorder, set_flight_recorder
from repro.shard import ShardConfig, SharedPositions, ShardServePool
from repro.sim.fleet import BackboneTrial, FleetRunner

pytest.importorskip("numpy")

GRAPH = connected_random_udg(40, 4.0, seed=6)


@pytest.fixture
def recorder():
    recorder = FlightRecorder(process="main")
    set_flight_recorder(recorder)
    yield recorder
    set_flight_recorder(None)


class TestWorkerDeath:
    def test_fleet_death_is_counted_and_flight_recorded(self, recorder):
        registry = MetricsRegistry()
        fleet = FleetRunner(GRAPH, workers=2, registry=registry)
        try:
            process, _ = fleet._workers[0]
            process.kill()
            process.join(timeout=10)
            with pytest.raises(RuntimeError, match="fleet worker f0 died"):
                fleet.run(BackboneTrial(), range(6))
        finally:
            fleet.close()
        assert registry.value("fleet_worker_deaths_total") == 1
        deaths = recorder.find("worker_death")
        assert [entry["worker"] for entry in deaths] == ["f0"]
        assert multiprocessing.active_children() == []


class TestStartFailure:
    def test_pool_that_fails_during_start_leaves_nothing_behind(
        self, monkeypatch, recorder
    ):
        # The parent's first receive fails as if the worker had died
        # before answering its first ``load``.
        names = []
        create = SharedPositions.create.__func__

        def recording_create(cls, coords):
            shared = create(cls, coords)
            names.append(shared.name)
            return shared

        def dead_recv(self):
            raise EOFError("worker vanished")

        monkeypatch.setattr(
            SharedPositions, "create", classmethod(recording_create)
        )
        monkeypatch.setattr(Connection, "recv", dead_recv)
        with pytest.raises(RuntimeError, match="shard pool worker w0 died"):
            ShardServePool(GRAPH.copy(), ShardConfig(tile_size=3.0, workers=1))
        monkeypatch.undo()
        assert multiprocessing.active_children() == []
        assert len(names) == 1
        with pytest.raises(FileNotFoundError):
            SharedPositions.attach(names[0], GRAPH.num_nodes)
        assert [e["worker"] for e in recorder.find("worker_death")] == ["w0"]
