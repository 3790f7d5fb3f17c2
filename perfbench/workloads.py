"""The benchmark's three workloads: trace generation, timed replay, checks.

Every workload is a closed loop driven by one client in one process: the
next op starts only after the previous one returned.  All inputs --
deployments, queries, the churn schedule and the moves -- are generated
from the workload seed before the timed phase, and a run ends when its
trace is exhausted, so the work done and the failure count do not depend
on how fast the code is.  The trace length is ``seconds`` times a fixed
nominal rate, calibrated so that one run measures about ``seconds`` on a
2-CPU machine.

Correctness checks run on every op, outside the timed intervals; a
failing check raises :class:`CheckFailed`.  Times are scaled to a
reference machine speed by :class:`Speedometer`.

The ``tracer`` argument is a :class:`repro.obs.Tracer` in the traced run
and a :class:`repro.obs.NullTracer` otherwise.  Spans wrap the calls this
file makes into each layer's public functions; nothing under ``src/`` is
instrumented or modified (the traced run wraps ``move_node`` on one graph
instance).  Span names are the layer names of ROADMAP.md.
"""

from __future__ import annotations

import math
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import (
    BackboneService,
    RandomWaypointModel,
    UnitDiskGraph,
    algorithm2_centralized,
    algorithm2_distributed,
    greedy_mis,
    sampled_dilation,
)
from repro.geometry.point import Point
from repro.graphs.traversal import is_connected
from repro.kernels.bfs import graph_to_csr
from repro.obs import NullTracer
from repro.routing import ClusterheadRouter
from repro.service.requests import Request
from repro.service.workload import DEFAULT_MIX, WorkloadConfig, WorkloadGenerator
from repro.shard import ShardConfig, ShardedBackbone, ShardServePool
from repro.sim.config import SimConfig

clock = time.perf_counter
HERE = Path(__file__).resolve().parent

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


class CheckFailed(Exception):
    """A correctness check on a benchmark output failed."""


class Speedometer:
    """How fast this machine runs right now, from a fixed probe.

    Shared cloud hosts drift in speed by a third or more over tens of
    seconds, every layer at once.  A probe times a fixed breadth-first
    sweep over a fixed random graph held as a dict of sets, the data
    structure the program's graph code runs on.  Workloads probe between
    ops, outside the timed intervals, and every measured time is scaled
    by ``REFERENCE_S`` over the median of the last three probes: times
    are reported as they would read on a machine where the probe takes
    ``REFERENCE_S``.  The probe is benchmark code, so a change to the
    program cannot move it.
    """

    REFERENCE_S = 0.020
    NODES = 3000
    EDGES = 12000
    SOURCES = 10

    def __init__(self) -> None:
        rng = random.Random(0)
        self._adjacency: Dict[int, set] = {i: set() for i in range(self.NODES)}
        for _ in range(self.EDGES):
            u, v = rng.randrange(self.NODES), rng.randrange(self.NODES)
            if u != v:
                self._adjacency[u].add(v)
                self._adjacency[v].add(u)
        self.samples: List[float] = []
        self._sweep()  # warm the caches; not a sample

    def _sweep(self) -> int:
        reached = 0
        for source in range(0, self.NODES, self.NODES // self.SOURCES):
            seen = {source}
            frontier = [source]
            while frontier:
                following = []
                for u in frontier:
                    for v in self._adjacency[u]:
                        if v not in seen:
                            seen.add(v)
                            following.append(v)
                frontier = following
            reached += len(seen)
        return reached

    def probe(self) -> None:
        started = clock()
        self._sweep()
        self.samples.append(clock() - started)

    def scale(self) -> float:
        """Factor from measured to reference seconds, right now."""
        return self.REFERENCE_S / statistics.median(self.samples[-3:])

    def run_scale(self) -> float:
        """The median factor over the whole run."""
        return self.REFERENCE_S / statistics.median(self.samples)


@dataclass
class Outcome:
    """What one run of a workload measured."""

    speed: Speedometer = field(default_factory=Speedometer)
    #: Reference seconds per op in the end-to-end samples; failed ops
    #: stay in at their measured time.
    latencies: List[float] = field(default_factory=list)
    #: Reference seconds per op set aside from the samples: serve-churn's
    #: ops in steps where the deployment is disconnected (see NOTES.md).
    aside: List[float] = field(default_factory=list)
    #: Measured (unscaled) seconds of every op, for the report.
    raw: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: The first few failure messages, for the report.
    errors: List[str] = field(default_factory=list)
    #: Reference seconds per set-up repetition.
    setup: List[float] = field(default_factory=list)
    #: Deterministic quality figures (same seed, same values).
    quality: Dict[str, float] = field(default_factory=dict)
    #: Counts gathered for the per-layer report.
    counts: Dict[str, float] = field(default_factory=dict)
    #: Seconds of op-path work that the traced run performs outside the
    #: ops (serve-churn's explicit refresh), for the overhead figure.
    moved_s: float = 0.0
    #: Workload shape, for the report.
    shape: Dict[str, Any] = field(default_factory=dict)
    #: Whether the run spawns a worker process whose memory counts.
    has_worker: bool = False

    def scaled(self, elapsed: float) -> float:
        return elapsed * self.speed.scale()

    def record(self, elapsed: float, error: Optional[str] = None) -> None:
        self.attempted += 1
        self.raw.append(elapsed)
        self.latencies.append(self.scaled(elapsed))
        if error is not None:
            self.fail(error)

    def fail(self, error: Optional[str]) -> None:
        self.failed += 1
        if len(self.errors) < 3:
            self.errors.append(str(error))

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount


# ----------------------------------------------------------------------
# Deployments
# ----------------------------------------------------------------------
def side_for_degree(n: int, degree: float) -> float:
    """Side of the square in which ``n`` uniform nodes with unit radius
    have expected degree ``degree``, border effects included.

    Two uniform points of a side-``L`` square (``L >= 2``) lie within
    distance 1 with probability ``pi/L^2 - 8/(3 L^3) + 1/(2 L^4)``.
    """
    lo, hi = 2.0, 1e4
    for _ in range(200):
        mid = (lo + hi) / 2
        p = math.pi / mid**2 - 8 / (3 * mid**3) + 1 / (2 * mid**4)
        if (n - 1) * p > degree:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def connected_positions(rng: random.Random, n: int, side: float) -> Dict[int, Point]:
    """Uniform positions in a ``side`` square, redrawn until the unit-disk
    graph is connected."""
    while True:
        positions = {
            i: Point(rng.uniform(0.0, side), rng.uniform(0.0, side))
            for i in range(n)
        }
        if is_connected(UnitDiskGraph(positions, method="vector")):
            return positions


def traced_moves(graph: UnitDiskGraph, tracer: Any) -> None:
    """Time every ``move_node`` on this graph object as a ``udg.move``
    span (traced run only; the class and other graphs are untouched)."""
    move = graph.move_node

    def move_node(node, new_position):
        with tracer.span("udg.move"):
            return move(node, new_position)

    graph.move_node = move_node  # type: ignore[method-assign]


def centralized_reference(graph: UnitDiskGraph, tracer: Any):
    """``(greedy_mis, algorithm2_centralized)`` of ``graph``, each in its
    own span so the traced run can split MIS from connector selection."""
    with tracer.span("mis"):
        mis = greedy_mis(graph)
    with tracer.span("alg2.centralized"):
        central = algorithm2_centralized(graph)
    return mis, central


# ----------------------------------------------------------------------
# alg2-build: the paper's pipeline on fresh deployments
# ----------------------------------------------------------------------
ALG2_N = 1000
ALG2_DEGREES = (12.0, 40.0)
ALG2_OPS_PER_S = 4.0
DILATION_SOURCES = 4


def alg2_op(positions: Dict[int, Point], index: int, tracer: Any):
    """One alg2-build op.  Every deployment is connected, so no step may
    raise: an exception (``sampled_dilation`` raises ``AssertionError``
    on a spanner that is not connected) is a failed correctness check."""
    try:
        with tracer.span("udg.build"):
            graph = UnitDiskGraph(positions, method="vector")
        with tracer.span("alg2.distributed"):
            result = algorithm2_distributed(graph, sim=SimConfig(seed=index))
        with tracer.span("spanner.build"):
            spanner = result.spanner(graph)
        with tracer.span("spanner.dilation"):
            report = sampled_dilation(graph, spanner, DILATION_SOURCES, seed=index)
    except Exception as error:  # noqa: BLE001 - any exception is a defect here
        raise CheckFailed(
            f"alg2-build op {index}: {type(error).__name__}: {error}"
        ) from error
    return graph, result, report


def alg2_warmup_positions(seed: int) -> Dict[int, Point]:
    """The deployment of alg2-build's set-up op: mid-range mean degree."""
    lo, hi = ALG2_DEGREES
    rng = random.Random(f"alg2-build/{seed}/warm-up")
    return connected_positions(rng, ALG2_N, side_for_degree(ALG2_N, (lo + hi) / 2))


def alg2_cold_setup(seed: int) -> float:
    """Measured seconds of one cold alg2-build set-up: a fresh interpreter
    imports the program and runs the warm-up op (``cold_start.py``)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "cold_start.py"), str(seed)],
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise CheckFailed(f"alg2-build set-up failed: {proc.stderr.strip()[-2000:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def alg2_build(seed: int, seconds: float, tracer: Any) -> Outcome:
    """One op = UDG build, distributed Algorithm II on the auto engine,
    spanner and sampled dilation, on a fresh connected deployment."""
    rng = random.Random(f"alg2-build/{seed}")
    count = max(3, round(seconds * ALG2_OPS_PER_S))
    lo, hi = ALG2_DEGREES
    # Stratified degrees: every run covers the whole range evenly, so
    # runs differ only by the deployments drawn within each stratum.
    degrees = [lo + (hi - lo) * (k + rng.random()) / count for k in range(count)]
    rng.shuffle(degrees)
    deployments = [
        connected_positions(rng, ALG2_N, side_for_degree(ALG2_N, d)) for d in degrees
    ]
    out = Outcome(shape={"n": ALG2_N, "mean_degree": list(ALG2_DEGREES),
                         "ops": count, "dilation_sources": DILATION_SOURCES})
    # Set-up is the warm-up op in a fresh interpreter, imports included,
    # so that each repetition pays the kernels' lazy set-up again.
    for _ in range(SETUP_REPEATS):
        out.speed.probe()
        out.setup.append(out.scaled(alg2_cold_setup(seed)))
    # The same op in this process, untimed, so no timed op pays it.
    alg2_op(alg2_warmup_positions(seed), 0, NullTracer())
    ratios: List[float] = []
    messages = 0
    for index, positions in enumerate(deployments):
        out.speed.probe()
        with tracer.span("op", op=index):
            started = clock()
            graph, result, report = alg2_op(positions, index, tracer)
            out.record(clock() - started)
        stats = result.meta["stats"]
        try:
            result.validate(graph)
        except AssertionError as error:
            raise CheckFailed(f"alg2-build op {index}: {error}") from None
        mis, central = centralized_reference(graph, tracer)
        if set(result.mis_dominators) != mis:
            raise CheckFailed(f"alg2-build op {index}: MIS differs from greedy_mis")
        if report.pairs_evaluated == 0:
            raise CheckFailed(f"alg2-build op {index}: no dilation pairs sampled")
        if not (report.hop_bound_holds and report.geo_bound_holds):
            raise CheckFailed(
                f"alg2-build op {index}: Theorem 11 bound violated "
                f"(hop slack {report.max_hop_slack}, "
                f"length slack {report.max_geo_slack})"
            )
        ratios.append(result.size / central.size)
        messages += stats.messages_sent
        if tracer.enabled:
            with tracer.span("csr.expand"):
                _, heads, _ = graph_to_csr(graph)
            out.count("csr.expand.count", len(heads))
            out.count("udg.build.edges", graph.num_edges)
            out.count("mis.size", len(mis))
            out.count("connectors.count", len(central.additional_dominators))
            out.count("sim.messages", stats.messages_sent)
            out.count("sim.deliveries", stats.deliveries)
            out.count("sim.events", stats.events_processed)
            out.count("sim.rounds", stats.finish_time)
            out.count("spanner.pairs", report.pairs_evaluated)
    out.quality["backbone_ratio"] = sum(ratios) / len(ratios)
    out.quality["msgs_per_node"] = messages / (len(ratios) * ALG2_N)
    return out


# ----------------------------------------------------------------------
# serve-churn: one long-lived BackboneService under churn
# ----------------------------------------------------------------------
CHURN_N = 1000
CHURN_DEGREE = 25.0
QUERIES_PER_STEP = 20
CHURN_STEPS_PER_S = 4.6
WAYPOINT_SPEED = (0.01, 0.05)
#: Share of the churn steps, from the start, whose ops are end-to-end
#: samples.  Refresh work grows as the waypoint model crowds nodes into
#: the centre, so every run samples the same stretch of drift; the rest
#: of the trace runs past the usual first disconnection (see NOTES.md).
SAMPLED_SHARE = 0.5


def _query_nodes(request: Request) -> Tuple[Any, ...]:
    return tuple(
        node for node in (request.node, request.src, request.dst, request.source)
        if node is not None
    )


def churn_trace(
    rng: random.Random, nodes: List[int], side: float, steps: int
) -> List[Tuple[Any, ...]]:
    """The fixed serve-churn trace.

    Queries follow the ``repro serve`` traffic model (zipf 1.1 over
    ``DEFAULT_MIX``).  Each churn step advances the mobility model once,
    turns one live radio off, and turns the radio that went off at the
    previous step back on at a uniform position.  Only radios that left
    earlier re-join, because ``RandomWaypointModel.step`` raises
    ``KeyError`` for node ids it was not built with (see NOTES.md).
    Queries that name a radio which is off are dropped from the trace.
    """
    generator = WorkloadGenerator(
        nodes,
        WorkloadConfig(
            queries=(steps + 1) * QUERIES_PER_STEP,
            zipf_exponent=1.1,
            mix=DEFAULT_MIX,
            churn_every=QUERIES_PER_STEP,
            seed=rng.randrange(2**32),
        ),
    )
    trace: List[Tuple[Any, ...]] = []
    off: Optional[int] = None
    for request in generator.requests():
        if request.op == "churn":
            victim = rng.choice([v for v in nodes if v != off])
            if off is None:
                trace.append(("churn", victim, None))
            else:
                spot = (rng.uniform(0.0, side), rng.uniform(0.0, side))
                trace.append(("churn", victim, (off, spot)))
            off = victim
        elif off not in _query_nodes(request):
            trace.append(("query", request))
    return trace


def check_route(graph: UnitDiskGraph, src: Any, dst: Any, path: Any) -> None:
    """A served route starts at src, ends at dst and walks graph edges."""
    if not path or path[0] != src or path[-1] != dst:
        raise CheckFailed(f"route {src}->{dst} has wrong endpoints: {path!r}")
    for hop_from, hop_to in zip(path, path[1:]):
        if not graph.has_edge(hop_from, hop_to):
            raise CheckFailed(f"route {src}->{dst} uses non-edge {hop_from}-{hop_to}")


def check_dominator(graph: UnitDiskGraph, node: Any, head: Any) -> None:
    """A served dominator is the node itself or one of its neighbours."""
    if head != node and not graph.has_edge(node, head):
        raise CheckFailed(
            f"dominator of {node} is {head!r}, not the node or a neighbour"
        )


def step_topology(
    graph: UnitDiskGraph, victim: int, rejoin: Optional[Tuple[int, Tuple[float, float]]]
) -> UnitDiskGraph:
    """The deployment once a churn step is absorbed.

    The service applies ``leave`` and ``join`` lazily, so its graph still
    holds the victim (and lacks the returning radio) until the next
    refresh; this applies both to a copy.
    """
    topology = graph.copy()
    if victim in topology:
        topology.remove_node(victim)
    if rejoin is not None:
        node, (x, y) = rejoin
        if node in topology:
            topology.remove_node(node)
        topology.add_node_at(node, Point(x, y))
    return topology


def serve_churn(seed: int, seconds: float, tracer: Any) -> Outcome:
    """Ops are the queries and the churn ingests, each timed.

    Ops of a step (its churn ingests and the queries up to the next step)
    are set aside from the end-to-end samples when the deployment is
    disconnected after the step, or when the step lies beyond the first
    ``SAMPLED_SHARE`` of the trace; set-aside ops still count as
    attempted, and their failures as failed.
    """
    rng = random.Random(f"serve-churn/{seed}")
    side = side_for_degree(CHURN_N, CHURN_DEGREE)
    positions = connected_positions(rng, CHURN_N, side)
    steps = max(3, round(seconds * CHURN_STEPS_PER_S))
    out = Outcome(shape={"n": CHURN_N, "mean_degree": CHURN_DEGREE, "steps": steps,
                         "queries_per_step": QUERIES_PER_STEP,
                         "waypoint_speed": list(WAYPOINT_SPEED)})
    # Centralized rebuild path (sim=None) and no deadlines, so no answer
    # is stale and the refresh schedule does not depend on speed.
    for _ in range(SETUP_REPEATS):
        out.speed.probe()
        started = clock()
        with tracer.span("udg.build"):
            graph = UnitDiskGraph(positions, method="vector")
        service = BackboneService(graph)
        out.setup.append(out.scaled(clock() - started))
        out.count("udg.build.edges", graph.num_edges)
    mobility = RandomWaypointModel(
        graph, side, speed_range=WAYPOINT_SPEED, seed=rng.randrange(2**32)
    )
    trace = churn_trace(rng, sorted(positions), side, steps)
    if tracer.enabled:
        traced_moves(graph, tracer)
    counters = service.metrics.counters
    refreshes = counters.get("repairs") + counters.get("rebuilds_full")
    ratios: List[float] = []
    #: Latencies of the current step's ops, filed once the step's
    #: topology is known to be connected or not.
    step_ops: List[float] = []
    step = 0
    sampled = True
    disconnected_steps = 0

    def timed(op_id: int, call: Callable[[], Any]) -> Any:
        out.attempted += 1
        with tracer.span("op", op=op_id):
            started = clock()
            try:
                value = call()
            except Exception as error:  # noqa: BLE001 - counted as a failed op
                elapsed = clock() - started
                out.fail(f"{type(error).__name__}: {error}")
                value = None
            else:
                elapsed = clock() - started
            out.raw.append(elapsed)
            step_ops.append(out.scaled(elapsed))
            return value

    def file_step() -> None:
        (out.latencies if sampled else out.aside).extend(step_ops)
        step_ops.clear()

    def after_refresh() -> None:
        """At a successful refresh point: the maintained backbone against
        a fresh construction (and, traced, the routing snapshot)."""
        nonlocal refreshes
        now = counters.get("repairs") + counters.get("rebuilds_full")
        if now == refreshes:
            return
        refreshes = now
        maintained = service.backbone().value
        try:
            mis, central = centralized_reference(graph, tracer)
        except ValueError:  # a repair absorbed churn on a split graph
            return
        ratios.append(maintained.size / central.size)
        if tracer.enabled:
            out.count("mis.size", len(mis))
            out.count("connectors.count", len(central.additional_dominators))
            with tracer.span("routing.snapshot"):
                ClusterheadRouter(graph, maintained)
            out.count("routing.snapshot.count")

    def ingest_step() -> None:
        with tracer.span("mobility.step"):
            events = mobility.step()
        out.count("mobility.link_events", len(events.gained) + len(events.lost))
        with tracer.span("serve.ingest"):
            service.ingest_events(events)

    def ingest(call: Callable[[], None]) -> Callable[[], None]:
        def run() -> None:
            with tracer.span("serve.ingest"):
                call()
        return run

    def query(request: Request) -> Callable[[], Any]:
        def run() -> Any:
            with tracer.span(f"serve.query.{request.op}"):
                service.enqueue(request)
                (response,) = service.drain()
            return response
        return run

    op_id = 0
    for item in trace:
        if item[0] == "churn":
            file_step()
            out.speed.probe()
            _, victim, rejoin = item
            timed(op_id, ingest_step)
            timed(op_id + 1, ingest(lambda: service.leave(victim)))
            op_id += 2
            if rejoin is not None:
                node, (x, y) = rejoin
                timed(op_id, ingest(lambda: service.join(node, x, y)))
                op_id += 1
            connected = is_connected(step_topology(graph, victim, rejoin))
            disconnected_steps += not connected
            step += 1
            sampled = connected and step <= steps * SAMPLED_SHARE
            if tracer.enabled:
                # Absorb the step now, so repair and rebuild are timed
                # apart from the query that would otherwise absorb it.
                before = counters.get("rebuilds_full")
                with tracer.span("maintenance") as span:
                    started = clock()
                    try:
                        service.refresh()
                    except ValueError:
                        pass  # the query path retries and counts it
                    out.moved_s += out.scaled(clock() - started)
                if counters.get("rebuilds_full") > before:
                    span.name = "maintenance.rebuild"
                elif service.has_pending_work:
                    span.name = "maintenance.failed"
                else:
                    span.name = "maintenance.repair"
                out.count(span.name + ".count")
                after_refresh()
            continue
        request = item[1]
        response = timed(op_id, query(request))
        op_id += 1
        out.count(f"serve.query.{request.op}.count")
        if response is None:
            continue
        if not response.ok:
            out.fail(response.error)
            continue
        if response.stale:
            out.count("serve.stale")
        if request.op == "route":
            check_route(graph, request.src, request.dst, response.value)
        elif request.op == "dominator":
            check_dominator(graph, request.node, response.value)
        after_refresh()
    file_step()
    out.quality["backbone_ratio"] = sum(ratios) / len(ratios) if ratios else math.nan
    out.shape["refresh_points"] = len(ratios)
    out.shape["disconnected_steps"] = disconnected_steps
    metrics = service.metrics
    out.counts["serve.cache.route_hit_rate"] = metrics.hit_rate("route_cache")
    out.counts["serve.cache.plan_hit_rate"] = metrics.hit_rate("plan_cache")
    out.counts["serve.route_cache_invalidated"] = counters.get("route_cache_invalidated")
    out.counts["serve.errors"] = out.failed
    out.counts["serve.rejected"] = counters.get("requests_rejected")
    return out


# ----------------------------------------------------------------------
# shard-serve: a one-worker ShardServePool under queries and moves
# ----------------------------------------------------------------------
SHARD_N = 4000
SHARD_DEGREE = 25.0
TILE_SIZE = 8.0
BATCH = 64
ROUTE_SHARE = 0.7
BATCHES_PER_MOVE = 2
MAX_MOVE = 0.5
SHARD_CYCLES_PER_S = 3.4
#: Every this many batches, a batch is asked again at the end of the
#: trace, of the worker pool and of a fresh inline ``workers=0`` twin.
CHECK_EVERY = 4


def shard_trace(
    rng: random.Random,
    positions: Dict[int, Point],
    owner: Dict[int, Any],
    owned: Dict[Any, List[int]],
    side: float,
    cycles: int,
) -> List[Tuple[Any, ...]]:
    """``cycles`` times: two 64-query batches, then one move.

    Routes join two members of the first node's owner tile.  A move
    shifts a node by up to ``MAX_MOVE`` radii inside the square.  The
    moved nodes are the ones nearest to jittered points of a grid over
    the square, so every run moves as many nodes near tile borders, where
    a move re-stitches more tiles, as any other run.
    """
    nodes = sorted(positions)
    where = dict(positions)
    cells = math.ceil(math.sqrt(cycles))
    spots = [
        ((col + rng.random()) * side / cells, (row + rng.random()) * side / cells)
        for row in range(cells)
        for col in range(cells)
    ]
    rng.shuffle(spots)
    trace: List[Tuple[Any, ...]] = []
    for spot_x, spot_y in spots[:cycles]:
        for _ in range(BATCHES_PER_MOVE):
            batch: List[Tuple[Any, ...]] = []
            for _ in range(BATCH):
                u = rng.choice(nodes)
                if rng.random() < ROUTE_SHARE:
                    batch.append(("route", u, rng.choice(owned[owner[u]])))
                else:
                    batch.append(("dominator", u))
            trace.append(("batch", batch))
        node = min(
            nodes,
            key=lambda v: (where[v].x - spot_x) ** 2 + (where[v].y - spot_y) ** 2,
        )
        radius = MAX_MOVE * math.sqrt(rng.random())
        angle = rng.uniform(0.0, 2.0 * math.pi)
        old = where[node]
        new = Point(
            min(side, max(0.0, old.x + radius * math.cos(angle))),
            min(side, max(0.0, old.y + radius * math.sin(angle))),
        )
        where[node] = new
        trace.append(("move", node, new))
    return trace


def check_shard_answers(
    graph: UnitDiskGraph, batch: List[Tuple[Any, ...]], answers: List[Any]
) -> int:
    """Check one batch's answers against the current topology; return
    the number of routes answered ``None``, which the pool gives when a
    move has carried the target beyond the owner tile's halo."""
    if len(answers) != len(batch):
        raise CheckFailed(f"shard-serve: {len(answers)} answers to {len(batch)} queries")
    unanswered = 0
    for query, answer in zip(batch, answers):
        if query[0] == "route":
            if answer is None:
                unanswered += 1
            else:
                check_route(graph, query[1], query[2], answer)
        elif answer is None:
            raise CheckFailed(f"shard-serve: no dominator for {query[1]}")
        else:
            check_dominator(graph, query[1], answer)
    return unanswered


def shard_serve(seed: int, seconds: float, tracer: Any) -> Outcome:
    """Ops are the query batches and the moves, each timed."""
    rng = random.Random(f"shard-serve/{seed}")
    side = side_for_degree(SHARD_N, SHARD_DEGREE)
    positions = connected_positions(rng, SHARD_N, side)
    cycles = max(2, round(seconds * SHARD_CYCLES_PER_S))
    with tracer.span("udg.build"):
        graph = UnitDiskGraph(positions, method="vector")
    out = Outcome(shape={"n": SHARD_N, "mean_degree": SHARD_DEGREE,
                         "tile_size": TILE_SIZE, "workers": 1, "batch": BATCH,
                         "cycles": cycles}, has_worker=True)
    pool: Optional[ShardServePool] = None
    twin: Optional[ShardServePool] = None
    try:
        for _ in range(SETUP_REPEATS):
            if pool is not None:
                pool.close()
            out.speed.probe()
            started = clock()
            with tracer.span("pool.spawn"):
                pool = ShardServePool(
                    graph, ShardConfig(tile_size=TILE_SIZE, workers=1)
                )
            out.setup.append(out.scaled(clock() - started))
        out.shape["tiles"] = len(pool.tiler.tiles())
        if tracer.enabled:
            out.count("udg.build.edges", graph.num_edges)
            inline_graph = graph.copy()
            with tracer.span("shard.build"):
                ShardedBackbone(inline_graph, ShardConfig(tile_size=TILE_SIZE))
            traced_moves(graph, tracer)
        tiler = pool.tiler
        owned = {tile: tiler.owned(tile) for tile in tiler.tiles()}
        trace = shard_trace(rng, positions, tiler.owner, owned, side, cycles)
        batches = 0
        unanswered = 0
        sample: List[List[Tuple[Any, ...]]] = []
        for op_id, item in enumerate(trace):
            if item[0] == "batch":
                if batches % BATCHES_PER_MOVE == 0:
                    out.speed.probe()
                batch = item[1]
                with tracer.span("op", op=op_id):
                    started = clock()
                    try:
                        answers = pool.query_batch(batch)
                    except Exception as error:  # noqa: BLE001 - a failed op
                        out.record(clock() - started, f"{type(error).__name__}: {error}")
                        continue
                    out.record(clock() - started)
                unanswered += check_shard_answers(graph, batch, answers)
                if batches % CHECK_EVERY == 0:
                    sample.append(batch)
                batches += 1
                continue
            _, node, new = item
            with tracer.span("op", op=op_id):
                started = clock()
                try:
                    with tracer.span("shard.stitch"):
                        report = pool.move(node, new)
                except Exception as error:  # noqa: BLE001 - a failed op
                    out.record(clock() - started, f"{type(error).__name__}: {error}")
                    report = None
                else:
                    out.record(clock() - started)
            if report is not None:
                out.count("shard.tiles_rebuilt", len(report.rebuilt))
                out.count("shard.tiles_cascaded", len(report.cascaded))
        # The churned worker replicas must answer as replicas built
        # afresh on the final topology do.
        with tracer.span("pool.inline_build"):
            twin = ShardServePool(
                graph.copy(), ShardConfig(tile_size=TILE_SIZE, workers=0)
            )
        for number, batch in enumerate(sample):
            with tracer.span("pool.recheck"):
                answers = pool.query_batch(batch)
            with tracer.span("pool.inline"):
                expected = twin.query_batch(batch)
            if answers != expected:
                raise CheckFailed(
                    f"shard-serve: batch {number * CHECK_EVERY} answers from the "
                    "worker differ from an inline workers=0 pool"
                )
        stitched = pool.backbone.result()
        mis, central = centralized_reference(graph, tracer)
        if (
            stitched.dominators != central.dominators
            or stitched.mis_dominators != central.mis_dominators
            or pool.backbone_nodes() != set(central.dominators)
        ):
            raise CheckFailed(
                "shard-serve: stitched backbone differs from algorithm2_centralized"
            )
        out.quality["backbone_ratio"] = len(stitched.dominators) / len(central.dominators)
        out.shape["unanswered_routes"] = unanswered
        if tracer.enabled:
            out.count("mis.size", len(mis))
            out.count("connectors.count", len(central.additional_dominators))
    finally:
        if twin is not None:
            twin.close()
        if pool is not None:
            pool.close()
    return out


WORKLOADS: Dict[str, Callable[[int, float, Any], Outcome]] = {
    "alg2-build": alg2_build,
    "serve-churn": serve_churn,
    "shard-serve": shard_serve,
}
