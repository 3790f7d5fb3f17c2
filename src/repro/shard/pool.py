"""Serving the stitched backbone: tile replicas and a worker pool.

The parent process is the *control plane*: it owns the graph, the
:class:`~repro.shard.stitch.ShardedBackbone`, and the stitching.  The
*data plane* is a set of :class:`_TileReplica` objects — one per tile,
each holding only its tile's members, induced adjacency, and backbone
membership — that answer the read queries (``dominator``, ``member``,
``route``) without ever touching global state.

With ``config.workers == 0`` the replicas live in-process: same code
path, no worker processes, fully deterministic — the mode tests use.
With ``workers > 0`` the replicas are spread round-robin over the
spawn-worker runtime (:mod:`repro.runtime`): a worker rebuilds a
tile's adjacency from the shared position rows, so a refresh message
carries only node indices and membership bits — O(tile), never O(n) —
and a position update is one row write by the parent, not a broadcast.

Churn (:meth:`ShardServePool.move`) re-stitches the affected tiles via
the backbone's boundary-only invalidation, then refreshes exactly the
replicas whose view changed: the re-stitched tiles plus any tile
reading a node whose backbone membership flipped.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import (
    Any,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.graphs.graph import canonical_order
from repro.graphs.udg import UnitDiskGraph
from repro.obs.flightrec import flight_record
from repro.obs.pipeline import TraceContext
from repro.obs.tracing import get_tracer
from repro.runtime import OpTable, SharedPositions, Worker, WorkerPool
from repro.shard.config import ShardConfig
from repro.shard.stitch import InvalidationReport, ShardedBackbone
from repro.shard.tiler import TileId

__all__ = ["ShardServePool", "SharedPositions"]

Node = Hashable
#: A read query: ``("dominator", u)``, ``("member", u)``, or
#: ``("route", u, v)``.
Query = Tuple[Any, ...]


class _TileReplica:
    """One tile's serveable state: members, adjacency, membership bits.

    Identifier-agnostic — the inline pool builds replicas over node
    ids, workers over shared-array row indices; the query logic is the
    same.
    """

    def __init__(
        self,
        members: Iterable[Node],
        adjacency: Dict[Node, Set[Node]],
        mis: Iterable[Node],
        backbone: Iterable[Node],
    ) -> None:
        self.members = set(members)
        self.adjacency = adjacency
        self.mis = set(mis)
        self.backbone = set(backbone)

    def dominator(self, u: Node) -> Optional[Node]:
        """The node's dominator: itself if in the MIS, else its lowest
        MIS neighbor (every node is dominated — Algorithm II's MIS)."""
        if u not in self.members:
            return None
        if u in self.mis:
            return u
        candidates = [v for v in self.adjacency.get(u, ()) if v in self.mis]
        return min(candidates) if candidates else None

    def member(self, u: Node) -> bool:
        """Whether the node is a backbone (WCDS) member."""
        return u in self.backbone

    def route(self, u: Node, v: Node) -> Optional[List[Node]]:
        """Minimum-hop path from ``u`` to ``v`` over *black edges*
        (edges with a backbone endpoint) within the tile, or ``None``
        when either endpoint is outside the tile or unreachable."""
        if u not in self.members or v not in self.members:
            return None
        if u == v:
            return [u]
        parents: Dict[Node, Node] = {}
        seen = {u}
        frontier = deque([u])
        while frontier:
            node = frontier.popleft()
            node_black = node in self.backbone
            for nbr in canonical_order(self.adjacency.get(node, ())):
                if nbr in seen:
                    continue
                if not node_black and nbr not in self.backbone:
                    continue
                parents[nbr] = node
                if nbr == v:
                    path = [v]
                    while path[-1] != u:
                        path.append(parents[path[-1]])
                    path.reverse()
                    return path
                seen.add(nbr)
                frontier.append(nbr)
        return None

    def serve(self, op: str, args: Tuple[Any, ...]) -> Any:
        if op == "dominator":
            return self.dominator(args[0])
        if op == "member":
            return self.member(args[0])
        if op == "route":
            return self.route(args[0], args[1])
        raise ValueError(f"unknown query op {op!r}")


def _replica_from_shared(
    shared: SharedPositions,
    radius: float,
    members: Sequence[int],
    mis: Sequence[int],
    backbone: Sequence[int],
) -> _TileReplica:
    """Build a replica in-worker: adjacency recomputed from the shared
    position rows (only indices crossed the pipe)."""
    from repro.kernels.udg import vector_adjacency

    rows = shared.array
    pairs = [(i, (float(rows[i, 0]), float(rows[i, 1]))) for i in members]
    adjacency = vector_adjacency(pairs, radius)
    return _TileReplica(members, adjacency, mis, backbone)


#: A shard worker's state: the radius and its tile replicas.
_State = Tuple[float, Dict[TileId, _TileReplica]]


def _init(worker: Worker, radius: float) -> _State:
    """A worker starts with no replicas; ``load`` builds them."""
    return radius, {}


def _load(
    worker: Worker,
    state: _State,
    tile: TileId,
    members: Sequence[int],
    mis: Sequence[int],
    backbone: Sequence[int],
    ctx: Optional[TraceContext],
) -> TileId:
    """(Re)build one tile's replica from the shared rows."""
    radius, replicas = state
    with worker.span("shard.replica_load", ctx, tile=str(tile)) as span:
        replicas[tile] = _replica_from_shared(
            worker.shared, radius, members, mis, backbone
        )
        span.set_attr("members", len(members))
    if worker.registry is not None:
        worker.registry.counter(
            "worker_replica_loads_total", "tile replicas (re)built"
        ).inc()
    return tile


def _drop(worker: Worker, state: _State, tile: TileId) -> TileId:
    """Forget a retired tile's replica."""
    state[1].pop(tile, None)
    return tile


def _query(
    worker: Worker,
    state: _State,
    items: Sequence[Tuple[int, TileId, str, Tuple[Any, ...]]],
    ctx: Optional[TraceContext],
) -> List[Tuple[int, Any]]:
    """Answer one chunk of ``(qid, tile, op, args)`` queries."""
    replicas = state[1]
    results = []
    with worker.span("shard.serve_batch", ctx, items=len(items)):
        for qid, tile, op, args in items:
            replica = replicas.get(tile)
            results.append((qid, None if replica is None else replica.serve(op, args)))
    if worker.registry is not None:
        worker.registry.counter("worker_batches_total", "query batches served").inc()
        for op, served in sorted(Counter(item[2] for item in items).items()):
            worker.registry.counter(
                "worker_serves_total", "queries served", op=op
            ).inc(served)
    return results


#: The shard worker's op table (see :mod:`repro.runtime`).
POOL_OPS: OpTable = {"init": _init, "load": _load, "drop": _drop, "query": _query}


class ShardServePool(WorkerPool):
    """Query service over the stitched backbone.

    ``workers == 0`` serves inline from in-process replicas;
    ``workers > 0`` spreads tile replicas over spawn-context worker
    processes sharing one position array.  Either way the answers are
    identical — the worker path only changes where the replica lives.
    With a ``registry`` the workers ship telemetry frames home.
    """

    prefix = "shard"
    noun = "shard pool"
    label = "w"

    def __init__(
        self,
        graph: UnitDiskGraph,
        config: Optional[ShardConfig] = None,
        *,
        registry=None,
        tracer=None,
    ) -> None:
        super().__init__(registry)
        self.config = config or ShardConfig()
        self.tracer = tracer if tracer is not None else get_tracer()
        self.graph = graph
        # Thread the *resolved* registry/tracer through (passing the raw
        # argument would hand the replicas a None tracer and silently
        # drop their instrumentation).
        self.backbone = ShardedBackbone(
            graph, self.config, registry=self.registry, tracer=self.tracer
        )
        self.tiler = self.backbone.tiler
        #: Global backbone membership, maintained incrementally from
        #: per-tile contributions (connector picks are refcounted: two
        #: tiles may choose the same intermediate).
        self._mis: Set[Node] = set()
        self._connector_counts: Dict[Node, int] = {}
        self._tile_mis: Dict[TileId, Set[Node]] = {}
        self._tile_conn: Dict[TileId, List[Node]] = {}
        for tile in self.tiler.tiles():
            self._apply_contribution(tile)
        self._worker_of: Dict[TileId, int] = {}
        self._index: Dict[Node, int] = {}
        self._replicas: Dict[TileId, _TileReplica] = {}
        if self.config.workers > 0:
            self.start_workers(
                graph,
                self.config.workers,
                POOL_OPS,
                graph.radius,
                ready=self._load_all,
            )
        else:
            for tile in self.tiler.tiles():
                self._replicas[tile] = self._build_local_replica(tile)

    # ------------------------------------------------------------------
    # Global membership bookkeeping
    # ------------------------------------------------------------------
    def _apply_contribution(self, tile: TileId) -> Set[Node]:
        """Swap in a tile's current (MIS, connector) contribution;
        returns the nodes whose backbone membership changed."""
        status = self.backbone.tile_status(tile)
        new_mis = {v for v in self.tiler.owned(tile) if status.get(v) is True}
        new_conn = [chosen for _, _, chosen in self.backbone.tile_connectors(tile)]
        changed: Set[Node] = set()
        old_mis = self._tile_mis.get(tile, set())
        changed |= old_mis ^ new_mis
        self._mis -= old_mis - new_mis
        self._mis |= new_mis
        counts = self._connector_counts
        for node in self._tile_conn.get(tile, []):
            counts[node] -= 1
            if counts[node] == 0:
                del counts[node]
                changed.add(node)
        for node in new_conn:
            if counts.get(node) is None:
                changed.add(node)
            counts[node] = counts.get(node, 0) + 1
        if new_mis or new_conn:
            self._tile_mis[tile] = new_mis
            self._tile_conn[tile] = new_conn
        else:
            self._tile_mis.pop(tile, None)
            self._tile_conn.pop(tile, None)
        return changed

    def _drop_contribution(self, tile: TileId) -> Set[Node]:
        """Remove a retired tile's contribution entirely."""
        changed: Set[Node] = set(self._tile_mis.get(tile, set()))
        self._mis -= self._tile_mis.pop(tile, set())
        counts = self._connector_counts
        for node in self._tile_conn.pop(tile, []):
            counts[node] -= 1
            if counts[node] == 0:
                del counts[node]
                changed.add(node)
        return changed

    def backbone_nodes(self) -> Set[Node]:
        """The current global backbone (MIS plus live connectors)."""
        return self._mis | set(self._connector_counts)

    # ------------------------------------------------------------------
    # Replica construction
    # ------------------------------------------------------------------
    def _build_local_replica(self, tile: TileId) -> _TileReplica:
        members = self.tiler.members(tile)
        member_set = set(members)
        adjacency = {
            m: self.graph.adjacency(m) & member_set for m in members
        }
        backbone = self.backbone_nodes()
        return _TileReplica(
            members,
            adjacency,
            member_set & self._mis,
            member_set & backbone,
        )

    def _tile_spec(self, tile: TileId) -> Tuple[List[int], List[int], List[int]]:
        """A tile's replica state as shared-array row indices."""
        index = self._index
        members = [index[m] for m in self.tiler.members(tile)]
        member_set = set(self.tiler.members(tile))
        mis = [index[m] for m in canonical_order(member_set & self._mis)]
        backbone = [
            index[m]
            for m in canonical_order(member_set & self.backbone_nodes())
        ]
        return members, mis, backbone

    # ------------------------------------------------------------------
    # Worker management
    # ------------------------------------------------------------------
    def _load_all(self) -> None:
        """Assign tiles round-robin and load every replica."""
        self._index = {node: i for i, node in enumerate(self._nodes)}
        tiles = self.tiler.tiles()
        for i, tile in enumerate(tiles):
            self._worker_of[tile] = i % len(self._workers)
        for tile in tiles:
            self._send_load(tile)

    def _send_load(self, tile: TileId) -> None:
        members, mis, backbone = self._tile_spec(tile)
        with self._parent_span(
            "shard.load", tile=str(tile), members=len(members)
        ) as ctx:
            self._call(
                self._worker_of[tile], "load", tile, members, mis, backbone, ctx
            )

    def _send_drop(self, tile: TileId) -> None:
        worker = self._worker_of.pop(tile, None)
        if worker is not None:
            self._call(worker, "drop", tile)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query_batch(self, queries: Sequence[Query]) -> List[Any]:
        """Answer a batch of read queries, one result per query.

        Each query is routed to the replica of the tile *owning* its
        first node; routes are answered within that tile (``None`` when
        the target is beyond the tile's halo).  Worker mode groups the
        batch per worker and ships at most ``config.batch_size``
        queries per message.
        """
        results: List[Any] = [None] * len(queries)
        plan: List[Tuple[int, TileId, str, Tuple[Any, ...]]] = []
        for qid, query in enumerate(queries):
            op = query[0]
            args = tuple(query[1:])
            tile = self.tiler.owner.get(args[0])
            if tile is None:
                continue
            plan.append((qid, tile, op, args))
        if self.registry is not None:
            self.registry.counter(
                "shard_pool_queries_total", "Queries served by the shard pool"
            ).inc(len(plan))
        if not self._workers:
            for qid, tile, op, args in plan:
                replica = self._replicas.get(tile)
                if replica is not None:
                    results[qid] = replica.serve(op, args)
            return results
        index = self._index
        per_worker: Dict[int, List[Tuple[int, TileId, str, Tuple[Any, ...]]]] = {}
        for qid, tile, op, args in plan:
            translated = tuple(index[a] for a in args)
            per_worker.setdefault(self._worker_of[tile], []).append(
                (qid, tile, op, translated)
            )
        batch = self.config.batch_size
        # Pipeline the chunks: keep a bounded window in flight on every
        # worker at once, so two workers compute concurrently instead
        # of serving strictly one after the other.  The window bounds
        # the pipe backlog (sender and receiver both blocking on a full
        # pipe would deadlock).
        window = 2
        chunks: Dict[int, deque] = {}
        in_flight: Dict[int, int] = {}
        for worker_id, items in per_worker.items():
            chunks[worker_id] = deque(
                items[lo : lo + batch] for lo in range(0, len(items), batch)
            )
            in_flight[worker_id] = 0
        with self._parent_span(
            "shard.dispatch", queries=len(plan), workers=len(per_worker)
        ) as ctx:
            if ctx is not None:
                # Recorded at dispatch time, before any pipe traffic, so
                # a worker-death dump always contains the last dispatch.
                flight_record(
                    "dispatch",
                    trace_id=ctx.trace_id,
                    span_id=ctx.span_id,
                    queries=len(plan),
                )
            self._pump(chunks, in_flight, window, ctx, results)
        return results

    def _pump(
        self,
        chunks: Dict[int, deque],
        in_flight: Dict[int, int],
        window: int,
        ctx: Optional[TraceContext],
        results: List[Any],
    ) -> None:
        """Drive the windowed send/recv loop over every worker."""
        nodes = self._nodes
        while any(chunks.values()) or any(in_flight.values()):
            for worker_id in sorted(chunks):
                while chunks[worker_id] and in_flight[worker_id] < window:
                    self._send(
                        worker_id, "query", chunks[worker_id].popleft(), ctx
                    )
                    in_flight[worker_id] += 1
            for worker_id in sorted(chunks):
                if in_flight[worker_id] == 0:
                    continue
                answers = self._recv(worker_id, "query")
                in_flight[worker_id] -= 1
                for qid, value in answers:
                    if isinstance(value, list):
                        value = [nodes[i] for i in value]
                    elif isinstance(value, int) and not isinstance(value, bool):
                        value = nodes[value]
                    results[qid] = value

    def dominator(self, node: Node) -> Optional[Node]:
        """The node's dominator (itself, or its lowest MIS neighbor)."""
        return self.query_batch([("dominator", node)])[0]

    def backbone_member(self, node: Node) -> bool:
        """Whether the node is in the stitched backbone."""
        return bool(self.query_batch([("member", node)])[0])

    def route(self, u: Node, v: Node) -> Optional[List[Node]]:
        """A black-edge route within ``u``'s tile, or ``None``."""
        return self.query_batch([("route", u, v)])[0]

    # ------------------------------------------------------------------
    # Churn
    # ------------------------------------------------------------------
    def move(self, node: Node, new_position) -> InvalidationReport:
        """Move a node: one shared-array row write, a boundary-only
        re-stitch, and refreshes of exactly the affected replicas."""
        report = self.backbone.apply_move(node, new_position)
        if self.shared is not None:
            row = self._index[node]
            position = self.graph.positions[node]
            self.shared.array[row, 0] = position.x
            self.shared.array[row, 1] = position.y
        live = set(self.tiler.tiles())
        refresh = set(report.rebuilt)
        changed: Set[Node] = set()
        for tile in sorted(refresh & live):
            changed |= self._apply_contribution(tile)
        for tile in [t for t in self._tile_mis if t not in live]:
            changed |= self._drop_contribution(tile)
        for moved_or_flipped in canonical_order(changed | {node}):
            refresh.update(self.tiler.tiles_reading(moved_or_flipped))
        for tile in sorted(refresh):
            if tile not in live:
                if self._workers:
                    self._send_drop(tile)
                else:
                    self._replicas.pop(tile, None)
            elif self._workers:
                if tile not in self._worker_of:
                    self._worker_of[tile] = (
                        len(self._worker_of) % len(self._workers)
                    )
                self._send_load(tile)
            else:
                self._replicas[tile] = self._build_local_replica(tile)
        if self.registry is not None:
            self.registry.counter(
                "shard_replica_refreshes_total",
                "Tile replicas refreshed after churn",
            ).inc(len(refresh & live))
        return report
