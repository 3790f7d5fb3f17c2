"""Per-tile Algorithm II with frontier stitching.

Each tile computes Algorithm II on the subgraph induced by its members
(owned + halo) and the tiles exchange only *frontier pins* — the
determined MIS statuses of owned nodes in the boundary band — until
every owned status is settled.  The protocol:

* **Local pass.**  Walk the tile's members in rank order (Algorithm
  II's bare-id ranking).  A node pinned by its owner keeps the pinned
  status.  Otherwise it is OUT if some lower-rank neighbor is known IN;
  IN if its whole unit disk is visible to the tile (so the tile sees
  *every* neighbor) and all lower-rank neighbors are known OUT; and
  UNKNOWN when a lower-rank neighbor is still unsettled.

* **Exchange.**  After a pass, every owned node with a determined
  status is published to the tiles consuming it in their halo.  A tile
  whose pins changed is re-passed.  Determined statuses are exact
  (induction over rank: OUT needs an exact IN witness, IN needs full
  visibility plus exact OUT witnesses), so the fixpoint equals the
  global lexicographically-first MIS — dependency chains that cross
  tiles simply take one exchange round per boundary they cross.

* **Connectors.**  Once statuses are settled, each tile selects
  Algorithm II's additional dominators for the 3-hop MIS pairs *led*
  by its owned nodes (the lower endpoint), with the oracle's exact
  tie-breaking (minimum-id first-hop intermediate).  With a halo of at
  least 3 radii every node and edge relevant to an owned pair is a
  member, so the per-tile choice is bit-identical to the global one.

Churn re-runs this machinery on the affected tiles only: the tiles
that read the moved node (owner + halo consumers, old and new
position) are re-passed, and the wave cascades further only when a
published frontier status actually changed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Hashable, Iterator, List, Optional, Set, Tuple

from repro.geometry.point import Point
from repro.graphs.graph import Graph, canonical_order
from repro.graphs.traversal import bfs_distances, is_connected
from repro.graphs.udg import UnitDiskGraph
from repro.obs.tracing import get_tracer
from repro.shard.config import ShardConfig
from repro.shard.tiler import TileId, Tiler
from repro.wcds.base import BackboneResult

Node = Hashable

#: Registry name of the sharded construction.
ALGORITHM_NAME = "wcds-sharded"


@dataclass(frozen=True)
class InvalidationReport:
    """What one churn event invalidated and rebuilt.

    ``seed_tiles`` are the tiles that read the churned node (owner plus
    halo consumers, at the old and new position) — the boundary-only
    invalidation set.  ``rebuilt`` is every tile actually re-passed;
    ``cascaded`` is the part of ``rebuilt`` beyond the seeds, reached
    only because a published frontier status changed.  Gentle interior
    churn keeps ``cascaded`` empty — the benchmark gate asserts it.
    """

    node: Node
    event: str
    seed_tiles: Tuple[TileId, ...]
    rebuilt: Tuple[TileId, ...]
    cascaded: Tuple[TileId, ...]
    rounds: int


class ShardedBackbone:
    """The stitched, incrementally-maintained sharded backbone.

    Construction stitches the full tiling; afterwards
    :meth:`apply_move` / :meth:`apply_join` / :meth:`apply_leave` (or
    the ``note_*`` twins when the caller already mutated the graph)
    keep the backbone exact under churn by re-stitching only the
    affected tiles.
    """

    def __init__(
        self,
        graph: UnitDiskGraph,
        config: Optional[ShardConfig] = None,
        *,
        registry=None,
        tracer=None,
    ) -> None:
        if graph.num_nodes == 0:
            raise ValueError("Algorithm II requires a non-empty graph")
        if not is_connected(graph):
            raise ValueError("Algorithm II requires a connected graph")
        self.graph = graph
        self.config = config or ShardConfig()
        self.registry = registry
        self.tracer = tracer if tracer is not None else get_tracer()
        self.tiler = Tiler(graph.positions, graph.radius, self.config)
        #: Per-tile pinned statuses: node -> True (MIS) / False, as
        #: published by the node's owner tile.
        self._pins: Dict[TileId, Dict[Node, bool]] = {}
        #: Per-tile member statuses from the last local pass
        #: (True = MIS, False = out, None = unsettled mid-stitch).
        self._status: Dict[TileId, Dict[Node, Optional[bool]]] = {}
        #: Per-tile connector selections ``(u, w, chosen)`` for the
        #: 3-hop pairs led by the tile's owned MIS nodes.
        self._connectors: Dict[TileId, List[Tuple[Node, Node, Node]]] = {}
        self._subgraphs: Dict[TileId, Graph] = {}
        self.last_rounds = 0
        with self.tracer.span(
            "shard_build", n=graph.num_nodes, tiles=len(self.tiler.tiles())
        ) as span:
            touched, rounds = self._stitch(set(self.tiler.tiles()), "full")
            span.set_attr("rounds", rounds)
        if self.registry is not None:
            for tile in self.tiler.tiles():
                self.registry.histogram(
                    "shard_frontier_dominators",
                    "MIS dominators in one tile's frontier band",
                ).observe(
                    sum(
                        1
                        for v in self.tiler.frontier(tile)
                        if self._status[tile].get(v) is True
                    )
                )

    # ------------------------------------------------------------------
    # Stitching
    # ------------------------------------------------------------------
    def _tile_subgraph(self, tile: TileId) -> Graph:
        cached = self._subgraphs.get(tile)
        if cached is None:
            cached = self.graph.subgraph(self.tiler.members(tile))
            self._subgraphs[tile] = cached
        return cached

    def _local_pass(self, tile: TileId) -> Dict[Node, Optional[bool]]:
        """One rank-ordered marking pass over the tile's members."""
        sub = self._tile_subgraph(tile)
        pinned = self._pins.get(tile, {})
        visible = self.tiler.visible_members(tile)
        status: Dict[Node, Optional[bool]] = {}
        for v in canonical_order(sub.nodes()):
            if v in pinned:
                status[v] = pinned[v]
                continue
            settled_in = False
            unsettled = False
            for u in sub.adjacency(v):
                if not u < v:
                    continue
                verdict = status[u]
                if verdict is True:
                    settled_in = True
                elif verdict is None:
                    unsettled = True
            if settled_in:
                status[v] = False
            elif unsettled or v not in visible:
                status[v] = None
            else:
                status[v] = True
        return status

    def _publish(self, tile: TileId) -> Set[TileId]:
        """Push determined owned statuses to consumer tiles; returns
        the consumers whose pins changed."""
        status = self._status[tile]
        dirty: Set[TileId] = set()
        published = 0
        for v in self.tiler.owned(tile):
            verdict = status.get(v)
            if verdict is None:
                continue
            for consumer in self.tiler.consumers(v):
                pins = self._pins.setdefault(consumer, {})
                if pins.get(v) is not verdict:
                    pins[v] = verdict
                    published += 1
                    dirty.add(consumer)
        if self.registry is not None and published:
            self.registry.counter(
                "shard_pins_published_total",
                "Frontier statuses published to consumer tiles",
            ).inc(published)
        return dirty

    def _drop_stale_pins(self, pending: Set[TileId]) -> None:
        """Remove pins that may no longer be exact: pins owned by a
        tile that is itself being re-stitched, and pins of nodes that
        left the deployment.  Pins from converged tiles stay — they are
        exact and give the re-stitch its boundary conditions."""
        for tile in pending:
            pins = self._pins.get(tile)
            if not pins:
                continue
            stale = [
                v
                for v in pins
                if self.tiler.owner.get(v) is None
                or self.tiler.owner[v] in pending
            ]
            for v in stale:
                del pins[v]

    def _stitch(
        self, pending: Set[TileId], phase: str
    ) -> Tuple[Set[TileId], int]:
        """Run local passes over ``pending`` tiles, exchanging frontier
        pins, until every owned status is determined.  Returns the set
        of tiles re-passed and the number of exchange rounds."""
        live = set(self.tiler.tiles())
        for tile in [t for t in self._status if t not in live]:
            self._status.pop(tile, None)
            self._connectors.pop(tile, None)
            self._pins.pop(tile, None)
            self._subgraphs.pop(tile, None)
        pending = {tile for tile in pending if tile in live}
        for tile in pending:
            self._subgraphs.pop(tile, None)
        self._drop_stale_pins(pending)
        touched: Set[TileId] = set()
        rounds = 0
        passes = 0
        # The within-round tile visit order is internally arbitrary (the
        # fixpoint is order-independent by rank induction); under an
        # active race-detector perturbation we shuffle it so that claim
        # is machine-checked, not just asserted.
        from repro.sim.engine import active_perturbation_seed

        exchange_seed = active_perturbation_seed()
        exchange_rng = (
            random.Random(exchange_seed) if exchange_seed is not None else None
        )
        # Each exchange round settles at least the globally minimum-rank
        # unsettled node, so n + 1 rounds always suffice; exceeding the
        # bound means a bug, not a slow instance.
        max_rounds = self.graph.num_nodes + 2
        while pending:
            rounds += 1
            if rounds > max_rounds:
                raise RuntimeError(
                    "frontier stitching did not converge "
                    f"(tiles still unsettled: {sorted(pending)})"
                )
            dirty: Set[TileId] = set()
            order = sorted(pending)
            if exchange_rng is not None:
                exchange_rng.shuffle(order)
            for tile in order:
                self._status[tile] = self._local_pass(tile)
                touched.add(tile)
                passes += 1
                dirty |= self._publish(tile)
            unsettled = {
                tile
                for tile in touched
                if any(
                    self._status[tile].get(v) is None
                    for v in self.tiler.owned(tile)
                )
            }
            pending = {tile for tile in dirty | unsettled if tile in live}
        for tile in sorted(touched):
            self._connectors[tile] = self._tile_connectors(tile)
        self.last_rounds = rounds
        if self.registry is not None:
            self.registry.counter(
                "shard_tile_builds_total",
                "Per-tile local backbone passes",
                phase=phase,
            ).inc(passes)
            self.registry.counter(
                "shard_stitch_rounds_total",
                "Frontier exchange rounds",
                phase=phase,
            ).inc(rounds)
            self.registry.gauge(
                "shard_tiles", "Occupied tiles in the sharded backbone"
            ).set(len(live))
        return touched, rounds

    def _tile_connectors(self, tile: TileId) -> List[Tuple[Node, Node, Node]]:
        """Algorithm II connector selection for pairs led by owned MIS
        nodes — the oracle's exact rule on the tile subgraph (exact by
        the ≥3-radii halo)."""
        sub = self._tile_subgraph(tile)
        status = self._status[tile]
        mis_members = [v for v in canonical_order(sub.nodes()) if status.get(v) is True]
        owned = set(self.tiler.owned(tile))
        chosen_pairs: List[Tuple[Node, Node, Node]] = []
        for u in mis_members:
            if u not in owned:
                continue
            dist_from_u = bfs_distances(sub, u, cutoff=3)
            targets = [
                w for w in mis_members if w > u and dist_from_u.get(w) == 3
            ]
            for w in targets:
                dist_from_w = bfs_distances(sub, w, cutoff=2)
                candidates = [
                    v for v in sub.adjacency(u) if dist_from_w.get(v) == 2
                ]
                if not candidates:  # pragma: no cover - impossible at dist 3
                    raise RuntimeError("no intermediate on a 3-hop path")
                chosen_pairs.append((u, w, min(candidates)))
        return chosen_pairs

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def result(self) -> BackboneResult:
        """The stitched backbone as a standard :class:`BackboneResult`.

        Bit-identical to ``algorithm2_centralized`` on the same graph:
        same MIS, same connector choices, tile by tile.
        """
        mis: Set[Node] = set()
        additional: Set[Node] = set()
        pairs: List[Tuple[Node, Node, Node]] = []
        for tile in self.tiler.tiles():
            status = self._status[tile]
            for v in self.tiler.owned(tile):
                if status.get(v) is True:
                    mis.add(v)
            pairs.extend(self._connectors.get(tile, ()))
        for _, _, chosen in pairs:
            additional.add(chosen)
        additional -= mis
        return BackboneResult(
            dominators=frozenset(mis | additional),
            mis_dominators=frozenset(mis),
            additional_dominators=frozenset(additional),
            algorithm=ALGORITHM_NAME,
            meta={
                "tiles": len(self.tiler.tiles()),
                "stitch_rounds": self.last_rounds,
                "pairs_covered": sorted(pairs),
            },
        )

    def tile_status(self, tile: TileId) -> Dict[Node, Optional[bool]]:
        """The tile's member statuses (read-only copy)."""
        return dict(self._status.get(tile, {}))

    def tile_connectors(self, tile: TileId) -> List[Tuple[Node, Node, Node]]:
        """The tile's connector picks ``(u, w, chosen)`` (copy)."""
        return list(self._connectors.get(tile, ()))

    def tile_backbone(self, tile: TileId) -> Set[Node]:
        """Backbone members visible to one tile (for its replica)."""
        status = self._status.get(tile, {})
        members = {v for v, s in status.items() if s is True}
        for u, w, chosen in self._connectors.get(tile, ()):
            members.add(chosen)
        # Connectors chosen by *other* tiles for pairs whose nodes this
        # tile can see are collected by the serving layer from the
        # merged result; the per-tile view only needs its own picks.
        return members

    # ------------------------------------------------------------------
    # Churn
    # ------------------------------------------------------------------
    def apply_move(self, node: Node, new_position: Point) -> InvalidationReport:
        """Move a node (mutating the graph) and re-stitch locally."""
        self.graph.move_node(node, new_position)
        return self.note_moved(node)

    def apply_join(self, node: Node, position: Point) -> InvalidationReport:
        """Add a node (mutating the graph) and re-stitch locally."""
        self.graph.add_node_at(node, position)
        return self.note_joined(node)

    def apply_leave(self, node: Node) -> InvalidationReport:
        """Remove a node (mutating the graph) and re-stitch locally."""
        seeds = self.tiler.tiles_reading(node)
        self.graph.remove_node(node)
        return self._after_churn(node, "leave", seeds, self.tiler.on_node_removed(node))

    def note_moved(self, node: Node) -> InvalidationReport:
        """Re-stitch after the caller already moved ``node`` in the
        graph (the tiler still holds the old indexing)."""
        seeds = set(self.tiler.tiles_reading(node))
        affected = self.tiler.on_node_moved(node)
        seeds |= affected
        return self._after_churn(node, "move", tuple(sorted(seeds)), affected | seeds)

    def note_joined(self, node: Node) -> InvalidationReport:
        """Re-stitch after the caller already added ``node``."""
        affected = self.tiler.on_node_added(node)
        return self._after_churn(node, "join", tuple(sorted(affected)), affected)

    def note_left(self, node: Node) -> InvalidationReport:
        """Re-stitch after the caller already removed ``node``."""
        seeds = self.tiler.tiles_reading(node)
        return self._after_churn(node, "leave", seeds, self.tiler.on_node_removed(node))

    def _after_churn(
        self,
        node: Node,
        event: str,
        seeds,
        pending: Set[TileId],
    ) -> InvalidationReport:
        with self.tracer.span("shard_invalidate", event=event) as span:
            touched, rounds = self._stitch(set(pending), "churn")
            seed_tuple = tuple(sorted(set(seeds)))
            cascaded = tuple(sorted(touched - set(seed_tuple)))
            span.set_attr("seed_tiles", len(seed_tuple))
            span.set_attr("rebuilt", len(touched))
            span.set_attr("cascaded", len(cascaded))
        if self.registry is not None:
            self.registry.counter(
                "shard_invalidations_total",
                "Churn events absorbed by boundary-only re-stitching",
                event=event,
            ).inc()
            if cascaded:
                self.registry.counter(
                    "shard_cascade_tiles_total",
                    "Tiles re-stitched beyond the churn seeds",
                ).inc(len(cascaded))
        return InvalidationReport(
            node=node,
            event=event,
            seed_tiles=seed_tuple,
            rebuilt=tuple(sorted(touched)),
            cascaded=cascaded,
            rounds=rounds,
        )


def build_sharded(
    graph: UnitDiskGraph,
    config: Optional[ShardConfig] = None,
    *,
    registry=None,
    tracer=None,
) -> BackboneResult:
    """Build Algorithm II's backbone by tiling and stitching.

    A drop-in twin of ``algorithm2_centralized`` — same inputs, same
    preconditions (non-empty, connected), identical output sets — that
    computes per tile and exchanges only frontier state.
    """
    return ShardedBackbone(
        graph, config, registry=registry, tracer=tracer
    ).result()


def gentle_moves(
    graph: UnitDiskGraph, tiler: Tiler, seed: int, count: int
) -> Iterator[Tuple[Node, Point]]:
    """Gentle churn: up to ``count`` small edge-preserving displacements
    of tile-interior nodes (at least one halo width away from every
    tile boundary).

    Gentle means topologically silent — the common case for mobile
    nodes between connectivity events.  Such moves must stay inside
    the tiles that read the moved node; any larger blast radius is an
    invalidation bug.  Moves that do flip edges may legitimately
    ripple further (the stitched result must track the global
    construction), so they are never drawn here.

    Each move is checked against ``graph`` as it stands when the move
    is yielded, so the caller may apply every move before drawing the
    next one.
    """
    rng = random.Random(seed)
    candidates = [
        node
        for tile in tiler.tiles()
        for node in tiler.interior(tile)
        if not tiler.consumers(node)
    ]
    if not candidates:
        # Tiles narrower than two halo widths have no interior band;
        # fall back to nodes read only by their owner, whose moves are
        # single-tile events just the same.
        candidates = [
            node
            for node in canonical_order(graph.positions)
            if not tiler.consumers(node)
        ]
    if not candidates:
        return
    amplitude = 0.05 * graph.radius
    drawn = 0
    for _ in range(count * 50):
        if drawn == count:
            return
        node = candidates[rng.randrange(len(candidates))]
        pos = graph.positions[node]
        target = Point(
            pos.x + rng.uniform(-amplitude, amplitude),
            pos.y + rng.uniform(-amplitude, amplitude),
        )
        if _edge_preserving(graph, node, target, amplitude):
            drawn += 1
            yield node, target


def _edge_preserving(
    graph: UnitDiskGraph, node: Node, target: Point, amplitude: float
) -> bool:
    """True when moving ``node`` to ``target`` flips no unit-disk edge.

    Only nodes within ``radius + 2 * amplitude`` of the current
    position can cross the threshold (a jitter of ``amplitude`` per
    axis moves the node less than that), so the check is O(local
    density).
    """
    pos = graph.positions[node]
    for w in graph.nodes_within(pos, graph.radius + 2.0 * amplitude):
        if w == node:
            continue
        other = graph.positions[w]
        before = pos.distance_to(other) <= graph.radius
        after = target.distance_to(other) <= graph.radius
        if before != after:
            return False
    return True
