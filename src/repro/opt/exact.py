"""LP-strengthened branch & bound for minimum MDS / WCDS / CDS.

Iterative deepening over the target size ``k``, branching on the
closed neighborhood of an undominated pivot (one of its members must
join any dominating set), engineered for n ≈ 60–100 on unit-disk
graphs:

* subsets are integer bitmasks (:mod:`repro.opt.bitset`), making node
  expansion and the transposition table an order of magnitude cheaper;
* four admissible pruning bounds layer on top of the branching:

  1. **packing** — a greedily-built 2-hop-separated subset of the
     undominated nodes has pairwise-disjoint closed neighborhoods, so
     each member needs its own new dominator;
  2. **coverage** — no remaining candidate covers more than
     ``max_v |N[v] ∩ undominated|`` nodes (the tightened form of the
     global ``Δ+1`` bound);
  3. **connectivity** — with ``c >= 2`` weakly-induced components,
     every component needs a *new* node within reach (two hops for
     WCDS, one for CDS), one node touches at most ``t_max``
     components, and a component at hop distance ``d`` from the rest
     needs ``floor((d-1)/2)`` (WCDS) / ``d-1`` (CDS) bridge nodes;
  4. **LP** — the fractional optimum of the restricted domination LP
     with component-touch rows (:mod:`repro.opt.lp`), solved at
     shallow depth and at deep nodes where the combinatorial bounds
     are within one of pruning already.  ``lp="auto"`` skips it on
     graphs of at most 18 nodes, where a solver call costs more than
     it prunes;

* once every node is dominated, glue candidates are restricted to the
  reach of the current selection — complete, because the square graph
  (WCDS) or induced graph (CDS) of any feasible superset is connected.

The pruning bounds never exclude a feasible completion and never
reorder branching, so the returned set is **bit-identical** with and
without LP pruning (and with scipy absent); only the node count
changes.  The tests check the sizes against a from-scratch subset
enumeration that shares no code with this search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

from repro.graphs.graph import Graph
from repro.graphs.traversal import is_connected
from repro.opt._scipy import resolve_lp
from repro.opt.bitset import BitsetGraph, iter_bits, popcount
from repro.opt.lp import (
    LP_TOLERANCE,
    fractional_domination,
    lp_lower_bound,
)

Node = Hashable

#: The three covered problems, in oracle-hierarchy order:
#: |MDS| <= |MWCDS| <= |MCDS|.
PROBLEMS: Tuple[str, ...] = ("mds", "wcds", "cds")

#: ``lp="auto"`` solves no LP on graphs of at most this many nodes:
#: there the combinatorial bounds alone finish faster (about 15x on the
#: n <= 18 corpus of the tests) than the solver calls pay back.
_LP_AUTO_MIN_NODES = 18

#: LP pruning fires whenever the search depth is at most this.
_LP_SHALLOW_DEPTH = 2
#: ... or when the remaining budget is at most this and a combinatorial
#: bound already came within one of pruning (the marginal frontier,
#: where fractional tightening pays for the solver call).
_LP_DEEP_BUDGET = 4


class SearchLimitExceeded(RuntimeError):
    """The node-expansion budget ran out before the search finished."""


@dataclass
class SearchStats:
    """Instrumentation record of one branch & bound run."""

    problem: str = ""
    num_nodes: int = 0
    nodes_expanded: int = 0
    lp_calls: int = 0
    lp_prunes: int = 0
    packing_prunes: int = 0
    coverage_prunes: int = 0
    connectivity_prunes: int = 0
    deepening_steps: int = 0
    root_lp_value: Optional[float] = None
    optimum: Optional[int] = None
    prune_counts: Dict[str, int] = field(default_factory=dict)

    def finalize(self) -> None:
        self.prune_counts = {
            "lp": self.lp_prunes,
            "packing": self.packing_prunes,
            "coverage": self.coverage_prunes,
            "connectivity": self.connectivity_prunes,
        }


def opt_minimum_dominating_set(
    graph: Graph,
    *,
    max_size: Optional[int] = None,
    lp: str = "auto",
    node_limit: Optional[int] = None,
    stats: Optional[SearchStats] = None,
) -> Set[Node]:
    """A minimum dominating set (no connectivity requirement)."""
    if graph.num_nodes == 0:
        return set()
    return _solve(graph, "mds", max_size, lp, node_limit, stats)


def opt_minimum_wcds(
    graph: Graph,
    *,
    max_size: Optional[int] = None,
    lp: str = "auto",
    node_limit: Optional[int] = None,
    stats: Optional[SearchStats] = None,
) -> Set[Node]:
    """A minimum weakly-connected dominating set of a connected graph."""
    _require_connected(graph)
    return _solve(graph, "wcds", max_size, lp, node_limit, stats)


def opt_minimum_cds(
    graph: Graph,
    *,
    max_size: Optional[int] = None,
    lp: str = "auto",
    node_limit: Optional[int] = None,
    stats: Optional[SearchStats] = None,
) -> Set[Node]:
    """A minimum connected dominating set of a connected graph."""
    _require_connected(graph)
    return _solve(graph, "cds", max_size, lp, node_limit, stats)


def opt_minimum(
    graph: Graph,
    problem: str,
    *,
    max_size: Optional[int] = None,
    lp: str = "auto",
    node_limit: Optional[int] = None,
    stats: Optional[SearchStats] = None,
) -> Set[Node]:
    """Dispatch by problem name (one of :data:`PROBLEMS`)."""
    if problem == "mds":
        return opt_minimum_dominating_set(
            graph, max_size=max_size, lp=lp, node_limit=node_limit, stats=stats
        )
    if problem == "wcds":
        return opt_minimum_wcds(
            graph, max_size=max_size, lp=lp, node_limit=node_limit, stats=stats
        )
    if problem == "cds":
        return opt_minimum_cds(
            graph, max_size=max_size, lp=lp, node_limit=node_limit, stats=stats
        )
    raise ValueError(f"unknown problem {problem!r}; expected one of {PROBLEMS}")


def _require_connected(graph: Graph) -> None:
    if graph.num_nodes == 0:
        raise ValueError("minimum set of an empty graph is undefined")
    if not is_connected(graph):
        raise ValueError("the graph must be connected")


def _solve(
    graph: Graph,
    problem: str,
    max_size: Optional[int],
    lp: str,
    node_limit: Optional[int],
    stats: Optional[SearchStats],
) -> Set[Node]:
    bitset_graph = BitsetGraph.from_graph(graph)
    lp_enabled = resolve_lp(lp) and (
        lp == "on" or bitset_graph.num_nodes > _LP_AUTO_MIN_NODES
    )
    search = _Search(
        bitset_graph,
        problem,
        lp_enabled=lp_enabled,
        node_limit=node_limit,
        stats=stats if stats is not None else SearchStats(),
    )
    mask = search.solve(max_size)
    return bitset_graph.members(mask)


class _Search:
    """One branch & bound instance over a frozen bitset graph."""

    def __init__(
        self,
        bitset_graph: BitsetGraph,
        problem: str,
        *,
        lp_enabled: bool,
        node_limit: Optional[int],
        stats: SearchStats,
    ) -> None:
        self.graph = bitset_graph
        self.problem = problem
        self.lp_enabled = lp_enabled
        self.node_limit = node_limit
        self.stats = stats
        stats.problem = problem
        stats.num_nodes = bitset_graph.num_nodes
        self.closed = bitset_graph.closed
        # "Reach" is the relation under which the selection must end up
        # connected: two hops (shared neighbor = black path) for WCDS,
        # adjacency for CDS, irrelevant for the plain MDS.
        self.reach = (
            bitset_graph.closed2 if problem == "wcds" else bitset_graph.closed
        )
        self.full = bitset_graph.full
        self.n = bitset_graph.num_nodes

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------
    def solve(self, max_size: Optional[int]) -> int:
        limit = max_size if max_size is not None else self.n
        start = 1
        if self.lp_enabled:
            value = self._lp(self.full, 0, ())
            self.stats.root_lp_value = value
            if not math.isinf(value):
                start = max(1, lp_lower_bound(value))
        for budget in range(start, limit + 1):
            self.stats.deepening_steps += 1
            found = self._search(0, 0, budget, set(), 0)
            if found is not None:
                self.stats.optimum = popcount(found)
                self.stats.finalize()
                return found
        self.stats.finalize()
        raise RuntimeError(f"no feasible set of size <= {limit} exists")

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def _search(
        self,
        selected: int,
        dominated: int,
        budget: int,
        seen: Set[int],
        depth: int,
    ) -> Optional[int]:
        if selected in seen:
            return None
        seen.add(selected)
        self.stats.nodes_expanded += 1
        if (
            self.node_limit is not None
            and self.stats.nodes_expanded > self.node_limit
        ):
            raise SearchLimitExceeded(
                f"{self.problem} search exceeded {self.node_limit} node "
                f"expansions at n={self.n}"
            )
        undominated = self.full & ~dominated
        components: List[int] = []
        connectivity_floor = 0
        if self.problem != "mds" and selected:
            components = self._components(selected)
            if len(components) > 1:
                connectivity_floor = self._connectivity_bound(
                    selected, components
                )
                if connectivity_floor > budget:
                    self.stats.connectivity_prunes += 1
                    return None
        if not undominated:
            if selected and len(components) <= 1:
                return selected
            return self._glue(selected, dominated, budget, seen, depth)
        if budget == 0:
            return None
        packing = self._packing_bound(undominated)
        if packing > budget:
            self.stats.packing_prunes += 1
            return None
        best_cover = self._best_coverage(selected, undominated)
        if budget * best_cover < popcount(undominated):
            self.stats.coverage_prunes += 1
            return None
        if self.lp_enabled and (
            depth <= _LP_SHALLOW_DEPTH
            or (
                budget <= _LP_DEEP_BUDGET
                and max(packing, connectivity_floor) >= budget - 1
            )
        ):
            touch_rows: Sequence[int] = (
                self._touch_rows(selected, components)
                if len(components) > 1
                else ()
            )
            value = self._lp(undominated, selected, touch_rows)
            if math.isinf(value) or budget < lp_lower_bound(value):
                self.stats.lp_prunes += 1
                return None
        pivot = self._pivot(undominated)
        for candidate in iter_bits(self.closed[pivot] & ~selected):
            found = self._search(
                selected | (1 << candidate),
                dominated | self.closed[candidate],
                budget - 1,
                seen,
                depth + 1,
            )
            if found is not None:
                return found
        return None

    def _glue(
        self,
        selected: int,
        dominated: int,
        budget: int,
        seen: Set[int],
        depth: int,
    ) -> Optional[int]:
        """Dominating but disconnected: spend budget on glue nodes.

        Candidates are restricted to the reach of the current selection
        — complete, because the reach graph of any feasible superset is
        connected, so its members can always be ordered with each new
        node within reach of the ones before it.
        """
        if budget == 0 or not selected:
            return None
        reach_mask = 0
        for i in iter_bits(selected):
            reach_mask |= self.reach[i]
        for candidate in iter_bits(reach_mask & ~selected):
            found = self._search(
                selected | (1 << candidate),
                dominated | self.closed[candidate],
                budget - 1,
                seen,
                depth + 1,
            )
            if found is not None:
                return found
        return None

    # ------------------------------------------------------------------
    # Bounds (all admissible: they never exclude a feasible completion)
    # ------------------------------------------------------------------
    def _components(self, selected: int) -> List[int]:
        """Connected components of the selection under the reach
        relation, each as a bitmask."""
        components: List[int] = []
        rest = selected
        while rest:
            seed = rest & -rest
            component = seed
            frontier = seed
            while frontier:
                expanded = 0
                for i in iter_bits(frontier):
                    expanded |= self.reach[i]
                fresh = expanded & selected & ~component
                component |= fresh
                frontier = fresh
            components.append(component)
            rest &= ~component
        return components

    def _connectivity_bound(self, selected: int, components: List[int]) -> int:
        """Min new nodes any weakly/strongly connected completion needs."""
        touch_rows = self._touch_rows(selected, components)
        candidates = self.full & ~selected
        t_max = 1
        for v in iter_bits(candidates):
            bit = 1 << v
            touches = sum(1 for row in touch_rows if row & bit)
            if touches > t_max:
                t_max = touches
        cover = -(-len(components) // t_max)
        floor = 0
        distances = self.graph.distances
        for component in components:
            others = selected & ~component
            nearest = -1
            for i in iter_bits(component):
                row = distances[i]
                for j in iter_bits(others):
                    d = row[j]
                    if d >= 0 and (nearest < 0 or d < nearest):
                        nearest = d
            if nearest >= 0:
                need = (
                    (nearest - 1) // 2 if self.problem == "wcds" else nearest - 1
                )
                if need > floor:
                    floor = need
        return max(cover, floor, 1)

    def _touch_rows(self, selected: int, components: List[int]) -> List[int]:
        """Per-component masks of new nodes within reach: any feasible
        completion picks at least one from each."""
        rows: List[int] = []
        for component in components:
            reach_mask = 0
            for i in iter_bits(component):
                reach_mask |= self.reach[i]
            rows.append(reach_mask & ~selected)
        return rows

    def _packing_bound(self, undominated: int) -> int:
        """Greedy 2-hop-separated packing of undominated nodes: their
        closed neighborhoods are disjoint, so each needs its own new
        dominator."""
        closed2 = self.graph.closed2
        blocked = 0
        count = 0
        mask = undominated
        while mask:
            low = mask & -mask
            i = low.bit_length() - 1
            mask ^= low
            if not (blocked & low):
                blocked |= closed2[i]
                count += 1
        return count

    def _best_coverage(self, selected: int, undominated: int) -> int:
        """Max undominated coverage of any remaining candidate — the
        tightened, locally-restricted form of the Δ+1 bound."""
        best = 0
        for i in iter_bits(self.full & ~selected):
            cover = popcount(self.closed[i] & undominated)
            if cover > best:
                best = cover
        return best

    def _pivot(self, undominated: int) -> int:
        """The undominated node with the fewest closed neighbors (ties
        to the canonically-first, since iteration is ascending)."""
        pivot = -1
        best = self.n + 2
        for i in iter_bits(undominated):
            size = popcount(self.closed[i])
            if size < best:
                best = size
                pivot = i
        return pivot

    def _lp(
        self, undominated: int, selected: int, touch_rows: Sequence[int]
    ) -> float:
        self.stats.lp_calls += 1
        return fractional_domination(
            self.graph,
            undominated=undominated,
            banned=selected,
            touch_rows=touch_rows,
        )


#: Re-exported so callers can interpret LP values consistently.
__all__ = [
    "LP_TOLERANCE",
    "PROBLEMS",
    "SearchLimitExceeded",
    "SearchStats",
    "opt_minimum",
    "opt_minimum_cds",
    "opt_minimum_dominating_set",
    "opt_minimum_wcds",
]
