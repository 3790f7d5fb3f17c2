"""Cross-validation against independent oracles (networkx and brute
force) on arbitrary graphs — not just unit-disk instances.

The library's own validators are used inside its tests, so these checks
re-derive the same predicates from scratch to rule out a validator bug
masking an algorithm bug.
"""

import itertools

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import Graph
from repro.mis import (
    greedy_mis,
    is_dominating_set,
    is_independent_set,
    is_maximal_independent_set,
)
from repro.wcds import (
    is_weakly_connected_dominating_set,
    weakly_induced_subgraph,
)

edge_lists = st.lists(
    st.tuples(st.integers(0, 10), st.integers(0, 10)).filter(lambda e: e[0] != e[1]),
    min_size=1,
    max_size=25,
)


def _connected_graph(edges):
    g = Graph(edges=edges)
    nx_g = g.to_networkx()
    if not nx.is_connected(nx_g):
        # Take the largest component to get a connected instance.
        component = max(nx.connected_components(nx_g), key=len)
        g = g.subgraph(component)
    return g


class TestPredicateOracles:
    @given(edge_lists)
    @settings(max_examples=60)
    def test_wcds_predicate_matches_first_principles(self, edges):
        g = _connected_graph(edges)
        nodes = sorted(g.nodes())
        # Try a handful of candidate subsets including edge cases.
        candidates = [set(nodes), {nodes[0]}, set(nodes[: len(nodes) // 2 + 1])]
        for candidate in candidates:
            expected = _wcds_oracle(g, candidate)
            assert is_weakly_connected_dominating_set(g, candidate) == expected

    @given(edge_lists)
    @settings(max_examples=60)
    def test_mis_predicates_match_networkx(self, edges):
        g = _connected_graph(edges)
        mis = greedy_mis(g)
        nx_g = g.to_networkx()
        # networkx's checks of the same set.
        assert is_independent_set(g, mis) == (
            nx_g.subgraph(mis).number_of_edges() == 0
        )
        assert is_dominating_set(g, mis) == nx.is_dominating_set(nx_g, mis)
        assert is_maximal_independent_set(g, mis)

    @given(edge_lists)
    @settings(max_examples=40)
    def test_greedy_mis_on_general_graphs(self, edges):
        # The marking loop never relied on unit-disk geometry: it must
        # produce a valid MIS on ANY graph.
        g = _connected_graph(edges)
        mis = greedy_mis(g)
        nx_g = g.to_networkx()
        assert nx.is_dominating_set(nx_g, mis)
        assert nx_g.subgraph(mis).number_of_edges() == 0

    @given(edge_lists)
    @settings(max_examples=40)
    def test_weakly_induced_subgraph_oracle(self, edges):
        g = _connected_graph(edges)
        nodes = sorted(g.nodes())
        dominators = set(nodes[::2])
        sub = weakly_induced_subgraph(g, dominators)
        expected_edges = {
            frozenset(e)
            for e in g.edges()
            if e[0] in dominators or e[1] in dominators
        }
        assert {frozenset(e) for e in sub.edges()} == expected_edges
        assert set(sub.nodes()) == set(g.nodes())


class TestExactSolverOracle:
    @given(edge_lists)
    @settings(max_examples=10, deadline=None)
    def test_exact_wcds_matches_exhaustive_search(self, edges):
        from repro.opt import opt_minimum_wcds

        g = _connected_graph(edges)
        if g.num_nodes > 9:
            g = g.subgraph(sorted(g.nodes())[:9])
            g = _connected_graph(list(g.edges())) if g.num_edges else g
        if g.num_nodes < 2:
            return
        opt = len(opt_minimum_wcds(g))
        nodes = sorted(g.nodes())
        brute = next(
            k
            for k in range(1, len(nodes) + 1)
            if any(
                _wcds_oracle(g, set(combo))
                for combo in itertools.combinations(nodes, k)
            )
        )
        assert opt == brute


def _wcds_oracle(g: Graph, candidate) -> bool:
    """WCDS predicate rebuilt from the definition, via networkx."""
    if not candidate:
        return g.num_nodes == 0
    nx_g = g.to_networkx()
    if not nx.is_dominating_set(nx_g, candidate):
        return False
    black = nx.Graph()
    black.add_nodes_from(nx_g.nodes())
    black.add_edges_from(
        (u, v)
        for u, v in nx_g.edges()
        if u in candidate or v in candidate
    )
    return nx.is_connected(black)
