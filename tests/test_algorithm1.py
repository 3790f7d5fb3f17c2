"""Tests for Algorithm I: level-ranked MIS as a WCDS (Theorems 4, 5,
8; Lemma 7) — centralized and distributed."""

import pytest
from hypothesis import given, settings

from repro.graphs import Graph, grid_udg, is_connected, line_udg
from repro.mis import (
    complementary_subsets_within,
    is_maximal_independent_set,
    max_mis_neighbors,
)
from repro.opt import opt_minimum_wcds
from repro.sim import SimConfig, UniformLatency
from repro.spanner import classify_black_edges
from repro.wcds import (
    algorithm1_centralized,
    algorithm1_distributed,
    bounds,
    is_weakly_connected_dominating_set,
)

from tutils import dense_connected_udg, seeds


class TestCentralized:
    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_result_is_mis_and_wcds(self, seed):
        g = dense_connected_udg(30, seed)
        result = algorithm1_centralized(g)
        assert is_maximal_independent_set(g, set(result.dominators))
        assert is_weakly_connected_dominating_set(g, result.dominators)

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_theorem4_two_hop_separation(self, seed):
        # The level-ranked MIS has every pair of complementary subsets
        # exactly two hops apart (Theorem 4) -> 2-hop overlay connected.
        g = dense_connected_udg(30, seed)
        result = algorithm1_centralized(g)
        assert complementary_subsets_within(g, set(result.dominators), 2)

    def test_root_always_selected(self, small_udg):
        result = algorithm1_centralized(small_udg)
        assert result.meta["leader"] in result.dominators
        assert result.meta["leader"] == min(small_udg.nodes())

    def test_explicit_root(self, small_udg):
        root = max(small_udg.nodes())
        result = algorithm1_centralized(small_udg, root=root)
        assert result.meta["leader"] == root
        assert root in result.dominators
        result.validate(small_udg)

    def test_single_node(self):
        g = Graph(nodes=[0])
        result = algorithm1_centralized(g)
        assert result.dominators == frozenset({0})

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError):
            algorithm1_centralized(Graph(nodes=[0, 1]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            algorithm1_centralized(Graph())

    def test_no_additional_dominators(self, small_udg):
        result = algorithm1_centralized(small_udg)
        assert result.additional_dominators == frozenset()


class TestDistributed:
    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_synchronous_matches_centralized(self, seed):
        g = dense_connected_udg(25, seed)
        assert (
            algorithm1_distributed(g).dominators
            == algorithm1_centralized(g).dominators
        )

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_async_still_yields_wcds_with_2hop_property(self, seed):
        # Under asynchrony the spanning tree may differ from BFS, but
        # Theorems 4/5 hold for ANY spanning-tree level ranking.
        g = dense_connected_udg(25, seed)
        result = algorithm1_distributed(
            g, sim=SimConfig(latency=UniformLatency(seed=seed))
        )
        assert is_weakly_connected_dominating_set(g, result.dominators)
        assert complementary_subsets_within(g, set(result.dominators), 2)

    def test_grid(self):
        g = grid_udg(5, 5)
        result = algorithm1_distributed(g)
        result.validate(g)

    def test_chain(self):
        g = line_udg(12)
        result = algorithm1_distributed(g)
        result.validate(g)

    def test_meta_contents(self, small_udg):
        result = algorithm1_distributed(small_udg)
        assert set(result.meta["levels"]) == set(small_udg.nodes())
        assert result.meta["levels"][result.meta["leader"]] == 0
        assert set(result.meta["phase_stats"]) == {"election", "levels", "marking"}

    def test_message_breakdown(self, small_udg):
        result = algorithm1_distributed(small_udg)
        stats = result.meta["phase_stats"]
        n = small_udg.num_nodes
        # Level phase: one LEVEL broadcast per node + one COMPLETE per
        # non-root node.
        assert stats["levels"].by_kind["LEVEL"] == n
        assert stats["levels"].by_kind["COMPLETE"] == n - 1
        # Marking: one declaration per node.
        assert stats["marking"].messages_sent == n
        assert result.meta["total_messages"] == sum(
            s.messages_sent for s in stats.values()
        )


class TestLemma7Ratio:
    @given(seeds)
    @settings(max_examples=8, deadline=None)
    def test_size_within_5x_optimum(self, seed):
        g = dense_connected_udg(12, seed)
        result = algorithm1_centralized(g)
        opt = len(opt_minimum_wcds(g))
        assert result.size <= bounds.algorithm1_size_bound(opt)


class TestTheorem8Sparsity:
    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_edge_bound(self, seed):
        g = dense_connected_udg(40, seed)
        result = algorithm1_centralized(g)
        counts = classify_black_edges(g, result)
        num_gray = len(result.gray_nodes(g))
        assert counts.total <= bounds.algorithm1_edge_bound(num_gray)

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_spanner_spans(self, seed):
        g = dense_connected_udg(30, seed)
        result = algorithm1_centralized(g)
        spanner = result.spanner(g)
        assert set(spanner.nodes()) == set(g.nodes())
        assert is_connected(spanner)
