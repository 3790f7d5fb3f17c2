"""Cross-algorithm property tests: every construction, one topology.

For each sampled topology, run every backbone construction in the
library and assert the whole web of relations the paper's framework
implies between them — the strongest regression net in the suite,
because a bug in any one algorithm breaks a relation against the
others.
"""

import pytest
from hypothesis import given, settings

from repro.baselines import (
    gabriel_graph,
    greedy_cds,
    greedy_wcds,
    mis_tree_cds,
    relative_neighborhood_graph,
    wu_li_cds,
    wu_li_distributed,
)
from repro.graphs import is_connected
from repro.mis import (
    greedy_mis,
    is_dominating_set,
    is_independent_set,
)
from repro.opt import (
    opt_minimum_cds,
    opt_minimum_dominating_set,
    opt_minimum_wcds,
)
from repro.spanner import measure_dilation
from repro.wcds import (
    algorithm1_centralized,
    algorithm2_centralized,
    bounds,
    is_weakly_connected_dominating_set,
    weakly_induced_subgraph,
)

from tutils import dense_connected_udg, seeds


class TestEveryConstructionIsValid:
    @given(seeds)
    @settings(max_examples=12, deadline=None)
    def test_all_wcds_constructions(self, seed):
        g = dense_connected_udg(28, seed)
        for result in (
            algorithm1_centralized(g),
            algorithm2_centralized(g),
            greedy_wcds(g),
        ):
            assert is_weakly_connected_dominating_set(g, result.dominators)

    @given(seeds)
    @settings(max_examples=12, deadline=None)
    def test_all_cds_constructions(self, seed):
        g = dense_connected_udg(28, seed)
        for cds in (
            greedy_cds(g),
            wu_li_cds(g),
            mis_tree_cds(g),
            wu_li_distributed(g)[0],
        ):
            assert is_dominating_set(g, cds)
            assert is_connected(g.subgraph(cds))
            # Any CDS is also a WCDS.
            assert is_weakly_connected_dominating_set(g, cds)


class TestSizeRelations:
    @given(seeds)
    @settings(max_examples=6, deadline=None)
    def test_exact_sandwich_and_approximations(self, seed):
        g = dense_connected_udg(12, seed)
        mds = len(opt_minimum_dominating_set(g))
        mwcds = len(opt_minimum_wcds(g))
        mcds = len(opt_minimum_cds(g))
        assert mds <= mwcds <= mcds
        # Every construction respects its own bound against opt.
        assert algorithm1_centralized(g).size <= bounds.algorithm1_size_bound(mwcds)
        assert algorithm2_centralized(g).size <= bounds.algorithm2_size_bound(mwcds)
        assert greedy_wcds(g).size >= mwcds
        assert len(greedy_cds(g)) >= mcds
        assert len(wu_li_cds(g)) >= mcds

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_mis_relations(self, seed):
        g = dense_connected_udg(30, seed)
        mis = greedy_mis(g)
        alg1 = algorithm1_centralized(g)
        alg2 = algorithm2_centralized(g)
        # Both algorithms build MISs of the same graph: sizes within
        # the mutual 5x envelope, both independent dominating sets.
        assert is_independent_set(g, alg1.dominators)
        assert alg2.mis_dominators == frozenset(mis)
        assert len(alg1.dominators) <= 5 * len(mis)
        assert len(mis) <= 5 * len(alg1.dominators)
        # Algorithm II = its MIS plus connectors.
        assert alg2.size >= len(mis)


class TestSpannerRelations:
    @given(seeds)
    @settings(max_examples=8, deadline=None)
    def test_every_spanner_spans_and_is_subgraph(self, seed):
        g = dense_connected_udg(25, seed)
        alg2 = algorithm2_centralized(g)
        spanners = {
            "alg1": algorithm1_centralized(g).spanner(g),
            "alg2": alg2.spanner(g),
            "rng": relative_neighborhood_graph(g),
            "gabriel": gabriel_graph(g),
        }
        udg_edges = {frozenset(e) for e in g.edges()}
        for name, spanner in spanners.items():
            assert set(spanner.nodes()) == set(g.nodes()), name
            assert is_connected(spanner), name
            assert {frozenset(e) for e in spanner.edges()} <= udg_edges, name

    @given(seeds)
    @settings(max_examples=5, deadline=None)
    def test_bigger_backbone_never_loses_edges(self, seed):
        # Weakly induced subgraphs are monotone in the dominator set.
        g = dense_connected_udg(22, seed)
        alg2 = algorithm2_centralized(g)
        small = weakly_induced_subgraph(g, alg2.mis_dominators)
        large = weakly_induced_subgraph(g, alg2.dominators)
        assert {frozenset(e) for e in small.edges()} <= {
            frozenset(e) for e in large.edges()
        }

    @given(seeds)
    @settings(max_examples=5, deadline=None)
    def test_alg2_dilation_bound_pointwise(self, seed):
        g = dense_connected_udg(22, seed)
        alg2 = algorithm2_centralized(g)
        report = measure_dilation(g, alg2.spanner(g))
        assert report.hop_bound_holds
        assert report.geo_bound_holds
