"""Certified optima: the one front door to the oracle hierarchy.

:func:`certified_optimum` picks the strongest engine the instance size
allows and always returns an :class:`OptimalityCertificate` whose
``lower <= opt <= upper`` sandwich is *proven*, never estimated:

* n <= ``exact_nodes`` — the branch & bound of :mod:`repro.opt.exact`
  (LP-strengthened above 18 nodes);
* beyond — the sandwich: ``max(2-hop packing, ceil(LP root))`` below,
  the greedy-MWDS / 2-hop-Steiner heuristics above.

A certificate is *certified* when the sandwich closes
(``lower == upper``); ratio benchmarks divide measured backbone sizes
by ``lower`` to get a conservative (never flattering) empirical ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Hashable, Optional

from repro.graphs.graph import Graph
from repro.opt._scipy import resolve_lp
from repro.opt.exact import (
    PROBLEMS,
    SearchLimitExceeded,
    SearchStats,
    opt_minimum,
)
from repro.opt.heuristics import (
    greedy_mwds,
    greedy_mwds_wcds,
    two_hop_packing,
)
from repro.opt.lp import lp_domination_bound, lp_lower_bound

Node = Hashable

#: Default exact-oracle ceiling for the LP-pruned branch & bound.
DEFAULT_EXACT_NODES = 60

#: Node-expansion budget guarding CI runs against pathological
#: instances; generous for the benchmark densities.
DEFAULT_NODE_LIMIT = 5_000_000


@dataclass(frozen=True)
class OptimalityCertificate:
    """A proven bound sandwich for one problem on one graph."""

    problem: str
    num_nodes: int
    lower: int
    upper: int
    method: str
    #: An optimal witness set when certified, else the best upper
    #: witness available (a valid dominating/WCDS/CDS set).
    witness: FrozenSet[Node] = frozenset()
    lower_method: str = ""
    upper_method: str = ""
    stats: Optional[SearchStats] = None

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise ValueError(
                f"certificate inverted: lower {self.lower} > upper {self.upper}"
            )

    @property
    def certified(self) -> bool:
        """Whether the sandwich closed (the optimum is known exactly)."""
        return self.lower == self.upper

    @property
    def optimum(self) -> Optional[int]:
        """The exact optimum, or None when only the sandwich is known."""
        return self.lower if self.certified else None

    def ratio_of(self, size: int) -> float:
        """Conservative empirical ratio of a measured backbone size."""
        return size / self.lower

    def to_dict(self) -> Dict[str, Any]:
        return {
            "problem": self.problem,
            "num_nodes": self.num_nodes,
            "lower": self.lower,
            "upper": self.upper,
            "certified": self.certified,
            "optimum": self.optimum,
            "method": self.method,
            "lower_method": self.lower_method,
            "upper_method": self.upper_method,
        }


def certified_optimum(
    graph: Graph,
    problem: str = "wcds",
    *,
    exact_nodes: int = DEFAULT_EXACT_NODES,
    lp: str = "auto",
    node_limit: Optional[int] = DEFAULT_NODE_LIMIT,
    registry: Any = None,
    tracer: Any = None,
) -> OptimalityCertificate:
    """The strongest certificate the instance size allows.

    ``exact_nodes`` caps the LP-pruned branch & bound; above it (or
    when ``node_limit`` expansions run out) the heuristic sandwich is
    returned instead of an exact optimum.  ``registry``/``tracer`` are
    optional :mod:`repro.obs` handles mirroring the search counters.
    """
    if problem not in PROBLEMS:
        raise ValueError(f"unknown problem {problem!r}; expected one of {PROBLEMS}")
    with _tracer_of(tracer).span(
        "opt.certify", problem=problem, n=graph.num_nodes
    ):
        certificate = _certify(graph, problem, exact_nodes, lp, node_limit)
    _record(registry, certificate)
    return certificate


def _certify(
    graph: Graph,
    problem: str,
    exact_nodes: int,
    lp: str,
    node_limit: Optional[int],
) -> OptimalityCertificate:
    n = graph.num_nodes
    if n <= exact_nodes:
        stats = SearchStats()
        try:
            witness = opt_minimum(
                graph, problem, lp=lp, node_limit=node_limit, stats=stats
            )
        except SearchLimitExceeded:
            return _sandwich(graph, problem, lp, stats)
        return OptimalityCertificate(
            problem=problem,
            num_nodes=n,
            lower=len(witness),
            upper=len(witness),
            method="lp-bb",
            witness=frozenset(witness),
            lower_method="lp-bb",
            upper_method="lp-bb",
            stats=stats,
        )
    return _sandwich(graph, problem, lp, None)


def _sandwich(
    graph: Graph,
    problem: str,
    lp: str,
    stats: Optional[SearchStats],
) -> OptimalityCertificate:
    packing = len(two_hop_packing(graph))
    lower = packing
    lower_method = "2hop-packing"
    if resolve_lp(lp):
        value = lp_domination_bound(graph)
        if not math.isinf(value):
            lp_bound = lp_lower_bound(value)
            if lp_bound > lower:
                lower = lp_bound
                lower_method = "lp-root"
    if problem == "mds":
        witness = greedy_mwds(graph)
        upper_method = "greedy-mwds"
    elif problem == "cds":
        # 2-hop Steiner connection is only weakly connected; the CDS
        # upper witness must induce a connected subgraph.
        from repro.baselines.mis_cds import mis_tree_cds

        witness = mis_tree_cds(graph)
        upper_method = "mis-tree"
    else:
        witness = greedy_mwds_wcds(graph)
        upper_method = "greedy-mwds+2hop-steiner"
    upper = len(witness)
    return OptimalityCertificate(
        problem=problem,
        num_nodes=graph.num_nodes,
        lower=min(lower, upper),
        upper=upper,
        method="sandwich",
        witness=frozenset(witness),
        lower_method=lower_method,
        upper_method=upper_method,
        stats=stats,
    )


def _record(registry: Any, certificate: OptimalityCertificate) -> None:
    if registry is None:
        return
    labels = {"problem": certificate.problem}
    registry.counter(
        "opt_certificates_total", "optimality certificates issued", **labels
    ).inc()
    stats = certificate.stats
    if stats is None:
        return
    registry.counter(
        "opt_search_nodes_total", "branch & bound nodes expanded", **labels
    ).inc(stats.nodes_expanded)
    registry.counter(
        "opt_lp_solves_total", "LP relaxations solved", **labels
    ).inc(stats.lp_calls)
    for kind, count in sorted(stats.prune_counts.items()):
        registry.counter(
            "opt_prunes_total", "admissible-bound prunes",
            problem=certificate.problem, kind=kind,
        ).inc(count)


def _tracer_of(tracer: Any) -> Any:
    if tracer is None:
        from repro.obs.tracing import NullTracer

        return NullTracer()
    return tracer
