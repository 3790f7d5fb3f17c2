"""Baseline algorithms the paper compares against (or that its claims
imply as comparators): greedy WCDS, greedy CDS, localized marking CDS,
and MIS-tree CDS.  Exact optima live in :mod:`repro.opt`."""

from repro.baselines.chen_liestman import greedy_wcds
from repro.baselines.guha_khuller import greedy_cds
from repro.baselines.wu_li import wu_li_cds
from repro.baselines.wu_li_distributed import (
    prune_simultaneous,
    wu_li_distributed,
)
from repro.baselines.mis_cds import mis_tree_cds
from repro.baselines.geometric_spanners import (
    gabriel_graph,
    relative_neighborhood_graph,
)

__all__ = [
    "greedy_wcds",
    "greedy_cds",
    "wu_li_cds",
    "prune_simultaneous",
    "wu_li_distributed",
    "mis_tree_cds",
    "gabriel_graph",
    "relative_neighborhood_graph",
]
