"""Experiments F2a/F2b — Figure 2: a WCDS and its weakly induced graph.

A WCDS can be disconnected as a set while its black edges connect the
network — the relaxation that makes |MWCDS| ≤ |MCDS|.
"""

from __future__ import annotations

from repro.experiments.base import Rows, checker, register
from repro.graphs import connected_random_udg, paper_figure2_udg
from repro.opt.exact import opt_minimum_cds, opt_minimum_wcds
from repro.wcds import is_weakly_connected_dominating_set, weakly_induced_subgraph


@register(
    "F2a",
    "The paper's Figure 2 scenario",
    "{1, 2} is a WCDS that is not a CDS on the Figure 2 network.",
)
def run_figure2() -> Rows:
    g = paper_figure2_udg()
    wcds = {1, 2}
    spanner = weakly_induced_subgraph(g, wcds)
    return [
        {
            "nodes": g.num_nodes,
            "udg_edges": g.num_edges,
            "wcds": "{1, 2}",
            "is_wcds": is_weakly_connected_dominating_set(g, wcds),
            "set_is_connected": g.has_edge(1, 2),
            "black_edges": spanner.num_edges,
        }
    ]


@checker("F2a")
def check_figure2(rows: Rows) -> None:
    (row,) = rows
    assert row["is_wcds"]
    assert not row["set_is_connected"]


@register(
    "F2b",
    "Exact MWCDS vs exact MCDS on random 12-node UDGs",
    "|MWCDS| <= |MCDS| always; strictly smaller on many instances.",
)
def run_mwcds_vs_mcds() -> Rows:
    rows = []
    strictly_smaller = 0
    for seed in range(10):
        g = connected_random_udg(12, 2.6, seed=seed)
        mwcds = len(opt_minimum_wcds(g))
        mcds = len(opt_minimum_cds(g))
        strictly_smaller += mwcds < mcds
        rows.append({"seed": seed, "n": 12, "MWCDS": mwcds, "MCDS": mcds})
    rows.append(
        {"seed": "total<", "n": "", "MWCDS": strictly_smaller, "MCDS": "of 10"}
    )
    return rows


@checker("F2b")
def check_mwcds_vs_mcds(rows: Rows) -> None:
    for row in rows[:-1]:
        assert row["MWCDS"] <= row["MCDS"]
