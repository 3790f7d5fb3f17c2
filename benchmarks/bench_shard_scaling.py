"""Sharded serving at scale: pool throughput and invalidation locality.

The shard subsystem's reason to exist, asserted here:

* two pool workers serve route queries at **>= 2x** the one-worker
  throughput (needs >= 3 usable CPUs, one per worker plus one for the
  dispatching parent — skipped otherwise; at the full ``n`` the split
  replica working set also halves per-process memory pressure, which
  is where multi-worker serving pays off);
* gentle (edge-preserving) interior churn re-stitches only the tiles
  reading the moved node: **zero cascaded tiles**, and at most the
  reading tiles rebuilt per event;
* the stitched backbone equals the global single-process construction
  (spot-checked here; the seed/tile-size sweep lives in
  ``tests/test_shard.py``).

``SHARD_SCALING_N`` scales the deployment (default 100000, a ~70-tile
multi-shard instance); CI runs a reduced size.  Deployments are
jittered square grids of ``isqrt(N)**2`` nodes: deterministic for a
seed, connected by construction (diagonal neighbors stay within the
radio radius at spacing 0.55 and 10% jitter), with the uniform density
both the paper's analysis and the tiling assume.
"""

import math
import os
import random
import time

import pytest

from bench_utils import show
from repro.graphs import perturbed_grid_udg
from repro.shard import ShardConfig, ShardServePool, gentle_moves

N = int(os.environ.get("SHARD_SCALING_N", "100000"))
TILE_SIZE = 12.0
SEED = 0
QUERIES = max(4096, min(16384, N // 8))


def _grid_deployment(n, seed):
    side = math.isqrt(n)
    return perturbed_grid_udg(
        side, side, spacing=0.55, jitter=0.1 * 0.55, seed=seed
    )


def _route_workload(pool, seed, count):
    """Intra-tile route queries: pairs of members of the same tile."""
    rng = random.Random(seed)
    tiles = pool.tiler.tiles()
    queries = []
    for _ in range(count):
        tile = tiles[rng.randrange(len(tiles))]
        owned = pool.tiler.owned(tile)
        u = owned[rng.randrange(len(owned))]
        v = owned[rng.randrange(len(owned))]
        queries.append(("route", u, v))
    return queries


def bench_pool(graph, workers, *, tile_size, queries, batch_size, seed):
    """Throughput of one pool configuration on the route workload."""
    config = ShardConfig(
        tile_size=tile_size, workers=workers, batch_size=batch_size
    )
    with ShardServePool(graph, config) as pool:
        tiles = len(pool.tiler.tiles())
        workload = _route_workload(pool, seed, queries)
        started = time.perf_counter()
        results = pool.query_batch(workload)
        serve_seconds = time.perf_counter() - started
    return {
        "workers": workers,
        "tiles": tiles,
        "answered": sum(1 for r in results if r is not None),
        "throughput_qps": queries / serve_seconds,
    }


def bench_invalidation(graph, *, tile_size, churn_events, seed):
    """Boundary-only invalidation under gentle interior churn."""
    config = ShardConfig(tile_size=tile_size, workers=0)
    with ShardServePool(graph, config) as pool:
        tiles = len(pool.tiler.tiles())
        reports = [
            pool.move(node, target)
            for node, target in gentle_moves(
                pool.graph, pool.tiler, seed, churn_events
            )
        ]
    return {
        "tiles": tiles,
        "churn_events": len(reports),
        "tiles_rebuilt": sum(len(r.rebuilt) for r in reports),
        "tiles_cascaded": sum(len(r.cascaded) for r in reports),
        "max_tiles_rebuilt_per_event": max(
            (len(r.rebuilt) for r in reports), default=0
        ),
    }


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


@pytest.fixture(scope="module")
def deployment():
    return _grid_deployment(N, seed=SEED)


def test_two_workers_double_throughput(benchmark, deployment):
    if _usable_cpus() < 3:
        pytest.skip(
            "worker scaling needs >= 3 usable CPUs (two workers plus the "
            "dispatching parent)"
        )
    one = bench_pool(
        deployment, 1, tile_size=TILE_SIZE, queries=QUERIES,
        batch_size=128, seed=SEED,
    )

    def two_workers():
        return bench_pool(
            deployment, 2, tile_size=TILE_SIZE, queries=QUERIES,
            batch_size=128, seed=SEED,
        )

    two = benchmark.pedantic(two_workers, rounds=1, iterations=1)
    scaling = two["throughput_qps"] / one["throughput_qps"]
    show(
        f"Shard pool scaling (n={deployment.num_nodes}, tile={TILE_SIZE}R)",
        [
            {
                "workers": entry["workers"],
                "tiles": entry["tiles"],
                "qps": round(entry["throughput_qps"], 1),
                "answered": entry["answered"],
            }
            for entry in (one, two)
        ]
        + [{"workers": "2 vs 1", "tiles": "", "qps": round(scaling, 2),
            "answered": ""}],
    )
    assert two["answered"] == one["answered"] == QUERIES
    assert scaling >= 2.0, (
        f"2-worker pool only {scaling:.2f}x the 1-worker throughput"
    )


def test_gentle_churn_is_boundary_only(deployment):
    report = bench_invalidation(
        deployment, tile_size=TILE_SIZE,
        churn_events=min(50, max(10, N // 2000)), seed=SEED,
    )
    show(f"Boundary-only invalidation (n={deployment.num_nodes})", [report])
    assert report["churn_events"] > 0, "no edge-preserving interior moves found"
    assert report["tiles_cascaded"] == 0, (
        "gentle churn re-stitched tiles beyond the ones reading the "
        f"moved node: {report}"
    )
    # Each event touches at most the moved node's reading tiles — far
    # fewer than the deployment's tiles.
    assert report["max_tiles_rebuilt_per_event"] <= 4
    assert report["tiles_rebuilt"] < report["tiles"] * report["churn_events"]


def test_sharded_matches_global_backbone():
    from repro.shard.stitch import build_sharded
    from repro.wcds.algorithm2 import algorithm2_centralized

    graph = _grid_deployment(min(N, 4000), seed=SEED)
    sharded = build_sharded(graph)
    oracle = algorithm2_centralized(graph)
    assert sharded.dominators == oracle.dominators
    assert sharded.mis_dominators == oracle.mis_dominators
