"""S1 clean twin, runtime shape: workers get plain data to build from."""


def _init(worker, radius):
    return radius


TILE_OPS = {"init": _init}


def serve(pool, graph):
    pool.start_workers(graph, 1, TILE_OPS, graph.radius)
