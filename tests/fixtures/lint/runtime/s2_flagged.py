"""S2 fixture, runtime shape: a shared-array write inside an op handler.

The module starts no ``Process`` itself — the spawn-worker runtime runs
the handlers registered in ``TILE_OPS`` — yet ``_load`` still executes
on the far side of the spawn boundary, so its store corrupts state
every process reads.
"""


def _init(worker, radius):
    return {"radius": radius}


def _load(worker, state, row, x):
    _place(worker.shared, row, x)
    return row


def _place(shared, row, x):
    shared.array[row, 0] = x


TILE_OPS = {"init": _init, "load": _load}


def serve(pool, graph):
    pool.start_workers(graph, 1, TILE_OPS, 1.0)
