"""S2 clean twin, runtime shape: op handlers only read the shared rows."""


def _init(worker, radius):
    return {"radius": radius}


def _load(worker, state, row):
    return _read(worker.shared, row)


def _read(shared, row):
    return float(shared.array[row, 0]) + float(shared.array[row, 1])


TILE_OPS = {"init": _init, "load": _load}


def serve(pool, graph):
    pool.start_workers(graph, 1, TILE_OPS, 1.0)
