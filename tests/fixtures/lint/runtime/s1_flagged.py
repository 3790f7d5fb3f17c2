"""S1 fixture, runtime shape: a lock handed to the workers' ``init``.

``start_workers`` pickles its worker arguments into every spawn child
exactly as ``Process(args=...)`` would; a lock does not survive it.
"""

import threading


def _init(worker, lock):
    return lock


TILE_OPS = {"init": _init}


def serve(pool, graph):
    pool.start_workers(graph, 1, TILE_OPS, threading.Lock())
