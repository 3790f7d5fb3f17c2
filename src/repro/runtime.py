"""The spawn-worker runtime under the fleet runner and the shard pool.

Algorithm II is local — its decisions look at most 2 hops away and its
connectors span at most 3 — so seed sweeps (:mod:`repro.sim.fleet`)
and tile replicas (:mod:`repro.shard.pool`) run in ``spawn`` worker
processes over one shared topology.  This module is the only place
that knows how:

* node positions are published once as a :class:`SharedPositions`
  float64 block, row ``i`` holding the ``i``-th node in canonical
  order; workers read it, only the parent writes it;
* every worker runs :func:`_worker_main`, which answers each
  ``(op, *args)`` message with ``(op, payload, frame)``;
* with a parent registry, each worker keeps a private registry and
  span recorder (:class:`Worker`) and piggybacks one
  :class:`~repro.obs.pipeline.TelemetryFrame` on every reply; the
  parent harvests the frames and stitches the spans;
* a worker that stops answering is counted
  (``<prefix>_worker_deaths_total``), flight-recorded
  (``worker_death``) and raised as ``RuntimeError``.

A user of the runtime subclasses :class:`WorkerPool` and hands
:meth:`WorkerPool.start_workers` an *op table*: a module-level dict
named ``*_OPS`` mapping op names to module-level handlers.  Its
``"init"`` entry builds the worker's state once,
``init(worker, *args) -> state``; every other entry answers one
message, ``handler(worker, state, *message_args) -> payload``.  The
runtime answers ``probe`` (the sanitizer's write probe), ``flush`` and
``close`` itself.  The ``*_OPS`` naming is what lets the S1–S3 lint
rules (:mod:`repro.check.rules.s_spawn`) find the handlers.
"""

from __future__ import annotations

import multiprocessing
from contextlib import contextmanager
from multiprocessing import shared_memory
from typing import (
    Any,
    Callable,
    ContextManager,
    Dict,
    Hashable,
    Iterator,
    List,
    Mapping,
    NoReturn,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.graphs.graph import canonical_order
from repro.graphs.udg import UnitDiskGraph
from repro.kernels._compat import require_numpy
from repro.obs.flightrec import flight_record
from repro.obs.pipeline import (
    SpanRecorder,
    TelemetryFrame,
    TelemetryHarvest,
    TraceContext,
    TraceStitcher,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import NULL_SPAN

__all__ = ["OpTable", "SharedPositions", "Worker", "WorkerPool"]

#: Op name -> module-level handler (see the module docstring).
OpTable = Mapping[str, Callable[..., Any]]

_Pool = TypeVar("_Pool", bound="WorkerPool")


class SharedPositions:
    """An ``(n, 2)`` float64 position array in shared memory.

    Created by the pool parent and attached (by name) from workers.
    Pickles as an attach handle, so it round-trips through ``spawn``
    process boundaries: the unpickled object maps the same memory.
    """

    def __init__(self, name: Optional[str], count: int, *, _create: bool = False):
        np = require_numpy()
        nbytes = max(count * 16, 16)
        if _create:
            self._shm = shared_memory.SharedMemory(create=True, size=nbytes)
        else:
            # Attachers here are always spawn children of the creator
            # (or the creating process itself, for pickle round-trips),
            # so they share the creator's resource tracker and the
            # register-on-attach in 3.11 is a no-op rather than the
            # premature-unlink hazard of python/cpython#82300.  The
            # creator's single ``unlink()`` is the one cleanup point.
            self._shm = shared_memory.SharedMemory(name=name)
        self.name = self._shm.name
        self.count = count
        self.array = np.ndarray((count, 2), dtype=np.float64, buffer=self._shm.buf)

    @classmethod
    def create(cls, coords: Sequence[Tuple[float, float]]) -> "SharedPositions":
        """Allocate a segment holding ``coords`` (row i = point i)."""
        shared = cls(None, len(coords), _create=True)
        for i, (x, y) in enumerate(coords):
            shared.array[i, 0] = x
            shared.array[i, 1] = y
        return shared

    @classmethod
    def attach(cls, name: str, count: int) -> "SharedPositions":
        """Map an existing segment by name."""
        return cls(name, count)

    def __reduce__(self) -> Tuple[Any, Tuple[str, int]]:
        return (SharedPositions.attach, (self.name, self.count))

    def protect(self) -> None:
        """Flip this process's view of the array to read-only.

        The sanitizer harness calls this in workers: the shared block
        is contractually read-only there (the parent owns churn), and a
        protected view turns any violating store into an immediate
        ``ValueError`` at the write site.  Per-process — the parent's
        own mapping stays writable.
        """
        if self.array is not None:
            self.array.flags.writeable = False

    def close(self) -> None:
        """Unmap the segment (the array becomes invalid)."""
        self.array = None
        self._shm.close()

    def unlink(self) -> None:
        """Destroy the segment (creator only, after all closes)."""
        self._shm.unlink()


class Worker:
    """What an op handler sees of its worker process.

    ``registry`` and ``spans`` exist only when the parent enabled
    telemetry.  :meth:`frame` snapshots the cumulative metric state
    plus the spans finished since the last frame: metrics are
    cumulative so a lost frame is harmless, spans are incremental so
    the stitcher never sees duplicates.
    """

    def __init__(self, label: str, shared: SharedPositions, telemetry: bool) -> None:
        self.label = label
        self.shared = shared
        self.registry: Optional[MetricsRegistry] = (
            MetricsRegistry() if telemetry else None
        )
        self.spans: Optional[SpanRecorder] = (
            SpanRecorder(label) if telemetry else None
        )
        self.seq = 0

    def span(
        self, name: str, parent: Optional[TraceContext], **attrs: Any
    ) -> ContextManager[Any]:
        """A span nested under the parent's dispatch (inert without
        telemetry)."""
        if self.spans is None:
            return NULL_SPAN
        # Handed back to the handler, which opens it in its own `with`.
        return self.spans.span(name, parent=parent, **attrs)  # repro: noqa[O3]

    def frame(self) -> Optional[TelemetryFrame]:
        """The frame that rides on the next reply, if telemetry is on."""
        if self.registry is None or self.spans is None:
            return None
        # Count the reply *before* capturing the frame so the in-flight
        # reply is included in its own snapshot — that is what makes
        # parent-side totals exact.
        self.registry.counter("worker_replies_total", "pipe replies sent").inc()
        self.seq += 1
        return TelemetryFrame.capture(
            self.label, self.seq, self.registry, spans=self.spans.drain()
        )


def _probe(shared: SharedPositions) -> Optional[str]:
    """Sanitizer probe: deliberately attempt the forbidden write so
    tests/CI can prove worker-side protection is armed."""
    try:
        shared.array[0, 0] = shared.array[0, 0]  # repro: noqa[S2]
    except (ValueError, TypeError) as exc:
        return type(exc).__name__
    return None


def _worker_main(
    conn: Any,
    shared: SharedPositions,
    label: str,
    telemetry: bool,
    ops: OpTable,
    args: Tuple[Any, ...],
) -> None:
    """Worker loop: build the state once, then answer messages.

    Module-level so the ``spawn`` start method can import it; all state
    arrives through the pipe or the shared position array.
    """
    from repro.check.sanitize import sanitizer_enabled

    if sanitizer_enabled():
        # Spawn children inherit the parent's environment, so the
        # sanitizer flag arms worker-side write protection here.
        shared.protect()
    worker = Worker(label, shared, telemetry)
    state = ops["init"](worker, *args)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            # Parent vanished (crash test, hard teardown): exit quietly
            # instead of spraying a traceback from the spawn bootstrap.
            return
        op = message[0]
        payload: Any = None
        if op == "probe":
            payload = _probe(shared)
        elif op not in ("flush", "close"):
            payload = ops[op](worker, state, *message[1:])
        try:
            conn.send((op, payload, worker.frame()))
        except OSError:
            return  # the parent vanished mid-reply
        if op == "close":
            break
    shared.close()
    conn.close()


class WorkerPool:
    """The parent side of the runtime: workers, pipes and telemetry.

    Subclasses set :attr:`prefix`, :attr:`noun` and :attr:`label`, and
    call :meth:`start_workers` when they want processes; without it
    they run inline and the worker plumbing stays idle.  With a
    ``registry`` the parent absorbs worker frames into it and stitches
    worker spans under its own dispatch spans (:meth:`export_trace`).
    """

    #: Metric prefix: ``<prefix>_worker_deaths_total``.
    prefix = "worker"
    #: How a death names the pool: ``"<noun> worker w0 died mid-<op>"``.
    noun = "worker pool"
    #: Worker label prefix: workers are ``<label>0``, ``<label>1``, ...
    label = "w"

    def __init__(self, registry: Optional[MetricsRegistry]) -> None:
        self.registry = registry
        self.telemetry = registry is not None
        self.spans: Optional[SpanRecorder] = None
        self.harvest: Optional[TelemetryHarvest] = None
        self.stitcher: Optional[TraceStitcher] = None
        if registry is not None:
            self.spans = SpanRecorder("parent")
            self.harvest = TelemetryHarvest(registry)
            self.stitcher = TraceStitcher()
        self.shared: Optional[SharedPositions] = None
        #: Row order of the shared block (canonical node order).
        self._nodes: List[Hashable] = []
        self._workers: List[Tuple[Any, Any]] = []  # (process, conn)

    def start_workers(
        self,
        graph: UnitDiskGraph,
        count: int,
        ops: OpTable,
        *args: Any,
        ready: Optional[Callable[[], None]] = None,
    ) -> None:
        """Publish the positions and spawn ``count`` workers running ``ops``.

        ``args`` go to each worker's ``init`` handler; ``ready`` runs
        once every worker is started (e.g. the initial replica loads).
        If anything fails on the way, every worker started so far is
        reaped and the shared segment unlinked before the error
        propagates.
        """
        require_numpy()
        try:
            ctx = multiprocessing.get_context("spawn")
            self._nodes = canonical_order(graph.positions)
            self.shared = SharedPositions.create(
                [(graph.positions[n].x, graph.positions[n].y) for n in self._nodes]
            )
            for i in range(count):
                parent_conn, child_conn = ctx.Pipe()
                process = ctx.Process(
                    target=_worker_main,
                    args=(
                        child_conn,
                        self.shared,
                        f"{self.label}{i}",
                        self.telemetry,
                        ops,
                        args,
                    ),
                    daemon=True,
                )
                process.start()
                child_conn.close()
                self._workers.append((process, parent_conn))
            if ready is not None:
                ready()
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    # The wire
    # ------------------------------------------------------------------
    def _died(self, worker_id: int, op: str, error: BaseException) -> NoReturn:
        """A worker stopped answering: count it, flight-record it (which
        dumps the recorder when armed), and surface the failure."""
        label = f"{self.label}{worker_id}"
        if self.registry is not None:
            self.registry.counter(
                f"{self.prefix}_worker_deaths_total",
                "workers that stopped answering",
            ).inc()
        flight_record("worker_death", worker=label, error=type(error).__name__)
        raise RuntimeError(f"{self.noun} worker {label} died mid-{op}") from error

    def _send(self, worker_id: int, op: str, *args: Any) -> None:
        try:
            self._workers[worker_id][1].send((op, *args))
        except (EOFError, OSError) as exc:
            self._died(worker_id, op, exc)

    def _recv(self, worker_id: int, op: str) -> Any:
        """The payload of the worker's reply to ``op``; its frame is
        absorbed on the way."""
        try:
            reply_op, payload, frame = self._workers[worker_id][1].recv()
        except (EOFError, OSError) as exc:
            self._died(worker_id, op, exc)
        if reply_op != op:  # pragma: no cover - protocol error
            raise RuntimeError(f"unexpected worker reply {reply_op!r} to {op!r}")
        self._absorb(frame)
        return payload

    def _call(self, worker_id: int, op: str, *args: Any) -> Any:
        self._send(worker_id, op, *args)
        return self._recv(worker_id, op)

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def _absorb(self, frame: Optional[TelemetryFrame]) -> None:
        """Fold one worker frame into the parent-side pipeline."""
        if frame is None or self.harvest is None:
            return
        self.harvest.absorb(frame)
        if frame.spans and self.stitcher is not None:
            self.stitcher.add(frame.spans)

    def _drain_parent_spans(self) -> None:
        if self.spans is not None and self.stitcher is not None:
            self.stitcher.add(self.spans.drain())

    @contextmanager
    def _parent_span(self, name: str, **attrs: Any) -> Iterator[Optional[TraceContext]]:
        """A parent-side span; yields the context that messages carry so
        worker spans nest under it (``None`` without telemetry)."""
        if self.spans is None:
            yield None
            return
        with self.spans.span(name, **attrs) as span:
            yield span.context
        self._drain_parent_spans()

    def probe_shared_write(self) -> Optional[str]:
        """Ask worker 0 to attempt a shared-array write (sanitizer probe).

        Returns the exception name the write raised in the worker, or
        ``None`` when the write went through — which is the expected
        answer outside the sanitizer, and the answer an inline pool
        (no workers, no shared block) always gives.
        """
        if not self._workers:
            return None
        result: Optional[str] = self._call(0, "probe")
        return result

    def flush_telemetry(self) -> None:
        """Pull a fresh frame from every live worker (the periodic
        flush: exact fleet totals without waiting for the next reply)."""
        if not self.telemetry:
            return
        for worker_id in range(len(self._workers)):
            self._call(worker_id, "flush")
        self._drain_parent_spans()

    def merged_telemetry(self) -> Dict[str, Any]:
        """The latest per-worker metric states merged into one fleet
        state (see :func:`repro.obs.pipeline.merge_snapshots`)."""
        if self.harvest is None:
            return {"ts": 0.0, "families": {}}
        return self.harvest.merged()

    def export_trace(self, path: str) -> int:
        """Write the stitched trace as JSONL; returns the span count."""
        if self.stitcher is None:
            return 0
        self._drain_parent_spans()
        return self.stitcher.to_jsonl(path)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the workers (absorbing their final frames) and release
        the shared segment.  Safe after a worker death and idempotent."""
        for process, conn in self._workers:
            try:
                conn.send(("close",))
                # Replies still in flight (a dispatch cut short by a
                # dead peer) arrive before the goodbye.
                while True:
                    op, _, frame = conn.recv()
                    self._absorb(frame)
                    if op == "close":
                        break
            except (EOFError, OSError):
                pass
            conn.close()
            process.join(timeout=10)
            if process.is_alive():  # pragma: no cover - wedged worker
                process.kill()
                process.join()
        self._workers = []
        self._drain_parent_spans()
        if self.shared is not None:
            self.shared.close()
            self.shared.unlink()
            self.shared = None

    def __enter__(self: _Pool) -> _Pool:
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
