"""The repository benchmark: one command per workload run.

Run from the repository root::

    python3 perfbench/run.py --workload alg2-build --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` and ``NOTES.md``): ``alg2-build``,
``serve-churn`` and ``shard-serve``.  The seed fixes every input; the
trace length is proportional to ``--seconds``.

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``.
``--trace 1`` replays the same trace twice, untraced and then with every
layer call wrapped in a span; it prints the per-layer metrics of the
traced pass plus the tracing overhead, and writes the spans as JSONL to
``perfbench/out/``.

Human-readable report lines come first; the last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  The exit code is 1 when a correctness check fails and
2 when the checkout holds no ``src/repro`` package to benchmark.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
import time
import warnings
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("alg2-build", "serve-churn", "shard-serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def tail_percentile(samples: int) -> float:
    """The highest percentile (one decimal) with at least 10 samples
    beyond it; 100 (the maximum) when there are 10 samples or fewer."""
    if samples <= 10:
        return 100.0
    return math.floor(1000 * (samples - 10) / samples) / 10


def nearest_rank(ordered: List[float], percentile: float) -> float:
    rank = max(1, math.ceil(percentile / 100 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def peak_rss_mb(outcome: Any) -> float:
    """Peak resident memory of this process plus, when the workload runs
    a worker, its largest finished child (the shard worker), in MiB.
    alg2-build's children are the cold set-ups, not part of the run."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (children if outcome.has_worker else 0)) / 1024


def busy_s(outcome: Any) -> float:
    """Seconds the run spent on the op path."""
    return sum(outcome.latencies) + sum(outcome.aside) + outcome.moved_s


def end_to_end(outcome: Any) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """The ``BENCHMARK.json`` end-to-end metrics, plus report-only facts."""
    ordered = sorted(outcome.latencies)
    busy = sum(ordered)
    tail = tail_percentile(len(ordered))
    metrics = {
        "setup_s": statistics.median(outcome.setup),
        "ops_per_s": len(ordered) / busy,
        "p50_ms": 1000 * statistics.median(ordered),
        "tail_ms": 1000 * nearest_rank(ordered, tail),
        "peak_rss_mb": peak_rss_mb(outcome),
        "backbone_ratio": outcome.quality["backbone_ratio"],
    }
    facts = {
        "samples": len(ordered),
        "tail_percentile": tail,
        "setup_samples": len(outcome.setup),
        "error_frac": outcome.failed / outcome.attempted,
        "timed_s": busy,
        "measured_s": sum(outcome.raw),
        "speed_scale": outcome.speed.run_scale(),
        "probes": len(outcome.speed.samples),
    }
    if outcome.aside:
        facts["aside_samples"] = len(outcome.aside)
        facts["aside_p50_ms"] = 1000 * statistics.median(outcome.aside)
    return metrics, facts


# ----------------------------------------------------------------------
# Per-layer metrics from the traced pass
# ----------------------------------------------------------------------
def span_table(tracer: Any) -> Tuple[Dict[str, float], Dict[str, List[float]]]:
    """Per span name: summed self time, and every duration.

    Spans nest on one thread, so a span's children never overlap and
    its self time is its duration minus theirs.
    """
    self_s: Dict[str, float] = {}
    durations: Dict[str, List[float]] = {}
    stack = list(tracer.roots)
    while stack:
        span = stack.pop()
        covered = sum(child.duration for child in span.children)
        self_s[span.name] = self_s.get(span.name, 0.0) + span.duration - covered
        durations.setdefault(span.name, []).append(span.duration)
        stack.extend(span.children)
    return self_s, durations


def layer_metrics(tracer: Any, outcome: Any, overhead: float) -> Dict[str, float]:
    """Per-layer metrics; seconds are scaled to reference speed by the
    traced pass's median probe."""
    self_s, durations = span_table(tracer)
    counts = outcome.counts
    scale = outcome.speed.run_scale()

    def s(name: str) -> float:
        return scale * self_s.get(name, 0.0)

    def c(name: str) -> float:
        return float(counts.get(name, 0))

    spawns = durations.get("pool.spawn", [])
    inline_builds = durations.get("pool.inline_build", [])
    deliveries = c("sim.deliveries")
    values = {
        "udg.build.s": s("udg.build"),
        "udg.build.edges": c("udg.build.edges"),
        "udg.move.s": s("udg.move"),
        "udg.move.count": float(len(durations.get("udg.move", []))),
        "csr.expand.s": s("csr.expand"),
        "csr.expand.count": c("csr.expand.count"),
        "mis.s": s("mis"),
        "mis.size": c("mis.size"),
        "connectors.s": s("alg2.centralized") - s("mis"),
        "connectors.count": c("connectors.count"),
        "alg2.distributed.s": s("alg2.distributed"),
        "sim.messages": c("sim.messages"),
        "sim.deliveries": deliveries,
        "sim.events": c("sim.events"),
        "sim.rounds": c("sim.rounds"),
        "sim.deliver.us_per_delivery": (
            1e6 * s("alg2.distributed") / deliveries if deliveries else 0.0
        ),
        "spanner.build.s": s("spanner.build"),
        "spanner.dilation.s": s("spanner.dilation"),
        "spanner.pairs": c("spanner.pairs"),
        "mobility.step.s": s("mobility.step"),
        "mobility.link_events": c("mobility.link_events"),
        "maintenance.repair.s": s("maintenance.repair"),
        "maintenance.repair.count": c("maintenance.repair.count"),
        "maintenance.rebuild.s": s("maintenance.rebuild"),
        "maintenance.rebuild.count": c("maintenance.rebuild.count"),
        "routing.snapshot.s": s("routing.snapshot"),
        "routing.snapshot.count": c("routing.snapshot.count"),
        "serve.ingest.s": s("serve.ingest"),
        "serve.cache.route_hit_rate": c("serve.cache.route_hit_rate"),
        "serve.cache.plan_hit_rate": c("serve.cache.plan_hit_rate"),
        "serve.route_cache_invalidated": c("serve.route_cache_invalidated"),
        "serve.errors": c("serve.errors"),
        "serve.stale": c("serve.stale"),
        "serve.rejected": c("serve.rejected"),
        "shard.build.s": s("shard.build"),
        "pool.spawn.s": (
            scale * (statistics.median(spawns) - inline_builds[0])
            if spawns and inline_builds else 0.0
        ),
        "shard.stitch.s": s("shard.stitch"),
        "shard.tiles_rebuilt": c("shard.tiles_rebuilt"),
        "shard.tiles_cascaded": c("shard.tiles_cascaded"),
        "pool.pipe.s": s("pool.recheck") - s("pool.inline"),
        "trace.overhead": overhead,
    }
    for op in ("route", "dominator", "broadcast_plan", "backbone"):
        values[f"serve.query.{op}.s"] = s(f"serve.query.{op}")
        values[f"serve.query.{op}.count"] = c(f"serve.query.{op}.count")
    return values


def write_spans(tracer: Any, path: Path) -> int:
    """Write every span as one JSON line: id, name, start, end, parent
    id and the op id of the op it belongs to (null outside ops)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    written = 0
    with path.open("w", encoding="utf-8") as handle:
        stack = [(root, None, root.attrs.get("op")) for root in reversed(tracer.roots)]
        while stack:
            span, parent, op = stack.pop()
            span_id = written
            handle.write(json.dumps({
                "id": span_id, "name": span.name, "start": span.start,
                "end": span.end, "parent": parent, "op": op,
            }) + "\n")
            written += 1
            stack.extend((child, span_id, op) for child in reversed(span.children))
    return written


# ----------------------------------------------------------------------
# Fingerprint
# ----------------------------------------------------------------------
def git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint() -> Dict[str, Any]:
    import numpy

    try:
        import scipy
    except ImportError:  # scipy is an optional extra of the package
        scipy_version = "absent"
    else:
        scipy_version = scipy.__version__
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "machine": platform.machine(),
        "git_sha": git_sha(),
    }


# ----------------------------------------------------------------------
# Main
# ----------------------------------------------------------------------
def load_spec() -> Dict[str, Any]:
    with (ROOT / "BENCHMARK.json").open(encoding="utf-8") as handle:
        return json.load(handle)


def stop_children() -> None:
    """Stop every process the run started and wait for each to end.

    ``ShardServePool.close`` joins its workers; any still alive (a
    failed run) are terminated here.  The pool's shared-memory segment
    also starts multiprocessing's resource tracker, a helper process
    that otherwise lives until this process exits and is then reaped by
    no one.  Python 3.11 has no public call to stop it: ``_stop`` closes
    its pipe and waits for it, as later Pythons do at interpreter exit.
    """
    if "multiprocessing" not in sys.modules:
        return
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro package under {ROOT}; run from a "
              "repository checkout", file=sys.stderr)
        return 2
    # A SIGTERM unwinds through ``finally`` so the children still stop.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        return measure(args)
    finally:
        stop_children()


def measure(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    # The repository's own test filter: no deprecated call path may run.
    warnings.simplefilter("error", DeprecationWarning)
    spec = load_spec()
    started = time.perf_counter()
    import workloads
    from repro.obs import NullTracer, Tracer

    import_s = time.perf_counter() - started
    run = workloads.WORKLOADS[args.workload]
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("fingerprint " + json.dumps({**fingerprint(), "import_s": import_s}))
    try:
        plain = run(args.seed, args.seconds, NullTracer())
        e2e, facts = end_to_end(plain)
        traced = None
        if args.trace:
            tracer = Tracer()
            traced = run(args.seed, args.seconds, tracer)
            overhead = busy_s(traced) / busy_s(plain) - 1.0
            layers = layer_metrics(tracer, traced, overhead)
            spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl"
            spans = write_spans(tracer, spans_path)
    except workloads.CheckFailed as failure:
        print(f"check failed: {failure}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    deterministic = {"error_frac": facts["error_frac"], **plain.quality}
    print("workload " + json.dumps({"name": args.workload, **plain.shape,
                                    "client": "closed loop, 1 client"}))
    print("run " + json.dumps({**facts, "failed": plain.failed,
                               "first_errors": plain.errors}))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update({"error_frac": "ratio", "msgs_per_node": "count"})
    for name, value in {**e2e, **deterministic}.items():
        note = ""
        if name == "tail_ms":
            note = f"  (p{facts['tail_percentile']}, {facts['samples']} samples)"
        elif name == "setup_s":
            note = f"  (median of {facts['setup_samples']})"
        print(f"  {name:<32} {value!r} {units[name]}{note}")
    if args.trace:
        print(f"traced pass: {spans} spans written to "
              f"{spans_path.relative_to(ROOT)}")
        for name, value in layers.items():
            print(f"  {name:<32} {value!r} {units.get(name, '')}")
        chosen = {m["name"]: layers[m["name"]] for m in spec["per_layer"]}
    else:
        chosen = {m["name"]: e2e[m["name"]] for m in spec["end_to_end"]}
    print(json.dumps({
        "correct": True,
        "attempted": plain.attempted,
        "failed": plain.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in chosen.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
