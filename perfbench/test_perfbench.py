"""Self-test of the benchmark command.

Runs every workload with a one-second trace (a few ops), twice on one
seed and once on a held-out seed, and checks that every metric is printed
by name with its unit, that the deterministic metrics repeat exactly, and
that a corrupted answer trips the correctness checks.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Dict, Tuple

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
DETERMINISTIC = ("error_frac", "backbone_ratio", "msgs_per_node")

sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402  (needs the path set up above)
from repro import BackboneService, UnitDiskGraph, WCDSResult  # noqa: E402
from repro.geometry.point import Point  # noqa: E402
from repro.obs import NullTracer  # noqa: E402
from repro.shard import ShardServePool  # noqa: E402


def run(workload: str, seed: int, trace: int = 0, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def report(stdout: str) -> Tuple[Dict[str, Tuple[float, str]], dict]:
    """The ``  name value unit`` report lines, and the final JSON line."""
    lines = stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        if line.startswith("  "):
            name, value, unit = line.split()[:3]
            printed[name] = (float(value), unit)
    return printed, json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_metrics_printed_and_deterministic(workload):
    runs = [run(workload, 3), run(workload, 3), run(workload, 4)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    (first, last), (second, _), (held_out, _) = [report(p.stdout) for p in runs]
    assert last["correct"] is True
    assert last["attempted"] >= 1
    assert 0 <= last["failed"] <= last["attempted"]
    for metric in SPEC["end_to_end"]:
        assert first[metric["name"]][1] == metric["unit"]
        assert last["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert set(last["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for name in DETERMINISTIC:
        if name in first:
            assert first[name] == second[name]
            assert math.isfinite(held_out[name][0])
    assert first["error_frac"][0] == last["failed"] / last["attempted"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer(workload):
    proc = run(workload, 3, trace=1)
    assert proc.returncode == 0, proc.stderr
    printed, last = report(proc.stdout)
    assert set(last["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert printed[metric["name"]][1] == metric["unit"]
        assert math.isfinite(last["metrics"][metric["name"]]["value"])
    spans = ROOT / "perfbench" / "out" / f"{workload}-seed3.spans.jsonl"
    first = json.loads(spans.read_text(encoding="utf-8").splitlines()[0])
    assert set(first) == {"id", "name", "start", "end", "parent", "op"}


def session_members(session: int) -> list:
    """Ids of the live or unreaped processes in a session (Linux /proc)."""
    members = []
    for entry in Path("/proc").iterdir():
        try:
            stat = (entry / "stat").read_text()
        except (OSError, ValueError):
            continue
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[3]) == session:
            members.append(int(entry.name))
    return members


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_shard_run_leaves_no_process_behind():
    # The pool's worker and multiprocessing's resource tracker must both
    # have ended, and been waited for, when the command exits.
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", "shard-serve",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.DEVNULL, start_new_session=True,
    )
    assert proc.wait(timeout=600) == 0
    assert session_members(proc.pid) == []


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("alg2-build", 1, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_route_with_a_non_edge_hop_trips_the_check(monkeypatch):
    drain = BackboneService.drain

    def corrupted(self):
        responses = drain(self)
        for index, response in enumerate(responses):
            if response.request.op == "route" and response.ok:
                path = response.value
                stranger = next(
                    v for v in self.graph.nodes()
                    if v != path[0] and not self.graph.has_edge(path[0], v)
                )
                responses[index] = dataclasses.replace(
                    response, value=[path[0], stranger] + path[1:]
                )
        return responses

    monkeypatch.setattr(BackboneService, "drain", corrupted)
    with pytest.raises(workloads.CheckFailed, match="non-edge"):
        workloads.serve_churn(3, 1, NullTracer())


def corrupt_worker_dominators(monkeypatch):
    """Make the worker pool answer every dominator query with a node that
    is neither the queried node nor one of its neighbours."""
    query_batch = ShardServePool.query_batch

    def corrupted(self, queries):
        answers = query_batch(self, queries)
        if self.config.workers:
            for index, query in enumerate(queries):
                if query[0] == "dominator":
                    node = query[1]
                    answers[index] = next(
                        v for v in self.graph.nodes()
                        if v != node and not self.graph.has_edge(node, v)
                    )
        return answers

    monkeypatch.setattr(ShardServePool, "query_batch", corrupted)


def test_wrong_timed_shard_answer_trips_the_check(monkeypatch):
    corrupt_worker_dominators(monkeypatch)
    with pytest.raises(workloads.CheckFailed, match="not the node or a neighbour"):
        workloads.shard_serve(3, 1, NullTracer())


def test_worker_answer_differing_from_inline_trips_the_check(monkeypatch):
    # With the per-batch checks off, the end-of-trace comparison with an
    # inline workers=0 pool still catches the wrong answers.
    corrupt_worker_dominators(monkeypatch)
    monkeypatch.setattr(workloads, "check_shard_answers", lambda *args: 0)
    with pytest.raises(workloads.CheckFailed, match="inline"):
        workloads.shard_serve(3, 1, NullTracer())


def test_disconnected_spanner_trips_the_check(monkeypatch):
    spanner = WCDSResult.spanner

    def disconnected(self, graph):
        result = spanner(self, graph)
        half = sorted(result.nodes())[len(result) // 2]
        for u, v in list(result.edges()):
            if u >= half or v >= half:
                result.remove_edge(u, v)
        return result

    monkeypatch.setattr(WCDSResult, "spanner", disconnected)
    with pytest.raises(workloads.CheckFailed, match="disconnects"):
        workloads.alg2_build(3, 1, NullTracer())


def test_dominator_check_rejects_a_non_neighbour():
    line = UnitDiskGraph({0: Point(0, 0), 1: Point(0.9, 0), 2: Point(1.8, 0)})
    workloads.check_dominator(line, 0, 1)
    with pytest.raises(workloads.CheckFailed):
        workloads.check_dominator(line, 0, 2)
