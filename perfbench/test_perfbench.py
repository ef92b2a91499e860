"""Tests of the benchmark itself: checks catch bad output, tracing changes nothing.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from surpkit import cli, optimizer  # noqa: E402

TINY = {
    "detect": workloads.Workload("tiny-detect", "detect", K=40, ncliques=4, pielou=0.9, r=0.05, p=0.3, q=0.05),
    "landscape": workloads.Workload(
        "tiny-landscape", "landscape", K=40, ncliques=3, pielou=0.9, r=0.1, p=0.3, q=0.05, count=12, top=100
    ),
}


def solved(kind: str, seed: int = 3):
    w = TINY[kind]
    inst = workloads.make_instance(w, seed)
    return w, inst, workloads.solve(w, inst)


@pytest.mark.parametrize("kind", ["detect", "landscape"])
def test_tiny_instances_pass_every_check(kind):
    w, inst, out = solved(kind)
    res = workloads.evaluate(w, inst, out)
    assert res.failures == []
    assert res.S > 0 and res.S_truth > 0
    assert 0.0 <= res.nvi_truth <= 1.0
    assert len(res.digest) == 64


def test_detect_matches_cli(tmp_path):
    """The found partition is the file ``surpkit detect --seed`` writes for the same edge list."""
    w, inst, state = solved("detect")
    edges, truth, found = tmp_path / "edges.txt", tmp_path / "truth.txt", tmp_path / "found.txt"
    bench = ["bench", "our", "--ncliques", str(w.ncliques), "--pielou", str(w.pielou), "--nodes", str(w.K),
             "--r", str(w.r), "--p", str(w.p), "--q", str(w.q), "--seed", str(inst.seed),
             "--out-edges", str(edges), "--out-truth", str(truth)]
    assert cli.main(bench) == 0
    assert cli.main(["detect", "--graph", str(edges), "--seed", str(inst.seed), "--out", str(found)]) == 0
    assert hashlib.sha256(found.read_bytes()).hexdigest() == workloads.partition_digest([state.partition])


def test_corrupted_partition_counts_as_failure():
    w, inst, state = solved("detect")
    # move a node from the smallest community into the largest behind the
    # state's back, so the pair count M, and with it S, goes stale
    p = state.partition
    src = min((c for c in range(p.Nc) if len(p.comms[c]) > 1), key=lambda c: len(p.comms[c]))
    dst = max((c for c in range(p.Nc) if c != src), key=lambda c: len(p.comms[c]))
    node = min(p.comms[src])
    p.comms[src].discard(node)
    p.comms[dst].add(node)
    p.assign[node] = dst
    failures = workloads.check_detect(inst.graph, state)
    assert any("verify" in f for f in failures)
    assert any("recomputed S" in f for f in failures)

    r = run.Run(w, seed=0)
    r.check(inst, state, solve_s=1.0)
    assert r.failed == 1


def test_partition_missing_a_node_counts_as_failure():
    w, inst, state = solved("detect")
    state.partition.comms[0].pop()
    assert any("cover" in f for f in workloads.check_detect(inst.graph, state))


def test_landscape_checks_catch_duplicates_and_bad_stress():
    w, inst, out = solved("landscape")
    bad = dataclasses.replace(out, partitions=out.partitions[:-1] + [out.partitions[0].copy()], chi2=math.nan)
    failures = workloads.check_landscape(inst.graph, w, bad)
    assert any("not distinct" in f for f in failures)
    assert any("not finite" in f for f in failures)


@pytest.mark.parametrize("kind", ["detect", "landscape"])
def test_tracing_does_not_perturb_results(kind):
    w, inst, out = solved(kind)
    plain = workloads.evaluate(w, inst, out)
    tracer = spans.Tracer()
    originals = {name: optimizer.SurpriseState.__dict__[name] for name in spans.MOVE_KINDS}
    with tracer.installed(), tracer.span("solve"):
        traced_out = workloads.solve(w, inst)
    assert {name: optimizer.SurpriseState.__dict__[name] for name in spans.MOVE_KINDS} == originals
    prof = tracer.drain()
    traced = workloads.evaluate(w, inst, traced_out)
    assert (traced.digest, traced.S) == (plain.digest, plain.S)
    assert prof.calls["surprise"] == prof.kernel_calls > 0
    assert prof.calls["optimizer.merge"] > 0
    # self times partition the root span: nothing is counted twice
    assert sum(prof.self_s.values()) == pytest.approx(prof.incl_s["solve"], rel=1e-9)


def test_never_called_boundaries_are_unmeasured():
    w, inst, _ = solved("detect")
    tracer = spans.Tracer()
    with tracer.installed(), tracer.span("solve"):
        workloads.solve(w, inst)
    metrics, unmeasured = layers.layer_metrics(spans.Profile(), tracer.drain(), 1, 1.0)
    assert "optimizer.anneal_step" in unmeasured and "embedding.embed" in unmeasured
    assert "surprise" not in unmeasured
    assert metrics["optimizer.anneal_step.calls"] == (0, "count")
    assert metrics["surprise.calls"][0] > 0


def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.metric_units()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END


def test_command_line_output():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "detect-degraded", "--seed", "1",
         "--seconds", "0.01", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "detect-clean", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
