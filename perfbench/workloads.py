"""Benchmark instances, the calls each workload times, and the output checks.

An instance is built exactly as ``surpkit bench our`` builds it and a
detect-* workload calls the library exactly as ``surpkit detect`` does,
with the same labelled RNG streams, so for instance seed ``s`` the found
partition is byte for byte the file that

    surpkit bench our --ncliques C --pielou P --nodes K --r R --p P --q Q --seed s ...
    surpkit detect --graph edges.txt --seed s --out found.txt

would write.  Library functions are looked up through their modules at
call time, so the wrappers installed by ``spans.Tracer`` see every call.
"""

from __future__ import annotations

import hashlib
import importlib
import math
from dataclasses import dataclass, field

import numpy as np

from surpkit import benchmarks, embedding, metrics, optimizer
from surpkit.cli import sub_rng
from surpkit.graph import Graph
from surpkit.partition import Partition

surprise_module = importlib.import_module("surpkit.surprise")

# instance seeds of run seed s are s * INSTANCES_PER_SEED + i
INSTANCES_PER_SEED = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "detect" or "landscape"
    K: int
    ncliques: int
    pielou: float
    r: float
    p: float
    q: float
    count: int = 0  # landscape: distinct partitions to sample
    top: int = 0  # landscape: peak-walk length (capped at the sample size)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("detect-degraded", "detect", K=100, ncliques=4, pielou=0.85, r=0.01, p=0.4, q=0.02),
        Workload("detect-clean", "detect", K=400, ncliques=16, pielou=0.85, r=0.01, p=0.0, q=0.0),
        Workload(
            "landscape", "landscape", K=80, ncliques=4, pielou=0.85, r=0.1, p=0.4, q=0.02,
            count=30, top=100,
        ),
    )
}


@dataclass(frozen=True)
class Instance:
    seed: int
    graph: Graph
    truth: Partition


@dataclass
class Result:
    """What one solved instance reports; ``failures`` lists failed checks."""

    S: float  # surprise of the found (detect) or best sampled (landscape) partition
    S_truth: float
    nvi_truth: float
    digest: str
    failures: list[str] = field(default_factory=list)
    chi2: float = math.nan  # landscape only


def instance_seed(run_seed: int, i: int) -> int:
    return run_seed * INSTANCES_PER_SEED + i


def make_instance(w: Workload, seed: int) -> Instance:
    """Sizes, cliques, degradation and Graph, as ``cmd_bench_our`` makes them."""
    target_sum = round(w.K * (1.0 - w.r))
    sizes = benchmarks.pielouer_nodes(
        w.ncliques, w.pielou, (target_sum, target_sum), rng=sub_rng(seed, "bench.sizes")
    )
    net = benchmarks.build_benchmark(sizes, w.r, False, rng=sub_rng(seed, "bench.build"))
    if w.p > 0:
        net.degrade_p(w.p)
    if w.q > 0:
        net.degrade_q(w.q)
    return Instance(seed, net.graph, net.truth)


# ----- the timed calls -------------------------------------------------------


def detect(inst: Instance) -> optimizer.SurpriseState:
    """What ``cmd_detect`` runs without annealing."""
    state = optimizer.SurpriseState(inst.graph, rng=sub_rng(inst.seed, "detect"))
    state.stepper()
    return state


@dataclass
class Landscape:
    partitions: list[Partition]
    chi2: float
    S_values: np.ndarray


def landscape(inst: Instance, w: Workload) -> Landscape:
    """Annealed sampling, the pairwise VI matrix, the embedding and two peak walks."""
    graph = inst.graph
    parts = optimizer.sample_partitions(graph, w.count, rng=sub_rng(inst.seed, "landscape"))
    N = len(parts)
    D = np.zeros((N, N))
    for i in range(N):
        for j in range(i + 1, N):
            D[i, j] = D[j, i] = metrics.vi(parts[i], parts[j])
    _, chi2, _, _ = embedding.embed(D, embedding.EmbeddingConfig(), rng=sub_rng(inst.seed, "embed"))
    S_values = np.array([surprise_module.partition_stats(graph, p)[2] for p in parts])
    Q_values = np.array([metrics.modularity(graph, p) for p in parts])
    top = min(w.top, N)
    embedding.peak_walk(S_values, D, top)
    embedding.peak_walk(Q_values, D, top)
    return Landscape(parts, chi2, S_values)


def solve(w: Workload, inst: Instance):
    return detect(inst) if w.kind == "detect" else landscape(inst, w)


# ----- checks and reporting (untimed, untraced) ------------------------------


def partition_digest(partitions: list[Partition]) -> str:
    """sha256 over the partition files ``save_partition`` would write, in order.

    For one partition this is the sha256 of the ``surpkit detect --out`` file.
    """
    h = hashlib.sha256()
    for p in partitions:
        h.update("".join(f"{cid}\n" for cid in p.assign).encode())
    return h.hexdigest()


def covers(p: Partition, K: int) -> bool:
    """True iff the communities hold each of the K nodes exactly once, as ``assign`` says."""
    if p.K != K:
        return False
    if sorted(node for comm in p.comms for node in comm) != list(range(K)):
        return False
    return all(node in p.comms[cid] for node, cid in enumerate(p.assign))


def check_detect(graph: Graph, state: optimizer.SurpriseState) -> list[str]:
    failures = []
    if not state.verify():
        failures.append("verify() rejects the cached M, ell, S")
    if not covers(state.partition, graph.K):
        failures.append("partition does not cover every node exactly once")
    else:
        _, _, S = surprise_module.partition_stats(graph, state.partition)
        if not math.isclose(S, state.S, rel_tol=1e-12, abs_tol=1e-9):
            failures.append(f"reported S {state.S!r} != recomputed S {S!r}")
    return failures


def check_landscape(graph: Graph, w: Workload, out: Landscape) -> list[str]:
    failures = []
    parts = out.partitions
    if len(parts) != w.count:
        failures.append(f"sampled {len(parts)} partitions, asked for {w.count}")
    if not all(covers(p, graph.K) for p in parts):
        failures.append("a sampled partition does not cover every node exactly once")
    elif len({p.canonical() for p in parts}) != len(parts):
        failures.append("sampled partitions are not distinct")
    if not math.isfinite(out.chi2):
        failures.append(f"embedding stress is not finite: {out.chi2!r}")
    return failures


def evaluate(w: Workload, inst: Instance, out) -> Result:
    """Checks and quality figures of one solved instance."""
    graph = inst.graph
    _, _, S_truth = surprise_module.partition_stats(graph, inst.truth)
    if w.kind == "detect":
        failures = check_detect(graph, out)
        found, S, digest, chi2 = out.partition, out.S, partition_digest([out.partition]), math.nan
    else:
        failures = check_landscape(graph, w, out)
        best = int(np.argmax(out.S_values))
        found, S, chi2 = out.partitions[best], float(out.S_values[best]), out.chi2
        digest = partition_digest(out.partitions)
    if covers(found, graph.K):
        nvi = metrics.vi(found, inst.truth, normalized=True)
    else:
        nvi = math.nan
    return Result(S, S_truth, nvi, digest, failures, chi2)
