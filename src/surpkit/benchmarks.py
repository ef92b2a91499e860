"""Ground-truth benchmark networks built from degraded cliques.

A benchmark starts from complete cliques whose sizes can be tuned to a
target Pielou evenness, optionally linked in a ring, plus a fraction r of
singleton nodes each attached by a single edge.  Degradation removes
intra-clique edges with probability p and creates absent clique-to-clique
pairs with probability q.  A separate routine degrades an arbitrary graph
by removing and rewiring a percentage of its links.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from surpkit.graph import Graph
from surpkit.metrics import pielou
from surpkit.partition import Partition


# ----- Pielou-controlled size lists --------------------------------------

# pielouer's starting size, and when both generators stop: within _TOL of
# the target evenness, or after _MAX_ITER proposals
_SIZE_START = 25
_TOL = 0.01
_MAX_ITER = 100_000


def _anneal_sizes(
    sizes: list[int],
    target: float,
    perturb: Callable[[list[int], np.random.Generator], tuple[int, ...]],
    undo: Callable[[list[int], tuple[int, ...]], None],
    rng: np.random.Generator,
) -> list[int]:
    err = abs(pielou(sizes) - target)
    for _ in range(_MAX_ITER):
        if err <= _TOL:
            break
        token = perturb(sizes, rng)
        if token is None:
            continue
        new_err = abs(pielou(sizes) - target)
        if new_err < err:
            err = new_err
        else:
            undo(sizes, token)
    return sizes


def pielouer(
    N: int,
    target: float,
    size_floor: int = 2,
    rng: np.random.Generator | int | None = None,
) -> list[int]:
    """A list of N sizes whose Pielou evenness is close to ``target``.

    Starts from N equal sizes and applies random single-unit increments or
    decrements, keeping those that move the evenness toward the target,
    until within 0.01 or the iteration budget runs out (best effort).
    """
    if N < 2:
        raise ValueError("need at least 2 sizes")
    if not (0.0 < target <= 1.0):
        raise ValueError("target evenness must be in (0, 1]")
    rng = np.random.default_rng(rng)
    sizes = [max(size_floor, _SIZE_START)] * N

    def perturb(s: list[int], r: np.random.Generator):
        i = int(r.integers(N))
        step = 1 if r.random() < 0.5 else -1
        if s[i] + step < size_floor:
            return None
        s[i] += step
        return (i, step)

    def undo(s: list[int], token):
        i, step = token
        s[i] -= step

    return _anneal_sizes(sizes, target, perturb, undo, rng)


def pielouer_nodes(
    N: int,
    target: float,
    K_range: tuple[int, int],
    size_floor: int = 2,
    rng: np.random.Generator | int | None = None,
) -> list[int]:
    """As :func:`pielouer`, with the total held inside ``K_range``.

    Starts from the most even split of the low end of the range and moves
    single units between entries, so the total never changes.
    """
    if N < 2:
        raise ValueError("need at least 2 sizes")
    if not (0.0 < target <= 1.0):
        raise ValueError("target evenness must be in (0, 1]")
    lo, hi = K_range
    if N * size_floor > hi:
        raise ValueError(f"cannot fit {N} sizes >= {size_floor} into a total of {hi}")
    rng = np.random.default_rng(rng)
    total = max(lo, N * size_floor)
    base, extra = divmod(total, N)
    sizes = [base + (1 if i < extra else 0) for i in range(N)]

    def perturb(s: list[int], r: np.random.Generator):
        i, j = r.choice(N, size=2, replace=False)
        if s[int(i)] - 1 < size_floor:
            return None
        s[int(i)] -= 1
        s[int(j)] += 1
        return (int(i), int(j))

    def undo(s: list[int], token):
        i, j = token
        s[i] += 1
        s[j] -= 1

    return _anneal_sizes(sizes, target, perturb, undo, rng)


# ----- OUR-style benchmark ------------------------------------------------

ProbOfSize = Callable[[int], float]
ProbOfSizes = Callable[[int, int], float]


def constant_p(p: float) -> ProbOfSize:
    return lambda c: p


def constant_q(q: float) -> ProbOfSizes:
    return lambda ci, cj: q


@dataclass
class BenchmarkNet:
    """A clique benchmark with its ground truth and degradation state.

    ``graph`` reflects the current edge set; degradation mutates the edges
    and the tallies but never the truth partition.
    """

    K: int
    cliques: list[int]
    clique_nodes: list[list[int]]
    r: float
    cycle: bool
    truth: Partition
    edges: set = field(repr=False)
    inclique_count: int = 0
    between_count: int = 0
    # the stream degradation draws from; build_benchmark passes its own
    _rng: np.random.Generator = field(default_factory=np.random.default_rng, repr=False, compare=False)

    @property
    def graph(self) -> Graph:
        return Graph(self.K, self.edges)

    def degrade_p(self, p_fn: ProbOfSize | float) -> int:
        """Remove each current intra-clique edge with probability p(c_i).

        Returns the number of removed edges.  Ground truth is unchanged.
        """
        fn = constant_p(p_fn) if not callable(p_fn) else p_fn
        rng = self._rng
        removed = 0
        for c, nodes in zip(self.cliques, self.clique_nodes):
            p = fn(c)
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"removal probability {p} outside [0, 1]")
            present = [
                (nodes[a], nodes[b])
                for a in range(c)
                for b in range(a + 1, c)
                if (nodes[a], nodes[b]) in self.edges
            ]
            if not present:
                continue
            hits = rng.random(len(present)) < p
            for (u, v), hit in zip(present, hits):
                if hit:
                    self.edges.discard((u, v))
                    removed += 1
        self.inclique_count -= removed
        return removed

    def degrade_q(self, q_fn: ProbOfSizes | float) -> int:
        """Create each absent clique-to-clique pair with probability q(c_i, c_j).

        Pairs involving singleton nodes are left alone: their only links
        are the attachments made at construction.  Returns the number of
        created edges.
        """
        fn = constant_q(q_fn) if not callable(q_fn) else q_fn
        rng = self._rng
        created = 0
        for i in range(len(self.cliques)):
            for j in range(i):
                q = fn(self.cliques[i], self.cliques[j])
                if not (0.0 <= q <= 1.0):
                    raise ValueError(f"creation probability {q} outside [0, 1]")
                if q == 0.0:
                    continue
                ni, nj = self.clique_nodes[i], self.clique_nodes[j]
                hits = rng.random((len(ni), len(nj))) < q
                for a, u in enumerate(ni):
                    for b in np.nonzero(hits[a])[0]:
                        v = nj[int(b)]
                        pair = (u, v) if u < v else (v, u)
                        if pair not in self.edges:
                            self.edges.add(pair)
                            created += 1
        self.between_count += created
        return created


def build_benchmark(
    cliques: Sequence[int],
    r: float = 0.0,
    cycle: bool = False,
    rng: np.random.Generator | int | None = None,
) -> BenchmarkNet:
    """Build an undegraded clique benchmark.

    Clique i occupies a consecutive id block; a fraction r of the final
    node count consists of singleton communities, each attached by one
    edge to a uniformly chosen clique and then a uniformly chosen node in
    it.  With ``cycle`` one edge is removed from each clique and replaced
    by a link to the next clique, closing a ring.
    """
    cliques = list(cliques)
    if any(c < 2 for c in cliques):
        raise ValueError("clique sizes must be >= 2")
    if not (0.0 <= r < 1.0):
        raise ValueError("singleton fraction must be in [0, 1)")
    rng = np.random.default_rng(rng)
    total = sum(cliques)
    K = int(total / (1.0 - r))
    n_singles = K - total  # equals floor(r*K)

    clique_nodes = []
    start = 0
    edges: set = set()
    for c in cliques:
        nodes = list(range(start, start + c))
        clique_nodes.append(nodes)
        for a in range(c):
            for b in range(a + 1, c):
                edges.add((nodes[a], nodes[b]))
        start += c
    inclique = len(edges)

    between = 0
    if cycle:
        nc = len(cliques)
        for i in range(nc):
            nodes = clique_nodes[i]
            u, v = nodes[0], nodes[1]
            edges.discard((u, v))
            inclique -= 1
            nxt = clique_nodes[(i + 1) % nc][0]
            a, b = (u, nxt) if u < nxt else (nxt, u)
            if a != b and (a, b) not in edges:
                edges.add((a, b))
                between += 1

    assign = [0] * K
    for cid, nodes in enumerate(clique_nodes):
        for u in nodes:
            assign[u] = cid
    for s in range(n_singles):
        node = total + s
        assign[node] = len(cliques) + s
        ci = int(rng.integers(len(cliques)))
        anchor = int(rng.choice(clique_nodes[ci]))
        edges.add((anchor, node) if anchor < node else (node, anchor))
        between += 1

    return BenchmarkNet(
        K=K,
        cliques=cliques,
        clique_nodes=clique_nodes,
        r=r,
        cycle=cycle,
        truth=Partition(assign),
        edges=edges,
        inclique_count=inclique,
        between_count=between,
        _rng=rng,
    )


def expected_counts(
    cliques: Sequence[int], r: float, p: float, q: float
) -> tuple[int, int, float, float]:
    """(K, Nc, mean intra-clique links, mean inter-community links).

    The intra mean is (1-p) sum C(c_i, 2); the inter mean is
    q sum_{j<i} c_i c_j plus the singleton attachments r/(1-r) sum c_i.
    """
    cliques = list(cliques)
    total = sum(cliques)
    K = int(total / (1.0 - r))
    Nc = len(cliques) + (K - total)
    mean_in = (1.0 - p) * sum(c * (c - 1) / 2 for c in cliques)
    cross_pairs = sum(
        cliques[i] * cliques[j] for i in range(len(cliques)) for j in range(i)
    )
    mean_out = q * cross_pairs + r / (1.0 - r) * total
    return K, Nc, mean_in, mean_out


def rc_degrade(graph: Graph, R: float, rng: np.random.Generator | int | None = None) -> Graph:
    """Remove R% of the links, then rewire R% of the remainder.

    Rewired links go to uniformly chosen currently-absent node pairs, so
    degrees are not preserved and nodes may end up disconnected.
    """
    if not (0.0 <= R <= 100.0):
        raise ValueError("percentage must be in [0, 100]")
    rng = np.random.default_rng(rng)
    edges = sorted(graph.edges)
    n_remove = int(R * len(edges) / 100.0)
    if n_remove:
        keep_idx = rng.choice(len(edges), size=len(edges) - n_remove, replace=False)
        edges = [edges[i] for i in sorted(keep_idx)]
    n_rewire = int(R * len(edges) / 100.0)
    if n_rewire:
        edge_set = set(edges)
        victims = rng.choice(len(edges), size=n_rewire, replace=False)
        for i in victims:
            edge_set.discard(edges[int(i)])
            while True:
                u = int(rng.integers(graph.K))
                v = int(rng.integers(graph.K))
                if u == v:
                    continue
                if u > v:
                    u, v = v, u
                if (u, v) not in edge_set:
                    edge_set.add((u, v))
                    break
        edges = sorted(edge_set)
    return Graph(graph.K, edges)
