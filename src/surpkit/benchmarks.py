"""Ground-truth benchmark networks built from degraded cliques.

A benchmark starts from complete cliques whose sizes can be tuned to a
target Pielou evenness, optionally linked in a ring, plus a fraction r of
singleton nodes each attached by a single edge.  Degradation removes
intra-clique edges with probability p and creates absent clique-to-clique
pairs with probability q.  A separate routine degrades an arbitrary graph
by removing and rewiring a percentage of its links.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from surpkit.graph import Graph
from surpkit.metrics import pielou
from surpkit.partition import Partition


# ----- Pielou-controlled size lists --------------------------------------

# pielouer's starting size, the smallest size either generator gives, and
# when both stop: within _TOL of the target evenness, or after _MAX_ITER
# proposals
_SIZE_START = 25
_SIZE_FLOOR = 2
_TOL = 0.01
_MAX_ITER = 100_000


def _anneal_sizes(
    sizes: list[int],
    target: float,
    propose: Callable[[list[int], np.random.Generator], list[int] | None],
    rng: np.random.Generator,
) -> list[int]:
    """Keep each proposal that moves the evenness of ``sizes`` toward ``target``.

    ``propose(sizes, rng)`` returns a changed copy, or None for a change
    the size floor forbids.
    """
    if len(sizes) < 2:
        raise ValueError("need at least 2 sizes")
    if not (0.0 < target <= 1.0):
        raise ValueError("target evenness must be in (0, 1]")
    err = abs(pielou(sizes) - target)
    for _ in range(_MAX_ITER):
        if err <= _TOL:
            break
        new = propose(sizes, rng)
        if new is None:
            continue
        new_err = abs(pielou(new) - target)
        if new_err < err:
            sizes, err = new, new_err
    return sizes


def pielouer(
    N: int,
    target: float,
    rng: np.random.Generator | int | None = None,
) -> list[int]:
    """A list of N sizes, each at least 2, whose Pielou evenness is close to ``target``.

    Starts from N equal sizes and applies random single-unit increments or
    decrements, keeping those that move the evenness toward the target,
    until within 0.01 or the iteration budget runs out (best effort).
    """

    def propose(s: list[int], r: np.random.Generator) -> list[int] | None:
        i = int(r.integers(N))
        step = 1 if r.random() < 0.5 else -1
        if s[i] + step < _SIZE_FLOOR:
            return None
        s = list(s)
        s[i] += step
        return s

    sizes = [_SIZE_START] * N
    return _anneal_sizes(sizes, target, propose, np.random.default_rng(rng))


def pielouer_nodes(
    N: int,
    target: float,
    K_range: tuple[int, int],
    rng: np.random.Generator | int | None = None,
) -> list[int]:
    """As :func:`pielouer`, with the total held inside ``K_range``.

    Starts from the most even split of the low end of the range and moves
    single units between entries, so the total never changes.  A range
    whose low end exceeds its high end is refused.
    """
    lo, hi = K_range
    if lo > hi:
        raise ValueError(f"total range ({lo}, {hi}) is empty")
    if N * _SIZE_FLOOR > hi:
        raise ValueError(f"cannot fit {N} sizes >= {_SIZE_FLOOR} into a total of {hi}")
    total = max(lo, N * _SIZE_FLOOR)
    # range(N) is empty for N <= 0, so nothing divides by zero before
    # _anneal_sizes refuses N < 2
    sizes = [total // N + (i < total % N) for i in range(N)]

    def propose(s: list[int], r: np.random.Generator) -> list[int] | None:
        i, j = (int(x) for x in r.choice(N, size=2, replace=False))
        if s[i] - 1 < _SIZE_FLOOR:
            return None
        s = list(s)
        s[i] -= 1
        s[j] += 1
        return s

    return _anneal_sizes(sizes, target, propose, np.random.default_rng(rng))


# ----- OUR-style benchmark ------------------------------------------------


def _clique_blocks(cliques: Sequence[int]) -> list[range]:
    """Clique i's node ids: the consecutive range after cliques 0..i-1."""
    starts = itertools.accumulate(cliques, initial=0)
    return [range(start, start + c) for start, c in zip(starts, cliques)]


@dataclass
class BenchmarkNet:
    """A clique benchmark with its ground truth and current edge set.

    Clique i holds the consecutive node ids after cliques 0..i-1; the
    nodes after the last clique are singleton communities.  ``graph`` and
    both link tallies are computed from the current edges; degradation
    mutates the edges but never the truth partition.
    """

    cliques: list[int]
    truth: Partition
    edges: set = field(repr=False)
    # the stream degradation draws from; build_benchmark passes its own
    _rng: np.random.Generator = field(default_factory=np.random.default_rng, repr=False, compare=False)

    @property
    def K(self) -> int:
        return self.truth.K

    @property
    def graph(self) -> Graph:
        return Graph(self.K, self.edges)

    @property
    def inclique_count(self) -> int:
        """The number of edges whose two ends share a truth community."""
        assign = self.truth.assign
        return sum(assign[u] == assign[v] for u, v in self.edges)

    @property
    def between_count(self) -> int:
        """The number of edges between two truth communities."""
        return len(self.edges) - self.inclique_count

    def degrade_p(self, p_fn: Callable[[int], float] | float) -> int:
        """Remove each current intra-clique edge with probability p(c_i).

        ``p_fn`` is a probability or a function of the clique size.  Returns
        the number of removed edges.  Ground truth is unchanged.
        """
        fn = p_fn if callable(p_fn) else lambda c: p_fn
        removed = 0
        for c, nodes in zip(self.cliques, _clique_blocks(self.cliques)):
            p = fn(c)
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"removal probability {p} outside [0, 1]")
            present = [pair for pair in itertools.combinations(nodes, 2) if pair in self.edges]
            hits = self._rng.random(len(present)) < p
            gone = [pair for pair, hit in zip(present, hits) if hit]
            self.edges.difference_update(gone)
            removed += len(gone)
        return removed

    def degrade_q(self, q_fn: Callable[[int, int], float] | float) -> int:
        """Create each absent clique-to-clique pair with probability q(c_i, c_j).

        ``q_fn`` is a probability or a function of the two clique sizes.
        Pairs involving singleton nodes are left alone: their only links
        are the attachments made at construction.  Returns the number of
        created edges.
        """
        fn = q_fn if callable(q_fn) else lambda ci, cj: q_fn
        blocks = _clique_blocks(self.cliques)
        created = 0
        for i, ni in enumerate(blocks):
            for j, nj in enumerate(blocks[:i]):
                q = fn(self.cliques[i], self.cliques[j])
                if not (0.0 <= q <= 1.0):
                    raise ValueError(f"creation probability {q} outside [0, 1]")
                if q == 0.0:
                    continue
                hits = self._rng.random((len(ni), len(nj))) < q
                for a, b in zip(*np.nonzero(hits)):
                    # clique j < i holds the smaller id
                    pair = (nj[b], ni[a])
                    if pair not in self.edges:
                        self.edges.add(pair)
                        created += 1
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
    K = int(total / (1.0 - r))  # K - total singletons, floor(r*K) of them
    blocks = _clique_blocks(cliques)
    edges = {pair for nodes in blocks for pair in itertools.combinations(nodes, 2)}

    if cycle:
        for i, nodes in enumerate(blocks):
            u = nodes[0]
            edges.discard((u, nodes[1]))
            nxt = blocks[(i + 1) % len(blocks)][0]
            if u != nxt:
                edges.add((min(u, nxt), max(u, nxt)))

    for node in range(total, K):
        nodes = blocks[int(rng.integers(len(cliques)))]
        anchor = int(rng.choice(nodes))
        edges.add((anchor, node))

    assign = [cid for cid, c in enumerate(cliques) for _ in range(c)]
    assign += range(len(cliques), len(cliques) + K - total)
    return BenchmarkNet(cliques, Partition(assign), edges, rng)


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
