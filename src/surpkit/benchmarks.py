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
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from surpkit.graph import Graph
from surpkit.metrics import pielou
from surpkit.partition import Partition
from surpkit.randoms import distinct_pair


# ----- Pielou-controlled size lists --------------------------------------

# pielouer's starting size, the smallest size either generator gives, and
# when both stop: within _TOL of the target evenness, or after _MAX_ITER
# proposals
_SIZE_START = 25
_SIZE_FLOOR = 2
_TOL = 0.01
_MAX_ITER = 100_000

# the unit roundoff of a double, and how many kept moves _anneal_sizes'
# running sum may drift before it is summed afresh
_U = 2.0 ** -53
_RESYNC = 256

# a size change: (index, +1 or -1) pairs with distinct indices
_Move = tuple[tuple[int, int], ...]


def _xlogx(c: int) -> float:
    return c * math.log(c)


def _anneal_sizes(
    sizes: list[int],
    target: float,
    propose: Callable[[list[int], np.random.Generator], _Move | None],
    rng: np.random.Generator,
) -> list[int]:
    """Keep each proposal that moves the evenness of ``sizes`` toward ``target``.

    ``propose(sizes, rng)`` returns a move of at most two sizes, or None
    for a change the size floor forbids.  With err = abs(pielou(sizes) -
    target), the loop keeps a move iff it makes err strictly smaller, and
    stops once err <= _TOL or after _MAX_ITER proposals.  ``sizes`` is
    edited in place and returned.

    Every decision is the one pielou()'s floats make, and most take O(1).
    With T = sum(sizes) and G = sum of c ln c, the entropy is H = ln T -
    G/T, so the evenness J = H / ln N follows a move in O(1).  The loop
    keeps a float G~ within ``slack`` of G and estimates err from it, for
    the sizes now and for the sizes a move gives.  A decision is taken
    from the estimates when they settle it with a margin of delta each,
    and otherwise from pielou() on both sides, as without the screen; the
    stop test is screened the same way against _TOL.

    The margin, to first order in u = 2^-53, with libm's log within one
    ulp (2u relative) and every other operation rounded once (Higham,
    Accuracy and Stability of Numerical Algorithms, 2002, ch. 3-4):
    - pielou() returns p with |p - J| <= (N + 9) u.  Each of its N terms
      (c/T) ln(c/T) is within (c/T) (4u |ln(c/T)| + u), so the terms
      carry 4uH + u; summing them adds at most (N - 1) u H (recursive
      summation; the compensated sum() of Python 3.12 does better); the division by
      ln N adds 3uJ; and H <= ln N with ln N >= ln 2.
    - The estimate (ln T - G~/T) / ln N, in floats, is within
      slack / (T ln N) + u (4 ln T / ln N + 5) of J, as G/T <= ln T.
    - Taking abs(. - target) rounds once more on each side.
    So the estimated and the exact err differ by at most b = slack / (T ln
    N) + u (N + 17 + 4 ln T / ln N); delta = 2b, and the spare b covers
    the roundings of the screen's own sums and comparisons.
    - G~ summed afresh by math.fsum, each term c*log(c) within 3u of c ln
      c, is within 5u G~.  A kept move of m <= 2 sizes adds 2m terms, m
      differences and m sums to G~: at most 18u max(G~ before, after).
      G~ is summed afresh every _RESYNC kept moves, so at N = 640 and T =
      16,000 delta stays below 2e-12.  Then the proposals that need
      pielou() are the exact ties, a unit moved between two sizes one
      apart, whose floats only pielou()'s order of summation decides.
    """
    if len(sizes) < 2:
        raise ValueError("need at least 2 sizes")
    if not (0.0 < target <= 1.0):
        raise ValueError("target evenness must be in (0, 1]")
    N = len(sizes)
    ln_N = math.log(N)

    def screened(G: float, T: int, slack: float) -> tuple[float, float]:
        """The err estimated from G~ and T, and its margin delta = 2b."""
        ln_T = math.log(T)
        b = slack / (T * ln_N) + _U * (N + 17 + 4.0 * ln_T / ln_N)
        return abs((ln_T - G / T) / ln_N - target), 2.0 * b

    def settled(est: float, delta: float) -> bool:
        """The stop test err <= _TOL."""
        return est + delta <= _TOL or (est - delta <= _TOL and abs(pielou(sizes) - target) <= _TOL)

    T = sum(sizes)
    G = math.fsum(map(_xlogx, sizes))
    slack = 5.0 * _U * G
    est, delta = screened(G, T, slack)
    kept = 0
    done = settled(est, delta)
    for _ in range(_MAX_ITER):
        if done:
            break
        move = propose(sizes, rng)
        if move is None:
            continue
        T_new, G_new = T, G
        for i, step in move:
            c = sizes[i]
            T_new += step
            G_new += _xlogx(c + step) - _xlogx(c)
        slack_new = slack + 18.0 * _U * max(G, G_new)
        est_new, delta_new = screened(G_new, T_new, slack_new)
        if not est_new + delta_new < est - delta:
            if est_new - delta_new >= est + delta:
                continue
            err = abs(pielou(sizes) - target)
            for i, step in move:
                sizes[i] += step
            better = abs(pielou(sizes) - target) < err
            for i, step in move:
                sizes[i] -= step
            if not better:
                continue
        for i, step in move:
            sizes[i] += step
        T, G, slack, est, delta = T_new, G_new, slack_new, est_new, delta_new
        kept += 1
        if kept % _RESYNC == 0:
            G = math.fsum(map(_xlogx, sizes))
            slack = 5.0 * _U * G
            est, delta = screened(G, T, slack)
        done = settled(est, delta)
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

    def propose(s: list[int], r: np.random.Generator) -> _Move | None:
        i = int(r.integers(N))
        step = 1 if r.random() < 0.5 else -1
        if s[i] + step < _SIZE_FLOOR:
            return None
        return ((i, step),)

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

    def propose(s: list[int], r: np.random.Generator) -> _Move | None:
        i, j = distinct_pair(r, N)
        if s[i] - 1 < _SIZE_FLOOR:
            return None
        return ((i, -1), (j, 1))

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
            # clique i's pairs with each earlier clique j of q > 0 form a
            # len(ni) x len(nj) block of draws, row by row; numpy gives the
            # same doubles whether the blocks are drawn apart or in one call.
            # The blocks before a refused q are drawn and applied first, so
            # the edges and the stream at the raise are a pair-by-pair loop's
            qs, js, refused = [], [], None
            for j in range(i):
                q = fn(self.cliques[i], self.cliques[j])
                if not (0.0 <= q <= 1.0):
                    refused = ValueError(f"creation probability {q} outside [0, 1]")
                    break
                if q != 0.0:
                    qs.append(q)
                    js.append(j)
            if js:
                widths = np.array([len(blocks[j]) for j in js])
                lengths = len(ni) * widths
                ends = np.cumsum(lengths)
                hits = np.flatnonzero(self._rng.random(int(ends[-1])) < np.repeat(qs, lengths))
                k = np.searchsorted(ends, hits, side="right")
                a, b = np.divmod(hits - (ends - lengths)[k], widths[k])
                # clique j < i holds the smaller id
                firsts = np.array([blocks[j].start for j in js])
                for pair in zip((firsts[k] + b).tolist(), (ni.start + a).tolist()):
                    if pair not in self.edges:
                        self.edges.add(pair)
                        created += 1
            if refused is not None:
                raise refused
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
        # the draw and the stream of int(rng.choice(nodes)), without choice
        anchor = nodes[int(rng.integers(len(nodes)))]
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
