"""Brute-force search over every set partition of a small graph.

Used as an independent oracle for the optimizer: the number of set
partitions grows as the Bell numbers (678,570 at K=11), so enumeration is
refused above K=12.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

from surpkit.graph import Graph
from surpkit.partition import Partition
from surpkit.surprise import surprise

MAX_EXHAUSTIVE_K = 12
# partitions whose value is within this of the maximum are all maximizers
_TOL = 1e-9


def set_partitions(K: int) -> Iterator[list[int]]:
    """All set partitions of K items as restricted growth strings.

    A restricted growth string assigns item 0 the id 0 and each later item
    an id at most one above the maximum so far, so each partition appears
    exactly once in canonical labeling.
    """
    assign = [0] * K

    def rec(i: int, mx: int) -> Iterator[list[int]]:
        if i == K:
            yield assign
            return
        for cid in range(mx + 2):
            assign[i] = cid
            yield from rec(i + 1, max(mx, cid))

    yield from rec(1, 0)


def _best(graph: Graph, value: Callable[[list[int]], float]) -> tuple[float, list[Partition]]:
    """The maximum of ``value`` over every restricted growth string, and
    the partitions within ``_TOL`` of it."""
    if graph.K > MAX_EXHAUSTIVE_K:
        raise ValueError(
            f"exhaustive enumeration refused for K={graph.K} > {MAX_EXHAUSTIVE_K}"
        )
    best = -float("inf")
    argmax: list[Partition] = []
    for assign in set_partitions(graph.K):
        v = value(assign)
        if v > best + _TOL:
            best = v
            argmax = [Partition(assign)]
        elif v >= best - _TOL:
            argmax.append(Partition(assign))
    return best, argmax


def best_partitions(
    graph: Graph, quality: Callable[[Graph, Partition], float]
) -> tuple[float, list[Partition]]:
    """Exhaustive maximization of an arbitrary quality function.

    Returns the maximum value and every partition within 1e-9 of it.
    """
    return _best(graph, lambda assign: quality(graph, Partition(assign)))


def best_surprise_partitions(graph: Graph) -> tuple[float, list[Partition]]:
    """Exhaustive surprise maximization, caching S by the (M, ell) summary.

    Returns the maximum S and every partition within 1e-9 of it.

    F and n are fixed by the graph, so surprise depends on a partition only
    through (M, ell); caching collapses the 678,570 evaluations at K=11 to
    a few hundred distinct ones.
    """
    cache: dict[tuple[int, int], float] = {}
    edges = list(graph.edges)

    def value(assign: list[int]) -> float:
        counts: dict[int, int] = {}
        for cid in assign:
            counts[cid] = counts.get(cid, 0) + 1
        M = sum(c * (c - 1) // 2 for c in counts.values())
        ell = sum(1 for u, v in edges if assign[u] == assign[v])
        S = cache.get((M, ell))
        if S is None:
            S = cache[M, ell] = surprise(graph.F, M, graph.n, ell)
        return S

    return _best(graph, value)
