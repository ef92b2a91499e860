"""Exhaustive search over every set partition of a small graph.

Used as an independent oracle for the optimizer: the number of set
partitions grows as the Bell numbers (678,570 at K=11), so enumeration is
refused above K=12.
"""

from __future__ import annotations

from functools import cache

from surpkit.graph import Graph
from surpkit.metrics import modularity_sum
from surpkit.partition import Partition
from surpkit.surprise import surprise

MAX_EXHAUSTIVE_K = 12
# partitions whose value is within this of the maximum are all maximizers
_TOL = 1e-9


def best_partitions(graph: Graph, quality: str) -> tuple[float, list[Partition]]:
    """Exhaustive maximization of ``quality``, "surprise" or "modularity".

    Returns the maximum value and every partition within ``_TOL`` of it,
    in enumeration order.

    The partitions are visited once each as restricted growth strings:
    node 0 is in community 0, and each later node tries the communities
    so far in ascending id, then a new one.  Each step carries M, ell and
    every community's internal links and degree sum, updated in O(degree)
    from the node's links to the nodes already placed.  Surprise depends
    on a partition only through (M, ell), so it is memoized by that pair;
    modularity is summed over the communities in id order by the same
    :func:`~surpkit.metrics.modularity_sum` as ``metrics.modularity``, so
    both give the same float.
    """
    if quality not in ("surprise", "modularity"):
        raise ValueError(f"unknown quality {quality!r}; expected 'surprise' or 'modularity'")
    K, n, adj = graph.K, graph.n, graph.adj
    if K > MAX_EXHAUSTIVE_K:
        raise ValueError(f"exhaustive enumeration refused for K={K} > {MAX_EXHAUSTIVE_K}")
    if quality == "modularity" and n < 1:
        raise ValueError("modularity undefined on an edgeless graph")
    price = cache(lambda M, ell: surprise(graph.F, M, n, ell))
    assign = [0] * K
    # per community id: size, internal links, degree sum; ids >= nc are empty
    sizes, links, degrees = [0] * K, [0] * K, [0] * K
    best = -float("inf")
    argmax: list[Partition] = []

    def place(i: int, nc: int, M: int, ell: int) -> None:
        """Put node i and the later nodes, nodes 0..i-1 being in nc communities."""
        nonlocal best, argmax
        if i == K:
            if quality == "surprise":
                v = price(M, ell)
            else:
                v = modularity_sum(n, links[:nc], degrees)
            if v > best + _TOL:
                best = v
                argmax = [Partition(assign)]
            elif v >= best - _TOL:
                argmax.append(Partition(assign))
            return
        into = [0] * (nc + 1)  # node i's links into each community, new last
        for u in adj[i]:
            if u < i:
                into[assign[u]] += 1
        deg = len(adj[i])
        for cid, k in enumerate(into):
            assign[i] = cid
            size = sizes[cid]
            sizes[cid] += 1
            links[cid] += k
            degrees[cid] += deg
            place(i + 1, max(nc, cid + 1), M + size, ell + k)
            sizes[cid] -= 1
            links[cid] -= k
            degrees[cid] -= deg

    place(0, 0, 0, 0)
    return best, argmax
