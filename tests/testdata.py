"""Small graphs and benchmark expectations that only the tests use."""

from __future__ import annotations

from collections.abc import Sequence
from itertools import combinations

from surpkit.graph import Graph
from surpkit.partition import Partition


def toy_graph() -> Graph:
    """Two 4-cliques bridged by a 3-node path: 11 nodes, 16 edges.

    Cliques {0,1,2,3} and {4,5,6,7}; path 8-9-10 attached by edges 3-8
    and 10-4.  The surprise landscape of this graph has two tied global
    maxima that differ only in how the path is split, which makes it a
    convenient degeneracy fixture.
    """
    edges = list(combinations(range(4), 2))
    edges += list(combinations(range(4, 8), 2))
    edges += [(8, 9), (9, 10), (3, 8), (10, 4)]
    return Graph(11, edges)


def toy_truth() -> Partition:
    """The planted communities of :func:`toy_graph`: two cliques and the path."""
    return Partition.from_communities([[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10]])


def disconnected_cliques(sizes: list[int]) -> tuple[Graph, Partition]:
    """Disjoint complete graphs of the given sizes, with their exact partition."""
    edges = []
    communities = []
    start = 0
    for c in sizes:
        nodes = list(range(start, start + c))
        edges += list(combinations(nodes, 2))
        communities.append(nodes)
        start += c
    return Graph(start, edges), Partition.from_communities(communities)


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
