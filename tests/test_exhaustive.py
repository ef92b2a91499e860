"""The exhaustive oracle against a brute-force reference that prices every
partition from scratch through an arbitrary quality callable."""

from collections.abc import Callable, Iterator

import numpy as np
import pytest

from surpkit.exhaustive import _TOL, MAX_EXHAUSTIVE_K, best_partitions
from surpkit.graph import Graph
from surpkit.metrics import modularity
from surpkit.partition import Partition
from surpkit.surprise import partition_stats


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


def reference_best_partitions(
    graph: Graph, quality: Callable[[Graph, Partition], float]
) -> tuple[float, list[Partition]]:
    """Exhaustive maximization of an arbitrary quality function, each
    partition priced from scratch."""
    return _best(graph, lambda assign: quality(graph, Partition(assign)))


REFERENCE_QUALITY = {
    "surprise": lambda g, p: partition_stats(g, p)[2],
    "modularity": modularity,
}


def seeded_graphs(count=200):
    """K = 1..8 in turn, each at edge densities 0, 1/4, 1/2, 3/4 and 1, so
    every K meets the edgeless and the complete graph."""
    for seed in range(count):
        rng = np.random.default_rng(seed)
        K, p = 1 + seed % 8, (seed // 8) % 5 / 4
        pairs = [(u, v) for u in range(K) for v in range(u + 1, K)]
        yield seed, Graph(K, [e for e, x in zip(pairs, rng.random(len(pairs))) if x < p])


def outcome(find, graph, quality):
    """(value bits, maximizer assignments), or the refusal's message."""
    try:
        best, argmax = find(graph, quality)
    except ValueError as exc:
        return f"refused: {exc}"
    return best.hex(), [p.assign for p in argmax]


@pytest.mark.parametrize("quality", ["surprise", "modularity"])
def test_matches_reference(quality):
    # the same value bits and the same maximizers in the same order; an
    # edgeless graph has a surprise and refuses modularity on both sides
    refused = quality == "modularity"
    kinds = set()
    for seed, g in seeded_graphs():
        got = outcome(best_partitions, g, quality)
        want = outcome(reference_best_partitions, g, REFERENCE_QUALITY[quality])
        assert got == want, f"seed {seed}: {g!r}"
        kinds.add((g.K == 1, g.n == 0, isinstance(got, str)))
    # (K = 1, edgeless, refused): each kind the sample must reach
    assert kinds == {(True, True, refused), (False, True, refused), (False, False, False)}


@pytest.mark.parametrize("quality", ["Surprise", "", "vi"])
def test_unknown_quality_refused(quality):
    with pytest.raises(ValueError, match=rf"^unknown quality {quality!r}"):
        best_partitions(Graph(3, [(0, 1)]), quality)
