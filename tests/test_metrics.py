import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surpkit.graph import Graph
from surpkit.metrics import FragmentationReport, fragmentation, modularity, pielou, vi
from surpkit.partition import Partition

from testdata import disconnected_cliques


def partitions_of(K):
    return st.lists(st.integers(0, K - 1), min_size=K, max_size=K).map(Partition)


@st.composite
def partition_pairs(draw, max_k=60):
    K = draw(st.integers(2, max_k))
    a = draw(partitions_of(K))
    b = draw(partitions_of(K))
    return a, b


def reference_vi(a, b):
    """VI filled and summed element by element over numpy scalars."""
    K = a.K
    if tuple(Partition(a.assign).assign) == tuple(Partition(b.assign).assign):
        return 0.0
    joint = np.zeros((a.Nc, b.Nc))
    for node in range(K):
        joint[a.assign[node], b.assign[node]] += 1.0
    joint /= K
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)

    def entropy(p):
        nz = p[p > 0]
        return float(-(nz * np.log(nz)).sum())

    mutual = 0.0
    for i in range(a.Nc):
        for j in range(b.Nc):
            pij = joint[i, j]
            if pij > 0:
                mutual += pij * math.log(pij / (pa[i] * pb[j]))
    return max(entropy(pa) + entropy(pb) - 2.0 * mutual, 0.0)


def permuted_ids(draw, p):
    """p with its dense ids permuted in place, as the optimizer leaves them:
    no longer numbered in order of first appearance."""
    perm = draw(st.permutations(range(p.Nc)))
    q = p.copy()
    q.assign = [perm[c] for c in p.assign]
    q.comms = [set() for _ in p.comms]
    for node, c in enumerate(q.assign):
        q.comms[c].add(node)
    return q


@st.composite
def relabeled_pairs(draw, max_k=60):
    """A partition and a copy with a few nodes moved, both with permuted ids."""
    K = draw(st.integers(2, max_k))
    a = draw(partitions_of(K))
    assign = list(a.assign)
    for node in draw(st.lists(st.integers(0, K - 1), max_size=3)):
        assign[node] = draw(st.integers(0, a.Nc))
    return permuted_ids(draw, a), permuted_ids(draw, Partition(assign))


@st.composite
def random_pairs(draw, max_k=60):
    a, b = draw(partition_pairs(max_k))
    return permuted_ids(draw, a), permuted_ids(draw, b)


@st.composite
def equal_count_pairs(draw, max_k=60):
    """(a, b, identical): b has as many communities as a, and is either a
    relabeled copy of a or a with one node moved out of a community of
    two or more into another community; both with permuted ids."""
    K = draw(st.integers(3, max_k))
    Nc = draw(st.integers(2, K - 1))
    assign = list(range(Nc)) + draw(st.lists(st.integers(0, Nc - 1), min_size=K - Nc, max_size=K - Nc))
    a = Partition(draw(st.permutations(assign)))
    identical = draw(st.booleans())
    b = a
    if not identical:
        node = draw(st.sampled_from([v for v in range(K) if len(a.comms[a.assign[v]]) > 1]))
        dst = draw(st.sampled_from([c for c in range(Nc) if c != a.assign[node]]))
        moved = list(a.assign)
        moved[node] = dst
        b = Partition(moved)
        assert b.Nc == a.Nc
    return permuted_ids(draw, a), permuted_ids(draw, b), identical


def scheme_fixture():
    """30 nodes in 6 planted communities scattered into 5 found ones.

    Block layout per found community:
    a1 = 4A + 2C + 1D, a2 = 2A + 3C + 1D, a3 = 3B + 1C + 1D,
    a4 = 1B + 2E + 1F, a5 = 4E + 4F, with planted sizes
    A=6, B=4, C=6, D=3, E=6, F=5.
    """
    initial = Partition([0] * 6 + [1] * 4 + [2] * 6 + [3] * 3 + [4] * 6 + [5] * 5)
    found = [0] * 30
    blocks = [
        (0, [(0, 4), (2, 2), (3, 1)]),
        (1, [(0, 2), (2, 3), (3, 1)]),
        (2, [(1, 3), (2, 1), (3, 1)]),
        (3, [(1, 1), (4, 2), (5, 1)]),
        (4, [(4, 4), (5, 4)]),
    ]
    cursors = {0: 0, 1: 6, 2: 10, 3: 16, 4: 19, 5: 25}
    for cid, parts in blocks:
        for init_c, count in parts:
            for _ in range(count):
                found[cursors[init_c]] = cid
                cursors[init_c] += 1
    return initial, Partition(found)


class TestVI:
    def test_identical_zero(self, truth):
        assert vi(truth, truth) == 0.0

    def test_singletons_vs_lump(self):
        a = Partition.singletons(4)
        b = Partition([0, 0, 0, 0])
        assert vi(a, b) == pytest.approx(math.log(4), rel=1e-12)
        assert vi(a, b, normalized=True) == pytest.approx(1.0, rel=1e-12)

    def test_mismatch(self):
        with pytest.raises(ValueError):
            vi(Partition.singletons(3), Partition.singletons(4))

    def test_single_node_normalized(self):
        one = Partition([0])
        assert vi(one, one, normalized=True) == 0.0

    @given(partition_pairs())
    def test_symmetry(self, pair):
        a, b = pair
        assert vi(a, b) == pytest.approx(vi(b, a), abs=1e-12)

    @given(partitions_of(20), st.permutations(range(20)))
    def test_relabel_invariance(self, a, perm):
        b = Partition([perm[c] for c in a.assign])
        assert vi(a, b) == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=200)
    @given(st.integers(2, 30), st.data())
    def test_triangle_inequality(self, K, data):
        a = data.draw(partitions_of(K))
        b = data.draw(partitions_of(K))
        c = data.draw(partitions_of(K))
        assert vi(a, c) <= vi(a, b) + vi(b, c) + 1e-9

    @settings(max_examples=300)
    @given(st.one_of(relabeled_pairs(), random_pairs()))
    def test_bit_identical_to_reference(self, pair):
        a, b = pair
        assert a.canonical() == tuple(Partition(a.assign).assign)
        got, want = vi(a, b), reference_vi(a, b)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        assert vi(a, b, normalized=True) == want / math.log(a.K)

    @settings(max_examples=300)
    @given(equal_count_pairs())
    def test_equal_community_counts_match_reference(self, case):
        a, b, identical = case
        got, want = vi(a, b), reference_vi(a, b)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        assert vi(a, b, normalized=True) == want / math.log(a.K)
        assert (got == 0.0) == identical

    @given(partition_pairs(max_k=40))
    def test_bounded_by_lnK(self, pair):
        a, b = pair
        assert 0.0 <= vi(a, b) <= math.log(a.K) + 1e-9
        assert 0.0 <= vi(a, b, normalized=True) <= 1.0 + 1e-12


class TestPielou:
    def test_equal_sizes(self):
        assert pielou([5, 5, 5, 5]) == pytest.approx(1.0, rel=1e-12)

    def test_single_community(self):
        assert pielou([17]) == 0.0

    def test_known_value(self):
        # H([2,2,4]/8) = 1.5 ln 2, over ln 3
        assert pielou([2, 2, 4]) == pytest.approx(1.5 * math.log(2) / math.log(3), rel=1e-9)
        assert pielou([2, 2, 4]) == pytest.approx(0.94639, abs=5e-6)

    @pytest.mark.parametrize("bad", [[], [0, 3], [2, -1]])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            pielou(bad)

    @given(st.lists(st.integers(1, 50), min_size=2, max_size=20))
    def test_range_and_permutation_invariance(self, sizes):
        value = pielou(sizes)
        assert 0.0 <= value <= 1.0 + 1e-12
        assert pielou(sorted(sizes, reverse=True)) == pytest.approx(value, rel=1e-12)

    @given(st.lists(st.integers(1, 50), min_size=2, max_size=20))
    def test_strictly_below_one_when_uneven(self, sizes):
        if len(set(sizes)) > 1:
            assert pielou(sizes) < 1.0


class TestModularity:
    def test_all_in_one_zero(self, toy):
        assert modularity(toy, Partition([0] * 11)) == pytest.approx(0.0, abs=1e-12)

    def test_toy_maximum_is_three_communities(self, toy, truth, toy_modularity_oracle):
        best, argmax = toy_modularity_oracle
        assert len(argmax) == 1
        assert argmax[0] == truth
        assert modularity(toy, truth) == pytest.approx(best, abs=1e-12)

    def test_two_cliques_half(self):
        g, truth = disconnected_cliques([5, 5])
        assert modularity(g, truth) == pytest.approx(0.5, rel=1e-12)

    def test_edgeless_rejected(self):
        g = Graph(3, [])
        with pytest.raises(ValueError):
            modularity(g, Partition.singletons(3))


class TestFragmentation:
    def test_worked_example(self):
        initial, found = scheme_fixture()
        r = fragmentation(initial, found)
        assert r.kept_pct == pytest.approx(73.33, abs=5e-3)
        assert r.comms_pct == pytest.approx(66.67, abs=5e-3)
        assert r.dispersed_pct == pytest.approx(26.67, abs=5e-3)
        assert r.fragments_pct == pytest.approx(116.67, abs=5e-3)
        assert r.joined_pct == pytest.approx(33.33, abs=5e-3)
        assert r.obliterated_pct == pytest.approx(16.67, abs=5e-3)
        assert r.nc_ratio_pct == pytest.approx(83.33, abs=5e-3)

    def test_identity(self, truth):
        r = fragmentation(truth, truth)
        assert r == FragmentationReport(100.0, 100.0, 0.0, 100.0, 0.0, 0.0, 100.0)

    def test_relabeled_identity(self, truth):
        relabeled = Partition([[7, 3, 5][c] for c in truth.assign])
        assert fragmentation(truth, relabeled) == fragmentation(truth, truth)

    def test_all_joined_into_one(self):
        initial = Partition([0] * 3 + [1] * 3 + [2] * 3)
        found = Partition([0] * 9)
        r = fragmentation(initial, found)
        assert r.fragments_pct == pytest.approx(100.0)
        assert r.joined_pct == pytest.approx(200.0 / 3, abs=1e-9)
        assert r.kept_pct == pytest.approx(100.0)
        assert r.obliterated_pct == 0.0

    def test_kept_dispersed_sum(self):
        initial, found = scheme_fixture()
        r = fragmentation(initial, found)
        assert r.kept_pct + r.dispersed_pct == pytest.approx(100.0, abs=1e-9)

    def test_mismatch(self):
        with pytest.raises(ValueError):
            fragmentation(Partition.singletons(3), Partition.singletons(4))

    def test_csv_shape(self):
        initial, found = scheme_fixture()
        lines = fragmentation(initial, found).as_csv().splitlines()
        assert lines[0].count(",") == lines[1].count(",") == 6
