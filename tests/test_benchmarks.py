import dataclasses
import math

import numpy as np
import pytest

from surpkit.benchmarks import build_benchmark, pielouer, pielouer_nodes, rc_degrade
from surpkit.metrics import pielou

from testdata import expected_counts, toy_graph


class TestPielouer:
    def test_target_one_stays_equal(self):
        sizes = pielouer(10, 1.0, rng=0)
        assert len(set(sizes)) == 1

    def test_target_085(self):
        for seed in range(5):
            sizes = pielouer(20, 0.85, rng=seed)
            assert abs(pielou(sizes) - 0.85) <= 0.01

    def test_target_075(self):
        sizes = pielouer(40, 0.75, rng=1)
        assert abs(pielou(sizes) - 0.75) <= 0.01

    def test_floor_respected(self):
        # the floor of 2 binds at this evenness, and no size goes below it
        assert min(pielouer(15, 0.7, rng=2)) == 2
        assert min(pielouer_nodes(10, 0.5, (40, 40), rng=0)) == 2

    @pytest.mark.parametrize("N,target", [(1, 0.5), (5, 0.0), (5, 1.5)])
    def test_domain(self, N, target):
        with pytest.raises(ValueError):
            pielouer(N, target)


class TestPielouerNodes:
    def test_sum_fixed(self):
        sizes = pielouer_nodes(20, 0.85, (495, 495), rng=0)
        assert sum(sizes) == 495
        assert abs(pielou(sizes) - 0.85) <= 0.01

    def test_target_one_equal_split(self):
        sizes = pielouer_nodes(10, 1.0, (40, 40), rng=0)
        assert sizes == [4] * 10

    def test_infeasible(self):
        with pytest.raises(ValueError):
            pielouer_nodes(10, 0.9, (5, 8))

    def test_sum_and_target(self):
        sizes = pielouer_nodes(40, 0.95, (990, 990), rng=3)
        assert sum(sizes) == 990
        assert abs(pielou(sizes) - 0.95) <= 0.01

    def test_inverted_range_refused(self):
        # used to return [9, 5, 16], whose total of 30 lies outside the range
        with pytest.raises(ValueError, match="empty"):
            pielouer_nodes(3, 0.9, (30, 12), rng=0)


class TestBuildBenchmark:
    def test_two_triangles(self):
        net = build_benchmark([3, 3], rng=0)
        g = net.graph
        assert g.K == 6 and g.n == 6
        assert g.links_in({0, 1, 2}) == (3, 0)
        assert net.truth.Nc == 2

    def test_singleton_bookkeeping(self):
        sizes = pielouer_nodes(20, 0.85, (495, 495), rng=0)
        net = build_benchmark(sizes, r=0.01, rng=0)
        assert net.K == 500
        assert net.truth.Nc == 25
        assert net.between_count == 5
        # each singleton has exactly one edge
        g = net.graph
        for node in range(495, 500):
            assert g.degree(node) == 1

    def test_undegraded_counts_match_expectation(self):
        sizes = [4, 4]
        net = build_benchmark(sizes, rng=0)
        K, Nc, mean_in, mean_out = expected_counts(sizes, 0.0, 0.0, 0.0)
        assert (K, Nc) == (8, 2)
        assert net.inclique_count == mean_in == 12
        assert net.between_count == mean_out == 0

    def test_truth_untouched_by_degradation(self):
        net = build_benchmark([5, 5, 5], r=0.0, rng=0)
        before = net.truth.canonical()
        net.degrade_p(0.5)
        net.degrade_q(0.2)
        assert net.truth.canonical() == before

    def test_replaced_copy_degrades(self):
        # the degradation stream is a declared field, so dataclasses.replace
        # carries it over
        net = build_benchmark([5, 5, 5], r=0.0, rng=0)
        assert dataclasses.replace(net).degrade_p(0.5) > 0

    def test_cycle_connects_ring(self):
        net = build_benchmark([5, 5, 5, 5], cycle=True, rng=0)
        g = net.graph
        # one edge removed and one added per clique: total count unchanged
        assert g.n == 4 * 10
        # the ring makes the graph connected
        seen = {0}
        frontier = [0]
        while frontier:
            u = frontier.pop()
            for v in g.adj[u]:
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
        assert len(seen) == g.K

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            build_benchmark([1, 4])
        with pytest.raises(ValueError):
            build_benchmark([3, 3], r=1.0)


class TestDegradation:
    def test_p_zero_removes_nothing(self):
        net = build_benchmark([6, 6], rng=0)
        assert net.degrade_p(0.0) == 0
        assert net.inclique_count == 30

    def test_p_one_removes_everything(self):
        net = build_benchmark([6, 6], rng=0)
        assert net.degrade_p(1.0) == 30
        assert net.inclique_count == 0

    def test_q_one_fills_every_cross_pair(self):
        net = build_benchmark([3, 4], rng=0)
        assert net.degrade_q(1.0) == 12
        assert net.graph.links_in({0, 1, 2}) == (3, 12)

    def test_probability_domain(self):
        net = build_benchmark([3, 3], rng=0)
        with pytest.raises(ValueError):
            net.degrade_p(1.5)
        with pytest.raises(ValueError):
            net.degrade_q(-0.1)

    def test_size_dependent_probabilities(self):
        net = build_benchmark([4, 8], rng=0)
        # remove only inside the bigger clique
        removed = net.degrade_p(lambda c: 1.0 if c == 8 else 0.0)
        assert removed == 28
        assert net.graph.links_in({0, 1, 2, 3}) == (6, 0)

    def test_realized_counts_within_3_sigma(self):
        # 20 cliques of 10, p=0.3, q=0.015
        sizes = [10] * 20
        p, q = 0.3, 0.015
        net = build_benchmark(sizes, rng=42)
        net.degrade_p(p)
        net.degrade_q(q)
        n_in_pairs = 20 * 45
        cross_pairs = (200 ** 2 - 20 * 100) // 2
        mean_in = (1 - p) * n_in_pairs
        sd_in = math.sqrt(p * (1 - p) * n_in_pairs)
        mean_out = q * cross_pairs
        sd_out = math.sqrt(q * (1 - q) * cross_pairs)
        assert abs(net.inclique_count - mean_in) <= 3 * sd_in
        assert abs(net.between_count - mean_out) <= 3 * sd_out

    def test_monte_carlo_matches_expected_counts(self):
        sizes = [10] * 20
        r, p, q = 0.2, 0.25, 0.01
        K, Nc, mean_in, mean_out = expected_counts(sizes, r, p, q)
        assert K == 250 and Nc == 70
        ins, outs = [], []
        rng = np.random.default_rng(7)
        for _ in range(200):
            net = build_benchmark(sizes, r=r, rng=rng)
            net.degrade_p(p)
            net.degrade_q(q)
            ins.append(net.inclique_count)
            outs.append(net.between_count)
        assert np.mean(ins) == pytest.approx(mean_in, rel=0.02)
        assert np.mean(outs) == pytest.approx(mean_out, rel=0.02)

    def test_expected_counts_singleton_term(self):
        sizes = [25] * 15 + [24] * 5
        _, _, _, mean_out = expected_counts(sizes, 0.01, 0.0, 0.0)
        assert mean_out == pytest.approx(0.01 / 0.99 * 495, rel=1e-12)


def block_links(net) -> int:
    """Edges inside the cliques' consecutive id blocks, counted from the adjacency."""
    adj, start, inside = net.graph.adj, 0, 0
    for c in net.cliques:
        block = set(range(start, start + c))
        inside += sum(len(adj[u] & block) for u in block) // 2
        start += c
    return inside


class TestDerivedTallies:
    @pytest.mark.parametrize("seed", range(40))
    def test_tallies_follow_the_edges(self, seed):
        # seeds cover cycle off and on, each with float and callable p and q
        g = np.random.default_rng(seed)
        cliques = [int(c) for c in g.integers(2, 9, size=int(g.integers(2, 6)))]
        r, p, q = float(g.uniform(0.01, 0.4)), float(g.uniform(0.0, 0.6)), float(g.uniform(0.0, 0.2))
        if seed % 4 >= 2:
            p, q = (lambda c, p=p: p * c / 8), (lambda ci, cj, q=q: q * min(ci, cj) / 8)
        net = build_benchmark(cliques, r, seed % 2 == 1, rng=seed)

        def tallies():
            assert net.inclique_count == block_links(net)
            assert net.inclique_count + net.between_count == net.graph.n
            return net.inclique_count, net.between_count

        in0, out0 = tallies()
        removed = net.degrade_p(p)
        in1, out1 = tallies()
        created = net.degrade_q(q)
        in2, out2 = tallies()
        assert (removed, out1) == (in0 - in1, out0)
        assert (created, in2) == (out2 - out1, in1)


class TestRCDegrade:
    def test_zero_identity(self):
        g = toy_graph()
        assert rc_degrade(g, 0.0, rng=0) == g

    def test_full_removal(self):
        g = toy_graph()
        out = rc_degrade(g, 100.0, rng=0)
        assert out.K == g.K and out.n == 0

    def test_counts_at_fifty(self):
        g = build_benchmark([10] * 10, rng=0).graph
        assert g.n == 450
        out = rc_degrade(g, 50.0, rng=1)
        # 225 removed, then 112 of the remaining 225 rewired
        assert out.K == g.K and out.n == 225

    def test_no_self_loops_or_duplicates(self):
        g = build_benchmark([8] * 5, rng=0).graph
        out = rc_degrade(g, 60.0, rng=2)
        assert all(u != v for u, v in out.edges)
        assert len(out.edges) == out.n

    def test_domain(self):
        with pytest.raises(ValueError):
            rc_degrade(toy_graph(), 101.0)

    def test_deterministic(self):
        g = build_benchmark([8] * 5, rng=0).graph
        assert rc_degrade(g, 30.0, rng=9) == rc_degrade(g, 30.0, rng=9)
