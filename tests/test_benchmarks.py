import dataclasses
import importlib
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surpkit.benchmarks import _MAX_ITER, _SIZE_FLOOR, _TOL, _anneal_sizes, build_benchmark, pielouer, pielouer_nodes, rc_degrade
from surpkit.metrics import pielou

from testdata import expected_counts, toy_graph

benchmarks_module = importlib.import_module("surpkit.benchmarks")


# ----- reference copies: the generators before their O(1) screens -----------


def reference_anneal_sizes(sizes, target, propose, rng):
    """_anneal_sizes pricing every proposal with pielou(); ``propose`` returns a copy."""
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


def reference_pielouer(N, target, rng=None):
    def propose(s, r):
        i = int(r.integers(N))
        step = 1 if r.random() < 0.5 else -1
        if s[i] + step < _SIZE_FLOOR:
            return None
        s = list(s)
        s[i] += step
        return s

    return reference_anneal_sizes([25] * N, target, propose, np.random.default_rng(rng))


def reference_pielouer_nodes(N, target, K_range, rng=None):
    total = max(K_range[0], N * _SIZE_FLOOR)
    sizes = [total // N + (i < total % N) for i in range(N)]

    def propose(s, r):
        i, j = (int(x) for x in r.choice(N, size=2, replace=False))
        if s[i] - 1 < _SIZE_FLOOR:
            return None
        s = list(s)
        s[i] -= 1
        s[j] += 1
        return s

    return reference_anneal_sizes(sizes, target, propose, np.random.default_rng(rng))


def reference_anchor(rng, nodes):
    """build_benchmark's draw of a singleton's anchor in clique range ``nodes``."""
    return int(rng.choice(nodes))


def reference_degrade_q(net, q_fn):
    """degrade_q with one draw per pair of cliques."""
    fn = q_fn if callable(q_fn) else lambda ci, cj: q_fn
    starts = list(itertools.accumulate(net.cliques, initial=0))
    blocks = [range(start, start + c) for start, c in zip(starts, net.cliques)]
    created = 0
    for i, ni in enumerate(blocks):
        for j, nj in enumerate(blocks[:i]):
            q = fn(net.cliques[i], net.cliques[j])
            if not (0.0 <= q <= 1.0):
                raise ValueError(f"creation probability {q} outside [0, 1]")
            if q == 0.0:
                continue
            hits = net._rng.random((len(ni), len(nj))) < q
            for a, b in zip(*np.nonzero(hits)):
                pair = (nj[b], ni[a])
                if pair not in net.edges:
                    net.edges.add(pair)
                    created += 1
    return created


def drawn(fn, *args, seed):
    """fn's result on a fresh generator of ``seed``, and the generator's final state."""
    rng = np.random.default_rng(seed)
    return fn(*args, rng=rng), rng.bit_generator.state


def broken_tie(target):
    """Sizes and a move between two entries one apart: the same multiset, so
    the same evenness in exact arithmetic, but a smaller error in pielou()'s
    floats, as summing in another order gives."""
    r = random.Random(0)
    for _ in range(100_000):
        sizes = [r.randint(2, 12) for _ in range(r.randint(3, 8))]
        err = abs(pielou(sizes) - target)
        for i, j in itertools.permutations(range(len(sizes)), 2):
            if sizes[i] - 1 == sizes[j] > _SIZE_FLOOR:
                moved = list(sizes)
                moved[i], moved[j] = sizes[j], sizes[i]
                if abs(pielou(moved) - target) < err:
                    return sizes, i, j
    raise AssertionError("no tie that pielou()'s floats break")


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


class TestAgainstReference:
    """Each generator makes the reference copy's sizes, edges and rng stream."""

    @settings(max_examples=30, deadline=None)
    @given(
        N=st.integers(2, 40),
        target=st.floats(0.7, 1.0),
        spread=st.integers(3, 30),
        nodes=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sizes(self, N, target, spread, nodes, seed):
        if nodes:
            K = (2 + spread) * N
            assert drawn(pielouer_nodes, N, target, (K, K), seed=seed) == drawn(
                reference_pielouer_nodes, N, target, (K, K), seed=seed
            )
        else:
            assert drawn(pielouer, N, target, seed=seed) == drawn(reference_pielouer, N, target, seed=seed)

    @pytest.mark.parametrize(
        "fn,ref,args",
        [
            # the floor binds: (2, 2, 5) is as uneven as nine units get
            (pielouer_nodes, reference_pielouer_nodes, (3, 0.3, (9, 9))),
            # a kept move changes one size by one unit: 100,000 proposals fall short
            (pielouer, reference_pielouer, (10, 0.05)),
        ],
    )
    def test_sizes_when_the_budget_runs_out(self, fn, ref, args):
        (sizes, state) = drawn(fn, *args, seed=5)
        assert abs(pielou(sizes) - args[1]) > _TOL
        assert (sizes, state) == drawn(ref, *args, seed=5)

    def test_estimate_within_its_margin_takes_pielou(self, monkeypatch):
        # a tie the floats break is kept, and the move back is refused: a
        # screen that decided either without pielou() would get one wrong
        target = 0.5
        sizes, i, j = broken_tie(target)
        script = iter([((i, -1), (j, 1)), ((j, -1), (i, 1))])

        def propose(s, r):
            return next(script, None)

        def copying(s, r):
            move = propose(s, r)
            if move is None:
                return None
            s = list(s)
            for k, step in move:
                s[k] += step
            return s

        expected = list(sizes)
        expected[i], expected[j] = sizes[j], sizes[i]
        calls = []
        monkeypatch.setattr(benchmarks_module, "pielou", lambda s: calls.append(1) or pielou(s))
        assert _anneal_sizes(list(sizes), target, propose, None) == expected
        assert len(calls) == 4
        script = iter([((i, -1), (j, 1)), ((j, -1), (i, 1))])
        assert reference_anneal_sizes(list(sizes), target, copying, None) == expected

    @pytest.mark.parametrize("seed", range(200))
    def test_anchor_draw(self, seed):
        ranged, chosen = np.random.default_rng(seed), np.random.default_rng(seed)
        g = random.Random(seed)
        for _ in range(20):
            start = g.randrange(0, 5000)
            nodes = range(start, start + g.randint(2, 1000))
            assert nodes[int(ranged.integers(len(nodes)))] == reference_anchor(chosen, nodes)
            assert ranged.bit_generator.state == chosen.bit_generator.state

    @settings(max_examples=80, deadline=None)
    @given(
        cliques=st.lists(st.integers(2, 9), min_size=1, max_size=8),
        qs=st.lists(st.sampled_from([0.0, 0.0, 0.05, 0.3, 1.0]), min_size=81, max_size=81),
        scalar=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_degrade_q(self, cliques, qs, scalar, seed):
        # the callable gives some pairs of cliques q = 0, which draw nothing
        q_fn = qs[0] if scalar else (lambda ci, cj: qs[9 * (ci - 1) + cj - 1])
        net, ref = (build_benchmark(cliques, r=0.1, rng=seed) for _ in range(2))
        net.degrade_p(0.3)
        ref.degrade_p(0.3)
        assert net.degrade_q(q_fn) == reference_degrade_q(ref, q_fn)
        assert net.edges == ref.edges
        assert net._rng.bit_generator.state == ref._rng.bit_generator.state

    @settings(max_examples=40, deadline=None)
    @given(
        cliques=st.lists(st.integers(2, 9), min_size=3, max_size=8),
        bad=st.sampled_from([1.5, -0.1, math.nan]),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_degrade_q_refused_inside_a_clique(self, cliques, bad, data, seed):
        # the refused q comes on call k; the pairs before it are drawn and applied
        k = data.draw(st.integers(0, len(cliques) * (len(cliques) - 1) // 2 - 1))

        def q_fn():
            calls = itertools.count()
            return lambda ci, cj: bad if next(calls) == k else 0.2

        net, ref = (build_benchmark(cliques, rng=seed) for _ in range(2))
        with pytest.raises(ValueError, match="creation probability"):
            net.degrade_q(q_fn())
        with pytest.raises(ValueError, match="creation probability"):
            reference_degrade_q(ref, q_fn())
        assert net.edges == ref.edges
        assert net._rng.bit_generator.state == ref._rng.bit_generator.state


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
