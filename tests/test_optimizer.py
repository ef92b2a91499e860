import hashlib
import importlib
import math
import random
import re
from collections import Counter
from bisect import bisect_right
from contextlib import contextmanager, nullcontext
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from surpkit.benchmarks import build_benchmark, pielouer_nodes
from surpkit.cli import sub_rng
from surpkit.exhaustive import best_partitions
from surpkit.graph import Graph
from surpkit.optimizer import MOVE_KINDS, TIE_EPS, MoveOutcome, SurpriseState, sample_partitions
from surpkit.partition import Partition
from surpkit.randoms import distinct_pair
from surpkit.surprise import first_term_bound, ln_factorial, partition_stats, surprise

from testdata import disconnected_cliques

optimizer_module = importlib.import_module("surpkit.optimizer")
surprise_module = importlib.import_module("surpkit.surprise")


def bridged_cliques():
    """Two 4-cliques joined by a single edge."""
    edges = list(combinations(range(4), 2))
    edges += [(u + 4, v + 4) for u, v in combinations(range(4), 2)]
    edges.append((3, 4))
    return Graph(8, edges)


@st.composite
def random_graphs(draw, min_k=3, max_k=10):
    K = draw(st.integers(min_k, max_k))
    pairs = [(u, v) for u in range(K) for v in range(u + 1, K)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    return Graph(K, edges)


@st.composite
def graphs_with_partitions(draw, max_k=9, max_nc=4):
    g = draw(random_graphs(min_k=4, max_k=max_k))
    assign = draw(st.lists(st.integers(0, max_nc - 1), min_size=g.K, max_size=g.K))
    return g, Partition(assign)


def degraded_k63(seed):
    """A degraded benchmark of four 15-cliques, 63 nodes with its singletons."""
    net = build_benchmark([15, 15, 15, 15], r=0.05, rng=seed)
    net.degrade_p(0.4)
    net.degrade_q(0.05)
    return net.graph


def sparse_random_case(seed):
    """A G(K, p) graph, K in [6, 30] and p in [0.1, 0.5], and for odd seeds a
    random start partition with ids below 6, drawn from ``random.Random(seed)``."""
    r = random.Random(seed)
    K = r.randint(6, 30)
    p = r.uniform(0.1, 0.5)
    g = Graph(K, [(i, j) for i in range(K) for j in range(i + 1, K) if r.random() < p])
    if seed % 2 == 0:
        return g, None
    return g, Partition([r.randrange(r.randint(1, 6)) for _ in range(K)])


def reference_stepper(state):
    """stepper() as it was before the rejected-move set, through the public moves only.

    Passes of merge, exchange and extract until one applies nothing, then
    passes of all five moves until one applies nothing.
    """
    counts = {kind: 0 for kind in MOVE_KINDS}
    reference_passes(state, counts, sub_moves=False)
    reference_passes(state, counts, sub_moves=True)
    return counts


def interleaved_reference_stepper(state):
    """stepper() before it settled the node moves first: passes of all five moves from the start."""
    counts = {kind: 0 for kind in MOVE_KINDS}
    reference_passes(state, counts, sub_moves=True)
    return counts


def reference_passes(state, counts, sub_moves):
    """Greedy passes until one applies nothing; the sub-community moves only when ``sub_moves``."""
    p = state.partition
    changed = True
    while changed:
        changed = False
        ci = 0
        while ci < p.Nc:
            for node in sorted(p.comms[ci]):
                if p.assign[node] != ci:
                    continue
                for nb in state.graph.neighbors(node):
                    cj = p.assign[nb]
                    if cj == ci:
                        continue
                    if state.merge(ci, cj).accepted:
                        counts["merge"] += 1
                        changed = True
                        ci = p.assign[node]
                        continue
                    moved = False
                    if len(p.comms[ci]) > 1:
                        if state.exchange(node, cj).accepted:
                            counts["exchange"] += 1
                            changed = True
                            moved = True
                    if not moved and len(p.comms[cj]) > 1:
                        if state.exchange(nb, ci).accepted:
                            counts["exchange"] += 1
                            changed = True
                    if moved:
                        break
            success = True
            while success and len(p.comms[ci]) > 1:
                success = False
                for node in sorted(p.comms[ci]):
                    if len(p.comms[ci]) <= 1:
                        break
                    if state.extract(node).accepted:
                        counts["extract"] += 1
                        changed = True
                        success = True
            if not sub_moves:
                ci += 1
                continue
            while len(p.comms[ci]) > 1 and state.sub_extract(ci).accepted:
                counts["sub_extract"] += 1
                changed = True
            success = True
            while success and len(p.comms[ci]) > 1:
                success = False
                for cj in range(p.Nc):
                    if cj == ci or len(p.comms[ci]) < 2:
                        continue
                    if state.sub_exchange(ci, cj).accepted:
                        counts["sub_exchange"] += 1
                        changed = True
                        success = True
            ci += 1


def recursion_blocks(graph, members, rng):
    """The sub-communities the greedy recursion finds in a node set, in its community order."""
    if len(members) < 2:
        return [set(members)]
    sub, back = graph.subgraph(members)
    rec = SurpriseState(sub, rng=rng)
    rec.stepper()
    return [{back[i] for i in comm} for comm in rec.partition.communities()]


def reference_subcommunities(state, cid):
    """subcommunities() before the closed form: the greedy recursion on every community.

    Installed in place of the method, it is also what the recursion's own
    states call, so no level takes the closed form.
    """
    state._check_comm(cid)
    return recursion_blocks(state.graph, state.partition.comms[cid], state.rng)


def reference_relocate(p, nodes, src, dst):
    """Move ``nodes`` out of src into dst (None: a new community) in the Partition p.

    Numbers communities as SurpriseState does: a new community takes the
    next id, and an emptied community's id goes to the last community.  A
    merge is the whole of cB moved into cA.
    """
    if dst is None:
        p.comms.append(set())
        dst = p.Nc - 1
    for u in nodes:
        p.comms[src].remove(u)
        p.comms[dst].add(u)
        p.assign[u] = dst
    if not p.comms[src]:
        last = p.comms.pop()
        if src < p.Nc:
            p.comms[src] = last
            for u in last:
                p.assign[u] = src


def reference_anneal_step(graph, p, rng, T):
    """anneal_step() drawing its proposals in the same order, each priced from scratch.

    Edits the Partition p in place and numbers communities as SurpriseState
    does (see reference_relocate()).  Every proposal
    is priced by partition_stats on a relabeled copy of the assignment, and
    the sub-communities come from running the greedy recursion afresh (no
    memo, and no closed form at the top level).  Returns the number of
    applied moves.
    """
    accepted = 0
    for _ in range(graph.K):
        kind = MOVE_KINDS[rng.integers(len(MOVE_KINDS))]
        if kind == "merge":
            if p.Nc < 2:
                continue
            cA, cB = (int(c) for c in rng.choice(p.Nc, size=2, replace=False))
            nodes, src, dst = set(p.comms[cB]), cB, cA
        elif kind in ("exchange", "extract"):
            node = int(rng.integers(graph.K))
            src = p.assign[node]
            if len(p.comms[src]) <= 1:
                continue
            nodes, dst = {node}, None
            if kind == "exchange":
                if p.Nc < 2:
                    continue
                dst = int(rng.integers(p.Nc - 1))
                dst += dst >= src
        else:
            src = int(rng.integers(p.Nc))
            c = len(p.comms[src])
            if c < 2:
                continue
            subs = [s for s in recursion_blocks(graph, p.comms[src], rng) if len(s) < c]
            if not subs:
                continue
            nodes, dst = subs[rng.integers(len(subs))], None
            if kind == "sub_exchange":
                if p.Nc < 2:
                    continue
                dst = int(rng.integers(p.Nc - 1))
                dst += dst >= src
        to = p.Nc if dst is None else dst
        moved = [to if u in nodes else cid for u, cid in enumerate(p.assign)]
        dS = partition_stats(graph, Partition(moved))[2] - partition_stats(graph, p)[2]
        if not (dS > 0.0 or rng.random() < math.exp(dS / T)):
            continue
        accepted += 1
        reference_relocate(p, nodes, src, dst)
    return accepted


def unscreened_propose(state, T):
    """_anneal_propose() without the Metropolis screen: every proposal
    priced by the kernel, and the merge pair drawn by rng.choice."""
    p, rng = state.partition, state.rng
    kind = MOVE_KINDS[rng.integers(len(MOVE_KINDS))]
    if kind == "merge":
        if p.Nc < 2:
            return False
        cA, cB = (int(c) for c in rng.choice(p.Nc, size=2, replace=False))
        nodes, src, dst = p.comms[cB], cB, cA
    else:
        if kind in ("exchange", "extract"):
            node = int(rng.integers(state.graph.K))
            src = p.assign[node]
            if len(p.comms[src]) <= 1:
                return False
            nodes = (node,)
        else:
            src = int(rng.integers(p.Nc))
            if len(p.comms[src]) < 2:
                return False
            subs = state.subcommunities(src)
            nodes = subs[rng.integers(len(subs))]
        dst = None
        if kind in ("exchange", "sub_exchange"):
            if p.Nc < 2:
                return False
            dst = int(rng.integers(p.Nc - 1))
            if dst >= src:
                dst += 1
    dM, dell = state._delta(nodes, src, dst)
    S_new = state._S_at(state.M + dM, state.ell + dell)
    dS = S_new - state.S
    if dS > 0.0 or rng.random() < math.exp(dS / T):
        state._move(nodes, src, dst, dM, dell, S_new)
        return True
    return False


# from exp's underflow (1e-300) to a walk that applies nearly every move (1e300)
SCREEN_TEMPERATURES = (1e-300, 1e-6, 0.05, 0.5, 2.0, 1e6, 1e300)


def assert_screen_matches_exact_pricing(g, p, seed, temperatures):
    """After every proposal: the same applied move, partition, S bits and rng
    state as unscreened_propose().  Returns the kernel calls of each side."""
    screened, exact = SurpriseState(g, p, rng=seed), SurpriseState(g, p, rng=seed)
    calls = Counter()
    kernel = optimizer_module.surprise

    def counted(*args):
        calls[side] += 1
        return kernel(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimizer_module, "surprise", counted)
        for T in temperatures:
            for _ in range(g.K):
                side = "screened"
                applied = screened._anneal_propose(T)
                side = "exact"
                assert applied == unscreened_propose(exact, T)
                assert screened.partition.assign == exact.partition.assign
                assert screened.S.hex() == exact.S.hex()
                assert screened.rng.bit_generator.state == exact.rng.bit_generator.state
    assert screened.verify()
    return calls["screened"], calls["exact"]


class ScriptedRng:
    """Gives the listed integers() draws in turn, and u from every random()."""

    def __init__(self, ints, u):
        self.ints, self.u = list(ints), u

    def integers(self, high):
        value = self.ints.pop(0)
        assert 0 <= value < high
        return value

    def random(self):
        return self.u


def assert_anneal_matches_reference(g, p, seed, temperatures):
    """After every sweep: the same assignment, S, accept count and rng state as the reference."""
    state = SurpriseState(g, p, rng=seed)
    ref, ref_rng = state.partition.copy(), np.random.default_rng(seed)
    assert ref.assign == state.partition.assign
    for T in temperatures:
        assert state.anneal_step(T) == reference_anneal_step(g, ref, ref_rng, T)
        assert state.partition.assign == ref.assign
        assert state.S == partition_stats(g, ref)[2]
        assert state.rng.bit_generator.state == ref_rng.bit_generator.state
    assert state.verify()


def reference_shake(state):
    """shake() before it read the plan: the sub-community pass re-sorts
    subcommunities(ci) for every target and filters out the whole community."""
    p = state.partition

    def tie(nodes, src, dst):
        dM, dell = state._delta(nodes, src, dst)
        if abs(state._S_at(state.M + dM, state.ell + dell) - state.S) < TIE_EPS:
            state._move(nodes, src, dst, dM, dell, state.S)
            return True
        return False

    exchanges = 0
    for node in range(state.graph.K):
        src = p.assign[node]
        if len(p.comms[src]) <= 1:
            continue
        for cTo in range(p.Nc):
            if cTo != src and tie((node,), src, cTo):
                exchanges += 1
                break
    sub_exchanges = 0
    ci = 0
    while ci < p.Nc:
        if len(p.comms[ci]) < 2:
            ci += 1
            continue
        moved = False
        for cTo in range(p.Nc):
            if cTo == ci:
                continue
            for sub in sorted(state.subcommunities(ci), key=min):
                if len(sub) < 2 or len(sub) == len(p.comms[ci]):
                    continue
                if tie(sub, ci, cTo):
                    sub_exchanges += 1
                    moved = True
                    break
            if moved:
                break
        ci += 1
    return exchanges, sub_exchanges


def shake_runs(g, p, seed, temperatures):
    """shake() and reference_shake on twin states: stepper(), then one shake
    after it and after each anneal sweep.  Returns per side the shake results,
    the final assignment and S, and the rng state."""
    runs = []
    for shake in (SurpriseState.shake, reference_shake):
        state = SurpriseState(g, p, rng=seed)
        state.stepper()
        results = [shake(state)]
        for T in temperatures:
            state.anneal_step(T)
            results.append(shake(state))
        assert state.verify()
        runs.append((results, state.partition.assign, state.S, state.rng.bit_generator.state))
    return runs


@contextmanager
def recursion_everywhere():
    """Within the block, every state's subcommunities() is reference_subcommunities."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SurpriseState, "subcommunities", reference_subcommunities)
        yield


def assert_tables_recounted(state):
    assert state._node_links == state._count_links()


def reference_deltas(state):
    """deltaS of every currently legal move, without changing the state.

    Entries are ((kind, *args), deltaS).  Sub-community moves are
    described by the frozen node set involved, and every block of the
    recursion is priced exactly.
    """
    p = state.partition

    def dS(nodes, src, dst):
        dM, dell = state._delta(nodes, src, dst)
        return state._S_at(state.M + dM, state.ell + dell) - state.S

    out = []
    for cA in range(p.Nc):
        for cB in range(cA + 1, p.Nc):
            out.append((("merge", cA, cB), dS(p.comms[cB], cB, cA)))
    for node in range(state.graph.K):
        src = p.assign[node]
        if len(p.comms[src]) <= 1:
            continue
        for cTo in range(p.Nc):
            if cTo != src:
                out.append((("exchange", node, cTo), dS((node,), src, cTo)))
        out.append((("extract", node), dS((node,), src, None)))
    for cid in range(p.Nc):
        if len(p.comms[cid]) < 2:
            continue
        for sub in sorted(state.subcommunities(cid), key=min):
            if len(sub) == len(p.comms[cid]):
                continue
            out.append((("sub_extract", cid, frozenset(sub)), dS(sub, cid, None)))
            for cTo in range(p.Nc):
                if cTo != cid:
                    out.append((("sub_exchange", cid, frozenset(sub), cTo), dS(sub, cid, cTo)))
    return out


def apply_move(state, move):
    """Apply one move as reference_deltas() describes it, with no acceptance test."""
    kind, p = move[0], state.partition
    if kind == "merge":
        nodes, src, dst = p.comms[move[2]], move[2], move[1]
    elif kind in ("exchange", "extract"):
        nodes, src = (move[1],), p.assign[move[1]]
        dst = move[2] if kind == "exchange" else None
    else:
        nodes, src = set(move[2]), move[1]
        dst = move[3] if kind == "sub_exchange" else None
    state._move(nodes, src, dst, *state._delta(nodes, src, dst), 0.0)


def apply_every_move(g, p):
    """Apply each legal move to a fresh state and recount M, ell and the link tables after it.

    ``p`` None starts every state from singletons.  Returns the labels of
    the bookkeeping cases met: a merge that renumbers the last community,
    and a sub-community extraction that appends an id.
    """
    cases = set()
    start = SurpriseState(g, p)
    for move, _ in reference_deltas(start):
        if move[0] == "merge" and move[2] != start.partition.Nc - 1:
            cases.add("renumbering merge")
        if move[0] == "sub_extract":
            cases.add("appending sub_extract")
        state = SurpriseState(g, p)
        apply_move(state, move)
        assert_tables_recounted(state)
        assert (state.M, state.ell) == partition_stats(g, state.partition)[:2]
    return cases


def closed_form(state, cid):
    """True when cid's induced subgraph is complete or edgeless, counted from the adjacency."""
    members = state.partition.comms[cid]
    c = len(members)
    return sum(len(state.graph.adj[u] & members) for u in members) in (0, c * (c - 1))


def reference_plan(state, cid):
    """The plan of cid as _plan() built it before closed-form communities
    left it: such a community's blocks are the singletons subcommunities()
    returns, each priced by _delta(), with its links counted by community id
    from the adjacency.  Any other community's plan is _plan()'s own."""
    if not closed_form(state, cid):
        return state._plan(cid)
    p, plan = state.partition, []
    for sub in sorted(state.subcommunities(cid), key=min):
        dM, dell = state._delta(sub, cid, None)
        (u,) = sub
        links = Counter(p.assign[v] for v in state.graph.adj[u] if p.assign[v] != cid)
        plan.append(optimizer_module._SubBlock(sub, dM, dell, dict(links), state._S_at(state.M + dM, state.ell + dell)))
    return plan


def reference_sub_extract(state, cid):
    """sub_extract() with its own block scan over reference_plan(), before it
    shared one with sub_exchange()."""
    state._check_comm(cid)
    if len(state.partition.comms[cid]) < 2:
        raise ValueError("community too small for sub-community extraction")
    best_dS = -math.inf
    for blk in reference_plan(state, cid):
        dS = blk.S_extract - state.S
        if dS > TIE_EPS:
            state._move(blk.nodes, cid, None, blk.dM, blk.dell, blk.S_extract)
            return MoveOutcome(True, dS, "sub_extract")
        best_dS = max(best_dS, dS)
    return MoveOutcome(False, best_dS if best_dS > -math.inf else 0.0, "sub_extract")


def reference_sub_exchange(state, cid, cTo):
    """sub_exchange() as the block scan over every block of reference_plan(),
    before closed-form communities read their blocks from the link table."""
    if cTo == cid:
        return MoveOutcome(False, 0.0, "sub_exchange")
    plan = reference_plan(state, cid)
    t = len(state.partition.comms[cTo])
    best_dS = -math.inf if plan else 0.0
    for blk in plan:
        dS = blk.S_extract - state.S
        if cTo in blk.links or dS > TIE_EPS:
            dM = blk.dM + t * len(blk.nodes)
            dell = blk.dell + blk.links.get(cTo, 0)
            out = state._greedy("sub_exchange", blk.nodes, cid, cTo, dM, dell)
            if out.accepted:
                return out
            dS = out.deltaS
        best_dS = max(best_dS, dS)
    return MoveOutcome(False, best_dS, "sub_exchange")


def reference_sub_targets(state, ci):
    """_sub_targets() over reference_plan(), every block's links by id."""
    plan = reference_plan(state, ci)
    comms = state.partition.comms
    if any(blk.S_extract - state.S > TIE_EPS for blk in plan):
        return [cj for cj in range(len(comms)) if cj != ci]
    targets = set()
    for blk in plan:
        b = len(blk.nodes)
        targets.update(
            cj for cj, k in blk.links.items() if (blk.dM + b * len(comms[cj]), blk.dell + k) not in state._rejected
        )
    return sorted(targets)


def reference_certificate(state, cid):
    """_certificate() with the Laplacian and the member link counts counted
    from the adjacency and the assignment, not read from the link table:
    eigvalsh and the whole grid of block sizes and destinations."""
    p = state.partition
    members = sorted(p.comms[cid])
    c = len(members)
    index = {u: i for i, u in enumerate(members)}
    adj = state.graph.adj
    lap = np.zeros((c, c))
    into = {}  # member link counts into each other community
    for i, u in enumerate(members):
        for v in adj[u]:
            j = index.get(v)
            if j is not None:
                lap[i, j] = -1.0
                continue
            row = into.get(p.assign[v])
            if row is None:
                row = into[p.assign[v]] = np.zeros(c, dtype=np.int64)
            row[i] += 1
    deg = -lap.sum(axis=1)
    lap[np.diag_indices(c)] = deg
    lam = np.linalg.eigvalsh(lap)[1] - 2e-9 * deg.max()
    if lam <= 0.0:
        return None
    b = np.arange(1, c, dtype=np.int64)
    cut = np.ceil(lam * (b * (c - b)) / c).astype(np.int64)
    t = np.array([0] + [len(p.comms[cj]) for cj in into], dtype=np.int64)[:, None]
    links = np.zeros((len(into) + 1, c - 1), dtype=np.int64)
    if into:
        counts = -np.sort(-np.array(list(into.values())), axis=1)
        links[1:] = np.cumsum(counts, axis=1)[:, : c - 1]
    F, n = state.graph.F, state.graph.n
    M = state.M + b * (t + b - c)
    U = np.minimum(state.ell + links - cut, np.minimum(M, n))
    U = np.maximum(U, np.maximum(0, n - F + M))
    best = float(first_term_bound(F, M, n, U).max())
    margin = 1e-9 * max(1.0, ln_factorial(F))
    return best - state.S if best <= state.S - margin else None


def sub_scan(state, kind, cid, cTo=None):
    """(block, deltaS) of every block reference_deltas() prices for one sub-move, in scan order."""
    return [
        (move[2], dS)
        for move, dS in reference_deltas(state)
        if move[0] == kind and move[1] == cid and (cTo is None or move[3] == cTo)
    ]


class TestMerge:
    def test_disconnected_rejected(self):
        g, truth = disconnected_cliques([3, 3])
        state = SurpriseState(g, truth)
        out = state.merge(0, 1)
        assert not out.accepted and out.deltaS <= 0

    def test_adjacent_singletons_accepted(self, toy):
        state = SurpriseState(toy)
        out = state.merge(0, 1)
        assert out.accepted and out.deltaS > 0
        assert state.verify()

    @pytest.mark.parametrize(
        "communities, cA, cB",
        [
            # cB is not the last community, whose id it then takes
            ([[0, 1, 2], [3], [4, 5, 6, 7], [8, 9, 10]], 1, 0),
            ([[0], [1, 2, 3, 8, 9], [4, 5, 6, 7], [10]], 0, 1),
            # cB is the last community
            ([[0, 8], [1, 4], [2, 3, 5, 6, 7, 9, 10]], 1, 2),
        ],
    )
    def test_smaller_target_keeps_the_numbering(self, toy, communities, cA, cB):
        # |cA| < |cB|: the link table moves cA's members, yet the union
        # has id cA and the emptied slot is cB's, as when cB is moved
        p = Partition.from_communities(communities)
        state = SurpriseState(toy, p)
        assert len(p.comms[cA]) < len(p.comms[cB])
        assert state.merge(cA, cB).accepted
        ref = p.copy()
        reference_relocate(ref, set(ref.comms[cB]), cB, cA)
        assert state.partition.assign == ref.assign
        assert state.partition.comms == ref.comms
        assert state.S.hex() == partition_stats(toy, ref)[2].hex()
        assert state.verify()

    def test_clique_merge_rejected_at_optimum(self, toy, truth):
        state = SurpriseState(toy, truth)
        assert not state.merge(0, 1).accepted

    def test_self_merge_rejected(self, toy, truth):
        state = SurpriseState(toy, truth)
        with pytest.raises(ValueError):
            state.merge(1, 1)

    def test_bad_id(self, toy, truth):
        state = SurpriseState(toy, truth)
        with pytest.raises(ValueError):
            state.merge(0, 5)


class TestExchange:
    def test_misplaced_path_node(self, toy):
        # 9 sits with clique A; moving it to the path community raises S
        p = Partition.from_communities([[0, 1, 2, 3, 9], [4, 5, 6, 7], [8, 10]])
        state = SurpriseState(toy, p)
        out = state.exchange(9, 2)
        assert out.accepted
        assert 9 in state.partition.comms[state.partition.assign[8]]
        assert state.verify()

    def test_same_community_noop(self, toy, truth):
        state = SurpriseState(toy, truth)
        out = state.exchange(0, 0)
        assert not out.accepted and out.deltaS == 0.0

    def test_singleton_source_rejected(self, toy):
        state = SurpriseState(toy)  # all singletons
        with pytest.raises(ValueError):
            state.exchange(0, 1)

    def test_from_two_node_community(self):
        # path graph 0-1-2-3 partitioned {0},{1,2},{3}: moving 2 to {3} keeps
        # ell while shrinking M, a strict improvement
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        p = Partition.from_communities([[0], [1, 2], [3]])
        state = SurpriseState(g, p)
        deltas = dict(reference_deltas(state))
        assert ("exchange", 2, 2) in deltas


class TestExtract:
    def test_from_all_in_one_disconnected(self):
        g, _ = disconnected_cliques([3, 3])
        state = SurpriseState(g, Partition([0] * 6))
        accepted = [node for node in range(6) if SurpriseState(g, Partition([0] * 6)).extract(node).accepted]
        assert accepted  # some node improves S by leaving

    def test_rejected_inside_clique(self, toy, truth):
        state = SurpriseState(toy, truth)
        assert not state.extract(0).accepted

    def test_complete_graph_rejected(self):
        g = Graph(2, [(0, 1)])
        state = SurpriseState(g, Partition([0, 0]))
        assert not state.extract(0).accepted  # S is already 0 and cannot rise

    def test_singleton_precondition(self, toy):
        state = SurpriseState(toy)
        with pytest.raises(ValueError):
            state.extract(0)


class TestSubMoves:
    def test_bridged_cliques_split(self):
        g = bridged_cliques()
        state = SurpriseState(g, Partition([0] * 8))
        out = state.sub_extract(0)
        assert out.accepted and out.deltaS > 0
        assert sorted(state.partition.communities()) == [[0, 1, 2, 3], [4, 5, 6, 7]]
        assert state.verify()

    def test_clique_community_rejected(self):
        g, truth = disconnected_cliques([4, 4])
        state = SurpriseState(g, truth)
        assert not state.sub_extract(0).accepted

    def test_toy_path_fragment_separated(self, toy):
        p = Partition.from_communities([[0, 1, 2, 3, 8, 9, 10], [4, 5, 6, 7]])
        state = SurpriseState(toy, p)
        out = state.sub_extract(0)
        assert out.accepted
        assert state.verify()

    def test_sub_exchange_relocates_fragment(self, toy):
        # 9,10 stuck with clique B; move them to the community holding 8
        p = Partition.from_communities([[0, 1, 2, 3], [4, 5, 6, 7, 9, 10], [8]])
        state = SurpriseState(toy, p)
        deltas = dict(reference_deltas(state))
        assert deltas[("sub_exchange", 1, frozenset({9, 10}), 2)] > 0
        out = state.sub_exchange(1, 2)
        assert out.accepted and out.deltaS > 0
        assert state.verify()

    def test_sub_exchange_disconnected_rejected(self):
        g, truth = disconnected_cliques([4, 4])
        state = SurpriseState(g, truth)
        assert not state.sub_exchange(0, 1).accepted

    def test_sub_exchange_self_noop(self, toy, truth):
        state = SurpriseState(toy, truth)
        out = state.sub_exchange(0, 0)
        assert not out.accepted and out.deltaS == 0.0


class TestStepper:
    def test_toy_reaches_global_max(self, toy, toy_surprise_oracle):
        best, argmax = toy_surprise_oracle
        state = SurpriseState(toy, rng=0)
        state.stepper()
        assert state.S == pytest.approx(best, abs=1e-9)
        assert state.partition.Nc == 4
        assert state.partition in argmax

    def test_disconnected_cliques_exact(self):
        g, truth = disconnected_cliques([4, 5, 6])
        state = SurpriseState(g, rng=0)
        state.stepper()
        assert state.partition == truth

    def test_fixed_point_has_no_uphill_move(self, toy):
        state = SurpriseState(toy, rng=0)
        state.stepper()
        assert all(dS <= 1e-12 for _, dS in reference_deltas(state))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_degraded_benchmark_fixed_point(self, seed):
        state = SurpriseState(degraded_k63(seed), rng=seed)
        state.stepper()
        assert state.graph.K == 63 and state.verify()
        assert all(dS <= 1e-12 for _, dS in reference_deltas(state))

    @settings(max_examples=60, deadline=None)
    @given(graphs_with_partitions(), st.integers(0, 2 ** 16))
    def test_fixed_point_from_any_start(self, gp, seed):
        # phase 2 ends with a pass of all five moves that applies nothing
        state = SurpriseState(*gp, rng=seed)
        state.stepper()
        assert state.verify()
        assert all(dS <= TIE_EPS for _, dS in reference_deltas(state))

    @settings(max_examples=15, deadline=None)
    @given(random_graphs(max_k=8))
    def test_never_beats_enumeration(self, g):
        best, _ = best_partitions(g, "surprise")
        state = SurpriseState(g, rng=0)
        state.stepper()
        assert state.S <= best + 1e-9
        assert state.verify()

    @pytest.mark.parametrize("seed", [26, 29, 197])
    def test_counts_are_the_moves_this_call_applied(self, seed, monkeypatch):
        # _greedy() counts every applied move in _accepted; stepper() returns
        # what _accepted grew by, so a merge applied before it is left out.
        # After that merge, each case applies all five kinds
        state = SurpriseState(*sparse_random_case(seed), rng=seed)
        next(pair for pair in combinations(range(state.partition.Nc), 2) if state.merge(*pair).accepted)
        before = dict(state._accepted)
        applied = Counter()

        def counting(name, method):
            def counted(self, *args):
                out = method(self, *args)
                if self is state:  # not the recursion's sub-states
                    applied[name] += out.accepted
                return out

            return counted

        for name in MOVE_KINDS:
            monkeypatch.setattr(SurpriseState, name, counting(name, getattr(SurpriseState, name)))
        counts = state.stepper()
        assert before == {**dict.fromkeys(MOVE_KINDS, 0), "merge": 1}
        assert counts == {kind: applied[kind] for kind in MOVE_KINDS}
        assert all(counts.values())
        assert state._accepted == {kind: before[kind] + counts[kind] for kind in MOVE_KINDS}

    def test_greedy_monotone(self, toy):
        state = SurpriseState(toy, rng=0)
        last = state.S
        # drive moves manually and watch S climb on acceptance
        for node in range(toy.K):
            for nb in toy.neighbors(node):
                ci, cj = state.partition.assign[node], state.partition.assign[nb]
                if ci == cj:
                    continue
                if state.merge(ci, cj).accepted:
                    assert state.S > last
                    last = state.S


class TestSubPlan:
    """The surprise memo and the pruned sub-community moves against unpruned pricing."""

    @settings(max_examples=60, deadline=None)
    @given(graphs_with_partitions())
    def test_sub_exchange_matches_full_scan(self, gp):
        g, p = gp
        state = SurpriseState(g, p)
        Nc = state.partition.Nc  # sub_exchange never empties a community
        for cid in range(Nc):
            for cTo in range(Nc):
                if cTo == cid or len(state.partition.comms[cid]) < 2:
                    continue
                scan = sub_scan(state, "sub_exchange", cid, cTo)
                uphill = [(sub, dS) for sub, dS in scan if dS > TIE_EPS]
                before = [set(c) for c in state.partition.comms]
                out = state.sub_exchange(cid, cTo)
                assert out.accepted == bool(uphill)
                if uphill:
                    sub, dS = uphill[0]  # the block a full scan applies
                    assert out.deltaS == dS
                    assert state.partition.comms[cTo] == before[cTo] | sub
                    assert state.partition.comms[cid] == before[cid] - sub
                    assert state.verify()
                elif scan:
                    # a skipped block reports its extraction deltaS, which
                    # bounds its deltaS into cTo up to the kernel's rounding
                    assert max(dS for _, dS in scan) <= out.deltaS + 1e-12
                    assert out.deltaS <= TIE_EPS
                else:
                    assert out.deltaS == 0.0

    @settings(max_examples=40, deadline=None)
    @given(graphs_with_partitions())
    def test_sub_extract_matches_full_scan(self, gp):
        g, p = gp
        for cid in range(p.Nc):
            state = SurpriseState(g, p)
            if len(state.partition.comms[cid]) < 2:
                continue
            scan = sub_scan(state, "sub_extract", cid)
            uphill = [(sub, dS) for sub, dS in scan if dS > TIE_EPS]
            out = state.sub_extract(cid)
            assert out.accepted == bool(uphill)
            if uphill:
                sub, dS = uphill[0]
                assert out.deltaS == dS
                assert state.partition.comms[-1] == sub
                assert state.verify()
            else:
                assert out.deltaS == max((dS for _, dS in scan), default=0.0)

    @settings(max_examples=30, deadline=None)
    @given(graphs_with_partitions())
    def test_memo_bit_identical(self, gp):
        g, p = gp
        state = SurpriseState(g, p)
        reference_deltas(state)
        assert state._S_memo
        for (M, ell), S in state._S_memo.items():
            assert S.hex() == surprise(g.F, M, g.n, ell).hex()
            assert state._S_at(M, ell).hex() == S.hex()

    def test_plan_rebuilt_after_renumbering_merge(self):
        # {4,5,6} links to every node of {0..3}; merging it in moves the
        # last community, {10,11,12}, into id 1.  Neither is complete or
        # edgeless, so each has a plan (a closed-form community has none)
        edges = list(combinations(range(4), 2)) + [(u, v) for u in range(4) for v in (4, 5, 6)]
        edges += [(4, 5), (7, 10), (8, 9), (10, 11)]
        g = Graph(13, edges)
        state = SurpriseState(g, Partition.from_communities([[0, 1, 2, 3], [4, 5, 6], [7, 8, 9], [10, 11, 12]]))
        assert not state.sub_exchange(1, 2).accepted
        assert not state.sub_exchange(3, 2).accepted
        assert [b.nodes for b in state._plans[1]] == [{4, 5}, {6}]
        assert state.merge(0, 1).accepted
        assert state.partition.comms[1] == {10, 11, 12}
        assert state._plans == {}
        out = state.sub_exchange(1, 2)
        assert [b.nodes for b in state._plans[1]] == [{10, 11}, {12}]
        scan = sub_scan(state, "sub_exchange", 1, 2)
        # a block rejected on its first-term bound reports the bound
        assert not out.accepted and max(dS for _, dS in scan) <= out.deltaS <= TIE_EPS


class TestBlockScan:
    """sub_extract() and sub_exchange() share one block scan over a plan
    that subcommunities() never leaves with fewer than two proper blocks."""

    @staticmethod
    def assert_proper_blocks(state):
        for cid, members in enumerate(state.partition.comms):
            if len(members) < 2:
                continue
            blocks = state.subcommunities(cid)
            assert len(blocks) >= 2
            assert all(blk and blk < members for blk in blocks)
            assert set().union(*blocks) == members

    @settings(max_examples=60, deadline=None)
    @given(graphs_with_partitions(max_k=12, max_nc=4), st.booleans())
    def test_never_the_whole_community(self, gp, reference):
        g, p = gp
        with recursion_everywhere() if reference else nullcontext():
            self.assert_proper_blocks(SurpriseState(g, p))

    @pytest.mark.parametrize("reference", [False, True], ids=["memo", "recursion"])
    @pytest.mark.parametrize("seed", range(3))
    def test_never_the_whole_community_on_degraded_benchmark(self, seed, reference):
        # the greedy optimum, then states the anneal walks through
        with recursion_everywhere() if reference else nullcontext():
            state = SurpriseState(degraded_k63(seed), rng=seed)
            state.stepper()
            self.assert_proper_blocks(state)
            for T in (0.5, 2.0):
                state.anneal_step(T)
                self.assert_proper_blocks(state)

    @staticmethod
    def extract_to_exhaustion(g, p, seed, sub_extract):
        """Outcomes, assignment, S bits, rng state and kernel evaluations of
        sub_extract run to exhaustion on every community in turn."""
        calls = Counter()
        kernel = optimizer_module.surprise

        def counted_kernel(*args):
            calls["surprise"] += 1
            return kernel(*args)

        state = SurpriseState(g, p, rng=seed)
        outcomes = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(optimizer_module, "surprise", counted_kernel)
            # an applied extraction keeps every id and appends one
            for cid in range(state.partition.Nc):
                while len(state.partition.comms[cid]) > 1:
                    out = sub_extract(state, cid)
                    outcomes.append((out.accepted, out.deltaS.hex(), out.kind))
                    if not out.accepted:
                        break
        assert state.verify()
        return outcomes, state.partition.assign, state.S.hex(), state.rng.bit_generator.state, calls["surprise"]

    @settings(max_examples=60, deadline=None)
    @given(graphs_with_partitions(max_k=12, max_nc=4), st.integers(0, 2 ** 16))
    def test_sub_extract_matches_its_own_scan(self, gp, seed):
        g, p = gp
        got = self.extract_to_exhaustion(g, p, seed, SurpriseState.sub_extract)
        assert got == self.extract_to_exhaustion(g, p, seed, reference_sub_extract)


def scattered_community(c, internal, seed, K=200):
    """A graph with one community of c nodes scattered over 0..K-1 among singletons.

    ``internal`` picks the community's links: "complete", "edgeless" or
    "minus_edge" (a clique with one edge removed).  A few links lead out of
    it.  Scattered ids make a set of the members iterate out of ascending
    order, so the order of the returned blocks is checked too.
    """
    r = random.Random(seed)
    members = sorted(r.sample(range(K), c))
    edges = [] if internal == "edgeless" else list(combinations(members, 2))
    if internal == "minus_edge":
        edges.remove(r.choice(edges))
    others = sorted(set(range(K)) - set(members))
    edges += [(r.choice(members), r.choice(others)) for _ in range(5)]
    assign = [0 if u in members else u + 1 for u in range(K)]
    return Graph(K, edges), Partition(assign), members


class TestClosedFormSubcommunities:
    """The closed form for complete and edgeless communities against the recursion."""

    @staticmethod
    def assert_same_blocks(g, p, seed=0):
        fast = SurpriseState(g, p, rng=seed)
        got = [fast.subcommunities(cid) for cid in range(fast.partition.Nc)]
        with recursion_everywhere():
            ref = SurpriseState(g, p, rng=seed)
            want = [ref.subcommunities(cid) for cid in range(ref.partition.Nc)]
        assert got == want  # the same blocks in the same order
        assert fast.rng.bit_generator.state == ref.rng.bit_generator.state
        return fast

    @pytest.mark.parametrize("c", range(2, 31))
    def test_complete_and_edgeless_communities(self, c):
        for internal in ("complete", "edgeless"):
            g, p, members = scattered_community(c, internal, seed=c)
            fast = self.assert_same_blocks(g, p)
            cid = fast.partition.assign[members[0]]
            assert fast.subcommunities(cid) == [{u} for u in members]
            assert fast._sub_cache == {}  # answered without recursing

    @pytest.mark.parametrize("c", range(3, 31))
    def test_clique_minus_an_edge_recurses(self, c):
        g, p, members = scattered_community(c, "minus_edge", seed=c)
        fast = self.assert_same_blocks(g, p)
        assert frozenset(members) in fast._sub_cache

    @settings(max_examples=80, deadline=None)
    @given(graphs_with_partitions(max_k=12, max_nc=4))
    def test_matches_recursion_on_any_state(self, gp):
        self.assert_same_blocks(*gp)

    @settings(max_examples=20, deadline=None)
    @given(graphs_with_partitions(max_k=12, max_nc=4), st.integers(0, 2 ** 16))
    def test_anneal_matches_recursion(self, gp, seed):
        # _anneal_propose draws a block by its index in subcommunities()
        g, p = gp
        runs = []
        for oracle in (nullcontext(), recursion_everywhere()):
            with oracle:
                state = SurpriseState(g, p, rng=seed)
                state.stepper()
                accepted = [state.anneal_step(T) for T in (2.0, 0.5, 0.25)]
                state.shake()
                runs.append((accepted, state.partition.assign, state.S, state.rng.bit_generator.state))
        assert runs[0] == runs[1]


@st.composite
def planted_closed_forms(draw):
    """A graph and a partition that plants complete, edgeless and random
    communities, with random links between them and node ids shuffled, so a
    set of members iterates out of ascending order; then up to six public
    node moves to apply first, each (name, a, b) with ids taken modulo."""
    sizes = draw(st.lists(st.integers(1, 5), min_size=2, max_size=5))
    K = sum(sizes)
    perm = draw(st.permutations(range(K)))
    groups, start = [], 0
    for c in sizes:
        groups.append(sorted(perm[start:start + c]))
        start += c
    edges = set()
    for group in groups:
        pairs = list(combinations(group, 2))
        kind = draw(st.sampled_from(["complete", "edgeless", "random"]))
        if kind == "complete":
            edges.update(pairs)
        elif kind == "random" and pairs:
            edges.update(draw(st.lists(st.sampled_from(pairs), unique=True)))
    comm = {u: i for i, group in enumerate(groups) for u in group}
    between = [(u, v) for u, v in combinations(range(K), 2) if comm[u] != comm[v]]
    edges.update(draw(st.lists(st.sampled_from(between), unique=True, max_size=K)))
    ids = st.integers(0, 24)
    moves = draw(st.lists(st.tuples(st.sampled_from(["merge", "exchange", "extract"]), ids, ids), max_size=6))
    return Graph(K, sorted(edges)), Partition.from_communities(groups), moves


class TestClosedFormReaders:
    """sub_extract, sub_exchange and _sub_targets read a closed-form
    community's blocks from the link table; the plan-based scan over its
    singleton blocks is the oracle."""

    @staticmethod
    def run(g, p, moves, seed, sub_extract, sub_exchange, sub_targets):
        """Apply ``moves``, then call the three readers on every closed-form
        community and every target in turn.  Returns what each call gave
        and left behind, then the final assignment, S bits, rng state and
        kernel evaluations."""
        state = SurpriseState(g, p, rng=seed)
        comms = state.partition.comms
        for name, a, b in moves:
            K, Nc = g.K, len(comms)
            args = {"merge": (a % Nc, b % Nc), "exchange": (a % K, b % Nc), "extract": (a % K,)}[name]
            try:
                getattr(state, name)(*args)
            except ValueError:
                pass
        calls = Counter()
        kernel = optimizer_module.surprise

        def counted_kernel(*args):
            calls["surprise"] += 1
            return kernel(*args)

        # an applied block move can change which communities are closed,
        # but never empties one, so every id stays valid
        def closed(cid):
            return len(comms[cid]) > 1 and closed_form(state, cid)

        record = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(optimizer_module, "surprise", counted_kernel)
            for cid in range(len(comms)):
                if not closed(cid):
                    continue
                record.append(("targets", cid, sub_targets(state, cid), set(state._rejected)))
                for cTo in range(len(comms)):
                    if closed(cid):
                        out = sub_exchange(state, cid, cTo)
                        record.append((cid, cTo, out, out.deltaS.hex(), list(state.partition.assign), state.S.hex()))
                        record.append(set(state._rejected))
                if closed(cid):
                    out = sub_extract(state, cid)
                    record.append((cid, out, out.deltaS.hex(), list(state.partition.assign), state.S.hex()))
        assert state.verify()
        return record, state.partition.assign, state.S.hex(), state.rng.bit_generator.state, calls["surprise"]

    @settings(max_examples=150, deadline=None)
    @given(planted_closed_forms(), st.integers(0, 2 ** 16))
    def test_readers_match_the_plan_scan(self, case, seed):
        g, p, moves = case
        for pre in ([], moves):  # without and with other moves applied first
            got = self.run(g, p, pre, seed, SurpriseState.sub_extract, SurpriseState.sub_exchange, SurpriseState._sub_targets)
            want = self.run(g, p, pre, seed, reference_sub_extract, reference_sub_exchange, reference_sub_targets)
            assert got == want

    def test_readers_apply_and_reject(self):
        # one complete and two edgeless communities, on which the readers
        # both apply and reject moves, and agree with the oracle
        g = Graph(9, list(combinations(range(4), 2)) + [(3, 4), (4, 7), (5, 8)])
        p = Partition.from_communities([[0, 1, 2, 3], [4, 5, 6], [7, 8]])
        record = self.run(g, p, [], 0, SurpriseState.sub_extract, SurpriseState.sub_exchange, SurpriseState._sub_targets)[0]
        assert record == self.run(g, p, [], 0, reference_sub_extract, reference_sub_exchange, reference_sub_targets)[0]
        outcomes = [entry[1] for entry in record if len(entry) == 5] + [entry[2] for entry in record if len(entry) == 6]
        assert {out.accepted for out in outcomes} == {True, False}


def counted_run(g, p, seed, loop):
    """Run ``loop`` as every state's stepper(), the recursion's too, counting
    kernel evaluations.

    Returns the acceptance counts, the state, the call counts and the
    kernel evaluations as a Counter of their (F, M, n, ell).
    """
    calls, kernel_args = Counter(), Counter()
    kernel = optimizer_module.surprise

    def counted_kernel(*args):
        calls["surprise"] += 1
        kernel_args[args] += 1
        return kernel(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimizer_module, "surprise", counted_kernel)
        mp.setattr(SurpriseState, "stepper", loop)
        state = SurpriseState(g, p, rng=seed)
        counts = state.stepper()
    return counts, state, calls, kernel_args


def delta_keyed_stepper(state):
    """stepper() with its skip keys priced by _delta() and its neighbours read
    through graph.neighbors(), as it was before it read both inline."""
    counts = {kind: 0 for kind in MOVE_KINDS}
    p = state.partition
    rejected = state._rejected
    sub_moves = False
    while True:
        applied = sum(counts.values())
        ci = 0
        while ci < p.Nc:
            for node in sorted(p.comms[ci]):
                for nb in state.graph.neighbors(node):
                    cj = p.assign[nb]
                    if cj == ci:
                        continue
                    key = ("merge", ci, cj) if ci < cj else ("merge", cj, ci)
                    if key not in rejected and state.merge(ci, cj).accepted:
                        counts["merge"] += 1
                        ci = p.assign[node]
                        continue
                    if len(p.comms[ci]) > 1 and state._delta((node,), ci, cj) not in rejected:
                        if state.exchange(node, cj).accepted:
                            counts["exchange"] += 1
                            break
                    if len(p.comms[cj]) > 1 and state._delta((nb,), cj, ci) not in rejected:
                        if state.exchange(nb, ci).accepted:
                            counts["exchange"] += 1
            while len(p.comms[ci]) > 1:
                extracted = counts["extract"]
                for node in sorted(p.comms[ci]):
                    if len(p.comms[ci]) > 1 and state._delta((node,), ci, None) not in rejected:
                        if state.extract(node).accepted:
                            counts["extract"] += 1
                if counts["extract"] == extracted:
                    break
            if not sub_moves:
                ci += 1
                continue
            while len(p.comms[ci]) > 1 and state.sub_extract(ci).accepted:
                counts["sub_extract"] += 1
            while len(p.comms[ci]) > 1:
                exchanged = counts["sub_exchange"]
                targets = state._sub_targets(ci)
                k = 0
                while k < len(targets):
                    cj = targets[k]
                    k += 1
                    if state.sub_exchange(ci, cj).accepted:
                        counts["sub_exchange"] += 1
                        if len(p.comms[ci]) < 2:
                            break
                        targets = state._sub_targets(ci)
                        k = bisect_right(targets, cj)
                if counts["sub_exchange"] == exchanged:
                    break
            ci += 1
        if sum(counts.values()) == applied:
            if sub_moves:
                return counts
            sub_moves = True


def recorded_calls(g, p, seed, loop):
    """Run ``loop`` as every state's stepper(), the recursion's too, recording
    each public move call as (name, args, accepted), in call order.

    Returns the calls and the state.
    """
    calls = []

    def recording(name, method):
        def recorded(state, *args):
            out = method(state, *args)
            calls.append((name, args, out.accepted))
            return out

        return recorded

    with pytest.MonkeyPatch.context() as mp:
        for name in MOVE_KINDS:
            mp.setattr(SurpriseState, name, recording(name, getattr(SurpriseState, name)))
        mp.setattr(SurpriseState, "stepper", loop)
        state = SurpriseState(g, p, rng=seed)
        state.stepper()
    return calls, state


class TestRejectedMoves:
    """stepper(), with its rejected-move set and the sub-community calls it
    leaves out, against reference_stepper, which makes every call, at every
    level of the recursion."""

    @staticmethod
    def assert_same_run(g, p=None, seed=0):
        """Same counts, assignment and S, and the same kernel evaluations.

        Every call stepper() leaves out would reach _greedy() only with a
        key already in _rejected, so it would be decided from the memo or
        rejected on the first-term screen again, without a kernel
        evaluation (see _greedy()).
        """
        counts, fast, _, fast_kernel = counted_run(g, p, seed, SurpriseState.stepper)
        ref_counts, ref, _, ref_kernel = counted_run(g, p, seed, reference_stepper)
        assert counts == ref_counts
        assert fast.partition.assign == ref.partition.assign
        assert fast.S == ref.S
        assert fast_kernel == ref_kernel

    @settings(max_examples=60, deadline=None)
    @given(graphs_with_partitions(max_k=14, max_nc=6))
    def test_matches_reference_from_any_start(self, gp):
        self.assert_same_run(*gp)

    @settings(max_examples=20, deadline=None)
    @given(random_graphs(min_k=8, max_k=20))
    def test_matches_reference_from_singletons(self, g):
        self.assert_same_run(g)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_reference_on_degraded_benchmark(self, seed):
        self.assert_same_run(degraded_k63(seed), seed=seed)

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_reference_on_sparse_random_cases(self, seed):
        self.assert_same_run(*sparse_random_case(seed), seed=seed)

    @pytest.mark.parametrize("seed", [197, 1234])
    def test_matches_reference_when_extraction_reopens(self, seed):
        # an applied sub_exchange leaves a block whose extraction clears
        # TIE_EPS: skipping the targets it has no link to would miss a move
        self.assert_same_run(*sparse_random_case(seed), seed=seed)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_skips_sub_exchanges_no_block_could_make(self, seed, monkeypatch):
        calls = []
        priced = SurpriseState.sub_exchange

        def counted(state, cid, cTo):
            calls.append((cid, cTo))
            return priced(state, cid, cTo)

        monkeypatch.setattr(SurpriseState, "sub_exchange", counted)
        g = degraded_k63(seed)
        fast = SurpriseState(g, rng=seed)
        counts = fast.stepper()
        fast_calls = len(calls)
        ref = SurpriseState(g, rng=seed)
        assert reference_stepper(ref) == counts
        assert fast.partition.assign == ref.partition.assign
        assert fast.S == ref.S
        assert fast_calls < len(calls) - fast_calls
        # at seed 0 every plan is empty or holds single nodes whose
        # exchanges were just rejected, so no target is left; seed 1 has some
        assert (fast_calls > 0) == (seed != 0)

    @pytest.mark.parametrize("seed", range(8))
    def test_same_surprise_as_interleaved_order(self, seed):
        # the loop that ran all five moves from the first pass, at every
        # level of the recursion, reaches the same S bits
        g = degraded_k63(seed)
        _, fast, *_ = counted_run(g, None, seed, SurpriseState.stepper)
        _, old, *_ = counted_run(g, None, seed, interleaved_reference_stepper)
        assert fast.S.hex() == old.S.hex()
        assert fast.verify() and old.verify()

    def test_clean_cliques_need_no_sub_moves(self, monkeypatch):
        # every block of an undegraded clique is a single node whose
        # exchanges phase 1 ended rejecting, so no sub_exchange target is left
        sizes = pielouer_nodes(8, 0.85, (120, 120), rng=sub_rng(0, "bench.sizes"))
        g = build_benchmark(sizes, 0.05, rng=sub_rng(0, "bench.build")).graph
        self.assert_same_run(g)
        calls = []
        sub_exchange = SurpriseState.sub_exchange

        def counted(state, cid, cTo):
            calls.append((cid, cTo))
            return sub_exchange(state, cid, cTo)

        monkeypatch.setattr(SurpriseState, "sub_exchange", counted)
        SurpriseState(g).stepper()
        assert calls == []
        reference_stepper(SurpriseState(g))
        assert calls

    @staticmethod
    def assert_same_calls(g, p=None, seed=0):
        """stepper(), whose skip keys are read inline from the link table,
        makes the same public move calls, in the same order and with the
        same decisions, as delta_keyed_stepper."""
        calls, fast = recorded_calls(g, p, seed, SurpriseState.stepper)
        ref_calls, ref = recorded_calls(g, p, seed, delta_keyed_stepper)
        assert calls == ref_calls
        assert fast.partition.assign == ref.partition.assign
        assert fast.S.hex() == ref.S.hex()
        return calls

    @settings(max_examples=60, deadline=None)
    @given(graphs_with_partitions(max_k=14, max_nc=6))
    def test_inline_keys_make_the_same_calls_from_any_start(self, gp):
        self.assert_same_calls(*gp)

    @settings(max_examples=20, deadline=None)
    @given(random_graphs(min_k=8, max_k=20))
    def test_inline_keys_make_the_same_calls_from_singletons(self, g):
        self.assert_same_calls(g)

    @pytest.mark.parametrize("seed", range(5))
    def test_inline_keys_make_the_same_calls_on_degraded_benchmark(self, seed):
        calls = self.assert_same_calls(degraded_k63(seed), seed=seed)
        made = {(name, accepted) for name, _, accepted in calls}
        # every node move is both rejected and applied somewhere in the run
        assert {(name, a) for name in ("merge", "exchange", "extract") for a in (True, False)} <= made

    def test_rejected_block_leaves_its_target_out(self):
        # {0, 2, 4} is the path 0-2-4, whose plan is [{0, 2}, {4}]; only the
        # two-node block links to {1, 5}, so rejecting it leaves no target
        g = Graph(7, [(0, 2), (1, 2), (1, 5), (2, 4)])
        state = SurpriseState(g, Partition.from_communities([[0, 2, 4], [1, 5], [3, 6]]))
        assert [blk.nodes for blk in state._plan(0)] == [{0, 2}, {4}]
        assert state._sub_targets(0) == [1]
        assert not state.sub_exchange(0, 1).accepted
        blk = state._plans[0][0]
        assert (blk.dM + 2 * 2, blk.dell + 1) in state._rejected
        assert state._sub_targets(0) == []
        assert not state.sub_exchange(0, 1).accepted  # what leaving it out assumes


def greedy_moves(state):
    """Every legal public merge, exchange and extraction of the state, as
    (method name, args, (nodes, src, dst)) with the move _delta() prices."""
    p = state.partition
    moves = [("merge", (cA, cB), (p.comms[cB], cB, cA)) for cA in range(p.Nc) for cB in range(cA + 1, p.Nc)]
    for node in range(state.graph.K):
        src = p.assign[node]
        if len(p.comms[src]) > 1:
            moves += [("exchange", (node, cTo), ((node,), src, cTo)) for cTo in range(p.Nc) if cTo != src]
            moves.append(("extract", (node,), ((node,), src, None)))
    return moves


class TestFirstTermScreen:
    """merge, exchange and extract reject a move on its first-term bound
    without pricing it.  stepper() and reference_stepper both go through
    that screen, so here every move is checked against its exact price."""

    @staticmethod
    def check_every_move(g, p):
        """Run each public merge, exchange and extraction on a fresh copy of
        the state (g, p), whose memo is empty.  Returns how many of them the
        screen rejected unpriced."""
        base = SurpriseState(g, p)
        screened = 0
        for name, args, (nodes, src, dst) in greedy_moves(base):
            dM, dell = base._delta(nodes, src, dst)
            M, ell = base.M + dM, base.ell + dell
            exact = base._S_at(M, ell) - base.S
            state = SurpriseState(g, p)
            out = getattr(state, name)(*args)
            assert out.accepted == (exact > TIE_EPS)
            if out.accepted:
                assert out.deltaS.hex() == exact.hex()
                assert state.S == base._S_at(M, ell) and state.verify()
            else:
                assert exact <= out.deltaS <= TIE_EPS
                assert state.partition.assign == base.partition.assign
                screened += (M, ell) not in state._S_memo
            # a bound is never memoized as a price
            assert all(S == surprise(g.F, Mk, g.n, ellk) for (Mk, ellk), S in state._S_memo.items())
        return screened

    def test_infeasible_move_still_raises(self, toy):
        # the screen runs the kernel's feasibility checks before its bound,
        # which checks nothing: a corrupted ell puts the extraction's new
        # ell below 0, and a corrupted S would have the bound reject it
        state = SurpriseState(toy, Partition([0] * toy.K))
        state.ell, state.S = 0, math.inf
        with pytest.raises(ValueError, match="need 0 <= ell <= min"):
            state.extract(0)

    @pytest.mark.parametrize("name, args", [("extract", (0,)), ("merge", (0, 1))])
    @pytest.mark.parametrize(
        "M_new, ell_new, message",
        [
            (10, -1, "need 0 <= ell <= min(M, n)"),
            (56, 0, "need 0 <= M <= F"),
            (55, 0, "infeasible: n - ell"),
        ],
        ids=["ell<0", "M>F", "n-ell>F-M"],
    )
    def test_every_infeasible_move_still_raises(self, toy, truth, name, args, M_new, ell_new, message):
        # the state is corrupted so that the move lands at (M_new, ell_new),
        # on the screen's branch (ell < M and ell < n) with the memo empty;
        # S = inf would have the bound reject it unless first_term_bound()
        # checks feasibility first.  The toy graph has F = 55 and n = 16
        state = SurpriseState(toy, truth)
        assert (toy.F, toy.n) == (55, 16)
        nodes, src, dst = (state.partition.comms[1], 1, 0) if name == "merge" else ((0,), 0, None)
        dM, dell = state._delta(nodes, src, dst)
        state.M, state.ell, state.S = M_new - dM, ell_new - dell, math.inf
        assert ell_new < M_new and ell_new < toy.n
        with pytest.raises(ValueError, match=re.escape(message)):
            getattr(state, name)(*args)

    @settings(max_examples=60, deadline=None)
    @given(graphs_with_partitions(max_k=9, max_nc=4))
    def test_exact_from_any_state(self, gp):
        self.check_every_move(*gp)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_exact_on_mid_solve_states(self, seed):
        # three states of one solve, the last its optimum; in each the
        # screen rejects some move unpriced
        g = degraded_k63(seed)
        snapshots = []
        commit = SurpriseState._commit

        def recording_commit(state, dM, dell, S_new):
            commit(state, dM, dell, S_new)
            if state.graph is g:
                snapshots.append(state.partition.copy())

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(SurpriseState, "_commit", recording_commit)
            SurpriseState(g, rng=seed).stepper()
        third = len(snapshots) // 3
        for p in (snapshots[third], snapshots[2 * third], snapshots[-1]):
            assert self.check_every_move(g, p) > 0


def every_block_move(state, cid):
    """deltaS of every proper subset of cid moved to a new community or to
    any other one, with (dM, dell) counted from the graph, not the link table."""
    p, g = state.partition, state.graph
    members = sorted(p.comms[cid])
    c = len(members)
    for b in range(1, c):
        for block in combinations(members, b):
            inside = set(block)
            cut, links = 0, Counter()
            for u in block:
                for v in g.adj[u]:
                    if v not in inside:
                        if p.assign[v] == cid:
                            cut += 1
                        else:
                            links[p.assign[v]] += 1
            for dst in [None, *(cj for cj in range(p.Nc) if cj != cid)]:
                t = 0 if dst is None else len(p.comms[dst])
                M, ell = state.M + b * (t + b - c), state.ell + links[dst] - cut
                yield surprise(g.F, M, g.n, ell) - state.S


@contextmanager
def certificates_checked():
    """Within the block, every certificate that holds is recorded as (c,
    bound), and checked against every_block_move when c <= 10."""
    held = []
    certificate = SurpriseState._certificate

    def checked(state, cid):
        bound = certificate(state, cid)
        if bound is not None:
            c = len(state.partition.comms[cid])
            held.append((c, bound))
            assert bound < 0.0
            if c <= 10:
                for dS in every_block_move(state, cid):
                    assert dS <= bound + 1e-12 and dS <= TIE_EPS
        return bound

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SurpriseState, "_certificate", checked)
        yield held


@contextmanager
def no_certificate():
    """Within the block, no certificate ever holds: every plan recurses."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SurpriseState, "_certificate", lambda state, cid: None)
        yield


class TestCertificate:
    """The certificate that empties a plan: against exhaustive enumeration of
    every block move, and against the solve that always recurses."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 20))
    def test_bound_holds_for_every_block_in_a_solve(self, seed):
        # every state stepper() builds a plan in, the recursion's included
        g, p = sparse_random_case(seed)
        with certificates_checked():
            SurpriseState(g, p, rng=seed).stepper()

    @settings(max_examples=60, deadline=None)
    @given(graphs_with_partitions(max_k=12, max_nc=4))
    def test_bound_holds_for_every_block_from_any_start(self, gp):
        state = SurpriseState(*gp)
        with certificates_checked():
            for cid in range(state.partition.Nc):
                if len(state.partition.comms[cid]) > 1:
                    state._plan(cid)

    def test_bound_checked_where_it_holds(self):
        with certificates_checked() as held:
            for seed in range(60):
                g, p = sparse_random_case(seed)
                SurpriseState(g, p, rng=seed).stepper()
        assert sum(c <= 10 for c, _ in held) > 20

    @staticmethod
    def solve(g, seed, context):
        with context:
            counts, state, calls, *_ = counted_run(g, None, seed, SurpriseState.stepper)
            state.shake()
        return (counts, state.partition.assign, state.S.hex(), state.rng.bit_generator.state), calls

    @pytest.mark.parametrize("seed", [0, 1])
    def test_fires_on_degraded_benchmark(self, seed):
        # it holds for 15-node communities at the top level; the solve,
        # shake included, equals the one that always recurses, with fewer
        # kernel evaluations
        g = degraded_k63(seed)
        with certificates_checked() as held:
            fast, fast_calls = self.solve(g, seed, nullcontext())
        assert held
        slow, slow_calls = self.solve(g, seed, no_certificate())
        assert fast == slow
        assert fast_calls["surprise"] < slow_calls["surprise"]

    def test_certified_rejection(self):
        # an empty plan rejects both sub-moves with deltaS 0.0, above every
        # block the recursion finds, each of which prices at most the bound
        state = SurpriseState(degraded_k63(0), rng=0)
        state.stepper()
        Nc = state.partition.Nc
        bounds = {cid: state._certificate(cid) for cid in range(Nc) if len(state.partition.comms[cid]) > 2}
        certified = [cid for cid, bound in bounds.items() if bound is not None]
        assert certified
        for cid in certified:
            assert state._plan(cid) == []
            assert state.sub_extract(cid) == MoveOutcome(False, 0.0, "sub_extract")
            assert state.sub_exchange(cid, (cid + 1) % Nc) == MoveOutcome(False, 0.0, "sub_exchange")
            for sub in state.subcommunities(cid):
                for dst in [None, *(cj for cj in range(Nc) if cj != cid)]:
                    dM, dell = state._delta(sub, cid, dst)
                    assert state._S_at(state.M + dM, state.ell + dell) - state.S <= bounds[cid] + 1e-12

    def test_one_eigensolve_per_call(self, monkeypatch):
        # no path returns before the eigensolve, whether the certificate
        # holds (every call at seed 0) or fails (some at seed 1)
        calls = Counter()
        certificate, eigvalsh = SurpriseState._certificate, np.linalg.eigvalsh

        def counted_certificate(state, cid):
            calls["certificate"] += 1
            bound = certificate(state, cid)
            calls["held"] += bound is not None
            return bound

        def counted_eigvalsh(a):
            calls["eigvalsh"] += 1
            return eigvalsh(a)

        monkeypatch.setattr(SurpriseState, "_certificate", counted_certificate)
        monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
        for seed, all_hold in ((0, True), (1, False)):
            calls.clear()
            SurpriseState(degraded_k63(seed), rng=seed).stepper()
            assert 0 < calls["eigvalsh"] == calls["certificate"]
            assert (calls["held"] == calls["certificate"]) == all_hold

    def test_member_without_internal_link_fails(self):
        # node 3 links only out of its community {0, 1, 2, 3}: the subgraph
        # is disconnected, so eigvalsh's lambda_2 less the margin is <= 0
        g = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (4, 5)])
        state = SurpriseState(g, Partition([0, 0, 0, 0, 1, 1]))
        assert state._certificate(0) is None


def bits(bound):
    """A certificate's return value, None or its float's exact bits."""
    return None if bound is None else bound.hex()


@contextmanager
def certificates_against_reference():
    """Within the block, every certificate must equal reference_certificate()
    on the same state, None or the same float bits; yields the bounds."""
    bounds = []
    certificate = SurpriseState._certificate

    def compared(state, cid):
        bound = certificate(state, cid)
        assert bits(bound) == bits(reference_certificate(state, cid))
        bounds.append(bound)
        return bound

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SurpriseState, "_certificate", compared)
        yield bounds


class TestFastCertificate:
    """_certificate() reads the members' internal degrees from the link
    table; reference_certificate() recounts them from the graph and builds
    its Laplacian and link grid its own way.  Every call returns the same
    bits."""

    @settings(max_examples=100, deadline=None)
    @given(graphs_with_partitions(max_k=12, max_nc=4))
    def test_matches_reference_on_every_community(self, gp):
        state = SurpriseState(*gp)
        for cid in range(state.partition.Nc):
            if len(state.partition.comms[cid]) > 1:
                assert bits(state._certificate(cid)) == bits(reference_certificate(state, cid))

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_reference_in_a_solve(self, seed):
        # every state stepper() builds a plan in, the recursion's included
        g, p = sparse_random_case(seed)
        with certificates_against_reference():
            SurpriseState(g, p, rng=seed).stepper()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_reference_on_degraded_benchmark(self, seed):
        with certificates_against_reference() as bounds:
            SurpriseState(degraded_k63(seed), rng=seed).stepper()
        assert any(bound is not None for bound in bounds)
        # seed 0 settles its cliques in phase 1, so every certificate holds;
        # at seed 1 some fail
        assert any(bound is None for bound in bounds) == (seed != 0)


def split_communities(graph, partition):
    """The ids of the communities whose induced subgraph is not connected."""
    split = []
    for cid, comm in enumerate(partition.comms):
        start = next(iter(comm))
        seen, stack = {start}, [start]
        while stack:
            for v in graph.adj[stack.pop()] & comm:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        if len(seen) < len(comm):
            split.append(cid)
    return split


@st.composite
def bridged_chains(draw):
    """Cliques in a row, each joined to the next through one bridge node with
    links into both; hypothesis picks the sizes and how many links."""
    sizes = draw(st.lists(st.integers(2, 6), min_size=2, max_size=4))
    edges, start, prev = [], 0, None
    for c in sizes:
        clique = range(start, start + c)
        edges += combinations(clique, 2)
        if prev is not None:
            bridge = start + c
            for side in (prev, clique):
                ends = draw(st.lists(st.sampled_from(side), min_size=1, max_size=len(side), unique=True))
                edges += [(u, bridge) for u in ends]
            start = bridge + 1
        else:
            start += c
        prev = clique
    return Graph(start, edges)


class TestConnectedCommunities:
    """Every community of a stepper() fixed point induces a connected subgraph.

    On a graph with no link S is 0 for every partition, so every partition
    is a fixed point: the search covers graphs with links, and
    test_edgeless_graph holds that case.
    """

    @settings(max_examples=150, deadline=None)
    @given(
        graph=st.one_of(random_graphs(min_k=4, max_k=14).filter(lambda g: g.n > 0), bridged_chains()),
        start=st.integers(0, 5),
        seed=st.integers(0, 2**16),
        T=st.sampled_from([0.05, 0.5, 2.0]),
        data=st.data(),
    )
    def test_fixed_points_are_connected(self, graph, start, seed, T, data):
        # from singletons (start 0) or from a random partition into up to 5 ids
        partition = None
        if start:
            assign = data.draw(st.lists(st.integers(0, start - 1), min_size=graph.K, max_size=graph.K))
            partition = Partition(assign)
        state = SurpriseState(graph, partition, rng=seed)
        state.stepper()
        assert split_communities(graph, state.partition) == []
        state.anneal_step(T)
        state.stepper()
        assert split_communities(graph, state.partition) == []

    @pytest.mark.xfail(strict=True, reason="every partition of an edgeless graph has S = 0 and is a fixed point")
    def test_edgeless_graph(self):
        graph = Graph(4, [])
        state = SurpriseState(graph, Partition([0, 0, 0, 0]), rng=0)
        state.stepper()
        assert split_communities(graph, state.partition) == []


class TestPaperScale:
    def test_k500_partition_pinned(self):
        # the paper-scale recipe at K=500: 20 cliques of about 25 nodes,
        # Pielou 0.85, r=0.01, p=0.4, q=0.02, instance seed 0, solved as
        # `surpkit detect --seed 0` solves it
        sizes = pielouer_nodes(20, 0.85, (495, 495), rng=sub_rng(0, "bench.sizes"))
        net = build_benchmark(sizes, 0.01, False, rng=sub_rng(0, "bench.build"))
        net.degrade_p(0.4)
        net.degrade_q(0.02)
        state = SurpriseState(net.graph, rng=sub_rng(0, "detect"))
        state.stepper()
        assert state.S.hex() == "0x1.9b7ec1c6157cep+13"

        def digest(assign):
            return hashlib.sha256("".join(f"{c}\n" for c in assign).encode()).hexdigest()

        # the file `detect --out` writes, community ids included
        assert digest(state.partition.assign) == "d40b554c3821915f54a9c739c3723ec72d038961bf3c397a9cada0053d539af2"
        # the partition up to its ids, the same since before the two-phase order
        assert digest(state.partition.canonical()) == "95d44b1d0ba918005b96b13933e0a835ad512755bff10f56770c5b0fb038c11a"


class TestMoveOutcome:
    def test_attribute_access(self):
        out = MoveOutcome(True, 0.5, "merge")
        assert (out.accepted, out.deltaS, out.kind) == (True, 0.5, "merge")

    def test_rejects_assignment(self):
        out = MoveOutcome(False, -1.0, "exchange")
        with pytest.raises(AttributeError):
            out.accepted = True
        assert out.accepted is False


class TestLinkTables:
    """The incremental link counts against a recount from scratch."""

    @settings(max_examples=40, deadline=None)
    @given(graphs_with_partitions())
    def test_recount_after_every_move(self, gp):
        apply_every_move(*gp)

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(
            random_graphs(min_k=2),
            st.integers(1, 10).map(lambda K: Graph(K, [])),
            st.integers(1, 10).map(lambda K: Graph(K, combinations(range(K), 2))),
        )
    )
    def test_singleton_start_reads_the_adjacency(self, g):
        state = SurpriseState(g)
        assert_tables_recounted(state)
        M, ell, S = partition_stats(g, Partition.singletons(g.K))
        assert (state.M, state.ell, state.S.hex()) == (M, ell, S.hex()) == (0, 0, (0.0).hex())
        assert state.verify()
        # every node has a row of its own: moves from this start keep it exact
        apply_every_move(g, None)

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_partition_of_another_node_count_refused(self, toy, delta):
        K = toy.K + delta
        with pytest.raises(ValueError, match=f"^partition over {K} nodes does not match graph with {toy.K}$"):
            SurpriseState(toy, Partition.singletons(K))

    @settings(max_examples=60, deadline=None)
    @given(graphs_with_partitions())
    def test_merge_links_read_from_either_side(self, gp):
        g, p = gp
        state = SurpriseState(g, p)
        assign, comms, edges = state.partition.assign, state.partition.comms, g.edges
        for cA, cB in combinations(range(state.partition.Nc), 2):
            between = sum(1 for u, v in edges if {assign[u], assign[v]} == {cA, cB})
            # both directions read the smaller community, once as the moved
            # side and once as the target; equal sizes read each side once
            assert state._delta(comms[cB], cB, cA)[1] == state._delta(comms[cA], cA, cB)[1] == between

    def test_state_and_copy_keep_the_ids(self, toy):
        # stepper() leaves the ids out of first-appearance order
        state = SurpriseState(toy, rng=0)
        state.stepper()
        p = state.partition
        assert p.assign == [0, 0, 0, 0, 1, 1, 1, 1, 3, 2, 2] != list(p.canonical())
        copy = p.copy()
        assert (copy.assign, copy.comms) == (p.assign, p.comms)
        assert copy.assign is not p.assign and all(a is not b for a, b in zip(copy.comms, p.comms))
        assert SurpriseState(toy, p).partition.assign == p.assign

    def test_recount_covers_renumbering_and_new_ids(self, toy):
        p = Partition.from_communities([[0, 1, 2, 3, 8, 9], [4, 5, 6, 7], [10]])
        assert apply_every_move(toy, p) == {"renumbering merge", "appending sub_extract"}

    def test_recount_after_stepper_anneal_and_shake(self, toy):
        state = SurpriseState(toy, rng=5)
        state.stepper()
        assert_tables_recounted(state)
        for _ in range(10):
            state.anneal_step(1.0)
            assert_tables_recounted(state)
        state.shake()
        assert_tables_recounted(state)


class TestAnneal:
    @settings(max_examples=40, deadline=None)
    @given(graphs_with_partitions(), st.integers(0, 2 ** 31))
    def test_matches_reference_from_any_start(self, gp, seed):
        assert_anneal_matches_reference(*gp, seed, (2.0, 1.0, 0.5, 0.25))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_reference_on_degraded_benchmark(self, seed):
        # from the greedy optimum, so the sub-moves split and move real cliques
        g = degraded_k63(seed)
        state = SurpriseState(g, rng=seed)
        state.stepper()
        assert_anneal_matches_reference(g, state.partition, seed, (0.25, 0.5, 1.0, 2.0))

    def test_temperature_domain(self, toy):
        state = SurpriseState(toy, rng=0)
        with pytest.raises(ValueError):
            state.anneal_step(0.0)

    @pytest.mark.parametrize("T", [float("nan"), -1.0, -math.inf])
    def test_temperature_refused_before_any_draw(self, toy, T):
        state = SurpriseState(toy, rng=0)
        before = (list(state.partition.assign), state.rng.bit_generator.state)
        with pytest.raises(ValueError, match="temperature must be positive"):
            state.anneal_step(T)
        assert (state.partition.assign, state.rng.bit_generator.state) == before

    @settings(max_examples=60, deadline=None)
    @given(
        graphs_with_partitions(max_k=12, max_nc=5),
        st.integers(0, 2 ** 32 - 1),
        st.lists(st.sampled_from(SCREEN_TEMPERATURES), min_size=1, max_size=4),
    )
    def test_screen_matches_exact_pricing(self, gp, seed, temperatures):
        assert_screen_matches_exact_pricing(*gp, seed, temperatures)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_screen_matches_exact_pricing_on_degraded_benchmark(self, seed):
        # from the greedy optimum nearly every proposal lowers S, so most
        # of them meet the screen, and at low T most are rejected by it
        g = degraded_k63(seed)
        state = SurpriseState(g, rng=seed)
        state.stepper()
        screened, exact = assert_screen_matches_exact_pricing(g, state.partition, seed, SCREEN_TEMPERATURES)
        assert screened < exact

    def test_screen_margin_covers_a_non_monotone_exp(self, monkeypatch, toy):
        # libm's exp is within an ulp of e^t, but may give exp(y) > exp(x)
        # for y < x.  Here it does, and u lies between the two: the rule
        # applies the move, and only the margin keeps the screen from
        # rejecting it
        p = Partition([0, 0, 0, 0, 1, 1, 1, 1, 3, 2, 2])
        screened, exact = SurpriseState(toy, p), SurpriseState(toy, p)
        dM, dell = screened._delta((0,), 0, 1)  # node 0 into community 1
        M, ell = screened.M + dM, screened.ell + dell
        dB = max(first_term_bound(toy.F, M, toy.n, ell), 0.0) - screened.S
        dS = surprise(toy.F, M, toy.n, ell) - screened.S
        assert dS < dB <= 0.0
        T = (dB - dS) * 2.0 ** 60
        x, y = dB / T, dS / T
        libm_exp = math.exp

        def exp(t):  # one ulp up below x, one ulp down from x on
            return math.nextafter(libm_exp(t), math.inf if t < x else -math.inf)

        u = exp(x)
        assert y < x and exp(y) > u
        monkeypatch.setattr(math, "exp", exp)
        # exchange (kind 1) node 0 into community 1 (draw 0, which skips src 0)
        screened.rng, exact.rng = ScriptedRng([1, 0, 0], u), ScriptedRng([1, 0, 0], u)
        assert screened._anneal_propose(T) is True
        assert unscreened_propose(exact, T) is True
        assert screened.partition.assign == exact.partition.assign

    @pytest.mark.parametrize("seed", range(0, 1000, 10))
    def test_distinct_pair_draws_as_choice(self, seed):
        drawn, chosen = np.random.default_rng(seed), np.random.default_rng(seed)
        for Nc in range(2, 301):
            assert distinct_pair(drawn, Nc) == tuple(int(c) for c in chosen.choice(Nc, 2, replace=False))
            assert drawn.bit_generator.state == chosen.bit_generator.state

    def test_metropolis_rate_at_minus_T(self, toy):
        state = SurpriseState(toy, rng=123)
        trials = 20_000
        hits = sum(state._metropolis(-0.7, 0.7) for _ in range(trials))
        assert hits / trials == pytest.approx(math.exp(-1), abs=0.02)

    def test_low_T_near_greedy(self, toy, toy_surprise_oracle):
        best, _ = toy_surprise_oracle
        state = SurpriseState(toy, rng=7)
        state.stepper()
        for _ in range(20):
            state.anneal_step(1e-6)
        state.stepper()
        assert state.S == pytest.approx(best, abs=1e-9)
        assert state.verify()

    def test_high_T_moves_and_stays_consistent(self, toy):
        state = SurpriseState(toy, rng=11)
        accepted = sum(state.anneal_step(2.0) for _ in range(30))
        assert accepted > 0
        assert state.verify()


class TestShake:
    def test_reaches_mirror_optimum(self, toy, toy_surprise_oracle):
        _, argmax = toy_surprise_oracle
        state = SurpriseState(toy, rng=0)
        state.stepper()
        start = state.partition.copy()
        S0 = state.S
        state.shake()
        assert state.S == S0
        assert state.partition != start
        assert state.partition in argmax
        assert state.verify()

    def test_cliques_no_moves(self):
        g, truth = disconnected_cliques([4, 4, 5])
        state = SurpriseState(g, truth)
        assert state.shake() == (0, 0)

    @settings(max_examples=60, deadline=None)
    @given(graphs_with_partitions(max_k=12), st.integers(0, 2 ** 31))
    def test_matches_reference_from_any_start(self, gp, seed):
        g, p = gp
        ours, ref = shake_runs(g, p, seed, (1.0, 0.5, 0.25))
        assert ours == ref

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_reference_on_degraded_benchmark(self, seed):
        ours, ref = shake_runs(degraded_k63(seed), None, seed, (2.0, 1.0, 0.5, 0.25))
        assert ours == ref

    def test_matches_reference_where_blocks_tie(self):
        # small random graphs from random starts, where sub-community
        # exchanges that keep S do happen; in cases 160, 322 and 1712 more
        # than one block ties, so the order of targets and blocks decides
        # which one moves
        sub_exchanges = 0
        for seed in [*range(40), 160, 322, 1712]:
            r = random.Random(seed)
            K = r.randint(6, 16)
            p = r.uniform(0.1, 0.6)
            g = Graph(K, [(i, j) for i in range(K) for j in range(i + 1, K) if r.random() < p])
            ours, ref = shake_runs(g, Partition([r.randrange(4) for _ in range(K)]), seed, (1.0, 0.5, 0.25))
            assert ours == ref
            sub_exchanges += sum(s for _, s in ours[0])
        assert sub_exchanges > 0

    def test_path_on_two_clique_degenerate(self):
        # 2-clique 0-1 with a 3-path 2-3-4 hanging off node 1
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        state = SurpriseState(g, rng=0)
        state.stepper()
        S0 = state.S
        before = state.partition.copy()
        exchanges, _ = state.shake()
        assert exchanges >= 1
        assert state.S == S0
        assert state.partition != before


class TestCheckDeltasAndVerify:
    def test_singleton_start_has_uphill_merge(self, toy):
        state = SurpriseState(toy)
        assert any(m[0] == "merge" and dS > 0 for m, dS in reference_deltas(state))

    def test_deltas_match_application(self, toy):
        p = Partition.from_communities([[0, 1, 2, 3, 9], [4, 5, 6, 7], [8, 10]])
        state = SurpriseState(toy, p)
        for move, dS in reference_deltas(state):
            fresh = SurpriseState(toy, p)
            apply_move(fresh, move)
            _, _, S_new = partition_stats(toy, fresh.partition)
            assert S_new - state.S == pytest.approx(dS, abs=1e-9)

    def test_verify_detects_corruption(self, toy, truth):
        state = SurpriseState(toy, truth)
        assert state.verify()
        state.ell += 1
        assert not state.verify()
        # truth is {0..3}, {4..7}, {8, 9, 10}; only the path community links out
        state = SurpriseState(toy, truth)
        state._node_links[0][0] += 1
        assert not state.verify()
        state = SurpriseState(toy, truth)
        state._node_links[3][2] += 1  # node 3's one link out, to node 8
        assert not state.verify()
        state = SurpriseState(toy, truth)
        state._node_links[0][2] = 0  # a zero count must be dropped
        assert not state.verify()
        state = SurpriseState(toy, truth)
        state._lab[0], state._lab[1] = state._lab[1], state._lab[0]  # the inverse not updated
        assert not state.verify()
        state = SurpriseState(toy, truth)
        state._slot[state._next_lab] = 0  # a stale inverse entry
        assert not state.verify()
        state = SurpriseState(toy, truth)
        state._next_lab -= 1  # the next new community would reuse a label
        assert not state.verify()

    @settings(max_examples=5, deadline=None)
    @given(random_graphs(min_k=10, max_k=50), st.integers(0, 2 ** 31))
    def test_verify_after_fuzzed_moves(self, g, seed):
        rng = np.random.default_rng(seed)
        state = SurpriseState(g, rng=rng)
        for _ in range(5):
            state.anneal_step(float(rng.uniform(0.05, 2.0)))
            assert state.verify()
        state.stepper()
        assert state.verify()


class TestDeterminism:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_result_does_not_depend_on_earlier_table_growth(self, monkeypatch, seed):
        # the ln-factorial table is process-wide; whatever grew it before,
        # the greedy run reads the same floats
        results = set()
        for before in (None, 100, 1_000):
            monkeypatch.setattr(surprise_module, "_table", np.zeros(2))
            if before is not None:
                ln_factorial(before)
            state = SurpriseState(degraded_k63(seed))
            state.stepper()
            results.add((state.S.hex(), tuple(state.partition.assign)))
        assert len(results) == 1

    def test_same_seed_same_result(self, toy):
        results = []
        for _ in range(2):
            state = SurpriseState(toy, rng=42)
            state.stepper()
            for _ in range(10):
                state.anneal_step(0.5)
            results.append(state.partition.canonical())
        assert results[0] == results[1]

    def test_sample_partitions_distinct(self, toy):
        parts = sample_partitions(toy, 10, rng=3, max_sweeps=200)
        keys = {p.canonical() for p in parts}
        assert len(keys) == len(parts) >= 2

    @pytest.mark.parametrize(
        "graph, digest",
        [
            (lambda: degraded_k63(0), "5a81a8fd8f107a823e711c8e88d08b6e0fe2b86c65f899860956aa2cb1a2486a"),
            (lambda: sparse_random_case(6)[0], "13f34bd39370820f73dec589a1dfe8e7cbeff88155a2d503536004713423ffce"),
        ],
        ids=["degraded_k63", "sparse_random_24"],
    )
    def test_sample_partitions_pinned(self, graph, digest):
        # every sampled partition in order, pinned from exact pricing and
        # rng.choice's merge pairs: the screen and the pair draw move none
        keys = [p.canonical() for p in sample_partitions(graph(), 30, rng=0)]
        assert hashlib.sha256(repr(keys).encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "count, max_sweeps, message",
        [(0, 10, "count must be >= 1"), (-3, 10, "count must be >= 1"), (3, -1, "max_sweeps must be >= 0")],
    )
    def test_sample_partitions_refuses_bad_counts(self, toy, count, max_sweeps, message):
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match=message):
            sample_partitions(toy, count, rng=rng, max_sweeps=max_sweeps)
        assert rng.bit_generator.state == before


class SurpriseStateMachine(RuleBasedStateMachine):
    """The public moves, anneal_step, shake, stepper and subcommunities on one
    state in any order, with every cache checked against a recomputation
    after each call.

    The prunings rest on these caches: _S_memo and _sub_cache never go
    stale, and _plans and _rejected hold only what the current state would
    rebuild or reject.  Ids are drawn below 14 and taken modulo the node or
    community count; an illegal call must raise ValueError and change
    nothing.
    """

    ids = st.integers(0, 13)

    @initialize(gp=graphs_with_partitions(max_k=14, max_nc=6), singletons=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def start(self, gp, singletons, seed):
        g, p = gp
        self.state = SurpriseState(g, None if singletons else p, rng=seed)
        self.tied = False  # S is the one a shake tie kept, not the kernel's
        self.blocks = {}  # recursion_blocks of each _sub_cache key

    def call(self, name, *args):
        state = self.state
        before = (list(state.partition.assign), state.M, state.ell, state.S)
        try:
            out = getattr(state, name)(*args)
        except ValueError:
            assert (state.partition.assign, state.M, state.ell, state.S) == before
            return None
        moved = state.partition.assign != before[0]
        if name == "shake":
            self.tied |= moved
        elif moved:
            self.tied = False  # every other move sets S to a kernel value
        return out

    def comm(self, i):
        return i % self.state.partition.Nc

    @rule(a=ids, b=ids)
    def merge(self, a, b):
        self.call("merge", self.comm(a), self.comm(b))

    @rule(node=ids, b=ids)
    def exchange(self, node, b):
        self.call("exchange", node % self.state.graph.K, self.comm(b))

    @rule(node=ids)
    def extract(self, node):
        self.call("extract", node % self.state.graph.K)

    @rule(a=ids)
    def sub_extract(self, a):
        self.call("sub_extract", self.comm(a))

    @rule(a=ids, b=ids)
    def sub_exchange(self, a, b):
        self.call("sub_exchange", self.comm(a), self.comm(b))

    @rule(T=st.sampled_from([0.05, 0.5, 2.0]))
    def anneal_step(self, T):
        self.call("anneal_step", T)

    @rule()
    def shake(self):
        self.call("shake")

    @rule()
    def stepper(self):
        self.call("stepper")

    @rule(a=ids)
    def subcommunities(self, a):
        cid = self.comm(a)
        members = set(self.state.partition.comms[cid])
        blocks = self.call("subcommunities", cid)
        c, g = len(members), self.state.graph
        internal = sum(len(g.adj[u] & members) for u in members) // 2
        if c < 2:
            assert blocks == [members]
        elif internal in (0, c * (c - 1) // 2):
            assert blocks == [{u} for u in sorted(members)]
        else:
            assert blocks == recursion_blocks(g, members, np.random.default_rng(0))

    @invariant()
    def counts_and_surprise(self):
        state, g = self.state, self.state.graph
        assert state.verify()
        assert state.S.hex() == surprise(g.F, state.M, g.n, state.ell).hex() or self.tied

    @invariant()
    def memo_holds_kernel_values(self):
        g = self.state.graph
        for (M, ell), S in self.state._S_memo.items():
            assert S.hex() == surprise(g.F, M, g.n, ell).hex()

    @invariant()
    def sub_cache_holds_the_recursion(self):
        for key, blocks in self.state._sub_cache.items():
            if key not in self.blocks:
                # the recursion draws nothing from the rng
                self.blocks[key] = recursion_blocks(self.state.graph, key, np.random.default_rng(0))
            assert blocks == self.blocks[key]

    @invariant()
    def plans_are_current(self):
        # rebuilt on a copy that shares S and the recursion memo: an empty
        # plan the memo now has blocks for must still be certified
        state = self.state
        for cid, plan in state._plans.items():
            assert 0 <= cid < state.partition.Nc and len(state.partition.comms[cid]) > 1
            # a closed-form community's block moves read the link table
            assert not closed_form(state, cid)
            copy = SurpriseState(state.graph, state.partition)
            copy.S = state.S
            copy._sub_cache = {key: [set(b) for b in blocks] for key, blocks in state._sub_cache.items()}
            rebuilt = copy._plan(cid)
            assert plan == rebuilt or (plan == [] and copy._certificate(cid) is not None)

    @invariant()
    def labels_are_a_bijection(self):
        state = self.state
        lab, Nc = state._lab, state.partition.Nc
        assert len(lab) == len(set(lab)) == Nc
        assert state._slot == {ln: cid for cid, ln in enumerate(lab)}
        assert all(0 <= ln < state._next_lab for ln in lab)

    @invariant()
    def rejected_moves_are_rejected(self):
        # a merge key names the pair; any other key is the price (dM, dell)
        # of a rejected exchange or extraction
        state, g = self.state, self.state.graph
        p = state.partition
        for key in state._rejected:
            if key[0] == "merge":
                _, cA, cB = key
                assert 0 <= cA < cB < p.Nc
                dM, dell = state._delta(p.comms[cB], cB, cA)
            else:
                dM, dell = key
            assert not (surprise(g.F, state.M + dM, g.n, state.ell + dell) - state.S > TIE_EPS)


TestSurpriseStateMachine = SurpriseStateMachine.TestCase
TestSurpriseStateMachine.settings = settings(max_examples=300, stateful_step_count=30, deadline=None)
