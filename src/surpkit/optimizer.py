"""Greedy and annealed maximization of the surprise quality function.

The optimizer edits a partition through five moves: merging two
communities, exchanging a single node between communities, extracting a
node into a new singleton community, and extracting or exchanging a whole
sub-community (found by running the greedy loop recursively on the
subgraph induced by one community).  A move is accepted in greedy mode
only when it strictly increases the surprise; the main loop applies the
moves systematically to exhaustion, so it terminates at a local maximum.
It settles the node moves first: passes of merges, exchanges and
extractions until one applies nothing, then passes of all five moves
until one applies nothing (argument in stepper()).

All five moves are one operation: move a node set out of its community
src into a community dst, or into a new one.  _delta(nodes, src, dst)
prices it as the change (dM, dell) of the intracommunity pair and link
counts; when b nodes leave a community of c nodes for one of t nodes
(t = 0 for a new one), dM = b*(t + b - c).  _move() applies it.  A merge
moves the whole of cB into cA, an exchange or extraction moves one node,
and the sub-community moves move one block.

Link counts are kept incrementally in one table: every node's links
into each community, updated by each applied move, so the delta of a
single-node move is two lookups and that of a merge is a sum over the
smaller community's members.  The table is keyed by a private label per
community, not by its public id: _lab[cid] is the label of community
cid and _slot maps a label back to its id.  A community keeps its label
while its id changes, so an applied move rewrites only the rows of the
moved nodes' neighbours.  When a move empties a community, the last
community takes its id (ids stay dense) with its label: that rewrites
assign for its members and one entry of each map, and no row.  A merge
relocates the smaller side: when the target cA is smaller than cB, cA's
members move into cB's label, and the two slots then swap their sets and
labels, so the union has id cA and cB's slot is the emptied one, exactly
as when cB's members move.  Either way every row counts the same links
into the union's label, so the table, the partition and every id after
the move are those of moving cB.  A state that starts from singletons, as
stepper() and every sub-community search do, reads the table straight
from the adjacency (node u's community is u, with label u) with M = ell
= 0; a state given a partition labels its communities by id and counts
the table over every edge.

Every greedy move, block moves included, is decided at one site,
_greedy().  It takes the move's price (dM, dell) from its caller, applies
the move when it raises S by more than TIE_EPS and counts it in
_accepted, and otherwise records the move's key in _rejected.  A rejected
key stays rejected until a move is applied (the key rule, in _greedy()),
so stepper() leaves out a call whose key is in _rejected.
It reads the key of an exchange or extraction straight from the link
table, _delta()'s one-node branch written out, and reads each node's
neighbours from lists it sorts once per call (arguments in stepper()).
Every member of a community with the same internal degree, as in a
clique, has the same extraction price, so one rejection stands for all of
them.  By the same argument stepper() offers a community's blocks only to
a target that some block links to at a price not in _rejected, or to
every target when some block's extraction would be applied (argument in
_sub_targets()).

The greedy moves price only a move that could be accepted.  Surprise is
-ln of a hypergeometric upper tail (Aldecoa & Marin, PLoS ONE 6:e24195,
2011), and a tail is at least its first term, so -ln pmf(ell),
first_term_bound(), bounds S from above.  The kernel computes its first
term and checks feasibility by calling it (see surpkit.surprise), so the
screen raises the kernel's error on a corrupt state.  On a memo miss
whose term loop would run (ell < min(M, n)), _greedy() takes bound =
max(first_term_bound(F, M, n, ell), 0.0) as S_new, and calls the kernel
only when bound - S > TIE_EPS; otherwise the acceptance test rejects the
move unpriced.  This is exact, bit for bit.  The kernel returns -((lt0 +
mx) + ln acc), clamped at 0.0, with mx >= 0 and acc >= 1, and its lt0 is
-first_term_bound().  Round-to-nearest addition and subtraction are
monotone, so the kernel's S_new <= bound and fl(S_new - S) <= fl(bound -
S) <= TIE_EPS: no margin is needed, at any size of S.  Where ell =
min(M, n) the loop is empty and the kernel returns exactly bound, so
that move goes to the kernel unscreened.  A screened move memoizes nothing and
draws nothing from the rng, so decisions, S bits and the rng stream are
those of exact pricing.  The annealer screens its proposals with the same
bound: a proposal whose dB = bound - S is at most 0 is rejected unpriced
when the uniform draw u the Metropolis rule would make is at least
exp(dB/T), with a margin for the rounding of exp (argument in
_anneal_propose()).  The block moves price their extractions exactly, and
shake() every move.

A community whose induced subgraph is complete or edgeless is in closed
form: its sub-communities are its singletons, found without recursing.
Such a subgraph has n = F or n = 0 links, where every partition has
surprise exactly 0.0, so the recursive greedy loop from singletons would
accept nothing; it draws nothing from the rng either, so skipping it
leaves the rng stream unchanged.  Its members share one internal degree,
so its blocks share one extraction price, and its block moves read their
prices from the link table and build no plan (argument in
_closed_price()).

Most recursions that remain only confirm that no block of the community
can move, and a certificate proves that before recursing.  Fiedler's
algebraic connectivity of the community's induced subgraph bounds from
below the links any block cuts, which bounds the new ell from above;
the new M is exact; and the first term of the hypergeometric tail bounds
S from above.  When that bound, over every block size and every
destination, stays below S by a margin larger than the rounding, the
sub-community moves of that community are rejected without the
recursion: its plan is empty (argument in _certificate() and _plan()).
Decisions, S bits and the rng stream are those of the recursing solve.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Collection
from typing import NamedTuple

import numpy as np

from surpkit.graph import Graph
from surpkit.partition import Partition
from surpkit.surprise import first_term_bound, ln_factorial, partition_stats, surprise

# strict-improvement threshold; exact ties are handled by shake()
TIE_EPS = 1e-12

# the Metropolis screen's factor on exp(dB/T): libm's exp is within one ulp
# but not promised monotone, and 2^-40 is 2^12 ulps (argument in
# SurpriseState._anneal_propose())
_EXP_SLACK = 1.0 + 2.0 ** -40

MOVE_KINDS = ("merge", "exchange", "extract", "sub_extract", "sub_exchange")


def _distinct_pair(rng: np.random.Generator, Nc: int) -> tuple[int, int]:
    """Two distinct ints below Nc >= 2, as tuple(rng.choice(Nc, 2, replace=False)) draws them.

    numpy's choice without replacement runs Floyd's algorithm, a draw in
    [0, Nc - 1) and one in [0, Nc) that becomes Nc - 1 when it repeats
    the first, then shuffles the pair with one draw in [0, 2), swapping on
    0.  These are its draws without its array set-up, so the pair and the
    generator state after it are choice's; the tests compare the two.
    """
    a, b = int(rng.integers(Nc - 1)), int(rng.integers(Nc))
    if b == a:
        b = Nc - 1
    if rng.integers(2) == 0:
        return b, a
    return a, b


class MoveOutcome(NamedTuple):
    """What one greedy move did: applied or not, its deltaS, and its kind.

    An applied move's deltaS is exact.  A rejected move's deltaS may be an
    upper bound on it, at most TIE_EPS: a move rejected on its first-term
    bound, a block move included, reports bound - S, and a rejected
    sub-community move the bound of _block_scan().

    A named tuple: the greedy loop builds one per priced move, and a tuple
    is the cheapest immutable record to build.
    """

    accepted: bool
    deltaS: float
    kind: str


class _SubBlock(NamedTuple):
    """One proper sub-community of a community not in closed form, priced against the current state.

    ``dM`` and ``dell`` are _delta() of moving the block into a fresh
    community of its own, and ``S_extract`` the surprise after that move;
    ``links`` counts, by community id, the block's links into every other
    community it touches.  Moving the block into a community of t nodes instead adds
    t*b to dM (b the block's size) and its links into that community to
    dell.

    A named tuple, as MoveOutcome: _plan() builds one per block, and a
    tuple is cheaper to build and read than a frozen dataclass.
    """

    nodes: set[int]
    dM: int
    dell: int
    links: dict[int, int]
    S_extract: float


class SurpriseState:
    """A graph plus a partition with incrementally maintained surprise.

    Single-owner mutable: do not mutate one instance from several threads.
    """

    def __init__(
        self,
        graph: Graph,
        partition: Partition | None = None,
        rng: np.random.Generator | int | None = None,
    ):
        self.graph = graph
        self.rng = np.random.default_rng(rng)  # a Generator is kept as it is
        # memo for sub-community decompositions, keyed by community contents:
        # the recursion depends only on the induced subgraph, so entries
        # never go stale and repeat lookups skip the greedy recursion
        self._sub_cache: dict[frozenset, list[set[int]]] = {}
        # surprise by (M, ell): F and n are fixed per graph, so entries
        # never go stale
        self._S_memo: dict[tuple[int, int], float] = {}
        # sub-block plans by community id, valid until the next applied move
        self._plans: dict[int, list[_SubBlock]] = {}
        # what _greedy() rejected since the last applied move, keyed as its
        # docstring says, and how many moves of each kind it applied
        self._rejected: set[tuple] = set()
        self._accepted = dict.fromkeys(MOVE_KINDS, 0)
        # links of each node into each community, keyed by the community's
        # private label _lab[cid]; zero counts are dropped.  _slot is the
        # inverse of _lab, and _next_lab the label the next new community
        # takes
        if partition is None:
            # singletons: community u is {u}, with label u, so node u has
            # one link into each neighbour's community.  M = ell = 0, and
            # surprise(F, 0, n, 0) is exactly 0.0: lt0's first bracket is
            # t(0) - t(0) - t(0) = 0.0, its other two are the same three
            # table reads t(F) - t(n) - t(F - n) in the same order and
            # cancel exactly, and the term loop is empty because min(0, n)
            # = 0
            self.partition = Partition.singletons(graph.K)
            self.M, self.ell = 0, 0
            self.S = surprise(graph.F, 0, graph.n, 0)
            self._lab = list(range(graph.K))
            self._node_links = [dict.fromkeys(nbs, 1) for nbs in graph.adj]
        else:
            # partition_stats refuses a partition of another node count
            self.partition = partition.copy()
            self.M, self.ell, self.S = partition_stats(graph, self.partition)
            self._lab = list(range(self.partition.Nc))
            self._node_links = self._count_links()
        self._slot = {lab: cid for cid, lab in enumerate(self._lab)}
        self._next_lab = len(self._lab)

    # ----- bookkeeping helpers -------------------------------------------

    def _S_at(self, M: int, ell: int) -> float:
        S = self._S_memo.get((M, ell))
        if S is None:
            S = self._S_memo[M, ell] = surprise(self.graph.F, M, self.graph.n, ell)
        return S

    def _check_comm(self, cid: int) -> None:
        Nc = len(self.partition.comms)
        if not (0 <= cid < Nc):
            raise ValueError(f"community id {cid} out of range [0, {Nc})")

    def _count_links(self) -> list[dict[int, int]]:
        """Each node's link counts into each community's label, from scratch."""
        assign, lab = self.partition.assign, self._lab
        node_links: list[dict[int, int]] = [{} for _ in range(self.graph.K)]
        for u, nbs in enumerate(self.graph.adj):
            counts = node_links[u]
            for nb in nbs:
                ln = lab[assign[nb]]
                counts[ln] = counts.get(ln, 0) + 1
        return node_links

    def _remove_comm(self, cid: int) -> None:
        """Drop an emptied community slot, keeping ids dense (swap with last).

        The last community takes id cid and keeps its label, so only the
        assign entries of its members change, and no row of the link table.
        """
        p, lab = self.partition, self._lab
        del self._slot[lab[cid]]
        last = p.Nc - 1
        if cid != last:
            p.comms[cid] = p.comms[last]
            lab[cid] = lab[last]
            self._slot[lab[cid]] = cid
            for node in p.comms[cid]:
                p.assign[node] = cid
        p.comms.pop()
        lab.pop()

    def _relabel_links(self, nodes: Collection[int], src_lab: int, dst_lab: int) -> None:
        """Move the links of ``nodes`` from label src_lab to dst_lab in their neighbours' rows.

        Each neighbour's row loses one link into src_lab and gains one into
        dst_lab per moved neighbour.  A moved node's own row changes only
        through its moved neighbours: it counts the communities of its
        neighbours, and the graph has no self-loops.
        """
        node_links = self._node_links
        adj = self.graph.adj
        for node in nodes:
            for nb in adj[node]:
                counts = node_links[nb]
                k = counts[src_lab]
                if k == 1:
                    del counts[src_lab]
                else:
                    counts[src_lab] = k - 1
                counts[dst_lab] = counts.get(dst_lab, 0) + 1

    # ----- the one move: price it, apply it ------------------------------

    def _delta(self, nodes: Collection[int], src: int, dst: int | None) -> tuple[int, int]:
        """(dM, dell) of moving ``nodes`` (a non-empty subset of src) into dst.

        ``nodes`` is a set when it holds more than one node but not the
        whole of src.  ``dst`` None means a new community.  When b nodes
        leave a community of c for one of t (t = 0 for a new one), the
        intracommunity pairs change by C(c-b, 2) + C(t+b, 2) - C(c, 2) -
        C(t, 2) = b*(t + b - c).
        The links change by the nodes' links into dst, minus their links
        into src, plus twice the edges inside the moved set (counted among
        the links into src, but they stay intracommunity).  No row holds
        the key None, so the links into a new community read 0.
        A whole community moved into another is a merge, priced by
        _merge_price().
        """
        comms, lab = self.partition.comms, self._lab
        b = len(nodes)
        c = len(comms[src])
        if b == c and dst is not None:
            return self._merge_price(dst, src)
        t = 0 if dst is None else len(comms[dst])
        dM = b * (t + b - c)
        node_links = self._node_links
        ls = lab[src]
        ld = None if dst is None else lab[dst]
        if b == 1:
            (u,) = nodes
            links = node_links[u]
            return dM, links.get(ld, 0) - links.get(ls, 0)
        adj = self.graph.adj
        dell = 0
        for u in nodes:
            links = node_links[u]
            dell += links.get(ld, 0) - links.get(ls, 0) + len(adj[u] & nodes)
        return dM, dell

    def _merge_price(self, cA: int, cB: int) -> tuple[int, int]:
        """(dM, dell) of merging cB into cA: _delta(comms[cB], cB, cA) without its generic preamble.

        With b = c = |cB| and t = |cA|, _delta's dM = b*(t + b - c) is
        |cB|*|cA|.  The merge gains exactly the edges between the two, and
        that count is read from the smaller of them: the sum of its
        members' links into the other.  Either side gives the same int,
        since each edge between the pair is counted once in the row of its
        endpoint on the summed side, so (dM, dell), the memo key and every
        decision are the same whichever side is read; on a tie in size cB
        is read.  The smaller side costs min(|cA|, |cB|) lookups.
        """
        comms, lab, node_links = self.partition.comms, self._lab, self._node_links
        nodes, target = comms[cB], comms[cA]
        if len(nodes) <= len(target):
            side, other = nodes, lab[cA]
        else:
            side, other = target, lab[cB]
        return len(nodes) * len(target), sum(node_links[u].get(other, 0) for u in side)

    def _move(self, nodes: Collection[int], src: int, dst: int | None, dM: int, dell: int, S_new: float) -> None:
        """Apply a move priced by _delta(nodes, src, dst), with no acceptance test.

        A new community takes the next id and a fresh label.  A merge into
        a smaller community relocates dst's members into src, then swaps
        the two slots' sets and labels, so the union has id dst (argument
        in the module docstring).
        """
        p = self.partition
        comms, assign, lab = p.comms, p.assign, self._lab
        if dst is None:
            comms.append(set())
            lab.append(self._next_lab)
            dst = self._slot[self._next_lab] = p.Nc - 1
            self._next_lab += 1
        if len(comms[dst]) < len(nodes) == len(comms[src]):
            union, small = comms[src], comms[dst]
            self._relabel_links(small, lab[dst], lab[src])
            for node in union:
                assign[node] = dst
            union |= small
            comms[dst], comms[src] = union, set()
            lab[src], lab[dst] = lab[dst], lab[src]
            self._slot[lab[src]], self._slot[lab[dst]] = src, dst
        else:
            self._relabel_links(nodes, lab[src], lab[dst])
            for node in nodes:
                assign[node] = dst
            # dst first: nodes may be the community set itself (a merge)
            comms[dst].update(nodes)
            comms[src].difference_update(nodes)
        if not comms[src]:
            self._remove_comm(src)
        self._commit(dM, dell, S_new)

    def _commit(self, dM: int, dell: int, S_new: float) -> None:
        self.M += dM
        self.ell += dell
        self.S = S_new
        # plans and rejections hold community ids and deltas of the old state
        self._plans.clear()
        self._rejected.clear()

    def _greedy(self, kind: str, nodes: Collection[int], src: int, dst: int | None, dM: int, dell: int) -> MoveOutcome:
        """Apply the move priced (dM, dell) by _delta(nodes, src, dst) when it raises S by more than TIE_EPS.

        The one greedy decision: every merge, exchange, extraction and
        block move is decided here, each applied move is counted in
        _accepted by kind, and nothing else adds to _rejected.

        A move whose (M, ell) misses the memo and whose tail has more than
        one term is first screened by the first-term bound: the bound
        stands in for S_new unless it clears TIE_EPS, and only then does
        the kernel price the move (argument in the module docstring).  A
        move rejected on its bound reports bound - S as its deltaS: at
        least the kernel's deltaS and at most TIE_EPS.  Nothing is memoized
        for it.

        The key rule.  A rejected move's key goes into _rejected: the pair
        ("merge", min(cA, cB), max(cA, cB)) for a merge, the price (dM,
        dell) for any other move.  A rejected key stays rejected until a
        move is applied.  The decision reads only (M + dM, ell + dell) and
        S (the memo, the screen and the kernel read nothing else), and
        until a move is applied none of M, ell and S changes, so a move at
        a rejected price would be rejected again, whatever nodes, source
        or target it names.  A merge of cA and cB has dM = sA*sB and dell =
        the edges between the pair, both symmetric in the pair and fixed
        until a move is applied, so its pair stands for its price and saves
        the sum that prices it.  Applying any move clears the record
        (_commit()), which also covers the renumbering of community ids.
        So a call whose key is in _rejected can be left out: it would apply
        nothing and draw nothing from the rng.
        """
        M, ell = self.M + dM, self.ell + dell
        S_new = self._S_memo.get((M, ell))
        if S_new is None:
            F, n = self.graph.F, self.graph.n
            if ell < M and ell < n:
                S_new = max(first_term_bound(F, M, n, ell), 0.0)
            if S_new is None or S_new - self.S > TIE_EPS:
                S_new = self._S_at(M, ell)
        dS = S_new - self.S
        if dS > TIE_EPS:
            self._move(nodes, src, dst, dM, dell, S_new)
            self._accepted[kind] += 1
            return MoveOutcome(True, dS, kind)
        self._rejected.add(("merge", min(src, dst), max(src, dst)) if kind == "merge" else (dM, dell))
        return MoveOutcome(False, dS, kind)

    # ----- the five moves -------------------------------------------------

    def merge(self, cA: int, cB: int) -> MoveOutcome:
        """Merge cB into cA when that raises the surprise."""
        self._check_comm(cA)
        self._check_comm(cB)
        if cA == cB:
            raise ValueError("cannot merge a community with itself")
        dM, dell = self._merge_price(cA, cB)
        return self._greedy("merge", self.partition.comms[cB], cB, cA, dM, dell)

    def exchange(self, node: int, cTo: int) -> MoveOutcome:
        """Move one node into cTo when that raises the surprise."""
        self.graph._check_node(node)
        self._check_comm(cTo)
        src = self.partition.assign[node]
        if len(self.partition.comms[src]) <= 1:
            raise ValueError("cannot exchange out of a singleton community")
        if cTo == src:
            return MoveOutcome(False, 0.0, "exchange")
        dM, dell = self._delta((node,), src, cTo)
        return self._greedy("exchange", (node,), src, cTo, dM, dell)

    def extract(self, node: int) -> MoveOutcome:
        """Split one node into a new singleton community when that raises the surprise."""
        self.graph._check_node(node)
        src = self.partition.assign[node]
        if len(self.partition.comms[src]) <= 1:
            raise ValueError("cannot extract from a singleton community")
        dM, dell = self._delta((node,), src, None)
        return self._greedy("extract", (node,), src, None, dM, dell)

    def subcommunities(self, cid: int) -> list[set[int]]:
        """Sub-communities of one community, via greedy recursion on its subgraph.

        A community whose induced subgraph is complete or edgeless is
        answered in closed form, without the recursion: its singletons, in
        ascending node order (see _closed_price()).  Any other community is
        answered from the memo, or else by the recursion, which fills the
        memo.  The memo never holds a complete or edgeless community, so it
        is read first.

        For c >= 2 the result has at least two blocks, none of them the
        whole community, so _plan and _anneal_propose filter nothing out.
        The closed form returns c singletons.  The recursion starts from
        singletons with S = 0.0 and accepts only moves that raise S by more
        than TIE_EPS, while the all-in-one partition has S exactly 0.0: lt0
        = a + 0.0 - a and the term loop is empty.
        """
        self._check_comm(cid)
        members = self.partition.comms[cid]
        if len(members) < 2:
            return [set(members)]
        key = frozenset(members)
        cached = self._sub_cache.get(key)
        if cached is not None:
            return [set(sub) for sub in cached]
        if self._closed_price(cid) is not None:
            return [{u} for u in sorted(members)]
        sub, back = self.graph.subgraph(members)
        state = SurpriseState(sub, rng=self.rng)
        state.stepper()
        result = [
            {back[i] for i in comm}
            for comm in state.partition.communities()
        ]
        self._sub_cache[key] = [set(s) for s in result]
        return result

    def _closed_price(self, cid: int) -> tuple[int, int] | None:
        """The price (dM, dell) every block of cid shares when its induced subgraph is complete or edgeless, else None.

        Such a community has its singletons as sub-communities, found
        without recursing.  The internal link count is read from the link
        table.  The subgraph has n = F (complete) or n = 0 (edgeless), and
        surprise(F, M, n, ell) is exactly 0.0 for every feasible (M, ell):
        feasibility forces ell = M or ell = 0, so every ln_choose in lt0 is
        ln C(m, m) or ln C(m, 0), that is t[m] - t[0] - t[m] = 0.0, and the
        term loop is empty.  Starting from singletons, with S = 0.0, no move
        clears TIE_EPS, so the recursive stepper() would accept nothing and
        return the singletons in Graph.subgraph's ascending relabel order.
        That order matters: _anneal_propose draws a block by index.
        stepper() draws nothing from the rng, so skipping it leaves the rng
        stream as it was.

        The shared price.  Every member u has the same internal degree d
        (c - 1, or 0), so every block {u} moved to a fresh community has
        _delta()'s (dM, dell) = (1 - c, -d), and so the same S_extract.
        Moved into a community cj, {u} has the price (dM + |cj|, dell + k),
        k = row_u[lab[cj]] its links into cj, which is exchange(u, cj)'s.
        The sub-community moves read these from the link table
        (_block_scan(), _sub_targets()) and build no plan: the values are
        those a plan would store, read in the same state, since rows change
        only on an applied move, which also drops every plan and rejection.
        So _plans holds no such community, and one it holds is answered
        without the count.
        """
        if cid in self._plans:
            return None
        members = self.partition.comms[cid]
        c = len(members)
        # twice the links inside the community
        lc = self._lab[cid]
        internal2 = sum(self._node_links[u].get(lc, 0) for u in members)
        if internal2 == 0:
            return 1 - c, 0
        if internal2 == c * (c - 1):
            return 1 - c, 1 - c
        return None

    def _certificate(self, cid: int) -> float | None:
        """A bound on the deltaS of every proper block move out of cid, or None.

        The bound is returned only when it is at most -margin, which
        proves that no block of cid, moved to a new community or to any
        other, can raise S.  A block B of b nodes (1 <= b <= c - 1) moved
        to a community T of t nodes (t = 0 for a new one) changes M by
        exactly b*(t + b - c) (see _delta()), and ell by the links of B
        into T minus the cut between B and the rest of cid:

        - The links into T are at most the sum of the b largest member link
          counts into T.  Each count is at most t, so the sum is at most
          b*t.  They are 0 for a new community.
        - Fiedler (Czech. Math. J. 23:298, 1973): with lambda_2 the
          algebraic connectivity of cid's induced subgraph, a cut between b
          and c - b of its nodes has at least lambda_2*b*(c - b)/c links,
          so at least the ceiling of that.

        So the new ell is at most U = ell + links - ceil(...), clamped to
        the feasible range [max(0, n - F + M'), min(M', n)], which holds
        the new ell too.  The hypergeometric tail P(X >= ell) does not grow
        with ell and does not shrink as M grows, so S = -ln P does not fall
        with ell and does not rise with M: S(M', new ell) <= S(M', U).  A
        community that no member links to is no better than a new one: the
        new ell is that of the move to a new community, while M' is larger.
        The tail is at least its first term, so S(M', U) <= -ln pmf(U),
        which first_term_bound() computes with the kernel's own table
        reads: it is never below the kernel's value at (M', U), unless it
        is below 0.0, where the kernel clamps.

        Rounding.  eigvalsh is backward stable: its lambda_2 is off by a
        small multiple of c*eps*||L||, far below 1e-9*||L|| for any
        community that fits in memory, and ||L|| <= 2*dmax (Gershgorin).
        Subtracting 2e-9*dmax before the ceiling leaves a value below the
        true lambda_2 by more than the rounding of the product, so no
        ceiling rounds up past the integer cut.  The kernel and the bound
        read the same ln-factorial table.  Their computed values differ
        from the exact ones only through at most nine table entries, each
        at most ln F! in size and off by a relative 2.8e-14 at F = 2e6
        (against mpmath; the error grows slowly with F), and a few
        roundings of the same size.  So margin = 1e-9*max(1, ln F!)
        exceeds their total with room to spare, and every block the kernel
        prices comes out below self.S, never within TIE_EPS of it.  The
        errors scale with the table entries, not with S, which can be far
        smaller than ln F! early in a solve.

        A disconnected subgraph, such as one where a member has no link
        inside cid, has lambda_2 = 0: eigvalsh's value, less 2e-9*dmax, is
        at most 0.0, and the certificate fails.
        """
        p = self.partition
        comm = p.comms[cid]
        members = sorted(comm)
        c = len(members)
        node_links, lc = self._node_links, self._lab[cid]
        deg = []  # each member's links inside cid
        into: dict[int, list[int]] = {}  # by label: counts into each other community, of the members linked to it
        for u in members:
            row = node_links[u]
            deg.append(row.get(lc, 0))
            for lj, k in row.items():
                if lj != lc:
                    into.setdefault(lj, []).append(k)
        index = {u: i for i, u in enumerate(members)}
        adj = self.graph.adj
        lap = np.zeros((c, c))
        lap[np.repeat(np.arange(c), deg), [index[v] for u in members for v in adj[u] & comm]] = -1.0
        lap[np.diag_indices(c)] = deg
        lam = np.linalg.eigvalsh(lap)[1] - 2e-9 * max(deg)
        if lam <= 0.0:
            return None  # disconnected: a component leaves at no cost
        b = np.arange(1, c, dtype=np.int64)
        cut = np.ceil(lam * (b * (c - b)) / c).astype(np.int64)
        # row 0 is a new community, row r > 0 a linked one; its links are
        # the running sum of its member counts in descending order
        t = np.array([0] + [len(p.comms[self._slot[lj]]) for lj in into], dtype=np.int64)[:, None]
        links = np.zeros((len(into) + 1, c - 1), dtype=np.int64)
        if into:
            counts = -np.sort(-np.array([ks + [0] * (c - len(ks)) for ks in into.values()]), axis=1)
            links[1:] = np.cumsum(counts, axis=1)[:, : c - 1]
        F, n, ell, S = self.graph.F, self.graph.n, self.ell, self.S
        M = self.M + b * (t + b - c)
        U = np.minimum(ell + links - cut, np.minimum(M, n))
        U = np.maximum(U, np.maximum(0, n - F + M))
        best = float(first_term_bound(F, M, n, U).max())
        margin = 1e-9 * max(1.0, ln_factorial(F))
        return best - S if best <= S - margin else None

    def _plan(self, cid: int) -> list[_SubBlock]:
        """The proper sub-communities of cid in ascending order of their smallest node.

        Built once per community and state: in phase 2 stepper() calls
        sub_extract for every community of c >= 2 nodes, and that call and
        the sub_exchange calls for the same community share the plan.
        Every applied move drops it.  Every caller asks for c >= 2 nodes,
        in a community _closed_price() does not answer: those take their
        block moves from the link table and have no plan.

        When the memo has no answer, _certificate() runs before the
        recursion.  When it proves that no proper block can raise S, the
        plan is empty and the recursion is skipped.  Every plan reader then
        does what the recursion's blocks would have made it do: stepper(),
        sub_extract and sub_exchange would apply none of them, and shake()
        needs a change within TIE_EPS, which the certificate rules out.
        The recursion draws nothing from the rng, so skipping it leaves the
        rng stream unchanged.  A plan that is not empty has at least two
        blocks (see subcommunities()).
        """
        plan = self._plans.get(cid)
        if plan is not None:
            return plan
        members = frozenset(self.partition.comms[cid])
        if members not in self._sub_cache and self._certificate(cid) is not None:
            plan = self._plans[cid] = []
            return plan
        node_links, slot, lc = self._node_links, self._slot, self._lab[cid]
        plan = []
        for sub in sorted(self.subcommunities(cid), key=min):
            dM, dell = self._delta(sub, cid, None)
            by_lab: dict[int, int] = {}
            for u in sub:
                for lj, k in node_links[u].items():
                    by_lab[lj] = by_lab.get(lj, 0) + k
            by_lab.pop(lc, None)
            links = {slot[lj]: k for lj, k in by_lab.items()}
            plan.append(_SubBlock(sub, dM, dell, links, self._S_at(self.M + dM, self.ell + dell)))
        self._plans[cid] = plan
        return plan

    def sub_extract(self, cid: int) -> MoveOutcome:
        """Split a sub-community off into its own community when that raises the surprise."""
        self._check_comm(cid)
        if len(self.partition.comms[cid]) < 2:
            raise ValueError("community too small for sub-community extraction")
        return self._block_scan("sub_extract", cid, None)

    def sub_exchange(self, cid: int, cTo: int) -> MoveOutcome:
        """Relocate a sub-community wholesale into cTo when that raises the surprise."""
        self._check_comm(cid)
        self._check_comm(cTo)
        if len(self.partition.comms[cid]) < 2:
            raise ValueError("community too small for sub-community exchange")
        if cTo == cid:
            return MoveOutcome(False, 0.0, "sub_exchange")
        return self._block_scan("sub_exchange", cid, cTo)

    def _block_scan(self, kind: str, cid: int, dst: int | None) -> MoveOutcome:
        """Apply the first block of cid whose move into dst raises S by more than TIE_EPS.

        ``dst`` None means a new community.  The blocks are those of cid's
        plan, or, when _closed_price() answers, its members at the shared
        price, each with its links into dst read from its row.  Into a new
        community the first member stands for them all: no member links
        there, so each would be skipped or applied alike, on the one
        S_extract.  Either way blocks come in ascending order of their
        smallest node.

        Every block that is priced is decided by _greedy(), which keys a
        rejection by its price.  A block B with no link into dst is
        skipped, unpriced, when extracting it does not raise S by more than
        TIE_EPS; it could not have been applied.  No block links to None,
        so extraction skips every block that does not clear, and prices one
        that does at its S_extract's (M, ell): a memo hit.  Moving B (b
        nodes) into a community T (t nodes) that it has no links to adds
        no intracommunity link, so ell changes exactly as when B is
        extracted, while M grows by t*b >= 1 more (see _SubBlock).  At
        fixed ell the hypergeometric upper tail P(X >= ell) does not
        decrease as M grows, so S = -ln P does not increase: the move into
        T is no better than extraction.  The first applied block is
        therefore the one a full scan in the same order applies.  That
        holds in exact arithmetic; in floating point the kernel can put a
        move that ties extraction a few ulps above it, so a skipped block
        could only ever differ where both deltaS lie within the kernel's
        rounding of TIE_EPS.

        On rejection, deltaS is an upper bound on the best block's deltaS
        (up to that rounding), not always the exact value: a skipped block
        contributes its extraction deltaS, and a block rejected on its
        first-term bound that bound's deltaS (see _greedy()).  An empty plan
        reports 0.0: its certificate put every block's deltaS below -margin
        (see _plan()).  So deltaS is always finite.
        """
        t = 0 if dst is None else len(self.partition.comms[dst])
        price = self._closed_price(cid)
        if price is None:
            S = self.S
            blocks = ((blk.nodes, blk.dM, blk.dell, blk.S_extract - S, blk.links.get(dst, 0)) for blk in self._plan(cid))
        else:
            # named apart from the loop's variables, which the generator
            # would otherwise read as they are rebound
            dM0, dell0 = price
            dS0 = self._S_at(self.M + dM0, self.ell + dell0) - self.S
            members = self.partition.comms[cid]
            if dst is None:
                blocks = [({min(members)}, dM0, dell0, dS0, 0)]
            else:
                node_links, ld = self._node_links, self._lab[dst]
                blocks = (({u}, dM0, dell0, dS0, node_links[u].get(ld, 0)) for u in sorted(members))
        best_dS = -math.inf
        for nodes, dM, dell, dS, k in blocks:
            if k or dS > TIE_EPS:
                out = self._greedy(kind, nodes, cid, dst, dM + t * len(nodes), dell + k)
                if out.accepted:
                    return out
                dS = out.deltaS
            best_dS = max(best_dS, dS)  # a skipped block's is its extraction's
        # only an empty plan leaves -inf
        return MoveOutcome(False, best_dS if best_dS > -math.inf else 0.0, kind)

    def _sub_targets(self, ci: int) -> list[int]:
        """The communities stepper() offers ci's blocks to, in ascending order.

        Every other community when some block's extraction raises S by more
        than TIE_EPS.  Otherwise the communities some block links to at a
        price not in _rejected: a block of b nodes with k links into cj has
        the price (dM + b*|cj|, dell + k) there (see _SubBlock).  A
        community left out would have sub_exchange(ci, cj) apply nothing:
        _block_scan() skips, unpriced, every block with no link into cj, and
        _greedy() rejects every other block again (argument in _greedy()).
        A one-node block {u} has the price of exchange(u, cj), so the
        exchanges stepper() saw rejected leave out targets too.  For a
        community in closed form every block is one node at the shared
        price, so this is one pass over the members' rows (see
        _closed_price()).
        """
        comms = self.partition.comms
        price = self._closed_price(ci)
        if price is None:
            plan = self._plan(ci)
            clears = any(blk.S_extract - self.S > TIE_EPS for blk in plan)
            # the price of each block's move into each community it links to
            moves = (
                ((blk.dM + len(blk.nodes) * len(comms[cj]), blk.dell + k), cj)
                for blk in plan
                for cj, k in blk.links.items()
            )
        else:
            dM, dell = price
            clears = self._S_at(self.M + dM, self.ell + dell) - self.S > TIE_EPS
            node_links, slot, lc = self._node_links, self._slot, self._lab[ci]
            moves = (
                ((dM + len(comms[slot[lj]]), dell + k), slot[lj])
                for u in comms[ci]
                for lj, k in node_links[u].items()
                if lj != lc
            )
        if clears:
            return [cj for cj in range(len(comms)) if cj != ci]
        rejected = self._rejected
        return sorted({cj for key, cj in moves if key not in rejected})

    # ----- driving loops --------------------------------------------------

    def stepper(self) -> dict[str, int]:
        """Greedy loop over all moves until none improves the surprise.

        A pass visits every community: for every member, for every neighbor
        in another community, try to merge the two communities and on
        failure to exchange a node between them; then extract nodes to
        exhaustion, then extract sub-communities to exhaustion, then
        exchange sub-communities with every other community to exhaustion.

        The passes run in two phases.  Phase 1 leaves out the two
        sub-community moves and repeats until a pass applies nothing; phase
        2 makes all five and repeats until a pass applies nothing.  So the
        recursion runs on communities the node moves have settled: in the
        first passes most communities are still being built, and a block
        found in one is rarely applied.  Louvain likewise moves nodes to
        convergence before it aggregates (Blondel et al., J. Stat. Mech.
        P10008, 2008), and Leiden refines only after that (Traag, Waltman &
        van Eck, Sci. Rep. 9:5233, 2019).  Only the order of the moves
        changes.  The loop still ends on a pass of all five that applied
        nothing, so no single move of the five raises S by more than
        TIE_EPS.  Recursive sub-states call stepper() and run the same two
        phases.

        _rejected is not cleared when phase 2 begins.  Phase 1 ends with a
        pass that applied nothing, and only an applied move changes the
        state, so every entry still names a merge, or the price of a move,
        rejected in the current state.

        Each member of the snapshot sorted(p.comms[ci]) is still in ci at
        its turn: a merge brings cj into ci (re-read after a renumbering),
        exchange(node, cj) moves only the member being visited, which then
        ends its turn, and exchange(nb, ci) brings nb in without emptying cj.

        stepper() only reads _rejected and _accepted; _greedy() fills both.
        A merge is not called when its pair is in _rejected, nor an
        exchange or an extraction when its price is.  _greedy() would
        reject such a call again (the key rule, in _greedy()), so these
        checks are kept only to save the public call, its argument checks
        and its MoveOutcome: a prototype without them, which also passed
        the price by a *-splat call, ran 15-23 % slower per instance.  A
        left-out call would apply nothing, evaluate no kernel and draw
        nothing from the rng, so decisions, kernel evaluations and the rng
        stream are those of the loop that makes every call.

        The price of a node move is read inline from the link table, with
        no _delta() call: it is _delta()'s one-node branch written out.
        Moving one node (b = 1) out of a community of c nodes into one of
        t gives dM = b*(t + b - c) = t + 1 - c and dell = its links into
        the target's label minus its links into its own.  So exchange(node,
        cj) is keyed (|cj| + 1 - |ci|, row[lab[cj]] - row[lab[ci]]),
        exchange(nb, ci) the same with ci and cj swapped and nb's row, and
        extract(node) (1 - |ci|, -row[lab[ci]]), a new community having t
        = 0 and no links; an absent label reads 0, as in _delta().  Every
        key is read in the state the call would see: a rejected call
        changes nothing, so the reverse exchange sees the sizes the forward
        one saw.  These are ints equal to _delta()'s, so the keys, and the
        calls left out, are the same.

        Each node's neighbours are sorted once per stepper() call, into a
        list the loop reads, instead of at every visit through
        graph.neighbors(): the first pass visits every node, so building
        them up front costs no more than that pass did, and later passes
        read them for free.  The lists live here, not in Graph, whose
        construction perfbench times as set-up, and they hold the same
        order neighbors() returns.

        sub_exchange(ci, cj) is called only for the targets _sub_targets
        lists, in ascending order; after an applied move the list is
        rebuilt and the scan resumes after cj.  An applied sub-exchange
        moves a proper block into an existing community, so the ids do not
        change; a rejected one changes only _rejected, so every target left
        in the list is still one _sub_targets would list or one whose call
        applies nothing.

        Returns the moves _greedy() applied during this call, per kind: the
        growth of _accepted over the call.  The passes read _accepted to
        tell whether a pass, an extraction sweep or a sub-exchange sweep
        applied anything.
        """
        accepted = self._accepted
        start = dict(accepted)
        p = self.partition
        comms, assign = p.comms, p.assign
        lab, node_links, rejected = self._lab, self._node_links, self._rejected
        neighbors = [sorted(nbs) for nbs in self.graph.adj]
        sub_moves = False  # phase 1: merge, exchange and extract only
        while True:
            applied = sum(accepted.values())
            ci = 0
            while ci < p.Nc:
                # merge / exchange driven by the members' neighborhoods
                for node in sorted(comms[ci]):
                    row = node_links[node]
                    for nb in neighbors[node]:
                        cj = assign[nb]
                        if cj == ci:
                            continue
                        key = ("merge", ci, cj) if ci < cj else ("merge", cj, ci)
                        if key not in rejected and self.merge(ci, cj).accepted:
                            ci = assign[node]
                            continue
                        c, t = len(comms[ci]), len(comms[cj])
                        li, lj = lab[ci], lab[cj]
                        if c > 1 and (t + 1 - c, row.get(lj, 0) - row.get(li, 0)) not in rejected:
                            if self.exchange(node, cj).accepted:
                                break  # node left ci; go to the next member
                        if t > 1:
                            nb_row = node_links[nb]
                            if (c + 1 - t, nb_row.get(li, 0) - nb_row.get(lj, 0)) not in rejected:
                                self.exchange(nb, ci)
                # extract to exhaustion: sweep ci while a sweep extracts a node
                while len(comms[ci]) > 1:
                    extracted = accepted["extract"]
                    for node in sorted(comms[ci]):
                        c = len(comms[ci])
                        if c > 1 and (1 - c, -node_links[node].get(lab[ci], 0)) not in rejected:
                            self.extract(node)
                    if accepted["extract"] == extracted:
                        break
                if not sub_moves:
                    ci += 1
                    continue
                # sub-community extraction to exhaustion
                while len(comms[ci]) > 1 and self.sub_extract(ci).accepted:
                    pass
                # sub-community exchanges to exhaustion, over the candidate
                # targets only
                while len(comms[ci]) > 1:
                    exchanged = accepted["sub_exchange"]
                    targets = self._sub_targets(ci)
                    k = 0
                    while k < len(targets):
                        cj = targets[k]
                        k += 1
                        if self.sub_exchange(ci, cj).accepted:
                            if len(comms[ci]) < 2:
                                break
                            targets = self._sub_targets(ci)
                            k = bisect_right(targets, cj)
                    if accepted["sub_exchange"] == exchanged:
                        break
                ci += 1
            if sum(accepted.values()) == applied:
                if sub_moves:
                    return {kind: accepted[kind] - start[kind] for kind in MOVE_KINDS}
                sub_moves = True  # phase 2: all five moves

    def anneal_step(self, T: float) -> int:
        """One Monte-Carlo sweep (K random move proposals) at temperature T.

        Improving moves are always applied; a move with deltaS <= 0 is
        applied with probability exp(deltaS / T).  Returns the number of
        applied moves.
        """
        if not T > 0:  # NaN too
            raise ValueError("temperature must be positive")
        accepted = 0
        for _ in range(self.graph.K):
            if self._anneal_propose(T):
                accepted += 1
        return accepted

    def _metropolis(self, dS: float, T: float, u: float | None = None) -> bool:
        """The Metropolis rule: dS > 0 applies, else u < exp(dS/T), with u drawn here unless given."""
        if dS > 0.0:
            return True
        if u is None:
            u = self.rng.random()
        return u < math.exp(dS / T)

    def _anneal_propose(self, T: float) -> bool:
        """Draw one random legal move and apply it by the Metropolis rule.

        A merge draws its pair with _distinct_pair().

        The Metropolis screen.  On a memo miss whose tail has more than
        one term (ell < min(M, n)), the first-term bound B = max(
        first_term_bound(F, M, n, ell), 0.0) prices the move from above,
        and dB = B - S bounds the exact dS = S_new - S from above, bit for
        bit (argument in the module docstring).  When dB <= 0, dS <= 0 as
        well, so the rule would draw u: draw it first.  When u > 0 and u >=
        exp(dB/T) * _EXP_SLACK, the move is rejected without calling the
        kernel, as the rule would reject it; otherwise it is priced exactly
        and applied iff u < exp(dS/T), with that u.  A screened move
        memoizes nothing, and each proposal draws what the rule draws, so
        moves, S bits and the rng stream are those of exact pricing.

        Why u >= exp(dB/T) * _EXP_SLACK implies u >= exp(dS/T).  Division
        by T > 0 rounds monotonically, so y = dS/T <= x = dB/T <= 0.  libm's
        exp is within one ulp of e^t but is not promised to be monotone,
        so compare through e^t.  If e^y is below 2^-1022 (exp underflows,
        T = 1e-300 say, y = -inf included), exp(y) is at most 2^-1022, and
        u, a positive multiple of 2^-53, exceeds it.  Otherwise e^y and e^x
        are normal, and exp(y) <= e^y (1 + 2^-52) <= e^x (1 + 2^-52) <=
        exp(x) (1 + 2^-52) / (1 - 2^-52), which the product exp(x) *
        _EXP_SLACK, rounded, still exceeds.  u = 0 is left to the exact
        rule: 0 < exp(y) may hold where exp(x) is 0.
        """
        p = self.partition
        rng = self.rng
        kind = MOVE_KINDS[rng.integers(len(MOVE_KINDS))]
        if kind == "merge":
            if p.Nc < 2:
                return False
            cA, cB = _distinct_pair(rng, p.Nc)
            nodes, src, dst = p.comms[cB], cB, cA
        else:
            if kind in ("exchange", "extract"):
                node = int(rng.integers(self.graph.K))
                src = p.assign[node]
                if len(p.comms[src]) <= 1:
                    return False
                nodes = (node,)
            else:
                src = int(rng.integers(p.Nc))
                if len(p.comms[src]) < 2:
                    return False
                # at least two blocks, each a proper subset (see subcommunities())
                subs = self.subcommunities(src)
                nodes = subs[rng.integers(len(subs))]
            dst = None
            if kind in ("exchange", "sub_exchange"):
                if p.Nc < 2:
                    return False
                dst = int(rng.integers(p.Nc - 1))
                if dst >= src:
                    dst += 1
        dM, dell = self._delta(nodes, src, dst)
        M, ell = self.M + dM, self.ell + dell
        u = None
        n = self.graph.n
        if ell < M and ell < n and (M, ell) not in self._S_memo:
            dB = max(first_term_bound(self.graph.F, M, n, ell), 0.0) - self.S
            if dB <= 0.0:
                u = rng.random()
                if u > 0.0 and u >= math.exp(dB / T) * _EXP_SLACK:
                    return False
        S_new = self._S_at(M, ell)
        if self._metropolis(S_new - self.S, T, u):
            self._move(nodes, src, dst, dM, dell, S_new)
            return True
        return False

    def shake(self) -> tuple[int, int]:
        """Apply surprise-preserving relocations, exploring degenerate states.

        One pass of node exchanges and one pass of sub-community exchanges
        whose deltaS is zero to within 1e-12.  The surprise value is
        unchanged and no communities are merged.  Returns the number of
        exchanges and sub-community exchanges performed.
        """
        p = self.partition

        def tie(nodes: Collection[int], src: int, dst: int) -> bool:
            """Apply the move, keeping S as it is, if it changes S by less than TIE_EPS."""
            dM, dell = self._delta(nodes, src, dst)
            if abs(self._S_at(self.M + dM, self.ell + dell) - self.S) < TIE_EPS:
                self._move(nodes, src, dst, dM, dell, self.S)
                return True
            return False

        exchanges = 0
        for node in range(self.graph.K):
            src = p.assign[node]
            if len(p.comms[src]) <= 1:
                continue
            for cTo in range(p.Nc):
                if cTo != src and tie((node,), src, cTo):
                    exchanges += 1
                    break
        sub_exchanges = 0
        # a block move never empties its community, so Nc stays fixed
        for ci in range(p.Nc):
            if len(p.comms[ci]) < 2 or self._closed_price(ci) is not None:
                continue  # no proper block, or only one-node blocks
            # singleton blocks are the node pass's job; relocating them here
            # would undo exchanges made moments ago
            blocks = [blk.nodes for blk in self._plan(ci) if len(blk.nodes) > 1]
            sub_exchanges += any(tie(b, ci, cTo) for cTo in range(p.Nc) if cTo != ci for b in blocks)
        return exchanges, sub_exchanges

    def verify(self) -> bool:
        """True iff the cached M, ell, S, labels and link table match a from-scratch recomputation."""
        p = self.partition
        if p.assign and p.Nc != max(p.assign) + 1:
            return False
        if any(not c for c in p.comms):
            return False
        for node, cid in enumerate(p.assign):
            if node not in p.comms[cid]:
                return False
        if sum(len(c) for c in p.comms) != self.graph.K:
            return False
        lab = self._lab
        if len(lab) != p.Nc or len(set(lab)) != p.Nc or max(lab) >= self._next_lab:
            return False
        if self._slot != {ln: cid for cid, ln in enumerate(lab)}:
            return False
        if self._node_links != self._count_links():
            return False
        M, ell, S = partition_stats(self.graph, p)
        return M == self.M and ell == self.ell and abs(S - self.S) < 1e-9


# the annealing temperatures sample_partitions cycles through
_TEMPERATURES = (2.0, 1.0, 0.5, 0.25)


def sample_partitions(
    graph: Graph,
    count: int,
    rng: np.random.Generator | int | None = None,
    max_sweeps: int = 10_000,
) -> list[Partition]:
    """Collect distinct partitions by annealing sweeps plus degenerate shakes.

    Runs Monte-Carlo sweeps cycling through the temperatures 2, 1, 0.5
    and 0.25, snapshotting the partition after each sweep, until ``count``
    distinct partitions were seen (or ``max_sweeps`` sweeps were spent).
    Also records the greedy optimum and its shake neighborhood.  Raises
    ValueError, before drawing from ``rng``, when ``count`` < 1 or
    ``max_sweeps`` < 0.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if max_sweeps < 0:
        raise ValueError(f"max_sweeps must be >= 0, got {max_sweeps}")
    rng = np.random.default_rng(rng)
    seen: dict[tuple[int, ...], Partition] = {}

    def record(p: Partition) -> None:
        key = p.canonical()
        if key not in seen:
            seen[key] = Partition(list(key))

    state = SurpriseState(graph, rng=rng)
    state.stepper()
    record(state.partition)
    state.shake()
    record(state.partition)

    sweeps = 0
    while len(seen) < count and sweeps < max_sweeps:
        T = _TEMPERATURES[sweeps % len(_TEMPERATURES)]
        state.anneal_step(T)
        record(state.partition)
        sweeps += 1
    return list(seen.values())
