"""Undirected simple graph with dense integer node ids."""

from __future__ import annotations

from collections.abc import Iterable


# an edge list may describe at most this many nodes: about 0.2 GB of empty
# adjacency sets, far past any K whose K(K-1)/2 ln-factorial table the
# surprise kernel can hold
MAX_NODES = 10**6


class EdgeListError(ValueError):
    """Malformed edge-list input (bad tokens, self-loops, bad node ids)."""


class Graph:
    """Immutable undirected simple graph.

    Nodes are the integers ``0 .. K-1``.  Isolated nodes are allowed, which
    is why the node count is stored explicitly instead of being inferred
    from the edge set.
    """

    __slots__ = ("K", "adj", "n", "F")

    def __init__(self, K: int, edges: Iterable[tuple[int, int]]):
        if K < 1:
            raise ValueError("node count must be >= 1")
        adj: list[set[int]] = [set() for _ in range(K)]
        for u, v in edges:
            if u == v:
                raise EdgeListError(f"self-loop on node {u}")
            if not (0 <= u < K and 0 <= v < K):
                raise EdgeListError(f"edge ({u}, {v}) outside node range [0, {K})")
            adj[u].add(v)
            adj[v].add(u)
        self._set(adj)

    def _set(self, adj: list[set[int]]) -> None:
        """Store a symmetric, loop-free adjacency list and the counts read from it."""
        self.K = K = len(adj)
        self.adj = adj
        self.n = sum(map(len, adj)) // 2
        self.F = K * (K - 1) // 2

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The edges as pairs ``(u, v)`` with ``u < v``, built on each access."""
        return frozenset((u, v) for u, row in enumerate(self.adj) for v in row if v > u)

    def neighbors(self, u: int) -> list[int]:
        """Neighbors of ``u`` in ascending order."""
        self._check_node(u)
        return sorted(self.adj[u])

    def degree(self, u: int) -> int:
        self._check_node(u)
        return len(self.adj[u])

    def connected(self, u: int, v: int) -> bool:
        """True iff the edge {u, v} exists.  A node is never connected to itself."""
        self._check_node(u)
        self._check_node(v)
        return v in self.adj[u]

    def links_in(self, nodes: Iterable[int]) -> tuple[int, int]:
        """Count edges internal to ``nodes`` and edges leaving the set.

        Returns ``(internal, external)`` where internal edges have both
        endpoints in the set and external edges exactly one.
        """
        node_set = set(nodes)
        for u in node_set:
            self._check_node(u)
        internal = 0
        external = 0
        for u in node_set:
            for v in self.adj[u]:
                if v in node_set:
                    internal += 1
                else:
                    external += 1
        return internal // 2, external

    def subgraph(self, nodes: Iterable[int]) -> tuple["Graph", list[int]]:
        """Induced subgraph with nodes relabeled ``0..m-1`` in ascending order.

        Returns the subgraph and the list mapping new ids back to original ids.
        Costs O(sum of the members' degrees), not O(edges of the whole graph).
        The parent is a valid simple graph, so its induced edges are built
        directly, without Graph.__init__'s checks.
        """
        order = sorted(set(nodes))
        if not order:
            raise ValueError("node set is empty")
        for u in order:
            self._check_node(u)
        index = {u: i for i, u in enumerate(order)}
        adj = self.adj
        sub = Graph.__new__(Graph)
        sub._set([{index[v] for v in adj[u] if v in index} for u in order])
        return sub, order

    def _check_node(self, u: int) -> None:
        if not (0 <= u < self.K):
            raise ValueError(f"node {u} out of range [0, {self.K})")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.adj == other.adj

    def __hash__(self):
        return hash((self.K, self.edges))

    def __repr__(self) -> str:
        return f"Graph(K={self.K}, n={self.n})"


def load_edge_list(path) -> Graph:
    """Read a graph from an edge-list file.

    One edge per line as two whitespace-separated non-negative integers.
    Lines starting with '#' are comments.  Duplicate and reversed edges are
    merged silently.  A ``# nodes K`` comment fixes the node count, so
    trailing isolated nodes survive a round trip; without one the node
    count is one plus the largest id seen.  A file with neither an edge
    nor a ``# nodes K`` line describes no graph and is refused, and so is
    one that declares or implies more than ``MAX_NODES`` nodes, before
    anything is allocated for them.
    """
    edges = []
    max_id, max_line = 0, 0
    declared = None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line.startswith("#"):
                header = line[1:].split()
                if len(header) == 2 and header[0] == "nodes" and header[1].isdigit():
                    declared = int(header[1])
                    if declared < 1:
                        raise EdgeListError(f"{path}:{lineno}: declared node count {declared} is below 1")
                    if declared > MAX_NODES:
                        raise EdgeListError(f"{path}:{lineno}: declared node count {declared} is above {MAX_NODES}")
                continue
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise EdgeListError(f"{path}:{lineno}: expected two integers, got {line!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise EdgeListError(f"{path}:{lineno}: expected two integers, got {line!r}") from None
            if u < 0 or v < 0:
                raise EdgeListError(f"{path}:{lineno}: negative node id")
            if u == v:
                raise EdgeListError(f"{path}:{lineno}: self-loop on node {u}")
            if max(u, v) >= MAX_NODES:
                raise EdgeListError(f"{path}:{lineno}: node id {max(u, v)} needs more than {MAX_NODES} nodes")
            edges.append((u, v))
            if max(u, v) > max_id:
                max_id, max_line = max(u, v), lineno
    if declared is None:
        if not edges:
            raise EdgeListError(f"{path}: no edges and no '# nodes K' line")
        return Graph(max_id + 1, edges)
    if edges and max_id >= declared:
        raise EdgeListError(f"{path}:{max_line}: node id {max_id} not below the declared node count {declared}")
    return Graph(declared, edges)


def save_edge_list(graph: Graph, path) -> None:
    """Write a graph in the edge-list format accepted by :func:`load_edge_list`.

    The first line is a ``# nodes K`` comment, so isolated nodes are kept.
    """
    with open(path, "w") as fh:
        fh.write(f"# nodes {graph.K}\n")
        for u, v in sorted(graph.edges):
            fh.write(f"{u} {v}\n")
