"""Node-to-community assignments with dense community ids."""

from __future__ import annotations

from collections.abc import Sequence


def _first_appearance(assign: Sequence[int]) -> list[int]:
    """Relabel community ids densely, in order of first appearance."""
    remap: dict[int, int] = {}
    return [remap.setdefault(cid, len(remap)) for cid in assign]


class Partition:
    """A division of nodes ``0..K-1`` into communities.

    Community ids are kept dense (``0..Nc-1``).  The structure is mutable:
    the optimizer edits ``assign`` and ``comms`` in place, keeping them
    consistent; ``M`` is recomputed from ``comms`` on every access.
    """

    __slots__ = ("assign", "comms")

    def __init__(self, assign: Sequence[int]):
        if len(assign) == 0:
            raise ValueError("empty assignment")
        dense = _first_appearance(assign)
        self.assign: list[int] = dense
        self.comms: list[set[int]] = [set() for _ in range(max(dense) + 1)]
        for node, cid in enumerate(dense):
            self.comms[cid].add(node)

    @classmethod
    def singletons(cls, K: int) -> "Partition":
        return cls(list(range(K)))

    @classmethod
    def from_communities(cls, communities: Sequence[Sequence[int]]) -> "Partition":
        """Build from explicit community node lists (must cover 0..K-1 exactly once)."""
        K = sum(len(c) for c in communities)
        assign = [-1] * K
        for cid, comm in enumerate(communities):
            for node in comm:
                if not (0 <= node < K) or assign[node] != -1:
                    raise ValueError("communities must cover each node exactly once")
                assign[node] = cid
        return cls(assign)

    @property
    def K(self) -> int:
        return len(self.assign)

    @property
    def Nc(self) -> int:
        return len(self.comms)

    @property
    def sizes(self) -> list[int]:
        return [len(c) for c in self.comms]

    @property
    def M(self) -> int:
        """Number of node pairs inside communities, sum of c*(c-1)/2."""
        return sum(c * (c - 1) // 2 for c in (len(s) for s in self.comms))

    def communities(self) -> list[list[int]]:
        """Community node lists, each sorted ascending."""
        return [sorted(c) for c in self.comms]

    def copy(self) -> "Partition":
        """An independent copy with the same community ids (no renumbering)."""
        clone = Partition.__new__(Partition)
        clone.assign = list(self.assign)
        clone.comms = [set(c) for c in self.comms]
        return clone

    def canonical(self) -> tuple[int, ...]:
        """Relabeling-invariant form (ids by first appearance)."""
        return tuple(_first_appearance(self.assign))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __hash__(self):
        return hash(self.canonical())

    def __repr__(self) -> str:
        return f"Partition(K={self.K}, Nc={self.Nc})"


def load_partition(path) -> Partition:
    """Read a partition file: line i holds the community id of node i."""
    assign = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                assign.append(int(line))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: expected an integer, got {line!r}") from None
    if not assign:
        raise ValueError(f"{path}: empty partition file")
    return Partition(assign)


def save_partition(partition: Partition, path) -> None:
    with open(path, "w") as fh:
        for cid in partition.assign:
            fh.write(f"{cid}\n")
