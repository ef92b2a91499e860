"""Partition quality and comparison measures.

Variation of information and the Pielou evenness index are
information-theoretic (natural logarithms throughout); modularity is the
standard degree-corrected density deviation; the fragmentation report
classifies how a found partition preserves, fragments, disperses, joins,
or obliterates a reference partition's communities.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import astuple, dataclass, fields

import numpy as np

from surpkit.graph import Graph
from surpkit.partition import Partition


def vi(a: Partition, b: Partition, normalized: bool = False) -> float:
    """Variation of information between two partitions of the same nodes.

    VI = H(a) + H(b) - 2 I(a, b), in nats.  Zero iff the partitions are
    identical up to community relabeling; at most ln K.  With
    ``normalized`` the value is divided by ln K (defined as 0 when K = 1).

    The identical case is read off the joint count table: every community
    is non-empty, so each row and each column of the table holds at least
    one nonzero cell.  As many nonzero cells as rows and as columns
    therefore means exactly one per row and per column, a bijection of
    communities, which is "identical up to relabeling"; the exact 0.0 is
    returned then.  Any other pair is summed over the same nonzero cells
    in the same order (dividing the counts by K moves no zero).
    """
    if a.K != b.K:
        raise ValueError(f"partitions cover {a.K} and {b.K} nodes")
    K = a.K
    joint = np.zeros((a.Nc, b.Nc))
    np.add.at(joint, (a.assign, b.assign), 1.0)
    rows, cols = np.nonzero(joint)
    if len(rows) == a.Nc == b.Nc:
        return 0.0  # exact zero for relabel-identical partitions
    joint /= K
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)

    def entropy(p: np.ndarray) -> float:
        nz = p[p > 0]
        return float(-(nz * np.log(nz)).sum())

    # Python floats over the nonzero cells in row-major order: the same
    # operations in the same order as a double loop over numpy scalars
    pa_l, pb_l = pa.tolist(), pb.tolist()
    mutual = 0.0
    for i, j, pij in zip(rows.tolist(), cols.tolist(), joint[rows, cols].tolist()):
        mutual += pij * math.log(pij / (pa_l[i] * pb_l[j]))
    value = entropy(pa) + entropy(pb) - 2.0 * mutual
    value = max(value, 0.0)  # clamp tiny negative rounding residue
    if normalized:
        return value / math.log(K) if K > 1 else 0.0
    return value


def pielou(sizes: Sequence[int]) -> float:
    """Evenness of a size list: entropy of the fractions over ln N, in [0, 1].

    1 when all sizes are equal, 0 for a single entry.
    """
    if len(sizes) == 0:
        raise ValueError("empty size list")
    if any(c < 1 for c in sizes):
        raise ValueError("all sizes must be >= 1")
    N = len(sizes)
    if N == 1:
        return 0.0
    total = sum(sizes)
    H = -sum((c / total) * math.log(c / total) for c in sizes)
    return H / math.log(N)


def modularity(graph: Graph, partition: Partition) -> float:
    """Newman modularity Q = sum_c [ ell_c/n - (d_c/2n)^2 ]."""
    if graph.n < 1:
        raise ValueError("modularity undefined on an edgeless graph")
    if partition.K != graph.K:
        raise ValueError("partition does not match graph")
    counts = [graph.links_in(comm) for comm in partition.comms]
    return modularity_sum(graph.n, [i for i, _ in counts], [2 * i + e for i, e in counts])


def modularity_sum(n: int, links: Sequence[int], degrees: Sequence[int]) -> float:
    """Q from each community's internal links and degree sum, summed in
    community order: the one formula behind :func:`modularity` and the
    exhaustive oracle, so both give the same float."""
    Q = 0.0
    for ell_c, d_c in zip(links, degrees):
        Q += ell_c / n - (d_c / (2 * n)) ** 2
    return Q


@dataclass(frozen=True)
class FragmentationReport:
    """Percentages describing how ``found`` treats the communities of ``initial``.

    kept_pct / dispersed_pct partition the nodes (they sum to 100):
    a node is kept when it sits in a recognized block of its initial
    community, dispersed otherwise.  comms_pct counts initial communities
    preserved by a majority block; fragments_pct counts recognized blocks,
    joined_pct counts co-residencies of blocks beyond the first per found
    community, obliterated_pct counts initial communities with no
    recognized block at all; all three are relative to the initial
    community count, so fragments_pct may exceed 100.  nc_ratio_pct is
    the found-to-initial community count ratio.
    """

    kept_pct: float
    comms_pct: float
    dispersed_pct: float
    fragments_pct: float
    joined_pct: float
    obliterated_pct: float
    nc_ratio_pct: float

    def as_csv(self) -> str:
        """A header of the field names without ``_pct``, then the row, each
        value to two decimals."""
        header = ",".join(f.name.removesuffix("_pct") for f in fields(self))
        row = ",".join(f"{v:.2f}" for v in astuple(self))
        return f"{header}\n{row}"


def fragmentation(initial: Partition, found: Partition) -> FragmentationReport:
    """Classify how ``found`` fragments the communities of ``initial``.

    Within each found community, the nodes coming from one initial
    community form a block.  A block is recognized when it holds the
    majority of its initial community (the community is preserved), or
    when it has at least 2 nodes and is at least as large as the average
    block in its found community.  Single-node blocks are never
    recognized on size grounds alone, so stray nodes count as dispersed.
    """
    if initial.K != found.K:
        raise ValueError(f"partitions cover {initial.K} and {found.K} nodes")
    K = initial.K
    Nc0 = initial.Nc
    init_sizes = initial.sizes

    kept_nodes = 0
    preserved: set[int] = set()
    has_fragment: set[int] = set()
    n_fragments = 0
    joined = 0
    for comm in found.comms:
        blocks: dict[int, int] = {}
        for node in comm:
            cid = initial.assign[node]
            blocks[cid] = blocks.get(cid, 0) + 1
        mean_block = len(comm) / len(blocks)
        frags_here = 0
        for cid, b in blocks.items():
            majority = 2 * b > init_sizes[cid]
            recognized = majority or (b >= 2 and b >= mean_block)
            if not recognized:
                continue
            if majority:
                preserved.add(cid)
            kept_nodes += b
            has_fragment.add(cid)
            n_fragments += 1
            frags_here += 1
        joined += max(0, frags_here - 1)

    kept = 100.0 * kept_nodes / K
    return FragmentationReport(
        kept_pct=kept,
        comms_pct=100.0 * len(preserved) / Nc0,
        dispersed_pct=100.0 - kept,
        fragments_pct=100.0 * n_fragments / Nc0,
        joined_pct=100.0 * joined / Nc0,
        obliterated_pct=100.0 * (Nc0 - len(has_fragment)) / Nc0,
        nc_ratio_pct=100.0 * found.Nc / Nc0,
    )
