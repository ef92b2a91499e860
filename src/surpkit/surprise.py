"""Overflow-safe evaluation of the surprise quality function.

Surprise is the negative natural log of the cumulative hypergeometric
probability of observing at least ``ell`` intracommunity links out of ``n``
links, when ``M`` of the ``F`` possible node pairs lie inside communities.
The sum is evaluated in log space: the largest term is factored out and the
remaining term ratios are summed in linear space, so values in the
thousands are representable without underflow.

first_term_bound() is the one place that knows the first term, j = ell,
and its domain: it checks feasibility and reads the ln-factorial table
for the term, and surprise() starts its sum from that value.  So the
optimizer's screen and certificate bound the kernel with its own floats.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from surpkit.graph import Graph
from surpkit.partition import Partition

# terms whose ratio to the running maximum falls below this are dropped once
# the term sequence is decreasing (the hypergeometric pmf is unimodal)
_LOG_TRUNC = math.log(1e-18)

_table = np.zeros(2)  # ln 0!, ln 1!
# _logs[i] is math.log(i) for i >= 1, extended on demand up to a graph's
# link count n, never to F (at K=2000, F is about 2e6)
_logs = [-math.inf]
_table_lock = threading.Lock()  # serializes extension of _table and _logs


def _grow(m: int, n: int) -> None:
    """Extend _table so that index m is valid and _logs so that index n is.

    The table is rebuilt in one pass over a single array: entry i starts
    as i (1 at i = 0, so ln 0! = ln 1! = 0), then np.log and np.cumsum
    run in place.  So entry m is ln 2 + ... + ln m added in index order,
    the same float however the table grew.
    """
    global _table, _logs
    with _table_lock:
        if m >= _table.size:
            table = np.arange(max(m + 1, 2 * _table.size), dtype=float)
            table[0] = 1.0
            np.log(table, out=table)
            np.cumsum(table, out=table)
            _table = table
        logs = _logs
        if n >= len(logs):
            _logs = logs + [math.log(i) for i in range(len(logs), n + 1)]


def ln_factorial(m: int) -> float:
    """Natural log of m!, from a cumulative log table extended on demand.

    Exact cumulative summation, not a Stirling-type approximation.  Safe for
    concurrent readers; table extension is serialized.
    """
    if m < 0:
        raise ValueError("factorial of a negative number")
    if m >= _table.size:
        _grow(m, 0)
    return _table.item(m)


def ln_choose(m: int, k: int) -> float:
    """Natural log of the binomial coefficient C(m, k)."""
    if k < 0 or k > m:
        raise ValueError(f"binomial C({m}, {k}) undefined")
    return ln_factorial(m) - ln_factorial(k) - ln_factorial(m - k)


def check_feasible(F: int, M: int, n: int, ell: int) -> None:
    """Raise ValueError unless (F, M, n, ell) is a feasible surprise() argument."""
    if not (0 <= M <= F):
        raise ValueError(f"need 0 <= M <= F, got M={M}, F={F}")
    if not (0 <= n <= F):
        raise ValueError(f"need 0 <= n <= F, got n={n}, F={F}")
    if not (0 <= ell <= min(M, n)):
        raise ValueError(f"need 0 <= ell <= min(M, n), got ell={ell}, M={M}, n={n}")
    if n - ell > F - M:
        raise ValueError(f"infeasible: n - ell = {n - ell} exceeds F - M = {F - M}")


def surprise(F: int, M: int, n: int, ell: int) -> float:
    """Surprise of a partition summarized by (F, M, n, ell).

    F: possible links in the graph, K*(K-1)/2.
    M: possible links inside communities, sum of c_i*(c_i-1)/2.
    n: links in the graph.
    ell: links inside communities.

    Returns -ln sum_{j=ell}^{min(M,n)} C(M,j) C(F-M,n-j) / C(F,n), always >= 0.
    """
    lt0 = -first_term_bound(F, M, n, ell)
    jmax = min(M, n)
    # ln(j) and ln(n-j+1) come from the list, and ln(M-j+1) too when M <= n;
    # the entries are math.log's own results, so the bits are unchanged
    logs = _logs
    if n >= len(logs):
        _grow(0, n)
        logs = _logs
    logs_M = logs if M <= n else None
    # stream the remaining terms through successive ratios
    cur = 0.0   # log(term_j / term_ell)
    mx = 0.0    # running max of cur
    acc = 1.0   # sum of exp(cur - mx)
    for j in range(ell + 1, jmax + 1):
        dlt = (
            (logs_M[M - j + 1] if logs_M is not None else math.log(M - j + 1))
            + logs[n - j + 1]
            - logs[j]
            - math.log(F - M - n + j)
        )
        cur += dlt
        if cur > mx:
            acc = acc * math.exp(mx - cur) + 1.0
            mx = cur
        else:
            rel = cur - mx
            if dlt < 0.0 and rel < _LOG_TRUNC:
                break
            acc += math.exp(rel)
    s = -(lt0 + mx + math.log(acc))
    return s if s > 0.0 else 0.0


def first_term_bound(F: int, M: int | np.ndarray, n: int, ell: int | np.ndarray) -> float | np.ndarray:
    """-ln of the first term of surprise()'s sum, for scalars M and ell or elementwise over int arrays.

    The tail sum is at least its first term, the pmf at ell, so each entry
    bounds surprise(F, M, n, ell) from above.  It is the kernel's own first
    term: surprise() adds the non-negative mx and ln(acc) to -bound before
    negating.  The nine table reads are ln_choose's, in ln_choose's order.

    A scalar M (anything but an ndarray, numpy integers included) is the
    kernel's path: an infeasible argument raises check_feasible()'s
    ValueError, and the table is read through a memoryview, whose items are
    _table.item()'s floats read without a method call.  The result is the
    entry an array holding the same values would give.  Arrays are not
    checked: their caller, the certificate, clamps ell into the feasible
    range.
    """
    scalar = not isinstance(M, np.ndarray)
    if scalar and not (0 <= ell <= M <= F and ell <= n <= F and n - ell <= F - M):
        check_feasible(F, M, n, ell)
    if F >= _table.size:
        _grow(F, 0)
    t = memoryview(_table) if scalar else _table
    lt0 = (
        (t[M] - t[ell] - t[M - ell])
        + (t[F - M] - t[n - ell] - t[F - M - n + ell])
        - (t[F] - t[n] - t[F - n])
    )
    return -lt0


def partition_stats(graph: Graph, partition: Partition) -> tuple[int, int, float]:
    """(M, ell, S) of a partition, recomputed from scratch."""
    if partition.K != graph.K:
        raise ValueError(
            f"partition over {partition.K} nodes does not match graph with {graph.K}"
        )
    M = partition.M
    adj, comms = graph.adj, partition.comms
    ell = sum(len(adj[u] & comms[c]) for u, c in enumerate(partition.assign)) // 2
    return M, ell, surprise(graph.F, M, graph.n, ell)
