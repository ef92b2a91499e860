"""Span tracing of surpkit's public functions, installed from outside the package.

``Tracer.installed()`` swaps each traced function or method for a wrapper
that records one span (name, start, end, enclosing span) per call and puts
the original back on exit.  Nothing under ``src/`` is edited, so a traced
call runs exactly the library code an untraced call runs; the wrappers
never touch an RNG.  Spans are held in flat arrays while one phase of one
instance runs and are folded into a ``Profile`` by ``Tracer.drain()``.

Self time is a span's duration minus the durations of its direct
children, so time is never counted twice.  Inclusive times of a function
that recurses into itself (``subcommunities``) sum only its outermost
spans.  Calls are counted at every recursion depth.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

MOVE_KINDS = ("merge", "exchange", "extract", "sub_extract", "sub_exchange")


def traced_targets() -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) of every boundary the tracer wraps."""
    from surpkit import benchmarks, embedding, metrics, optimizer
    from surpkit.graph import Graph
    from surpkit.partition import Partition

    # ``surpkit.surprise`` is the re-exported function, not the module
    surprise_module = importlib.import_module("surpkit.surprise")
    state = optimizer.SurpriseState
    targets = [
        # the name _S_at looks up, and the one partition_stats looks up
        (optimizer, "surprise", "surprise"),
        (surprise_module, "surprise", "surprise"),
    ]
    targets += [(state, kind, f"optimizer.{kind}") for kind in MOVE_KINDS]
    targets += [
        (state, "subcommunities", "optimizer.subcommunities"),
        (state, "anneal_step", "optimizer.anneal_step"),
        (state, "shake", "optimizer.shake"),
        (Graph, "subgraph", "graph.subgraph"),
        (Graph, "__init__", "graph.build"),
        (Partition, "canonical", "partition.canonical"),
        (metrics, "vi", "metrics.vi"),
        (embedding, "embed", "embedding.embed"),
        (embedding, "chi_grad", "embedding.chi_grad"),
        (benchmarks, "pielouer_nodes", "benchmarks.generate"),
        (benchmarks, "build_benchmark", "benchmarks.generate"),
        (benchmarks.BenchmarkNet, "degrade_p", "benchmarks.generate"),
        (benchmarks.BenchmarkNet, "degrade_q", "benchmarks.generate"),
    ]
    return targets


class Profile:
    """Per-name totals folded from the spans of one or more drains."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self.incl_s: Counter[str] = Counter()  # outermost spans only
        self.depth_max: Counter[str] = Counter()  # deepest self-nesting, 1 = no recursion
        self.durations: dict[str, list[float]] = {}
        self.accepted: Counter[str] = Counter()
        self.proposals: Counter[str] = Counter()
        self.kernel_calls = 0
        self.kernel_distinct = 0

    def merge(self, other: "Profile") -> None:
        self.calls.update(other.calls)
        self.self_s.update(other.self_s)
        self.incl_s.update(other.incl_s)
        for name, d in other.depth_max.items():
            self.depth_max[name] = max(self.depth_max[name], d)
        for name, ds in other.durations.items():
            self.durations.setdefault(name, []).extend(ds)
        self.accepted.update(other.accepted)
        self.proposals.update(other.proposals)
        self.kernel_calls += other.kernel_calls
        self.kernel_distinct += other.kernel_distinct


class Tracer:
    """Records spans at the boundaries listed by :func:`traced_targets`.

    Single-threaded: the span stack assumes calls nest.
    """

    KEEP_DURATIONS = ("optimizer.anneal_step",)

    def __init__(self) -> None:
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self._reset()

    def _reset(self) -> None:
        self._name = array("H")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._depth = array("H")
        self._stack: list[int] = []
        self._open = [0] * len(self._names)
        self._kernel_keys: set = set()
        self._kernel_calls = 0
        self._accepted: Counter[str] = Counter()
        self._proposals: Counter[str] = Counter()

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self._names)
            self._names.append(name)
            self._open.append(0)
        return nid

    def _enter(self, nid: int) -> int:
        idx = len(self._start)
        self._name.append(nid)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._depth.append(self._open[nid])
        self._start.append(0.0)
        self._end.append(0.0)
        self._open[nid] += 1
        self._stack.append(idx)
        return idx

    def _exit(self, nid: int, idx: int, t0: float, t1: float) -> None:
        self._stack.pop()
        self._open[nid] -= 1
        self._start[idx] = t0
        self._end[idx] = t1

    @contextmanager
    def span(self, name: str):
        """A span around a block of benchmark code, e.g. one instance's solve."""
        nid = self._id(name)
        idx = self._enter(nid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._exit(nid, idx, t0, time.perf_counter())

    def _note(self, name: str, args: tuple, result) -> None:
        if name == "surprise":
            self._kernel_calls += 1
            self._kernel_keys.add(args)
        elif name == "optimizer.anneal_step":
            self._accepted[name] += result
            self._proposals[name] += args[0].graph.K
        elif name.startswith("optimizer.") and hasattr(result, "accepted"):
            self._accepted[name] += bool(result.accepted)

    def wrap(self, name: str, fn):
        nid = self._id(name)
        enter, exit_, note = self._enter, self._exit, self._note
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = enter(nid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(nid, idx, t0, clock())
            note(name, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every traced boundary for the duration of the block."""
        saved = []
        try:
            for owner, attr, name in traced_targets():
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def drain(self) -> Profile:
        """Fold the spans recorded so far into a Profile and forget them."""
        if self._stack:
            raise RuntimeError("drain() inside an open span")
        prof = Profile()
        n = len(self._start)
        if n:
            names = np.frombuffer(self._name, dtype=np.uint16)
            start = np.frombuffer(self._start, dtype=float)
            dur = np.frombuffer(self._end, dtype=float) - start
            parent = np.frombuffer(self._parent, dtype=np.int64)
            depth = np.frombuffer(self._depth, dtype=np.uint16)
            has_parent = parent >= 0
            child = np.zeros(n)
            np.add.at(child, parent[has_parent], dur[has_parent])
            self_t = dur - child
            k = len(self._names)
            calls = np.bincount(names, minlength=k)
            selfs = np.bincount(names, weights=self_t, minlength=k)
            outer = depth == 0
            incls = np.bincount(names[outer], weights=dur[outer], minlength=k)
            for nid, name in enumerate(self._names):
                if calls[nid] == 0:
                    continue
                prof.calls[name] = int(calls[nid])
                prof.self_s[name] = float(selfs[nid])
                prof.incl_s[name] = float(incls[nid])
                prof.depth_max[name] = int(depth[names == nid].max()) + 1
                if name in self.KEEP_DURATIONS:
                    prof.durations[name] = dur[names == nid].tolist()
        prof.accepted = self._accepted
        prof.proposals = self._proposals
        prof.kernel_calls = self._kernel_calls
        prof.kernel_distinct = len(self._kernel_keys)
        self._reset()
        return prof
