"""Per-layer metrics of a traced run, computed from ``spans.Profile`` totals.

Counts and times are per solved instance.  A boundary that was never
called is listed as unmeasured and its metrics read 0: a refactor that
stops calling a public method must not look like that layer got faster.
"""

from __future__ import annotations

import numpy as np

from spans import MOVE_KINDS, Profile

SUB = "optimizer.subcommunities"


def _metric_table(setup: Profile, solve: Profile, instances: int, overhead: float):
    """(metric, unit, boundary it needs, profile, value function of that profile)."""

    def per(x):
        return x / instances

    def per_call_us(p, b):
        return p.incl_s[b] / p.calls[b] * 1e6

    def anneal_ms(p, q):
        return float(np.percentile(p.durations["optimizer.anneal_step"], q)) * 1e3

    rows = [
        ("surprise.calls", "count", "surprise", solve, lambda p: per(p.calls["surprise"])),
        ("surprise.us_per_call", "us", "surprise", solve, lambda p: per_call_us(p, "surprise")),
        ("surprise.self_s", "s", "surprise", solve, lambda p: per(p.self_s["surprise"])),
        ("surprise.distinct_ratio", "ratio", "surprise", solve, lambda p: p.kernel_distinct / p.kernel_calls),
    ]
    for kind in MOVE_KINDS:
        b = f"optimizer.{kind}"
        rows += [
            (f"{b}.calls", "count", b, solve, lambda p, b=b: per(p.calls[b])),
            (f"{b}.accepted", "count", b, solve, lambda p, b=b: per(p.accepted[b])),
            (f"{b}.self_s", "s", b, solve, lambda p, b=b: per(p.self_s[b])),
        ]
    rows += [
        (f"{SUB}.calls", "count", SUB, solve, lambda p: per(p.calls[SUB])),
        (f"{SUB}.recursions", "count", SUB, solve, lambda p: per(p.calls["graph.subgraph"])),
        (f"{SUB}.hit_ratio", "ratio", SUB, solve, lambda p: 1.0 - p.calls["graph.subgraph"] / p.calls[SUB]),
        (f"{SUB}.s", "s", SUB, solve, lambda p: per(p.incl_s[SUB])),
        (f"{SUB}.depth_max", "count", SUB, solve, lambda p: p.depth_max[SUB]),
        ("graph.subgraph.s", "s", "graph.subgraph", solve, lambda p: per(p.incl_s["graph.subgraph"])),
        ("optimizer.anneal_step.calls", "count", "optimizer.anneal_step", solve,
         lambda p: per(p.calls["optimizer.anneal_step"])),
        ("optimizer.anneal_step.ms_p50", "ms", "optimizer.anneal_step", solve, lambda p: anneal_ms(p, 50)),
        ("optimizer.anneal_step.ms_p90", "ms", "optimizer.anneal_step", solve, lambda p: anneal_ms(p, 90)),
        ("optimizer.anneal_step.accept_ratio", "ratio", "optimizer.anneal_step", solve,
         lambda p: p.accepted["optimizer.anneal_step"] / p.proposals["optimizer.anneal_step"]),
        ("optimizer.shake.s", "s", "optimizer.shake", solve, lambda p: per(p.incl_s["optimizer.shake"])),
        ("metrics.vi.calls", "count", "metrics.vi", solve, lambda p: per(p.calls["metrics.vi"])),
        ("metrics.vi.us_per_call", "us", "metrics.vi", solve, lambda p: per_call_us(p, "metrics.vi")),
        ("partition.canonical.calls", "count", "partition.canonical", solve,
         lambda p: per(p.calls["partition.canonical"])),
        ("partition.canonical.s", "s", "partition.canonical", solve, lambda p: per(p.incl_s["partition.canonical"])),
        ("embedding.embed.s", "s", "embedding.embed", solve, lambda p: per(p.incl_s["embedding.embed"])),
        ("embedding.chi_grad.calls", "count", "embedding.chi_grad", solve,
         lambda p: per(p.calls["embedding.chi_grad"])),
        ("embedding.chi_grad.us_per_call", "us", "embedding.chi_grad", solve,
         lambda p: per_call_us(p, "embedding.chi_grad")),
        ("benchmarks.generate.s", "s", "benchmarks.generate", setup, lambda p: per(p.incl_s["benchmarks.generate"])),
        ("graph.build.s", "s", "graph.build", setup, lambda p: per(p.incl_s["graph.build"])),
        ("trace.overhead_ratio", "ratio", None, solve, lambda p: overhead),
    ]
    return rows


def layer_metrics(setup: Profile, solve: Profile, instances: int, overhead: float):
    """({metric: (value, unit)}, sorted names of boundaries never called)."""
    metrics, unmeasured = {}, set()
    for name, unit, boundary, prof, value in _metric_table(setup, solve, instances, overhead):
        if boundary is not None and prof.calls[boundary] == 0:
            unmeasured.add(boundary)
            metrics[name] = (0, unit)
        else:
            metrics[name] = (value(prof), unit)
    return metrics, sorted(unmeasured)


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    empty = Profile()
    return {name: unit for name, unit, *_ in _metric_table(empty, empty, 1, 1.0)}


def shares(solve: Profile) -> dict[str, dict[str, float]]:
    """Self time of each boundary, and inclusive time of the recursion, over the traced solve time."""
    total = solve.incl_s["solve"]
    self_share = {
        name: round(t / total, 4)
        for name, t in sorted(solve.self_s.items(), key=lambda kv: -kv[1])
        if t / total >= 0.001
    }
    inclusive = {name: round(solve.incl_s[name] / total, 4) for name in (SUB, "embedding.embed") if solve.calls[name]}
    return {"self": self_share, "inclusive": inclusive}
