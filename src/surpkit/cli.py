"""Command-line front end.

One deterministic RNG per run is derived from --seed; each subsystem
draws from its own labeled sub-stream so that adding draws in one place
never shifts another.  Summary output is machine-parseable key=value
pairs on a single line; failures exit nonzero with a one-line diagnostic.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
import zlib
from contextlib import contextmanager

import numpy as np

from surpkit.benchmarks import build_benchmark, pielouer_nodes, rc_degrade
from surpkit.embedding import (
    EmbeddingConfig,
    embed,
    load_distance_matrix,
    peak_walk,
)
from surpkit.exhaustive import best_partitions
from surpkit.graph import MAX_NODES, load_edge_list, save_edge_list
from surpkit.metrics import fragmentation, modularity, pielou, vi
from surpkit.optimizer import SurpriseState
from surpkit.partition import Partition, load_partition, save_partition
from surpkit.randoms import (
    gamma_mle_continuous,
    gamma_mle_discrete,
    lnL_continuous,
    lnL_discrete,
)
from surpkit.surprise import partition_stats


def sub_rng(seed: int, label: str) -> np.random.Generator:
    """A reproducible RNG stream tied to (seed, label)."""
    return np.random.default_rng(
        np.random.SeedSequence([seed, zlib.crc32(label.encode())])
    )


def _print_kv(**kv) -> None:
    print(" ".join(f"{k}={v}" for k, v in kv.items()))


@contextmanager
def _naming(path, error=ValueError):
    """Prefix an ``error`` raised in the block with the file it is about."""
    try:
        yield
    except error as exc:
        raise ValueError(f"{path}: {exc}") from None


def _check_outputs(args) -> None:
    """Refuse an output path that is empty, whose directory does not exist,
    that is a directory itself, or that an earlier output flag also names,
    naming the flag.  Run before any input is read, so a bad path costs no
    work and no other output is written."""
    taken: dict[str, str] = {}  # resolved path -> the flag that names it
    for dest in ("out", "out_edges", "out_truth"):
        path = getattr(args, dest, None)
        if path is None:
            continue
        flag = "--" + dest.replace("_", "-")
        if not path:
            raise ValueError(f"{flag}: empty path")
        if os.path.isdir(path):
            raise ValueError(f"{flag} {path}: is a directory")
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent):
            raise ValueError(f"{flag} {path}: {parent} is not a directory")
        resolved = os.path.realpath(path)
        if resolved in taken:
            raise ValueError(f"{flag} {path}: the same file as {taken[resolved]}")
        taken[resolved] = flag


def _read(load, path):
    """load(path).  The loaders name the file in every refusal of their
    own, but a file that is not UTF-8 text fails in decoding, unnamed."""
    with _naming(path, UnicodeDecodeError):
        return load(path)


def cmd_detect(args) -> int:
    if args.anneal_steps < 0:
        raise ValueError(f"--anneal-steps must be >= 0, got {args.anneal_steps}")
    if not args.anneal_T > 0:
        raise ValueError(f"--anneal-T must be positive, got {args.anneal_T}")
    graph = _read(load_edge_list, args.graph)
    state = SurpriseState(graph, rng=sub_rng(args.seed, "detect"))
    state.stepper()
    if args.anneal_steps > 0:
        # anneal a copy: the greedy optimum stands unless the polish beats it.
        # The annealer draws community ids by index, so its walk depends on
        # the numbering: the copy numbers them by first appearance
        polished = SurpriseState(graph, Partition(state.partition.assign), rng=state.rng)
        for _ in range(args.anneal_steps):
            polished.anneal_step(args.anneal_T)
        polished.stepper()
        if polished.S > state.S:
            state = polished
    if args.out is not None:
        save_partition(state.partition, args.out)
    _print_kv(
        K=graph.K,
        n=graph.n,
        Nc=state.partition.Nc,
        M=state.M,
        ell=state.ell,
        S=f"{state.S:.9f}",
    )
    return 0


def cmd_bench_our(args) -> int:
    for flag, value in (("--p", args.p), ("--q", args.q)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{flag} must be in [0, 1], got {value}")
    if not 0.0 <= args.r < 1.0:
        raise ValueError(f"--r must be in [0, 1), got {args.r}")
    if args.ncliques < 2:
        raise ValueError(f"--ncliques must be at least 2, got {args.ncliques}")
    if not 0.0 < args.pielou <= 1.0:
        raise ValueError(f"--pielou must be in (0, 1], got {args.pielou}")
    if args.nodes > MAX_NODES:
        # detect and bench rc could not read the file back
        raise ValueError(f"--nodes {args.nodes} is above {MAX_NODES}, the most a graph file may hold")
    # build_benchmark makes int(t / (1 - r)) nodes from t clique nodes, a
    # count that rises by at least one per clique node: at most one t gives
    # --nodes, ceil(N (1 - r)) in exact arithmetic, so round() or one more
    base = round(args.nodes * (1.0 - args.r))
    target_sum = next(
        (t for t in (base, base + 1) if int(t / (1.0 - args.r)) == args.nodes), None
    )
    if target_sum is None:
        raise ValueError(f"no number of clique nodes gives --nodes {args.nodes} at --r {args.r}")
    # every clique needs two nodes
    if target_sum < 2 * args.ncliques:
        raise ValueError(
            f"--nodes {args.nodes} leaves {target_sum} clique nodes at --r {args.r}, "
            f"fewer than the {2 * args.ncliques} that --ncliques {args.ncliques} needs"
        )
    sizes = pielouer_nodes(
        args.ncliques,
        args.pielou,
        (target_sum, target_sum),
        rng=sub_rng(args.seed, "bench.sizes"),
    )
    net = build_benchmark(
        sizes, args.r, args.cycle, rng=sub_rng(args.seed, "bench.build")
    )
    if args.p > 0:
        net.degrade_p(args.p)
    if args.q > 0:
        net.degrade_q(args.q)
    graph = net.graph
    save_edge_list(graph, args.out_edges)
    save_partition(net.truth, args.out_truth)
    _print_kv(
        K=net.K,
        Nc=net.truth.Nc,
        n=graph.n,
        inclique=net.inclique_count,
        between=net.between_count,
        pielou=f"{pielou(sizes):.4f}",
    )
    return 0


def cmd_bench_rc(args) -> int:
    if not 0.0 <= args.R <= 100.0:
        raise ValueError(f"--R must be in [0, 100], got {args.R}")
    graph = _read(load_edge_list, args.graph)
    degraded = rc_degrade(graph, args.R, rng=sub_rng(args.seed, "bench.rc"))
    save_edge_list(degraded, args.out)
    _print_kv(K=degraded.K, n_before=graph.n, n_after=degraded.n)
    return 0


def cmd_eval(args) -> int:
    # each measure's refusal of valid files is a node-count mismatch, named
    # after the second file, or modularity's refusal of an edgeless graph
    if args.kind == "vi":
        a, b = _read(load_partition, args.a), _read(load_partition, args.b)
        with _naming(args.b):
            text = f"{vi(a, b, args.normalized):.9f}"
    elif args.kind == "pielou":
        text = f"{pielou(_read(load_partition, args.partition).sizes):.9f}"
    elif args.kind == "frag":
        initial, found = _read(load_partition, args.initial), _read(load_partition, args.found)
        with _naming(args.found):
            text = fragmentation(initial, found).as_csv()
    else:
        graph = _read(load_edge_list, args.graph)
        partition = _read(load_partition, args.partition)
        if args.kind == "surprise":
            with _naming(args.partition):
                text = f"{partition_stats(graph, partition)[2]:.9f}"
        else:
            with _naming(args.graph if graph.n == 0 else args.partition):
                text = f"{modularity(graph, partition):.9f}"
    print(text)
    return 0


def cmd_oracle(args) -> int:
    graph = _read(load_edge_list, args.graph)
    with _naming(args.graph):
        best, argmax = best_partitions(graph, args.quality)
    _print_kv(quality=args.quality, value=f"{best:.9f}", maximizers=len(argmax))
    for p in argmax:
        print(" ".join(str(c) for c in p.assign))
    return 0


def _load_values(path) -> np.ndarray:
    """The numbers in a text file, which must hold at least one, in one row
    or one column; each refusal is one line that names the path.  Only the
    file is judged here: the fit or the walk that uses the numbers refuses
    a value it cannot take (not finite, not an integer for ``mle
    --discrete``), and the caller names the path."""
    # opened here: loadtxt's own open reports a missing file with no
    # filename, so main() could not lead with the path
    with _naming(path), open(path, encoding="utf-8") as fh:
        with warnings.catch_warnings():
            # loadtxt warns on a file with no numbers; the size check says so
            warnings.simplefilter("ignore", UserWarning)
            values = np.loadtxt(fh, ndmin=1)
        if values.size == 0:
            raise ValueError("no numbers in the file")
        if values.ndim > 1:
            rows, cols = values.shape
            raise ValueError(f"{rows} rows of {cols} numbers; one row or one column required")
    return values


def cmd_mle(args) -> int:
    # checked before the samples: a refusal below names the file
    if not 0 < args.x0 < np.inf or (args.discrete and args.x0 != int(args.x0)):
        kind = "integer" if args.discrete else "number"
        raise ValueError(f"--x0 must be a positive {kind}, got {args.x0}")
    samples = _load_values(args.samples)
    with _naming(args.samples):
        if args.discrete:
            gamma = gamma_mle_discrete(samples, int(args.x0))
            ll = lnL_discrete(gamma, samples, int(args.x0))
        else:
            gamma = gamma_mle_continuous(samples, args.x0)
            ll = lnL_continuous(gamma, samples, args.x0)
    _print_kv(gamma=f"{gamma:.8f}", lnL=f"{ll:.6f}", N=samples.size)
    return 0


def cmd_landscape_embed(args) -> int:
    D = _read(load_distance_matrix, args.dist)
    config = EmbeddingConfig(gamma_exp=args.gamma, d_lim=args.dlim)
    coords, chi2, gnorm, reason = embed(D, config, rng=sub_rng(args.seed, "embed"))
    with open(args.out, "w") as fh:
        for i, (x, y) in enumerate(coords):
            fh.write(f"{i}\t{x:.12g}\t{y:.12g}\n")
    _print_kv(N=D.shape[0], chi2=f"{chi2:.6g}", grad=f"{gnorm:.6g}", stop=reason.replace(" ", "_"))
    return 0


def cmd_landscape_walk(args) -> int:
    D = _read(load_distance_matrix, args.dist)
    values = _load_values(args.values)
    if not 1 <= args.top <= D.shape[0]:
        raise ValueError(f"--top must be in [1, {D.shape[0]}], got {args.top}")
    # D is valid and --top in range, so what peak_walk refuses is the values
    with _naming(args.values):
        walk = peak_walk(values, D, args.top)
    with open(args.out, "w") as fh:
        fh.write("cum_distance,height\n")
        for cum, height in walk:
            fh.write(f"{cum:.12g},{height:.12g}\n")
    _print_kv(top=len(walk), total_distance=f"{walk[-1][0]:.6g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surpkit", description="Community detection by surprise maximization."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="find a high-surprise partition of a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--anneal-T", type=float, default=0.05)
    p.add_argument("--anneal-steps", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_detect)

    bench = sub.add_parser("bench", help="benchmark generation and degradation")
    bench_sub = bench.add_subparsers(dest="bench_kind", required=True)

    p = bench_sub.add_parser("our", help="degraded-clique benchmark with ground truth")
    p.add_argument("--ncliques", type=int, required=True)
    p.add_argument("--pielou", type=float, required=True)
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--r", type=float, default=0.0)
    p.add_argument("--p", type=float, default=0.0)
    p.add_argument("--q", type=float, default=0.0)
    p.add_argument("--cycle", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-edges", required=True)
    p.add_argument("--out-truth", required=True)
    p.set_defaults(func=cmd_bench_our)

    p = bench_sub.add_parser("rc", help="remove and rewire a percentage of links")
    p.add_argument("--graph", required=True)
    p.add_argument("--R", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bench_rc)

    ev = sub.add_parser("eval", help="partition quality and comparison measures")
    ev_sub = ev.add_subparsers(dest="kind", required=True)
    p = ev_sub.add_parser("vi")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--normalized", action="store_true")
    p.set_defaults(func=cmd_eval)
    p = ev_sub.add_parser("pielou")
    p.add_argument("--partition", required=True)
    p.set_defaults(func=cmd_eval)
    p = ev_sub.add_parser("frag")
    p.add_argument("--initial", required=True)
    p.add_argument("--found", required=True)
    p.set_defaults(func=cmd_eval)
    p = ev_sub.add_parser("surprise")
    p.add_argument("--graph", required=True)
    p.add_argument("--partition", required=True)
    p.set_defaults(func=cmd_eval)
    p = ev_sub.add_parser("modularity")
    p.add_argument("--graph", required=True)
    p.add_argument("--partition", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("oracle", help="exhaustive maximization on a small graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--quality", choices=("surprise", "modularity"), default="surprise")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("mle", help="power-law exponent by maximum likelihood")
    p.add_argument("--samples", required=True)
    p.add_argument("--discrete", action="store_true")
    p.add_argument("--x0", type=float, default=1.0)
    p.set_defaults(func=cmd_mle)

    land = sub.add_parser("landscape", help="partition-space embedding tools")
    land_sub = land.add_subparsers(dest="land_kind", required=True)
    p = land_sub.add_parser("embed")
    p.add_argument("--dist", required=True)
    p.add_argument("--gamma", type=float, default=-1.0)
    p.add_argument("--dlim", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_landscape_embed)
    p = land_sub.add_parser("walk")
    p.add_argument("--values", required=True)
    p.add_argument("--dist", required=True)
    p.add_argument("--top", type=int, default=100)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_landscape_walk)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        _check_outputs(args)
        return args.func(args)
    except (ValueError, OSError) as exc:
        message = exc
        if isinstance(exc, OSError) and exc.filename is not None:
            # lead with the path, as every other refusal does
            message = f"{exc.filename}: {exc.strerror}"
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
