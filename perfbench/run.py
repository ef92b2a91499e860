"""surpkit benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload detect-degraded --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 35 --trace 0

Run from the root of a source checkout; the library is imported from
``src`` with no install step.  Instances are built from ``--seed`` (instance
i of a run uses seed ``seed * 1000 + i``) and solved one after another until
``--seconds`` have passed.  Every solved instance is checked; the last
stdout line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--trace 0`` reports the end-to-end metrics with no
tracing installed.  ``--trace 1`` solves every instance twice, untraced and
then traced, and reports per-layer metrics from the traced solve.
``--workload all`` runs each workload in its own interpreter.  See
``perfbench/DESIGN.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one process, one thread: pin BLAS/OpenMP pools before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("detect-degraded", "detect-clean", "landscape")
END_TO_END = {"setup_s": "s", "solve_s": "s", "S_found": "nats", "S_vs_truth": "ratio", "peak_rss_mb": "MB"}
# instances built in one batch before the clock starts: set-up is cheap, so
# setup_s is the median over this batch, and the quality metrics are taken
# over exactly these (a fixed set per seed, however fast the machine is)
PREBUILT = 12
# time of one calibration_burst() on the machine the benchmark was defined
# on (2-vCPU x86-64 VM, Python 3.11); times are reported at that speed
REFERENCE_BURST_S = 4.0e-3
BURSTS = 5  # calibration bursts before and after every solve and the set-up batch


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def import_library():
    if not (SRC / "surpkit" / "__init__.py").is_file():
        raise SystemExit(f"error: no surpkit sources at {SRC}; run from a surpkit checkout")
    sys.path.insert(0, str(SRC))
    import surpkit

    if Path(surpkit.__file__).resolve().parent != SRC / "surpkit":
        raise SystemExit(f"error: imported surpkit from {surpkit.__file__}, not {SRC}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def calibration_burst() -> float:
    """Seconds taken by a fixed loop of int-set lookups and logs, the library's staple work.

    Shared hosts run this VM's CPUs up to ~25 % slower or faster from one
    minute to the next.  The loop slows with them, so scaling times by the
    run's mean burst removes most of that drift from the reported times.
    """
    members = set(range(0, 30000, 3))
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(30000):
        if i in members:
            acc += math.log(i + 1)
    return time.perf_counter() - t0


def calibrate() -> list[float]:
    return [calibration_burst() for _ in range(BURSTS)]


def speed(bursts: list[float]) -> float:
    """Reported time per measured second: the reference burst over the mean measured one."""
    return REFERENCE_BURST_S / statistics.fmean(bursts)


def timed(fn, *args):
    gc.collect()
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


class Run:
    """Instances of one run: built in order, set-up timed, results checked."""

    def __init__(self, w, seed: int):
        self.w = w
        self.seed = seed
        self.setup_s: list[float] = []
        self.built = 0
        self.records: list[dict] = []
        self.speed = 1.0  # reported seconds per measured second of solving

    def next_instance(self):
        import workloads

        inst, dt = timed(workloads.make_instance, self.w, workloads.instance_seed(self.seed, self.built))
        self.built += 1
        self.setup_s.append(dt)
        return inst

    def check(self, inst, out, solve_s: float) -> "workloads.Result":
        import workloads

        try:
            res = workloads.evaluate(self.w, inst, out)
        except Exception as exc:  # a check that crashes is a failed check
            res = workloads.Result(math.nan, math.nan, math.nan, "", [f"check raised {exc!r}"])
        self.records.append(
            {
                "instance": inst.seed,
                "K": inst.graph.K,
                "n": inst.graph.n,
                "wall_s": solve_s,
                "S": res.S,
                "S_truth": res.S_truth,
                "nvi_truth": res.nvi_truth,
                "chi2": res.chi2,
                "digest": res.digest,
                "failures": res.failures,
            }
        )
        return res

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r["failures"])


def run_plain(w, seed: int, seconds: float) -> tuple[Run, dict]:
    import workloads

    run = Run(w, seed)
    around_setup = calibrate()
    pending = [run.next_instance() for _ in range(PREBUILT)]
    around_setup += calibrate()
    around_solve = []
    t_start = time.perf_counter()
    while not run.records or time.perf_counter() - t_start < seconds:
        inst = pending.pop(0) if pending else run.next_instance()
        around_solve += calibrate()
        out, dt = timed(workloads.solve, w, inst)
        around_solve += calibrate()
        run.check(inst, out, dt)
    run.speed = speed(around_solve)
    fixed = run.records[:PREBUILT]
    values = {
        "setup_s": statistics.median(run.setup_s[:PREBUILT]) * speed(around_setup),
        "solve_s": statistics.fmean(r["wall_s"] for r in run.records) * run.speed,
        "S_found": statistics.fmean(r["S"] for r in fixed),
        "S_vs_truth": statistics.median(r["S"] / r["S_truth"] for r in fixed),
        "peak_rss_mb": peak_rss_mb(),
    }
    return run, {name: (values[name], unit) for name, unit in END_TO_END.items()}


def run_traced(w, seed: int, seconds: float) -> tuple[Run, dict, list[str], dict]:
    import layers
    import spans
    import workloads

    tracer = spans.Tracer()
    run = Run(w, seed)
    setup, solve = spans.Profile(), spans.Profile()
    plain_s = traced_s = 0.0
    t_start = time.perf_counter()
    while not run.records or time.perf_counter() - t_start < seconds:
        with tracer.installed():
            inst = run.next_instance()
        setup.merge(tracer.drain())
        out, dt = timed(workloads.solve, w, inst)
        gc.collect()
        with tracer.installed(), tracer.span("solve"):
            t0 = time.perf_counter()
            traced_out = workloads.solve(w, inst)
            dt_traced = time.perf_counter() - t0
        solve.merge(tracer.drain())
        plain_s += dt
        traced_s += dt_traced
        res = run.check(inst, out, dt)
        traced_res = workloads.evaluate(w, inst, traced_out)
        if (traced_res.digest, traced_res.S) != (res.digest, res.S):
            res.failures.append("traced solve differs from the untraced one")
    metrics, unmeasured = layers.layer_metrics(setup, solve, len(run.records), traced_s / plain_s)
    return run, metrics, unmeasured, layers.shares(solve)


def run_one(args) -> int:
    import_library()
    sys.path.insert(0, str(HERE))
    import workloads

    w = workloads.WORKLOADS[args.workload]
    print(f"workload={w.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace} params={w}")
    if args.trace:
        run, metrics, unmeasured, share = run_traced(w, args.seed, args.seconds)
    else:
        run, metrics = run_plain(w, args.seed, args.seconds)
    for rec in run.records:
        print("instance " + json.dumps({k: None if v != v else v for k, v in rec.items()}))
    attempted, failed = len(run.records), run.failed
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    if args.trace:
        print("unmeasured (never called, reported as 0): " + (", ".join(unmeasured) or "none"))
        print("self-time share of the traced solve: " + json.dumps(share))
    else:
        alias = "detect_s" if w.kind == "detect" else "landscape_s"
        wall = sorted(r["wall_s"] for r in run.records)
        print(f"info {alias} wall median = {statistics.median(wall):.6g} s, max = {wall[-1]:.6g} s, "
              f"reported at {run.speed:.4g} reference s per measured s")
        print(f"info nvi_truth median = {statistics.median(r['nvi_truth'] for r in run.records[:PREBUILT]):.6g}")
        if w.kind == "landscape":
            print(f"info embed_chi2 median = {statistics.median(r['chi2'] for r in run.records[:PREBUILT]):.6g}")
    print(f"info failed_ratio = {failed}/{attempted} = {failed / attempted:.6g}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in a fresh interpreter, so no cache or RSS carries over."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", f"{args.seconds:g}", "--trace", str(args.trace)]
        status |= subprocess.run(cmd, check=False).returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
