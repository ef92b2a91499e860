import importlib
import math
import os
import subprocess
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import surpkit
from surpkit.graph import Graph
from surpkit.partition import Partition
from surpkit.surprise import first_term_bound, ln_choose, ln_factorial, partition_stats, surprise

surprise_module = importlib.import_module("surpkit.surprise")


def surprise_exact(F, M, n, ell):
    """Independent oracle: the cumulative tail in exact rational arithmetic."""
    total = Fraction(0)
    for j in range(ell, min(M, n) + 1):
        total += Fraction(math.comb(M, j) * math.comb(F - M, n - j), math.comb(F, n))
    return -math.log(total)


def reference_surprise(F, M, n, ell):
    """The kernel before its log list: every log of the term loop by math.log."""
    if not (0 <= M <= F):
        raise ValueError(f"need 0 <= M <= F, got M={M}, F={F}")
    if not (0 <= n <= F):
        raise ValueError(f"need 0 <= n <= F, got n={n}, F={F}")
    if not (0 <= ell <= min(M, n)):
        raise ValueError(f"need 0 <= ell <= min(M, n), got ell={ell}, M={M}, n={n}")
    if n - ell > F - M:
        raise ValueError(f"infeasible: n - ell = {n - ell} exceeds F - M = {F - M}")

    jmax = min(M, n)
    lt0 = ln_choose(M, ell) + ln_choose(F - M, n - ell) - ln_choose(F, n)
    cur = 0.0
    mx = 0.0
    acc = 1.0
    for j in range(ell + 1, jmax + 1):
        dlt = (
            math.log(M - j + 1)
            + math.log(n - j + 1)
            - math.log(j)
            - math.log(F - M - n + j)
        )
        cur += dlt
        if cur > mx:
            acc = acc * math.exp(mx - cur) + 1.0
            mx = cur
        else:
            rel = cur - mx
            if dlt < 0.0 and rel < surprise_module._LOG_TRUNC:
                break
            acc += math.exp(rel)
    s = -(lt0 + mx + math.log(acc))
    return s if s > 0.0 else 0.0


@st.composite
def kernel_inputs(draw, max_F=5_000, max_n=5_000, min_F=1):
    """Feasible (F, M, n, ell), weighted towards M > n, ell = min(M, n), n = 0 and n = F."""
    F = draw(st.integers(min_F, max_F))
    M = draw(st.integers(0, F))
    n = draw(st.sampled_from([0, F, min(M + 1, F), max(M - 1, 0)]) | st.integers(0, F))
    n = min(n, max_n)
    lo = max(0, n - (F - M))
    hi = min(M, n)
    ell = draw(st.sampled_from([lo, hi]) | st.integers(lo, hi))
    return F, M, n, ell


@st.composite
def surprise_inputs(draw, max_F=60):
    F = draw(st.integers(1, max_F))
    M = draw(st.integers(0, F))
    n = draw(st.integers(0, F))
    lo = max(0, n - (F - M))
    hi = min(M, n)
    ell = draw(st.integers(lo, hi))
    return F, M, n, ell


@st.composite
def tail_inputs(draw, max_F=2_000_000, max_n=60_000):
    """Feasible (F, M, n, ell) up to F = max_F, weighted towards the corners M
    = 0, M = F, n = 0, n = F and ell at either end of its feasible range: ell
    = min(M, n), and ell = 0 whenever n <= F - M.  n is capped at max_n, so
    n = F is drawn only for F <= max_n."""
    F = draw(st.integers(1, 100) | st.integers(1, max_F))
    M = draw(st.sampled_from([0, F]) | st.integers(0, F))
    n = min(draw(st.sampled_from([0, F]) | st.integers(0, F)), max_n)
    lo, hi = max(0, n - (F - M)), min(M, n)
    ell = draw(st.sampled_from([lo, hi]) | st.integers(lo, hi))
    return F, M, n, ell


class TestLnFactorial:
    def test_base_cases(self):
        assert ln_factorial(0) == 0.0
        assert ln_factorial(1) == 0.0

    def test_ten(self):
        assert ln_factorial(10) == pytest.approx(math.log(3628800), rel=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ln_factorial(-1)

    @given(st.integers(0, 400))
    def test_against_exact_integer_factorial(self, m):
        assert ln_factorial(m) == pytest.approx(math.log(math.factorial(m)) if m > 1 else 0.0, rel=1e-12, abs=1e-12)

    @given(st.integers(0, 3_000))
    def test_python_float_from_the_table(self, m):
        value = ln_factorial(m)
        assert type(value) is float
        assert value.hex() == float(surprise_module._table[m]).hex()

    def test_concurrent_extension(self):
        results = {}

        def worker(tag, m):
            results[tag] = ln_factorial(m)

        threads = [
            threading.Thread(target=worker, args=(i, 50_000 + 137 * i))
            for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for i in range(8):
            m = 50_000 + 137 * i
            assert results[i] == pytest.approx(math.lgamma(m + 1), rel=1e-12)


class TestTableHistory:
    """Every table entry is the same float however the table grew."""

    @staticmethod
    def one_shot(m):
        ext = np.log(np.arange(2, m + 1, dtype=float))
        return np.concatenate([np.zeros(2), np.cumsum(ext)])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 200_000), min_size=1, max_size=12))
    # past 10**6 entries: at once, after smaller stretches, and doubling
    @example([10**6 + 1])
    @example([3, 600_000, 10**6 + 1])
    @example([10**6 - 1, 10**6, 2_000_000])
    def test_any_growth_sequence_gives_the_one_shot_table(self, targets):
        saved = surprise_module._table
        surprise_module._table = np.zeros(2)
        try:
            for m in targets:
                ln_factorial(m)
            grown = surprise_module._table
        finally:
            surprise_module._table = saved
        assert grown.size > max(targets)
        assert np.array_equal(grown, self.one_shot(grown.size - 1))

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
    def test_growth_peak_is_about_the_table(self):
        # growth by arange, log, cumsum and concatenate peaked near 3 tables.
        # VmHWM is the fresh interpreter's own peak; its ru_maxrss would
        # start at this suite's, inherited through fork and exec
        script = (
            "import surpkit.surprise as s\n"
            "def peak():\n"
            "    for line in open('/proc/self/status'):\n"
            "        if line.startswith('VmHWM:'):\n"
            "            return int(line.split()[1]) * 1024\n"
            "before = peak()\n"
            "s.ln_factorial(1_999_000)\n"
            "print((peak() - before) / s._table.nbytes)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(surpkit.__file__)))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) < 1.5

    def test_concurrent_growth_gives_the_one_shot_table(self):
        # threads growing the table to interleaved targets, through both
        # ln_factorial and the kernel, still leave the one running sum
        saved, interval = surprise_module._table, sys.getswitchinterval()
        surprise_module._table = np.zeros(2)
        targets = [1_000 + 7_919 * j % 150_000 for j in range(96)]
        results = {}

        def worker(i):
            for m in targets[i::16]:
                results[m] = ln_factorial(m), surprise(m, m // 3, m // 20, m // 40)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(16)]
        try:
            sys.setswitchinterval(1e-6)
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            grown = surprise_module._table
        finally:
            sys.setswitchinterval(interval)
            surprise_module._table = saved
        assert not any(t.is_alive() for t in threads)
        assert np.array_equal(grown, self.one_shot(grown.size - 1))
        assert sorted(results) == sorted(targets)
        for m, (lf, S) in results.items():
            assert lf.hex() == float(grown[m]).hex()
            assert S.hex() == surprise(m, m // 3, m // 20, m // 40).hex()

    @pytest.mark.parametrize("before", [None, 100, 1_000, 4_950, 10_000])
    def test_kernel_value_does_not_depend_on_earlier_growth(self, monkeypatch, before):
        monkeypatch.setattr(surprise_module, "_table", np.zeros(2))
        fresh = surprise(4_950, 1_200, 900, 400)
        monkeypatch.setattr(surprise_module, "_table", np.zeros(2))
        if before is not None:
            ln_factorial(before)
        assert surprise(4_950, 1_200, 900, 400).hex() == fresh.hex()


class TestLnChoose:
    def test_edges(self):
        assert ln_choose(7, 0) == 0.0
        assert ln_choose(7, 7) == 0.0

    def test_poker(self):
        assert ln_choose(52, 5) == pytest.approx(math.log(2598960), rel=1e-12)

    @pytest.mark.parametrize("m,k", [(5, -1), (5, 6), (0, 1)])
    def test_domain(self, m, k):
        with pytest.raises(ValueError):
            ln_choose(m, k)

    @given(st.integers(0, 300), st.data())
    def test_against_comb(self, m, data):
        k = data.draw(st.integers(0, m))
        assert ln_choose(m, k) == pytest.approx(
            math.log(math.comb(m, k)), rel=1e-11, abs=1e-11
        )


class TestSurprise:
    def test_zero_at_M_zero(self):
        assert surprise(55, 0, 16, 0) == 0.0

    def test_zero_whole_graph(self):
        assert surprise(55, 55, 16, 16) == 0.0

    @pytest.mark.parametrize(
        "F,M,n,ell",
        [(10, 11, 5, 0), (10, 5, 11, 0), (10, 5, 5, 6), (10, 8, 5, 1), (5, 3, 2, -1)],
    )
    def test_preconditions(self, F, M, n, ell):
        with pytest.raises(ValueError):
            surprise(F, M, n, ell)

    def test_toy_optimum_value(self):
        # partition {0,1,2,3},{4,5,6,7},{8},{9,10}: M=13, ell=13
        assert surprise(55, 13, 16, 13) == pytest.approx(
            surprise_exact(55, 13, 16, 13), rel=1e-9
        )

    @settings(max_examples=300)
    @given(surprise_inputs())
    def test_against_rational_oracle(self, args):
        F, M, n, ell = args
        expected = surprise_exact(F, M, n, ell)
        assert surprise(F, M, n, ell) == pytest.approx(expected, rel=1e-9, abs=1e-9)

    @given(surprise_inputs())
    def test_non_negative(self, args):
        assert surprise(*args) >= 0.0

    @given(surprise_inputs(max_F=40), st.data())
    def test_monotone_in_M(self, args, data):
        # with F, n, ell fixed, growing M cannot increase S
        F, M, n, ell = args
        M2 = data.draw(st.integers(M, F))
        if n - ell > F - M2:
            return
        assert surprise(F, M2, n, ell) <= surprise(F, M, n, ell) + 1e-9

    def test_large_instance_no_overflow(self):
        # K=1000 scale: F ~ 5e5 and a strongly modular partition
        F, M, n, ell = 499_500, 12_000, 5_000, 4_800
        s = surprise(F, M, n, ell)
        assert math.isfinite(s) and s > 1_000.0

    def test_extreme_value_representable(self):
        # surprise values in the thousands must come back finite
        s = surprise(499_500, 3_000, 3_200, 3_000)
        assert math.isfinite(s) and s > 5_000.0


class TestKernelBits:
    """surprise() against the kernel it replaced, kept as reference_surprise."""

    @settings(max_examples=1_500, deadline=None)
    @given(kernel_inputs())
    def test_bit_identical(self, args):
        assert surprise(*args).hex() == reference_surprise(*args).hex()

    @settings(max_examples=200, deadline=None)
    @given(kernel_inputs(max_F=2_000_000, max_n=50_000))
    def test_bit_identical_at_paper_scale(self, args):
        assert surprise(*args).hex() == reference_surprise(*args).hex()

    @pytest.mark.parametrize(
        "F,M,n,ell",
        [(10, 11, 5, 0), (10, -1, 5, 0), (10, 5, 11, 0), (10, 5, -1, 0), (10, 5, 5, 6),
         (10, 8, 5, 1), (5, 3, 2, -1), (10, 3, 5, 4),
         # first_term_bound used to wrap the negative index and return
         # 364.02..., and to raise IndexError past the table
         (100, 10, 5, -1), (100, 120, 5, 2),
         (100, np.int64(10), 5, -1), (np.int64(100), np.int64(120), np.int64(5), np.int64(2))],
    )
    def test_same_errors(self, F, M, n, ell):
        # the kernel and its first term refuse every infeasible scalar
        # argument, numpy integers included, with check_feasible()'s message
        with pytest.raises(ValueError) as want:
            reference_surprise(F, M, n, ell)
        for f in (surprise, first_term_bound):
            with pytest.raises(ValueError) as got:
                f(F, M, n, ell)
            assert str(got.value) == str(want.value)

    def test_log_list_sized_by_n_not_F(self, monkeypatch):
        monkeypatch.setattr(surprise_module, "_logs", [-math.inf])
        args = (1_999_000, 1_000_000, 40_000, 39_000)
        assert surprise(*args).hex() == reference_surprise(*args).hex()
        assert len(surprise_module._logs) == 40_001

    @pytest.mark.parametrize(
        "args",
        [(4_950, 1_200, 900, 400), (4_950, 1_200, 900, 900), (4_950, 4_950, 900, 900),
         (4_950, 0, 0, 0), (45, 20, 45, 20), (190_000, 3_000, 2_500, 700)],
    )
    @pytest.mark.parametrize("start", ["two entries", "F entries"])
    def test_table_grown_inside_the_kernel(self, monkeypatch, args, start):
        # a call that finds _table shorter than F grows it in one step, where
        # reference_surprise grows it at M, F - M and F: the two tables end
        # at different sizes but agree entry for entry
        F = args[0]
        monkeypatch.setattr(surprise_module, "_table", np.zeros(2))
        if start == "F entries":
            ln_factorial(F + 1)
        short = surprise_module._table[:2 if start == "two entries" else F].copy()
        monkeypatch.setattr(surprise_module, "_table", short.copy())
        got = surprise(*args)
        grown = surprise_module._table
        monkeypatch.setattr(surprise_module, "_table", short.copy())
        assert got.hex() == reference_surprise(*args).hex()
        assert grown.size > F
        common = min(grown.size, surprise_module._table.size)
        assert np.array_equal(grown[:common], surprise_module._table[:common])

    @settings(max_examples=500, deadline=None)
    @given(kernel_inputs(max_F=200_000, max_n=5_000), st.integers(1, 6))
    def test_first_term_bound(self, args, count):
        # the kernel's own -lt0 (the same float; a zero may differ in
        # sign), so never below the kernel; an array of (M, ell) pairs at
        # one (F, n) gives each its own value
        F, M, n, ell = args
        Ms = np.array([M] * count)
        ells = np.array([max(ell - i, max(0, n - (F - M))) for i in range(count)])
        got = first_term_bound(F, Ms, n, ells)
        for bound, e in zip(got.tolist(), ells.tolist()):
            lt0 = ln_choose(M, e) + ln_choose(F - M, n - e) - ln_choose(F, n)
            assert bound == -lt0
            assert surprise(F, M, n, e) <= max(bound, 0.0)
            if e == min(M, n):  # a one-term tail
                assert surprise(F, M, n, e) == max(bound, 0.0)

    @settings(max_examples=300, deadline=None)
    @given(
        kernel_inputs(max_F=200_000, max_n=5_000)
        | kernel_inputs(min_F=1_990_000, max_F=2_010_000, max_n=60_000)
    )
    def test_first_term_bound_of_ints(self, args):
        # two ints give one float: the entry an array of them gives and the
        # kernel's own -lt0, bit for bit; numpy integers give the same float
        F, M, n, ell = args
        got = first_term_bound(F, M, n, ell)
        entry = first_term_bound(F, np.array([M]), n, np.array([ell]))[0]
        lt0 = ln_choose(M, ell) + ln_choose(F - M, n - ell) - ln_choose(F, n)
        assert type(got) is float
        assert got.hex() == float(entry).hex() == (-lt0).hex()
        assert first_term_bound(*map(np.int64, args)).hex() == got.hex()

    @settings(max_examples=200, deadline=None)
    @given(tail_inputs())
    @example((1_999_000, 52_975, 41_311, 31_881))  # the K=2000 recipe's optimum
    @example((1_999_000, 52_975, 41_311, 0))
    @example((1_999_000, 0, 41_311, 0))
    @example((1_999_000, 1_999_000, 41_311, 41_311))
    @example((60_000, 25_000, 60_000, 25_000))  # n = F forces ell = M
    def test_kernel_at_most_its_first_term(self, args):
        # the lemma behind the greedy moves' screen: the kernel returns
        # -((lt0 + mx) + ln acc) clamped at 0.0, with mx >= 0 and acc >= 1,
        # and rounding is monotone, so it is at most max(-lt0, 0.0); a
        # one-term tail has mx = ln acc = 0.0, so it is exactly that
        F, M, n, ell = args
        got, bound = surprise(*args), max(first_term_bound(*args), 0.0)
        assert got <= bound
        if ell == min(M, n):
            assert got == bound

    def test_concurrent_extension(self):
        F, M = 2_000_000, 700_000
        cases = [(F, M, 60_000 + 911 * i, 30_000) for i in range(8)]
        results = {}

        def worker(args):
            results[args] = surprise(*args)

        threads = [threading.Thread(target=worker, args=(args,)) for args in cases]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        for args in cases:
            assert results[args].hex() == reference_surprise(*args).hex()


def test_package_attribute_is_the_module():
    # the package used to re-export the kernel function under the module's name
    import surpkit

    assert surpkit.surprise is surprise_module
    assert surpkit.surprise.partition_stats is partition_stats
    assert "surprise" not in surpkit.__all__


class TestPartitionStats:
    def test_singletons(self, toy):
        M, ell, S = partition_stats(toy, Partition.singletons(toy.K))
        assert (M, ell, S) == (0, 0, 0.0)

    def test_all_in_one(self, toy):
        M, ell, S = partition_stats(toy, Partition([0] * 11))
        assert (M, ell) == (55, 16)

    def test_mismatch(self, toy):
        with pytest.raises(ValueError):
            partition_stats(toy, Partition.singletons(7))

    def test_relabeling_invariance(self, toy, truth):
        relabeled = Partition([[5, 9, 2][c] for c in truth.assign])
        assert partition_stats(toy, truth) == partition_stats(toy, relabeled)

    @given(st.data())
    def test_ell_matches_edge_walk(self, data):
        K = data.draw(st.integers(2, 20))
        pairs = [(u, v) for u in range(K) for v in range(u + 1, K)]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
        assign = data.draw(st.lists(st.integers(0, 4), min_size=K, max_size=K))
        M, ell, S = partition_stats(Graph(K, edges), Partition(assign))
        # the count before partition_stats read the adjacency sets
        assert ell == sum(1 for u, v in edges if assign[u] == assign[v])
        assert S == surprise(K * (K - 1) // 2, M, len(edges), ell)

    def test_modularity_partition_below_surprise_optimum(self, toy, truth, toy_surprise_oracle):
        # the 3-community split is not the surprise maximizer
        _, _, S3 = partition_stats(toy, truth)
        best, _ = toy_surprise_oracle
        assert S3 < best - 1e-6
