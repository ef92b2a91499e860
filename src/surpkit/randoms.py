"""Power-law sampling and estimation utilities, and a distinct-pair draw.

The normalization constant of a discrete power law is the (generalized)
zeta function, whose direct sum converges far too slowly for the needed
precision; here a truncated sum is completed by an Euler-Maclaurin tail
correction through the k^-(gamma+3) term, giving about 1e-10 absolute
accuracy in a few thousand terms.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

_CUT = 10_000  # terms summed directly before the tail correction


def _terms(gamma: float, x0: int) -> tuple[np.ndarray, int]:
    """The domain checks of :func:`zeta` and :func:`dzeta_dgamma`, then
    their grid: the terms k = x0 .. N - 1 summed directly, and N, where the
    tail correction starts."""
    if gamma <= 1.0:
        raise ValueError("the series diverges for gamma <= 1")
    if x0 < 1:
        raise ValueError("support must start at a positive integer")
    N = x0 + _CUT
    return np.arange(x0, N, dtype=float), N


def zeta(gamma: float, x0: int = 1) -> float:
    """Hurwitz-style zeta sum: sum_{k=x0}^inf k^(-gamma).

    Partial sum plus Euler-Maclaurin tail; about 1e-10 absolute accuracy.
    """
    k, N = _terms(gamma, x0)
    partial = float((k ** -gamma).sum())
    tail = (
        N ** (1.0 - gamma) / (gamma - 1.0)
        + 0.5 * N ** -gamma
        + gamma * N ** (-gamma - 1.0) / 12.0
        - gamma * (gamma + 1.0) * (gamma + 2.0) * N ** (-gamma - 3.0) / 720.0
    )
    return partial + tail


def dzeta_dgamma(gamma: float, x0: int = 1) -> float:
    """Derivative of :func:`zeta` with respect to gamma: -sum k^(-gamma) ln k."""
    k, N = _terms(gamma, x0)
    partial = float((k ** -gamma * np.log(k)).sum())
    g = gamma
    lnN = math.log(N)
    integral = N ** (1.0 - g) * ((g - 1.0) * lnN + 1.0) / (g - 1.0) ** 2
    f_N = N ** -g * lnN
    fp_N = N ** (-g - 1.0) * (1.0 - g * lnN)
    fppp_N = N ** (-g - 3.0) * (
        3.0 * g * g + 6.0 * g + 2.0 - g * (g + 1.0) * (g + 2.0) * lnN
    )
    tail = integral + 0.5 * f_N - fp_N / 12.0 + fppp_N / 720.0
    return -(partial + tail)


def expected_degree(gamma: float) -> float:
    """Mean of the discrete power law k^(-gamma) on k >= 1: zeta(gamma-1)/zeta(gamma)."""
    if gamma <= 2.0:
        raise ValueError("the mean diverges for gamma <= 2")
    return zeta(gamma - 1.0, 1) / zeta(gamma, 1)


def tail_prob(gamma: float, kmax: int) -> float:
    """Probability that a draw from k^(-gamma) on k >= 1 exceeds kmax, a positive integer."""
    # a fractional kmax would start the sum off the integers; NaN fails the
    # first comparison, so int() sees no NaN
    if not 1 <= kmax < math.inf or kmax != int(kmax):
        raise ValueError(f"kmax must be a positive integer, got {kmax}")
    return zeta(gamma, kmax + 1) / zeta(gamma, 1)


class DiscretePowerLaw:
    """Sampler for p(k) proportional to k^(-gamma) on k in [1, kmax].

    Inverse-CDF lookup against a precomputed table of 10^6 entries; draws
    above kmax are rejected and redrawn, and the ``proposals`` and
    ``rejected`` counters record the rejection rate.  A kmax above the
    table is refused.  With kmax None the law is truncated at the table's
    10^6: draws past it are rejected and redrawn too.  The mass it leaves
    out is 6.1e-7 at gamma = 2, 5.0e-10 at gamma = 2.5, and 7.7e-4 at
    gamma = 1.5.
    """

    _TABLE_CAP = 1_000_000

    def __init__(
        self,
        gamma: float,
        kmax: int | None = None,
        rng: np.random.Generator | int | None = None,
    ):
        if gamma <= 1.0:
            raise ValueError("need gamma > 1 for a normalizable distribution")
        if kmax is not None and not 1 <= kmax <= self._TABLE_CAP:
            raise ValueError(f"kmax must be in [1, {self._TABLE_CAP}], got {kmax}")
        self.gamma = gamma
        self.kmax = kmax
        self._kmax = self._TABLE_CAP if kmax is None else kmax
        self.rng = np.random.default_rng(rng)
        k = np.arange(1, self._TABLE_CAP + 1, dtype=float)
        self._cdf = np.cumsum(k ** -gamma) / zeta(gamma, 1)
        self.proposals = 0
        self.rejected = 0

    def sample(self) -> int:
        while True:
            self.proposals += 1
            u = self.rng.random()
            k = int(np.searchsorted(self._cdf, u)) + 1
            if k > self._kmax:
                self.rejected += 1
                continue
            return k

    def sample_many(self, count: int) -> np.ndarray:
        return np.array([self.sample() for _ in range(count)], dtype=int)


def sample_powerlaw_discrete(
    gamma: float,
    kmax: int | None,
    rng: np.random.Generator | int | None = None,
    count: int = 1,
) -> np.ndarray:
    """Draws from the discrete power law; see :class:`DiscretePowerLaw`."""
    return DiscretePowerLaw(gamma, kmax, rng).sample_many(count)


def sample_powerlaw_continuous(
    gamma: float,
    rng: np.random.Generator | int | None = None,
    x0: float = 1.0,
    count: int = 1,
) -> np.ndarray:
    """Inverse-CDF draws from the continuous density (gamma-1)/x0 (x/x0)^(-gamma)."""
    if gamma <= 1.0:
        raise ValueError("need gamma > 1 for a normalizable distribution")
    if x0 <= 0.0:
        raise ValueError("support must start above 0")
    rng = np.random.default_rng(rng)
    u = rng.random(count)
    return x0 * (1.0 - u) ** (-1.0 / (gamma - 1.0))


def distinct_pair(rng: np.random.Generator, n: int) -> tuple[int, int]:
    """Two distinct ints below n >= 2, as tuple(rng.choice(n, 2, replace=False)) draws them.

    numpy's choice without replacement runs Floyd's algorithm, a draw in
    [0, n - 1) and one in [0, n) that becomes n - 1 when it repeats the
    first, then shuffles the pair with one draw in [0, 2), swapping on 0.
    These are its draws without its array set-up, so the pair and the
    generator state after it are choice's; the tests compare the two.
    """
    a, b = int(rng.integers(n - 1)), int(rng.integers(n))
    if b == a:
        b = n - 1
    if rng.integers(2) == 0:
        return b, a
    return a, b


def _check_support(samples: np.ndarray, x0: float, discrete: bool = False) -> None:
    """Refuse a support start x0 that is not positive and finite or, when
    ``discrete``, not a positive integer; then a sample that is NaN or
    infinite, below x0 or, when ``discrete``, not an integer."""
    # the MLE needs x0 > 0 (ln(x / x0)), and the discrete law lives on x0,
    # x0 + 1, ...; NaN fails the first comparison, so int() sees no NaN
    if not 0 < x0 < math.inf or (discrete and x0 != int(x0)):
        kind = "integer" if discrete else "finite number"
        raise ValueError(f"support start must be a positive {kind}, got {x0}")
    bad = samples[~np.isfinite(samples)]
    if bad.size:
        raise ValueError(f"sample {float(bad[0])!r} is not finite")
    if samples.size and samples.min() < x0:
        raise ValueError(f"samples below the support start {x0}")
    if discrete:
        bad = samples[samples != np.floor(samples)]
        if bad.size:
            raise ValueError(f"sample {float(bad[0])!r} is not an integer")


def _check_samples(samples: np.ndarray, x0: float, discrete: bool = False) -> None:
    """Refuse fewer than two samples, then what _check_support() refuses."""
    if samples.size < 2:
        raise ValueError("need at least 2 samples")
    _check_support(samples, x0, discrete)


def gamma_mle_discrete(samples: Sequence[int], x0: int = 1) -> float:
    """Maximum-likelihood exponent for integer power-law samples.

    Solves dzeta/zeta (gamma, x0) = -mean(ln k) by bracketed root finding
    on gamma in [1.01, 20], to 1e-8, and clamps to the bracket edge when the
    root lies outside it.  Samples that all equal x0 are refused, as is a
    NaN, infinite or non-integer sample, and an x0 that is not a positive
    integer.
    """
    # imported here, at its one use: at module level scipy.optimize would
    # load with every CLI command and about double its peak memory
    from scipy.optimize import brentq

    samples = np.asarray(samples)
    _check_samples(samples, x0, discrete=True)
    if samples.max() == x0:
        # the likelihood then rises monotonically in gamma: no finite maximum
        raise ValueError("all samples equal the support start; exponent undefined")
    target = -float(np.log(samples).mean())

    def f(g: float) -> float:
        return dzeta_dgamma(g, x0) / zeta(g, x0) - target

    # f is increasing in gamma: clamp to the bracket edge when the
    # sample mean of ln k falls outside the representable range
    lo, hi = 1.01, 20.0
    if f(lo) >= 0.0:
        return lo
    if f(hi) <= 0.0:
        return hi
    return float(brentq(f, lo, hi, xtol=1e-8))


def gamma_mle_continuous(samples: Sequence[float], x0: float = 1.0) -> float:
    """Closed-form maximum-likelihood exponent: 1 + N / sum ln(x_i / x0).

    A NaN or infinite sample is refused, and an x0 that is not positive
    and finite.
    """
    samples = np.asarray(samples, dtype=float)
    _check_samples(samples, x0)
    denom = float(np.log(samples / x0).sum())
    if denom == 0.0:
        raise ValueError("all samples equal the support start; exponent undefined")
    return 1.0 + samples.size / denom


def lnL_discrete(gamma: float, samples: Sequence[int], x0: int = 1) -> float:
    """Log-likelihood of integer samples under p(k) = k^(-gamma) / zeta(gamma, x0).

    An x0, or a sample, that gamma_mle_discrete() would refuse for its
    value (NaN, infinite, below x0 or not an integer) is refused with its
    message.
    """
    samples = np.asarray(samples)
    _check_support(samples, x0, discrete=True)
    return float(-gamma * np.log(samples).sum() - samples.size * math.log(zeta(gamma, x0)))


def lnL_continuous(gamma: float, samples: Sequence[float], x0: float = 1.0) -> float:
    """Log-likelihood under the density (gamma-1)/x0 (x/x0)^(-gamma).

    An x0, or a sample, that gamma_mle_continuous() would refuse for its
    value (NaN, infinite or below x0) is refused with its message.
    """
    samples = np.asarray(samples, dtype=float)
    _check_support(samples, x0)
    N = samples.size
    return float(
        N * math.log(gamma - 1.0) - N * math.log(x0) - gamma * np.log(samples / x0).sum()
    )


def stats(values: Sequence[float], skewness: bool = False):
    """(mean, sample std) of a list, optionally with the population skewness."""
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        raise ValueError("need at least 2 values for a standard deviation")
    mean = float(values.mean())
    std = float(values.std(ddof=1))
    if not skewness:
        return mean, std
    m2 = float(((values - mean) ** 2).mean())
    if m2 == 0.0:
        return mean, std, 0.0
    m3 = float(((values - mean) ** 3).mean())
    return mean, std, m3 / m2 ** 1.5
