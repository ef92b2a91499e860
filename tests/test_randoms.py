import math
import re

import mpmath
import numpy as np
import pytest
from scipy.stats import chisquare

from surpkit.benchmarks import build_benchmark, pielouer, pielouer_nodes, rc_degrade
from surpkit.embedding import embed
from surpkit.optimizer import SurpriseState, sample_partitions
from surpkit.randoms import (
    DiscretePowerLaw,
    dzeta_dgamma,
    expected_degree,
    gamma_mle_continuous,
    gamma_mle_discrete,
    lnL_continuous,
    lnL_discrete,
    sample_powerlaw_continuous,
    sample_powerlaw_discrete,
    stats,
    tail_prob,
    zeta,
)

from testdata import toy_graph


class TestZeta:
    def test_basel(self):
        assert zeta(2.0, 1) == pytest.approx(math.pi ** 2 / 6, abs=1e-10)

    def test_shift_identity(self):
        assert zeta(2.0, 2) == pytest.approx(math.pi ** 2 / 6 - 1.0, abs=1e-10)

    def test_apery(self):
        assert zeta(3.0, 1) == pytest.approx(1.2020569031595943, abs=1e-10)

    @pytest.mark.parametrize("gamma", [1.05, 1.5, 2.0425, 3.7, 10.0])
    @pytest.mark.parametrize("x0", [1, 2, 7, 46])
    def test_against_mpmath(self, gamma, x0):
        expected = float(mpmath.zeta(gamma, x0))
        assert zeta(gamma, x0) == pytest.approx(expected, abs=1e-10)

    def test_monotone(self):
        assert zeta(2.0, 1) > zeta(2.5, 1) > zeta(3.0, 1)
        assert zeta(2.0, 1) > zeta(2.0, 2) > zeta(2.0, 3)

    @pytest.mark.parametrize("gamma", [1.0, 0.5, -2.0])
    def test_divergent_domain(self, gamma):
        with pytest.raises(ValueError):
            zeta(gamma, 1)


class TestDzeta:
    @pytest.mark.parametrize("gamma,x0", [(2.0, 1), (3.0, 2), (1.8, 5), (2.5, 1)])
    def test_finite_difference(self, gamma, x0):
        h = 1e-6
        fd = (zeta(gamma + h, x0) - zeta(gamma - h, x0)) / (2 * h)
        assert dzeta_dgamma(gamma, x0) == pytest.approx(fd, abs=1e-6)

    @pytest.mark.parametrize("gamma,x0", [(2.0, 1), (3.0, 2), (1.3, 1)])
    def test_against_mpmath(self, gamma, x0):
        expected = float(mpmath.zeta(gamma, x0, 1))
        assert dzeta_dgamma(gamma, x0) == pytest.approx(expected, abs=1e-9)

    def test_negative(self):
        for gamma in (1.5, 2.0, 4.0):
            assert dzeta_dgamma(gamma, 1) < 0

    def test_domain(self):
        with pytest.raises(ValueError):
            dzeta_dgamma(1.0, 1)


class TestPowerLawMoments:
    def test_mean_degree_15(self):
        assert expected_degree(2.0425) == pytest.approx(15.0, abs=0.05)

    def test_mean_degree_20(self):
        assert expected_degree(2.0315) == pytest.approx(20.0, abs=0.1)

    def test_large_gamma_limit(self):
        assert expected_degree(20.0) == pytest.approx(1.0, abs=1e-4)

    def test_decreasing_in_gamma(self):
        values = [expected_degree(g) for g in (2.05, 2.2, 2.5, 3.0, 4.0)]
        assert values == sorted(values, reverse=True)

    def test_mean_domain(self):
        with pytest.raises(ValueError):
            expected_degree(2.0)

    def test_tail_11_15_per_1000(self):
        assert 1000 * tail_prob(2.0425, 45) == pytest.approx(11.15, abs=0.10)

    def test_tail_13_per_1000(self):
        assert 1000 * tail_prob(2.0, 45) == pytest.approx(13.0, abs=0.5)

    def test_tail_vanishes(self):
        assert tail_prob(2.5, 10 ** 5) < 1e-6

    def test_tail_integral_float_kmax(self):
        assert tail_prob(2.0, 2.0) == tail_prob(2.0, 2)

    @pytest.mark.parametrize("kmax", [2.5, 0, -1, 0.5, math.nan, math.inf])
    def test_tail_refuses_kmax(self, kmax):
        # 2.5 used to return 0.2008, though P(k > 2.5) = P(k > 2) = 0.2401
        with pytest.raises(ValueError, match=rf"^kmax must be a positive integer, got {kmax}$"):
            tail_prob(2.0, kmax)


class TestSamplers:
    def test_rejection_fraction(self):
        sampler = DiscretePowerLaw(2.0425, kmax=45, rng=0)
        sampler.sample_many(100_000)
        frac = sampler.rejected / sampler.proposals
        assert frac == pytest.approx(tail_prob(2.0425, 45), abs=0.002)

    def test_discrete_mean(self):
        # E[k^2] diverges logarithmically at gamma=3 (cut off by the lookup
        # table), so a fixed band stands in for a 3-sigma interval
        draws = sample_powerlaw_discrete(3.0, None, rng=1, count=100_000)
        assert draws.mean() == pytest.approx(expected_degree(3.0), abs=0.15)

    def test_discrete_gof(self):
        gamma, kmax, N = 2.0425, 45, 100_000
        draws = sample_powerlaw_discrete(gamma, kmax, rng=2, count=N)
        ks = np.arange(1, kmax + 1, dtype=float)
        pmf = ks ** -gamma
        pmf /= pmf.sum()
        observed = np.bincount(draws, minlength=kmax + 1)[1:]
        expected = N * pmf
        # pool the sparse tail so every expected count is >= 5
        if (expected < 5).any():
            cut = int(np.argmax(expected < 5))
            observed = np.append(observed[:cut], observed[cut:].sum())
            expected = np.append(expected[:cut], expected[cut:].sum())
        _, p_value = chisquare(observed, expected)
        assert p_value > 0.001

    def test_truncated_at_the_table(self):
        # a draw past the 10^6-entry table used to come back as exactly 10^6:
        # 14 of these 20,000, where the law puts 3.8e-10 on 10^6
        sampler = DiscretePowerLaw(1.5, rng=0)
        draws = sampler.sample_many(20_000)
        assert draws.max() < 10 ** 6
        assert sampler.rejected == sampler.proposals - 20_000 > 0

    @pytest.mark.parametrize("kmax", [0, 10 ** 6 + 1, 2 * 10 ** 6])
    def test_kmax_outside_the_table_refused(self, kmax):
        # a kmax above the table used to be accepted and never reached
        with pytest.raises(ValueError, match=rf"^kmax must be in \[1, 1000000\], got {kmax}$"):
            DiscretePowerLaw(2.5, kmax=kmax)

    def test_continuous_median(self):
        gamma = 2.5
        draws = sample_powerlaw_continuous(gamma, rng=3, count=100_000)
        median = 2.0 ** (1.0 / (gamma - 1.0))
        assert np.median(draws) == pytest.approx(median, rel=0.02)
        assert draws.min() >= 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            DiscretePowerLaw(1.0)
        with pytest.raises(ValueError):
            sample_powerlaw_continuous(0.9)


class TestMLE:
    @pytest.mark.parametrize("gamma", [2.2, 2.5, 3.0])
    def test_discrete_round_trip(self, gamma):
        N = 100_000
        draws = sample_powerlaw_discrete(gamma, None, rng=int(gamma * 100), count=N)
        estimate = gamma_mle_discrete(draws)
        # Fisher information = Var[ln k] = zeta''/zeta - (zeta'/zeta)^2
        h = 1e-5
        d2 = (dzeta_dgamma(gamma + h, 1) - dzeta_dgamma(gamma - h, 1)) / (2 * h)
        z = zeta(gamma, 1)
        info = d2 / z - (dzeta_dgamma(gamma, 1) / z) ** 2
        se = 1.0 / math.sqrt(N * info)
        assert abs(estimate - gamma) <= 3 * se

    def test_continuous_round_trip(self):
        gamma, N = 2.5, 100_000
        draws = sample_powerlaw_continuous(gamma, rng=4, count=N)
        estimate = gamma_mle_continuous(draws)
        se = (gamma - 1.0) / math.sqrt(N)
        assert abs(estimate - gamma) <= 3 * se

    def test_continuous_closed_form(self):
        draws = np.full(10, math.e)
        assert gamma_mle_continuous(draws) == pytest.approx(2.0, rel=1e-12)

    def test_continuous_degenerate(self):
        with pytest.raises(ValueError):
            gamma_mle_continuous(np.ones(5))

    def test_discrete_likelihood_peak(self):
        draws = sample_powerlaw_discrete(2.5, None, rng=5, count=20_000)
        estimate = gamma_mle_discrete(draws)
        best = lnL_discrete(estimate, draws)
        assert best >= lnL_discrete(estimate + 0.05, draws)
        assert best >= lnL_discrete(estimate - 0.05, draws)

    def test_continuous_likelihood_peak(self):
        draws = sample_powerlaw_continuous(2.2, rng=6, count=20_000)
        estimate = gamma_mle_continuous(draws)
        best = lnL_continuous(estimate, draws)
        assert best >= lnL_continuous(estimate + 0.05, draws)
        assert best >= lnL_continuous(estimate - 0.05, draws)

    @pytest.mark.parametrize("x0", [1, 3])
    def test_discrete_degenerate(self, x0):
        # every sample at x0: the likelihood rises monotonically in gamma,
        # so the bracket edge 20.0 used to be returned as the estimate
        with pytest.raises(ValueError, match="all samples equal the support start; exponent undefined"):
            gamma_mle_discrete([x0, x0], x0)
        assert gamma_mle_discrete([x0, x0, x0 + 1], x0) < 20.0  # one sample above x0 suffices

    @pytest.mark.parametrize(
        "mle, samples, value",
        [
            (gamma_mle_continuous, [1, 2, math.inf], "inf"),
            (gamma_mle_continuous, [1, 2, math.nan], "nan"),
            (gamma_mle_continuous, [-math.inf, 1, 2], "-inf"),
            (gamma_mle_discrete, [1.0, 2.0, math.inf], "inf"),
            (gamma_mle_discrete, [1.0, 2.0, math.nan], "nan"),
        ],
    )
    def test_non_finite_sample_refused(self, mle, samples, value):
        # inf used to give 1.0 (continuous) or the bracket edge 1.01
        # (discrete), and nan a nan
        with pytest.raises(ValueError, match=f"^sample {value} is not finite$"):
            mle(samples)

    @pytest.mark.parametrize("samples, value", [([1.5, 2.5, 3.5], "1.5"), ([1, 2, 2.25], "2.25")])
    def test_discrete_non_integer_refused(self, samples, value):
        # [1.5, 2.5, 3.5] used to give 1.759, as if drawn from the discrete law
        with pytest.raises(ValueError, match=f"^sample {value} is not an integer$"):
            gamma_mle_discrete(samples)
        with pytest.raises(ValueError, match=f"^sample {value} is not an integer$"):
            lnL_discrete(2.5, samples)

    @pytest.mark.parametrize(
        "lnL, samples, x0, message",
        [
            # the density is 0 below x0: this used to give 0.811
            (lnL_continuous, [0.5, 2], 1.0, "samples below the support start 1.0"),
            (lnL_continuous, [3.0, 4.0], 3.5, "samples below the support start 3.5"),
            (lnL_discrete, [0, 3, 5], 1, "samples below the support start 1"),
            (lnL_discrete, [3, 4, 5], 4, "samples below the support start 4"),
            # these used to give -inf or nan
            (lnL_continuous, [1, 2, math.nan], 1.0, "sample nan is not finite"),
            (lnL_continuous, [1, 2, math.inf], 1.0, "sample inf is not finite"),
            (lnL_continuous, [-math.inf, 1, 2], 1.0, "sample -inf is not finite"),
            (lnL_discrete, [1, 2, math.inf], 1, "sample inf is not finite"),
            (lnL_discrete, [1, 2, math.nan], 1, "sample nan is not finite"),
        ],
    )
    def test_likelihood_refuses_what_the_mle_refuses(self, lnL, samples, x0, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            lnL(2.5, samples, x0)

    @pytest.mark.parametrize(
        "fit, x0",
        [(fit, x0) for fit in (gamma_mle_continuous, gamma_mle_discrete, lnL_continuous, lnL_discrete)
         for x0 in (0.0, -1.0, math.nan, math.inf)]
        + [(gamma_mle_discrete, 1.5), (lnL_discrete, 1.5)],
    )
    def test_bad_support_start_refused(self, recwarn, fit, x0):
        # the MLE needs x0 > 0, and the discrete law integer support from x0.
        # x0 = 0 used to give 1.0 with a divide-by-zero warning (continuous
        # MLE) or "math domain error" (continuous lnL), -1 and nan gave nan,
        # and 1.5 fitted 1.9041 to a law on 1.5, 2.5, ..., which holds none
        # of these samples
        kind = "integer" if fit in (gamma_mle_discrete, lnL_discrete) else "finite number"
        args = ([2, 3, 4, 5], x0) if fit.__name__.startswith("gamma") else (2.5, [2, 3, 4, 5], x0)
        with pytest.raises(ValueError, match=f"^{re.escape(f'support start must be a positive {kind}, got {x0}')}$"):
            fit(*args)
        assert not recwarn.list

    def test_likelihood_of_one_sample_at_x0(self):
        # a single sample is enough for a likelihood, and x0 itself is in the support
        assert lnL_continuous(2.5, [1.0]) == pytest.approx(math.log(1.5))
        assert lnL_discrete(2.5, [1]) == pytest.approx(-math.log(zeta(2.5, 1)))

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            gamma_mle_discrete([0, 3, 5])
        with pytest.raises(ValueError):
            gamma_mle_discrete([4])


class TestStats:
    def test_constant(self):
        assert stats([1, 1, 1], skewness=True) == (1.0, 0.0, 0.0)

    def test_two_values(self):
        mean, sd = stats([0, 2])
        assert mean == 1.0
        assert sd == pytest.approx(math.sqrt(2), rel=1e-12)

    def test_symmetric_skewness(self):
        _, _, skew = stats([1, 2, 3, 4, 5], skewness=True)
        assert skew == pytest.approx(0.0, abs=1e-12)

    def test_positive_skew(self):
        _, _, skew = stats([1, 1, 1, 10], skewness=True)
        assert skew > 0

    def test_domain(self):
        with pytest.raises(ValueError):
            stats([3.0])



_TRIANGLE_PATH = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
# entry points that store the generator they were given, returning it
_KEEPERS = {
    "default_rng": np.random.default_rng,
    "SurpriseState": lambda g: SurpriseState(toy_graph(), rng=g).rng,
    "DiscretePowerLaw": lambda g: DiscretePowerLaw(2.5, rng=g).rng,
    "build_benchmark": lambda g: build_benchmark([5, 5, 5], r=0.1, rng=g)._rng,
}
# entry points that only draw from it
_DRAWERS = {
    "sample_partitions": lambda g: sample_partitions(toy_graph(), 3, rng=g, max_sweeps=5),
    "sample_powerlaw_continuous": lambda g: sample_powerlaw_continuous(2.5, rng=g, count=3),
    "embed": lambda g: embed(_TRIANGLE_PATH, rng=g),
    "pielouer": lambda g: pielouer(6, 0.8, rng=g),
    "pielouer_nodes": lambda g: pielouer_nodes(6, 0.8, (40, 60), rng=g),
    "rc_degrade": lambda g: rc_degrade(toy_graph(), 50, rng=g),
}
_ENTRY_POINTS = _KEEPERS | _DRAWERS


@pytest.mark.parametrize("name", sorted(_ENTRY_POINTS))
def test_passed_generator_is_used_as_is(name):
    # np.random.default_rng(g) returns g itself, so no entry point needs an
    # isinstance branch: a stored generator is g, and the draws advance g
    # exactly as far as a run from the same seed
    g = np.random.default_rng(11)
    kept = _ENTRY_POINTS[name](g)
    if name in _KEEPERS:
        assert kept is g
    seeded = np.random.default_rng(11)
    _ENTRY_POINTS[name](seeded)
    assert g.bit_generator.state == seeded.bit_generator.state
