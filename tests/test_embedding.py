import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surpkit import embedding
from surpkit.benchmarks import build_benchmark, pielouer_nodes
from surpkit.embedding import (
    EmbeddingConfig,
    chi_grad,
    embed,
    load_distance_matrix,
    peak_walk,
    save_distance_matrix,
)
from surpkit.metrics import vi
from surpkit.optimizer import sample_partitions


def planar_distances(N, seed=0):
    rng = np.random.default_rng(seed)
    pts = rng.random((N, 2))
    D = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    return pts, D


def pairwise(coords):
    return np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=2))


def reference_chi_grad(coords, D, gamma_exp=-1.0, d_lim=1.0):
    """The stress kernel priced from scratch on every call, with the (N, N, 2) difference array."""
    diff = coords[:, None, :] - coords[None, :, :]
    e = np.sqrt((diff ** 2).sum(axis=2))
    mask = np.triu(D < d_lim, k=1)
    if gamma_exp < 0.0:
        mask &= D > 0.0
    with np.errstate(divide="ignore"):
        w = np.where(mask, np.where(D > 0, D, 1.0) ** gamma_exp, 0.0)
    resid = D - e
    chi2 = float((w * resid ** 2).sum())
    w_full = w + w.T
    with np.errstate(invalid="ignore", divide="ignore"):
        coef = np.where(e > 0.0, -2.0 * w_full * resid / e, 0.0)
    grad = (coef[:, :, None] * diff).sum(axis=1)
    return chi2, grad, float(np.sqrt((grad ** 2).sum()))


def reference_embed(D, config, rng):
    """The descent loop of embed() over reference_chi_grad.  The schedule
    and stop constants are read from the module when it is called, so a
    test that lowers one lowers it for both loops."""
    N = D.shape[0]
    rng = np.random.default_rng(rng)
    coords = rng.random((N, 2))
    lamb = embedding._LAMB
    chi2, grad, gnorm = reference_chi_grad(coords, D, config.gamma_exp, config.d_lim)
    stalled = steps = 0
    while True:
        if gnorm / (2 * N) < embedding._EPS:
            return coords, chi2, gnorm, "converged"
        if lamb < embedding._LAMB_FLOOR:
            return coords, chi2, gnorm, "step underflow"
        if stalled >= embedding._STALL_LIMIT:
            return coords, chi2, gnorm, "stalled"
        if steps >= embedding._STEP_LIMIT:
            return coords, chi2, gnorm, "step limit"
        steps += 1
        trial = coords - lamb * grad
        t_chi2, t_grad, t_gnorm = reference_chi_grad(trial, D, config.gamma_exp, config.d_lim)
        if t_chi2 < chi2:
            coords, chi2, grad, gnorm = trial, t_chi2, t_grad, t_gnorm
            lamb *= 1.0 + embedding._ADJ
            stalled = 0
        else:
            lamb *= 1.0 - embedding._ADJ
            stalled += 1


def landscape_matrix(seed, count=30):
    """Pairwise VI of ``count`` partitions sampled from a K = 80 benchmark:
    4 cliques, Pielou 0.85, r = 0.1, p = 0.4, q = 0.02."""
    rng = np.random.default_rng(seed)
    sizes = pielouer_nodes(4, 0.85, (72, 72), rng=rng)
    net = build_benchmark(sizes, 0.1, False, rng=rng)
    net.degrade_p(0.4)
    net.degrade_q(0.02)
    parts = sample_partitions(net.graph, count, rng=rng)
    N = len(parts)
    D = np.zeros((N, N))
    for i in range(N):
        for j in range(i + 1, N):
            D[i, j] = D[j, i] = vi(parts[i], parts[j])
    return D


@pytest.fixture(scope="module")
def landscape_matrices():
    return [landscape_matrix(seed) for seed in (0, 1)]


def same_bits(a, b):
    return (
        np.float64(a[0]).tobytes() == np.float64(b[0]).tobytes()
        and a[1].tobytes() == b[1].tobytes()
        and np.float64(a[2]).tobytes() == np.float64(b[2]).tobytes()
    )


@st.composite
def stress_cases(draw):
    """Coordinates and a distance matrix with ties, zeros, coincident points and near-symmetry."""
    N = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.random((N, 2))
    D = pairwise(pts) * draw(st.sampled_from([0.3, 1.0, 4.0]))
    if draw(st.booleans()):
        D = np.round(D, 1)  # tied distances, and zeros between nearby points
    if N > 1 and draw(st.booleans()):
        i, j = draw(st.integers(0, N - 1)), draw(st.integers(0, N - 1))
        if i != j:
            D[i, j] = D[j, i] = 0.0
    if draw(st.booleans()):
        D = D + rng.random((N, N)) * 1e-10  # symmetric only within np.allclose
        np.fill_diagonal(D, 0.0)
    coords = rng.random((N, 2))
    if draw(st.booleans()):
        coords = np.round(coords, 1)  # coincident points
    if N > 1 and draw(st.booleans()):
        coords[-1] = coords[0]
    gamma_exp = draw(st.sampled_from([-1.0, 0.0, 1.5]))
    d_lim = draw(st.sampled_from([0.5, 1.0, 10.0]))
    return coords, D, gamma_exp, d_lim


class TestChiGrad:
    def test_exact_fit_is_stationary(self):
        pts, D = planar_distances(12, seed=5)
        chi2, grad, gnorm = chi_grad(pts, D, -1.0, 10.0)
        assert chi2 == pytest.approx(0.0, abs=1e-20)
        assert gnorm == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("seed", range(4))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        _, D = planar_distances(10, seed=seed + 100)
        coords = rng.random((10, 2))
        chi2, grad, _ = chi_grad(coords, D, -1.0, 10.0)
        h = 1e-6
        for i in range(10):
            for axis in range(2):
                bumped = coords.copy()
                bumped[i, axis] += h
                up, _, _ = chi_grad(bumped, D, -1.0, 10.0)
                bumped[i, axis] -= 2 * h
                down, _, _ = chi_grad(bumped, D, -1.0, 10.0)
                fd = (up - down) / (2 * h)
                assert abs(grad[i, axis] - fd) < 1e-5

    def test_cutoff_excludes_far_pairs(self):
        D = np.array([[0.0, 0.5, 3.0], [0.5, 0.0, 3.0], [3.0, 3.0, 0.0]])
        coords = np.zeros((3, 2))
        coords[1, 0] = 0.5
        coords[2, 0] = 100.0  # far pair ignored under the cutoff
        chi2, _, gnorm = chi_grad(coords, D, -1.0, 1.0)
        assert chi2 == pytest.approx(0.0, abs=1e-20)
        assert gnorm == pytest.approx(0.0, abs=1e-12)

    def test_zero_distance_warning(self):
        D = np.zeros((2, 2))
        with pytest.warns(UserWarning, match="zero distances") as rec:
            chi2, _, _ = chi_grad(np.ones((2, 2)), D, -1.0, 1.0)
        assert rec[0].filename == __file__  # attributed to the caller
        assert chi2 == 0.0

    def test_invalid_matrix(self):
        with pytest.raises(ValueError):
            chi_grad(np.zeros((2, 2)), np.array([[0.0, 1.0], [2.0, 0.0]]))

    @settings(max_examples=300, deadline=None)
    @given(stress_cases())
    def test_bit_identical_to_reference(self, case):
        coords, D, gamma_exp, d_lim = case
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = chi_grad(coords, D, gamma_exp, d_lim)
        assert same_bits(got, reference_chi_grad(coords, D, gamma_exp, d_lim))


class TestEmbed:
    def test_planar_recovery(self):
        _, D = planar_distances(20, seed=0)
        cfg = EmbeddingConfig(gamma_exp=-1.0, d_lim=10.0)
        coords, chi2, _, reason = embed(D, cfg, rng=2)
        iu = np.triu_indices(20, 1)
        rms = math.sqrt(float(((pairwise(coords) - D)[iu] ** 2).mean()))
        assert reason == "converged"
        assert rms < 1e-6

    def test_two_points(self):
        D = np.array([[0.0, 1.0], [1.0, 0.0]])
        coords, _, _, _ = embed(D, EmbeddingConfig(d_lim=5.0), rng=1)
        assert pairwise(coords)[0, 1] == pytest.approx(1.0, abs=1e-8)

    def test_chi2_invariant_under_rigid_motion(self):
        _, D = planar_distances(15, seed=3)
        cfg = EmbeddingConfig(d_lim=10.0)
        coords, chi2, _, _ = embed(D, cfg, rng=2)
        theta = 0.7
        rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
        moved = coords @ rot.T + np.array([3.0, -1.0])
        chi2_moved, _, _ = chi_grad(moved, D, cfg.gamma_exp, cfg.d_lim)
        assert chi2_moved == pytest.approx(chi2, abs=1e-6)

    def test_deterministic(self):
        _, D = planar_distances(10, seed=4)
        cfg = EmbeddingConfig(d_lim=10.0)
        a = embed(D, cfg, rng=7)
        b = embed(D, cfg, rng=7)
        assert np.array_equal(a[0], b[0])

    @pytest.mark.parametrize(
        "seed, decimals, d_lim, reason",
        [(0, None, 10.0, "converged"), (1, 2, 0.6, "step underflow"), (4, 2, 0.6, "step underflow")],
    )
    def test_identical_to_reference_loop(self, seed, decimals, d_lim, reason):
        _, D = planar_distances(12, seed=seed + 20)
        if decimals is not None:
            D = np.round(D, decimals)  # no longer planar: the descent stops short of zero stress
        cfg = EmbeddingConfig(d_lim=d_lim)
        got = embed(D, cfg, rng=seed)
        want = reference_embed(D, cfg, seed)
        assert got[3] == reason
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1:] == want[1:]

    def test_identical_to_reference_loop_when_stalled(self, monkeypatch):
        N = 6
        D = np.ones((N, N))  # six equidistant points do not fit in the plane
        np.fill_diagonal(D, 0.0)
        D[0, 1] += 1e-10  # symmetric only within np.allclose
        monkeypatch.setattr(embedding, "_STALL_LIMIT", 20)
        cfg = EmbeddingConfig(d_lim=2.0)
        got = embed(D, cfg, rng=0)
        want = reference_embed(D, cfg, 0)
        assert got[3] == "stalled"
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1:] == want[1:]

    def test_zero_distance_warning(self, monkeypatch):
        D = np.array([[0.0, 0.0, 0.5], [0.0, 0.0, 0.5], [0.5, 0.5, 0.0]])
        monkeypatch.setattr(embedding, "_STALL_LIMIT", 50)
        cfg = EmbeddingConfig()
        with pytest.warns(UserWarning, match="zero distances") as rec:
            got = embed(D, cfg, rng=3)
        assert len(rec) == 1  # the weights are built once per embed
        assert rec[0].filename == __file__
        want = reference_embed(D, cfg, 3)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1:] == want[1:]

    @pytest.mark.parametrize("index", range(2))
    def test_identical_to_reference_loop_at_landscape_scale(self, landscape_matrices, index):
        D = landscape_matrices[index]
        assert D.shape == (30, 30)
        cfg = EmbeddingConfig()
        got = embed(D, cfg, rng=index)
        want = reference_embed(D, cfg, index)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1:] == want[1:]

    @pytest.mark.parametrize("index", range(2))
    def test_gradient_only_for_accepted_steps(self, monkeypatch, landscape_matrices, index):
        D = landscape_matrices[index]
        chi2s, gradients = [], []
        chi2_part, gradient_part = embedding._chi2, embedding._gradient

        def counted_chi2(*args):
            out = chi2_part(*args)
            chi2s.append(out[0])
            return out

        def counted_gradient(*args):
            gradients.append(1)
            return gradient_part(*args)

        monkeypatch.setattr(embedding, "_chi2", counted_chi2)
        monkeypatch.setattr(embedding, "_gradient", counted_gradient)
        _, chi2, _, _ = embed(D, EmbeddingConfig(), rng=index)
        accepted, best = 0, chi2s[0]
        for t_chi2 in chi2s[1:]:
            if t_chi2 < best:
                accepted, best = accepted + 1, t_chi2
        assert best == chi2
        assert 0 < accepted < len(chi2s) - 1  # some steps kept, some rejected
        assert len(gradients) == 1 + accepted

    @pytest.mark.parametrize("index", range(2))
    def test_step_that_moves_nothing_is_not_priced(self, monkeypatch, landscape_matrices, index):
        # once the step scale is below every coordinate's ulp, the trial is
        # coords itself: embed() rejects it unpriced, the reference prices it
        D = landscape_matrices[index]
        priced, reference_priced = [], []
        chi2_part, reference = embedding._chi2, reference_chi_grad

        def counted_chi2(*args):
            priced.append(1)
            return chi2_part(*args)

        def counted_reference(*args):
            reference_priced.append(1)
            return reference(*args)

        monkeypatch.setattr(embedding, "_chi2", counted_chi2)
        monkeypatch.setitem(globals(), "reference_chi_grad", counted_reference)
        got = embed(D, EmbeddingConfig(), rng=index)
        want = reference_embed(D, EmbeddingConfig(), index)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1:] == want[1:]
        assert len(priced) < len(reference_priced)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EmbeddingConfig(d_lim=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [("d_lim", math.nan), ("d_lim", -math.inf), ("d_lim", 0.0), ("d_lim", -1.0),
         ("gamma_exp", math.inf), ("gamma_exp", -math.inf), ("gamma_exp", math.nan)],
    )
    def test_non_finite_settings_refused(self, field, value):
        # NaN passed the old d_lim <= 0.0 test, and gamma_exp was not tested;
        # chi_grad answered 0.0, inf or nan for what EmbeddingConfig refused
        with pytest.raises(ValueError, match=f"got {value}") as refused:
            EmbeddingConfig(**{field: value})
        D = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError) as chi_grad_refused:
            chi_grad(np.array([[0.0, 0.0], [2.0, 0.0]]), D, **{field: value})
        assert str(chi_grad_refused.value) == str(refused.value)

    def test_step_limit(self, monkeypatch):
        # three collinear points: chi2 falls steadily toward 0, so no other
        # stop is reached (at the real limit of 100,000 steps it takes seconds)
        D = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        cfg = EmbeddingConfig(d_lim=3.0)
        monkeypatch.setattr(embedding, "_STEP_LIMIT", 300)
        priced, reference = [], reference_chi_grad

        def counted_reference(*args):
            priced.append(1)
            return reference(*args)

        monkeypatch.setitem(globals(), "reference_chi_grad", counted_reference)
        got = embed(D, cfg, rng=0)
        want = reference_embed(D, cfg, 0)
        assert got[3] == want[3] == "step limit"
        assert len(priced) == 1 + 300  # the start, then one trial per step
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1:] == want[1:]

    def test_no_cutoff_at_infinity(self):
        D = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        coords, chi2, _, _ = embed(D, EmbeddingConfig(d_lim=math.inf), rng=0)
        cut_coords, cut_chi2, _, _ = embed(D, EmbeddingConfig(d_lim=2.0), rng=0)
        assert np.array_equal(coords, cut_coords) and chi2 == cut_chi2


class TestPeakWalk:
    def test_single_point(self):
        D = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert peak_walk(np.array([3.0, 1.0]), D, 1) == [(0.0, 1.0)]

    def test_equidistant_arithmetic(self):
        # all pairs at distance d: cumulative distance is (k-1) d
        N, d = 5, 0.25
        D = np.full((N, N), d)
        np.fill_diagonal(D, 0.0)
        values = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
        walk = peak_walk(values, D, N)
        assert [w[0] for w in walk] == pytest.approx([i * d for i in range(N)])
        assert walk[0][1] == 1.0 and walk[-1][1] == 0.0

    def test_tie_break_by_index(self):
        D = np.zeros((3, 3))
        D[0, 1] = D[1, 0] = 1.0
        D[0, 2] = D[2, 0] = 2.0
        D[1, 2] = D[2, 1] = 3.0
        walk = peak_walk(np.array([1.0, 1.0, 0.0]), D, 3)
        # ties on value visit lower index first: order 0, 1, 2
        assert [w[0] for w in walk] == pytest.approx([0.0, 1.0, 4.0])

    def test_constant_values_rejected(self):
        D = np.zeros((2, 2))
        with pytest.raises(ValueError):
            peak_walk(np.array([1.0, 1.0]), D, 2)

    def test_top_bounds(self):
        D = np.zeros((2, 2))
        with pytest.raises(ValueError):
            peak_walk(np.array([1.0, 2.0]), D, 3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, bad):
        # a NaN used to give NaN heights on every step, and an inf a
        # RuntimeWarning and a NaN height
        D = np.zeros((3, 3))
        with pytest.raises(ValueError, match="finite"):
            peak_walk(np.array([1.0, bad, 0.0]), D, 3)


class TestMatrixIO:
    def test_round_trip(self, tmp_path):
        _, D = planar_distances(6, seed=9)
        path = tmp_path / "dist.txt"
        save_distance_matrix(D, path)
        loaded = load_distance_matrix(path)
        assert np.allclose(loaded, D, atol=1e-10)

    @pytest.mark.parametrize("index", range(2))
    def test_round_trip_is_bit_exact(self, tmp_path, landscape_matrices, index):
        D = landscape_matrices[index]
        path = tmp_path / "dist.txt"
        save_distance_matrix(D, path)
        loaded = load_distance_matrix(path)
        assert np.array_equal(loaded, D)
        a, b = embed(loaded, rng=3), embed(D, rng=3)
        assert a[0].tobytes() == b[0].tobytes()
        assert a[1:] == b[1:]

    def test_bad_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n0 1\n")
        with pytest.raises(ValueError):
            load_distance_matrix(path)
