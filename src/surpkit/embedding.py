"""Planar embedding of a partition ensemble from its distance matrix.

Coordinates are fitted by gradient descent on a weighted stress
chi^2 = sum_{i<j, d_ij < d_lim} d_ij^gamma (d_ij - |r_i - r_j|)^2,
with an adaptive step size; the peak walk summarizes how concentrated the
top-quality partitions are by walking them in order of quality and
accumulating the distance covered.

Everything in a stress evaluation that depends only on D (the cut-off
mask, the weights w and m2w = -2 (w + w^T)) is built once per ``embed()``
by ``_weights``.  The stress kernel is two parts: ``_chi2`` returns
chi^2 with the arrays (diff, e, resid) it was computed from, and
``_gradient`` turns those arrays and m2w into the gradient and its norm.
Three places run the two parts back to back: ``chi_grad``, the first
evaluation in ``embed()``, and every step ``embed()`` keeps.  Most
descent steps are rejected, and a rejected step needs only chi^2, so
``embed()`` prices every trial with ``_chi2`` alone.  This walks exactly
the descent that running both parts on every trial would: the parts run
the same operations on the same arrays, a rejected trial's gradient
would never be read, and no array is kept across steps.

The kernel works on the coordinates as a C-ordered (2, N) array, the x
row then the y row, as ``embed()`` keeps them, and returns the gradient
in that layout.  One subtraction gives the (2, N, N) array diff[k, j, i]
= r_i,k - r_j,k of both axes' differences, one product their squares,
and the gradient is one reduction over the middle axis of coef^T * diff;
coef is m2w * resid / e computed only where e > 0 and 0.0 elsewhere, by
``np.divide`` with ``where``.  The two parts back to back return the
same bits as the direct evaluation, which builds the (N, N, 2) array of
differences r_i - r_j, takes coef = -2.0 * (w + w^T) * resid / e and
sums coef_ij (r_i - r_j) over the middle axis (the tests keep it as the
reference):

* every element is the same operation on the same operands: the
  differences, squares and the sum dx^2 + dy^2 under the square root are
  taken elementwise, and hoisting m2w keeps the bits, because ``-2.0 *
  w_full * resid / e`` evaluates left to right, so its first product is
  exactly m2w;
* every reduction adds in the same order: the gradient's reduction over
  the middle axis of a C-contiguous array adds the terms over j one by
  one in index order for each i, as the reference's does, and chi^2 and
  the gradient norm are summed over C-ordered (N, N) and (N, 2) arrays,
  so the norm squares the gradient into the (N, 2) order x_0, y_0, x_1,
  ... before summing;
* no symmetry of D is assumed.  D need only be symmetric within
  ``np.allclose``, so coef is not bitwise symmetric, and the gradient
  is summed from ``coef.T``, never from ``coef``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np


# the descent schedule and its stops
_LAMB = 0.2  # initial step scale
_ADJ = 0.05  # the scale grows by this fraction on a kept step, shrinks on a rejected one
_EPS = 1e-10  # gradient norm per coordinate below which the descent has converged
_LAMB_FLOOR = 1e-18  # step scale below which the descent stops
_STALL_LIMIT = 5000  # consecutive rejected steps after which the descent stops
# total steps after which the descent stops: a slow, steady descent (three
# collinear points) is never stalled and would otherwise run without end
_STEP_LIMIT = 20 * _STALL_LIMIT


@dataclass(frozen=True)
class EmbeddingConfig:
    """The two settings of the stress chi^2.

    Only pairs with d_ij < ``d_lim`` contribute, each weighted by
    d_ij ** ``gamma_exp``.  ``d_lim`` must be positive (+inf means no
    cut-off) and ``gamma_exp`` finite; any other value is refused with a
    ValueError.  ``embed`` and ``chi_grad`` both check their settings
    here.
    """

    gamma_exp: float = -1.0
    d_lim: float = 1.0

    def __post_init__(self):
        # +inf is a valid cut-off (none); NaN fails both tests
        if not self.d_lim > 0.0:
            raise ValueError(f"distance cutoff must be positive, got {self.d_lim}")
        if not math.isfinite(self.gamma_exp):
            raise ValueError(f"weight exponent must be finite, got {self.gamma_exp}")


def _validate_D(D: np.ndarray) -> np.ndarray:
    D = np.asarray(D, dtype=float)
    if D.ndim != 2 or D.shape[0] != D.shape[1]:
        raise ValueError("distance matrix must be square")
    if D.shape[0] == 0:
        raise ValueError("distance matrix must not be empty")
    if not np.isfinite(D).all():
        raise ValueError("distances must be finite")
    if not np.allclose(D, D.T):
        raise ValueError("distance matrix must be symmetric")
    if not np.allclose(np.diag(D), 0.0):
        raise ValueError("distance matrix must have a zero diagonal")
    if (D < 0).any():
        raise ValueError("distances must be non-negative")
    return D


def _weights(D: np.ndarray, config: EmbeddingConfig) -> tuple[np.ndarray, np.ndarray]:
    """Pair weights w (upper triangle) and m2w = -2 (w + w^T) for a validated D."""
    gamma_exp = config.gamma_exp
    mask = np.triu(D < config.d_lim, k=1)
    zero_d = mask & (D == 0.0)
    if gamma_exp < 0.0 and zero_d.any():
        warnings.warn(
            "zero distances excluded: weight d^gamma undefined for negative gamma",
            stacklevel=3,
        )
        mask &= D > 0.0
    with np.errstate(divide="ignore"):
        w = np.where(mask, np.where(D > 0, D, 1.0) ** gamma_exp, 0.0)
    return w, -2.0 * (w + w.T)


def _chi2(
    coords: np.ndarray, D: np.ndarray, w: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """chi^2 and the arrays ``_gradient`` reuses: (chi2, diff, e, resid).

    ``coords`` is C-ordered (2, N): the x row, then the y row.
    """
    diff = coords[:, None, :] - coords[:, :, None]  # diff[k, j, i] = r_i,k - r_j,k
    sq = diff * diff
    e = np.sqrt(sq[0] + sq[1]).T
    resid = D - e
    return float(np.add.reduce(w * resid ** 2, axis=None)), diff, e, resid


def _gradient(
    diff: np.ndarray, e: np.ndarray, resid: np.ndarray, m2w: np.ndarray
) -> tuple[np.ndarray, float]:
    """The gradient of chi^2 and its norm, from the arrays ``_chi2`` returned.

    The gradient is C-ordered (2, N), as the coordinates.
    """
    # d chi2 / d r_i = sum_j 2 w_ij (d_ij - e_ij) * (-(r_i - r_j)/e_ij)
    coef = np.divide(m2w * resid, e, out=np.zeros_like(e), where=e > 0.0)
    grad = np.add.reduce(coef.T * diff, axis=1)
    # squared into the (N, 2) order x_0, y_0, x_1, ... before the sum, the
    # direct evaluation's reduction order (module docstring)
    return grad, float(np.sqrt(np.add.reduce(np.square(grad.T, order="C"), axis=None)))


def chi_grad(
    coords: np.ndarray, D: np.ndarray, gamma_exp: float = -1.0, d_lim: float = 1.0
) -> tuple[float, np.ndarray, float]:
    """Weighted stress and its analytic gradient over all 2N coordinates.

    Only pairs with d_ij strictly below the cutoff contribute.  Pairs with
    d_ij = 0 are excluded when the weight d_ij^gamma is undefined
    (negative exponent), with a warning.  The settings are refused as
    ``EmbeddingConfig`` refuses them.
    """
    config = EmbeddingConfig(gamma_exp, d_lim)
    D = _validate_D(D)
    coords = np.asarray(coords, dtype=float)
    N = D.shape[0]
    if coords.shape != (N, 2):
        raise ValueError(f"coordinates must be shaped ({N}, 2)")
    w, m2w = _weights(D, config)
    chi2, diff, e, resid = _chi2(np.ascontiguousarray(coords.T), D, w)
    grad, gnorm = _gradient(diff, e, resid, m2w)
    return chi2, np.ascontiguousarray(grad.T), gnorm


def embed(
    D: np.ndarray,
    config: EmbeddingConfig = EmbeddingConfig(),
    rng: np.random.Generator | int | None = None,
) -> tuple[np.ndarray, float, float, str]:
    """Fit 2-D coordinates to a distance matrix by adaptive gradient descent.

    Starts from seeded random points in the unit square; a step is kept
    when it lowers chi^2 (and the step scale grows by 5 %), otherwise
    undone (and the scale shrinks by 5 %).  Stops when the per-coordinate
    gradient norm falls below 1e-10 ("converged"), the scale underflows
    1e-18 ("step underflow"), 5,000 consecutive steps fail ("stalled"),
    or after 100,000 steps ("step limit").  Returns (coords, chi2,
    gradient norm, termination reason).
    """
    D = _validate_D(D)
    N = D.shape[0]
    rng = np.random.default_rng(rng)
    # the descent runs on the C-ordered (2, N) transpose (see _chi2)
    coords = np.ascontiguousarray(rng.random((N, 2)).T)
    lamb = _LAMB
    w, m2w = _weights(D, config)
    chi2, diff, e, resid = _chi2(coords, D, w)
    grad, gnorm = _gradient(diff, e, resid, m2w)
    stalled = steps = 0
    while True:
        if gnorm / (2 * N) < _EPS:
            reason = "converged"
            break
        if lamb < _LAMB_FLOOR:
            reason = "step underflow"
            break
        if stalled >= _STALL_LIMIT:
            reason = "stalled"
            break
        if steps >= _STEP_LIMIT:
            reason = "step limit"
            break
        steps += 1
        trial = coords - lamb * grad
        # a step too small to change any coordinate leaves chi2 as it is,
        # which is not below itself: reject it without pricing it
        if trial.tobytes() != coords.tobytes():
            t_chi2, diff, e, resid = _chi2(trial, D, w)
            if t_chi2 < chi2:
                coords, chi2 = trial, t_chi2
                grad, gnorm = _gradient(diff, e, resid, m2w)
                lamb *= 1.0 + _ADJ
                stalled = 0
                continue
        lamb *= 1.0 - _ADJ
        stalled += 1
    return np.ascontiguousarray(coords.T), chi2, gnorm, reason


def peak_walk(
    values: np.ndarray, D: np.ndarray, top: int
) -> list[tuple[float, float]]:
    """Cumulative distance walked through the ``top`` best entries.

    Values must be finite (the first that is not is named in the
    refusal), and are normalized to [0, 1]; entries are
    visited in descending value order (ties by index) and the distance
    between consecutive entries accumulates.  Returns (cumulative
    distance, height) pairs.
    """
    D = _validate_D(D)
    values = np.asarray(values, dtype=float)
    N = D.shape[0]
    if values.shape != (N,):
        raise ValueError("one value per distance-matrix row required")
    bad = values[~np.isfinite(values)]
    if bad.size:
        raise ValueError(f"value {float(bad[0])!r} is not finite")
    if not (1 <= top <= N):
        raise ValueError(f"top must be in [1, {N}]")
    lo, hi = float(values.min()), float(values.max())
    if hi == lo:
        raise ValueError("constant values cannot be normalized")
    heights = (values - lo) / (hi - lo)
    order = sorted(range(N), key=lambda i: (-values[i], i))[:top]
    out = [(0.0, float(heights[order[0]]))]
    cum = 0.0
    for prev, cur in zip(order, order[1:]):
        cum += float(D[prev, cur])
        out.append((cum, float(heights[cur])))
    return out


def load_distance_matrix(path) -> np.ndarray:
    """Read a matrix file: N on the first line, then N whitespace-split rows."""
    with open(path) as fh:
        tokens = fh.read().split()
    if not tokens:
        raise ValueError(f"{path}: empty matrix file")
    size = tokens[0]
    if not size.isdecimal():
        raise ValueError(f"{path}: size must be a positive integer, got {size!r}")
    N = int(size)
    if N == 0:
        raise ValueError(f"{path}: size {size!r}: distance matrix must not be empty")
    if len(tokens) != 1 + N * N:
        raise ValueError(f"{path}: expected {N * N} entries after the size, got {len(tokens) - 1}")
    entries = []
    for tok in tokens[1:]:
        try:
            entries.append(float(tok))
        except ValueError:
            raise ValueError(f"{path}: matrix entry {tok!r} is not a number") from None
    try:
        return _validate_D(np.array(entries).reshape(N, N))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_distance_matrix(D: np.ndarray, path) -> None:
    """Write D in the format ``load_distance_matrix`` reads, every entry as
    its shortest round-trip repr, so loading gives back the same bits."""
    D = _validate_D(D)
    with open(path, "w") as fh:
        fh.write(f"{D.shape[0]}\n")
        for row in D.tolist():
            fh.write(" ".join(map(repr, row)) + "\n")
