"""Empirical-Bayes false discovery control over impact scores.

Scores become z-values by standardization.  The marginal density of the
z-values is estimated by histogramming and fitting a low-degree polynomial to
the log bin intensities under the Poisson likelihood (a smooth parametric
stand-in for a spline fit).  The null component is a normal ``N(delta0,
sigma0)`` recovered by central matching: a quadratic fit to the fitted log
density over the bins carrying the middle third of the probability mass
around the mode.  The local false discovery rate of a z-value is then
``f0(z) / f(z)``, capped at 1; ignoring the null prior makes it an upper
bound, and the optional ``p0`` estimate tightens it to a posterior.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import FitError, UsageError

__all__ = [
    "ZScores", "MixtureDensity", "NullModel",
    "z_scores", "fit_mixture", "fit_null", "local_fdr", "classify",
    "plot_rows",
]

MIN_SCORES_FOR_FIT = 50
MIN_BINS = 10
MIN_DEGREE = 2
DEFAULT_BINS = 90
DEFAULT_DEGREE = 7
DEFAULT_THRESHOLD = 0.01
PAD_FRACTION = 0.1
CENTRAL_MASS = 1.0 / 3.0
SQRT_2PI = np.sqrt(2 * np.pi)


@dataclass(frozen=True)
class ZScores:
    """Standardized scores with the source mean and sample sd (n-1)."""

    values: np.ndarray
    source_mean: float
    source_sd: float


def z_scores(eps: Sequence[float]) -> ZScores:
    """Standardize scores to mean 0 and unit sample standard deviation."""
    arr = np.asarray(eps, dtype=float)
    if arr.size < 2:
        raise FitError("need at least 2 scores to standardize")
    if not np.isfinite(arr).all():
        raise FitError("scores must be finite")
    mean = float(arr.mean())
    sd = float(arr.std(ddof=1))
    if sd == 0.0:
        raise FitError("scores have zero variance")
    return ZScores((arr - mean) / sd, mean, sd)


@dataclass(frozen=True)
class MixtureDensity:
    """Histogram plus smooth fitted marginal density.

    ``pdf`` evaluates ``exp(poly((z - mid) / half) - log_norm)``; the
    normalizer makes the density integrate to 1 over the binned range.
    Outside that range the polynomial is not extrapolated: ``z`` is
    clipped to the outer edges.
    """

    edges: np.ndarray
    centers: np.ndarray
    counts: np.ndarray
    coef: np.ndarray
    mid: float
    half: float
    log_norm: float
    n_scores: int

    def log_intensity(self, z):
        z = np.clip(np.asarray(z, dtype=float), self.edges[0], self.edges[-1])
        return np.polynomial.polynomial.polyval((z - self.mid) / self.half,
                                                self.coef)

    def pdf(self, z):
        # the upper clamp keeps exp finite; genuine underflow to 0 is kept
        # and surfaces as an fdr note
        out = np.exp(np.minimum(self.log_intensity(z) - self.log_norm, 700.0))
        return float(out) if np.isscalar(z) else out


def _poisson_polyfit(design, counts):
    """Newton iterations with step halving for the Poisson log-likelihood."""

    def loglik(beta):
        eta = np.clip(design @ beta, -700.0, 700.0)
        return float(counts @ eta - np.exp(eta).sum())

    beta, *_ = np.linalg.lstsq(design, np.log(counts + 0.5), rcond=None)
    ll = loglik(beta)
    for _ in range(200):
        eta = np.clip(design @ beta, -700.0, 700.0)
        mu = np.exp(eta)
        grad = design.T @ (counts - mu)
        hess = design.T @ (design * mu[:, None])
        hess[np.diag_indices_from(hess)] += 1e-9
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError as exc:
            raise FitError("density fit diverged (singular system)") from exc
        scale = 1.0
        for _ in range(40):
            cand = beta + scale * step
            ll_cand = loglik(cand)
            if ll_cand >= ll - 1e-12:
                break
            scale /= 2.0
        else:
            raise FitError("density fit diverged (no ascent step)")
        improved = ll_cand - ll
        beta, ll = cand, ll_cand
        if abs(improved) < 1e-10 * (1.0 + abs(ll)):
            if not np.isfinite(beta).all():
                raise FitError("density fit diverged")
            return beta
    raise FitError("density fit did not converge")


def fit_mixture(z: ZScores, bins: int = DEFAULT_BINS,
                degree: int = DEFAULT_DEGREE) -> MixtureDensity:
    """Fit the marginal z-value density.

    Histograms over the observed range padded by 10% each side, fits the log
    bin intensities with a degree-``degree`` polynomial by Poisson maximum
    likelihood, and normalizes to a density.  Refuses fewer than
    ``MIN_SCORES_FOR_FIT`` scores.
    """
    values = np.asarray(z.values, dtype=float)
    if values.size < MIN_SCORES_FOR_FIT:
        raise FitError(f"insufficient data for density fit "
                       f"({values.size} < {MIN_SCORES_FOR_FIT} scores)")
    if bins < MIN_BINS:
        raise FitError(f"need at least {MIN_BINS} histogram bins")
    if degree < MIN_DEGREE:
        raise FitError(f"polynomial degree must be >= {MIN_DEGREE}")
    lo, hi = float(values.min()), float(values.max())
    pad = PAD_FRACTION * (hi - lo)
    if pad <= 0:
        raise FitError("z-values are all identical")
    lo, hi = lo - pad, hi + pad
    edges = np.linspace(lo, hi, bins + 1)
    counts = np.histogram(values, edges)[0].astype(float)
    centers = 0.5 * (edges[:-1] + edges[1:])
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    t = (centers - mid) / half
    design = np.vander(t, degree + 1, increasing=True)
    coef = _poisson_polyfit(design, counts)
    width = edges[1] - edges[0]
    intensity = np.exp(np.polynomial.polynomial.polyval(t, coef))
    log_norm = float(np.log(intensity.sum() * width))
    return MixtureDensity(edges, centers, counts, coef, mid, half,
                          log_norm, int(values.size))


@dataclass(frozen=True)
class NullModel:
    """Empirical null ``N(delta0, sigma0)`` with an optional null proportion."""

    delta0: float
    sigma0: float
    p0: Optional[float] = None
    window: tuple = ()

    def _x(self, z):
        # scipy.stats.norm.pdf's steps, in its order and on arrays: numpy's
        # scalar power and exp can round differently from its array loops
        z = np.atleast_1d(np.asarray(z, dtype=float))
        return (z - self.delta0) / self.sigma0

    def pdf(self, z):
        base = np.exp(-self._x(z)**2 / 2.0) / SQRT_2PI / self.sigma0
        base = base.reshape(np.shape(z))[()]
        return base if self.p0 is None else self.p0 * base

    def log_pdf(self, z):
        base = -self._x(z)**2 / 2.0 - np.log(SQRT_2PI) - np.log(self.sigma0)
        base = base.reshape(np.shape(z))[()]
        return base if self.p0 is None else np.log(self.p0) + base


def fit_null(density: MixtureDensity, estimate_p0: bool = False) -> NullModel:
    """Central matching: quadratic fit to the fitted log density over the
    central window, solved for the null mean and scale.

    The window is the contiguous bin run around the mode carrying the middle
    third of the probability mass.  A non-concave central fit is an error.
    """
    centers = density.centers
    fvals = density.pdf(centers)
    mass = fvals / fvals.sum()
    mode = int(np.argmax(fvals))
    left = right = mode
    total = mass[mode]
    while total < CENTRAL_MASS or (right - left) < 2:
        can_left = left > 0
        can_right = right < len(centers) - 1
        if not can_left and not can_right:
            break
        if can_left and (not can_right or fvals[left - 1] >= fvals[right + 1]):
            left -= 1
            total += mass[left]
        else:
            right += 1
            total += mass[right]
    window = slice(left, right + 1)
    zwin = centers[window]
    logf = np.log(fvals[window])
    c2, c1, _ = np.polyfit(zwin, logf, 2)
    if not c2 < 0:
        raise FitError(
            f"central fit is not concave over window "
            f"[{zwin[0]:.3f}, {zwin[-1]:.3f}] (quadratic coefficient {c2:.3e})")
    sigma0 = float(np.sqrt(-1.0 / (2.0 * c2)))
    delta0 = float(-c1 / (2.0 * c2))
    p0 = None
    if estimate_p0:
        p0 = float(min(1.0, density.pdf(delta0) * SQRT_2PI * sigma0))
    return NullModel(delta0, sigma0, p0, (float(zwin[0]), float(zwin[-1])))


def local_fdr(density: MixtureDensity, null: NullModel, z):
    """``min(1, f0(z) / f(z))``: the chance a score at ``z`` is null.

    Scalar in, scalar out (arrays broadcast).  Where the fitted marginal
    underflows to zero the ratio is taken in logs, ``exp(log f0 - log f)``;
    where both logs are infinite it is undefined and reads as 1.
    """
    scalar = np.isscalar(z)
    fz = np.atleast_1d(np.asarray(density.pdf(z), dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=float))
    out = np.empty_like(fz)
    zero = fz == 0.0
    out[~zero] = np.minimum(1.0, null.pdf(z[~zero]) / fz[~zero])
    log_f = density.log_intensity(z[zero]) - density.log_norm
    out[zero] = np.exp(np.fmin(0.0, null.log_pdf(z[zero]) - log_f))
    return float(out[0]) if scalar else out


def classify(fdrs: Sequence[float], threshold: float = DEFAULT_THRESHOLD):
    """The boolean mask of the fdr values strictly below the threshold."""
    if not 0.0 < threshold <= 1.0:
        raise UsageError("fdr threshold must lie in (0, 1]")
    return np.asarray(fdrs, dtype=float) < threshold


def plot_rows(density: MixtureDensity, null: Optional[NullModel]):
    """Per-bin rows (center, count, f(center), f0(center)) for plotting."""
    f0 = (null.pdf(density.centers) if null is not None
          else np.zeros_like(density.centers))
    fv = density.pdf(density.centers)
    return [(float(c), int(n), float(f), float(g))
            for c, n, f, g in zip(density.centers, density.counts, fv, f0)]
