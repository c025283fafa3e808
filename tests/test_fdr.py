import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from tlcausal.errors import FitError, UsageError
from tlcausal.fdr import (MixtureDensity, NullModel, classify, fit_mixture,
                          fit_null, local_fdr, plot_rows, z_scores)


class TestZScores:
    def test_unit_spacing(self):
        zs = z_scores([1.0, 2.0, 3.0])
        assert np.allclose(zs.values, [-1.0, 0.0, 1.0])

    def test_zero_variance(self):
        with pytest.raises(FitError, match="zero variance"):
            z_scores([5.0, 5.0, 5.0])

    def test_too_few(self):
        with pytest.raises(FitError, match="at least 2"):
            z_scores([1.0])

    def test_documented_arithmetic(self):
        zs = z_scores([0.0, 0.0, 4.0])
        assert np.allclose(zs.values, [-0.5774, -0.5774, 1.1547], atol=1e-4)

    def test_standardization_invariant(self):
        rng = np.random.default_rng(42)
        zs = z_scores(rng.normal(3.0, 2.5, size=400))
        assert abs(zs.values.mean()) < 1e-9
        assert abs(zs.values.std(ddof=1) - 1.0) < 1e-9


class TestFitMixture:
    def test_standard_normal_density_at_zero(self):
        rng = np.random.default_rng(1234)
        zs = z_scores(rng.standard_normal(5000))
        density = fit_mixture(zs)
        assert density.pdf(0.0) == pytest.approx(0.3989, abs=0.05)

    def test_normalized(self):
        rng = np.random.default_rng(7)
        zs = z_scores(rng.standard_normal(2000))
        density = fit_mixture(zs)
        grid = np.linspace(density.edges[0], density.edges[-1], 4000)
        integral = np.trapezoid(density.pdf(grid), grid)
        assert integral == pytest.approx(1.0, abs=0.01)

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(8)
        zs = z_scores(rng.standard_normal(500))
        density = fit_mixture(zs)
        grid = np.linspace(density.edges[0], density.edges[-1], 1000)
        assert (density.pdf(grid) >= 0).all()

    def test_insufficient_data(self):
        with pytest.raises(FitError, match="insufficient data"):
            fit_mixture(z_scores(np.arange(20.0)))

    def test_parameter_floors(self):
        zs = z_scores(np.random.default_rng(0).standard_normal(100))
        with pytest.raises(FitError):
            fit_mixture(zs, bins=5)
        with pytest.raises(FitError):
            fit_mixture(zs, degree=1)


class TestFitNull:
    def test_standard_normal_recovery(self):
        rng = np.random.default_rng(1234)
        zs = z_scores(rng.standard_normal(5000))
        null = fit_null(fit_mixture(zs))
        assert -0.1 <= null.delta0 <= 0.1
        assert 0.9 <= null.sigma0 <= 1.1
        assert null.p0 is None

    def test_p0_estimate(self):
        rng = np.random.default_rng(99)
        zs = z_scores(rng.standard_normal(3000))
        null = fit_null(fit_mixture(zs), estimate_p0=True)
        assert 0.8 <= null.p0 <= 1.0

    def test_shifted_null_recovered(self):
        rng = np.random.default_rng(5)
        raw = np.concatenate([rng.normal(-0.5, 0.8, 4500),
                              rng.normal(4.0, 1.0, 500)])
        # fit on the raw scale (no standardization) to read off the center
        zs = z_scores(raw)
        null = fit_null(fit_mixture(zs))
        # the null bulk sits left of zero after standardization
        assert null.delta0 < 0
        assert null.sigma0 < 1.0


_Z = st.floats(-1e3, 1e3) | st.sampled_from([np.inf, -np.inf])


@settings(max_examples=300, deadline=None)
@given(z=_Z | st.lists(_Z, max_size=20).map(np.array),
       delta0=st.floats(-3.0, 3.0),
       sigma0=st.floats(0.05, 5.0, exclude_min=True),
       p0=st.none() | st.floats(0.0, 1.0, exclude_min=True))
def test_null_pdf_matches_scipy_bit_for_bit(z, delta0, sigma0, p0):
    null = NullModel(delta0, sigma0, p0)
    np.testing.assert_array_equal(null.pdf(z), oracles.null_pdf(null, z),
                                  strict=True)


def test_package_import_loads_no_scipy_stats():
    # no scipy module at all: scipy.sparse loads only when a chain is
    # built, loaded or constructed
    src = Path(__import__("tlcausal").__file__).parents[1]
    code = ("import sys, tlcausal; print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], cwd=src, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["[]"]


class TestLocalFdr:
    def test_null_equals_mixture_caps_at_one(self):
        rng = np.random.default_rng(21)
        zs = z_scores(rng.standard_normal(2000))
        density = fit_mixture(zs)
        null = fit_null(density)
        grid = np.linspace(-1, 1, 50)
        values = local_fdr(density, null, grid)
        assert (values <= 1.0).all() and (values >= 0.0).all()

    def test_far_tail_under_narrow_null(self):
        rng = np.random.default_rng(31)
        raw = np.concatenate([rng.normal(0.0, 1.0, 4750),
                              rng.normal(8.0, 0.5, 250)])
        zs = z_scores(raw)
        density = fit_mixture(zs)
        null = NullModel(delta0=-0.14, sigma0=0.39)
        z_at_8 = (8.0 - zs.source_mean) / zs.source_sd
        # raw 8.0 lies past the binned z range, where the fitted marginal
        # holds its value at the upper edge instead of extrapolating
        assert density.pdf(8.0) == density.pdf(density.edges[-1])
        assert local_fdr(density, null, 8.0) < 1e-6
        assert local_fdr(density, null, z_at_8) < 1e-6

    def test_underflow_takes_log_ratio(self):
        rng = np.random.default_rng(3)
        zs = z_scores(rng.standard_normal(1000))
        density = fit_mixture(zs)
        null = fit_null(density)
        # past the histogram the density holds its edge value
        assert density.pdf(-1e6) == density.pdf(density.edges[0])
        for z in (-1e6, 1e6):
            fz = density.pdf(z)
            if fz == 0.0:
                log_f = density.log_intensity(z) - density.log_norm
                log_ratio = null.log_pdf(z) - log_f
                want = 1.0 if log_ratio >= 0 else np.exp(log_ratio)
            else:
                want = min(1.0, null.pdf(z) / fz)
            assert local_fdr(density, null, z) == want

    def test_bounded_past_the_histogram(self):
        # the seed-3 fit spans about [-4.0, 3.9]; extrapolating its
        # polynomial gave pdf(10) = 1e304 and NaN at +-inf
        rng = np.random.default_rng(3)
        density = fit_mixture(z_scores(rng.standard_normal(1000)))
        null = fit_null(density)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            values = local_fdr(density, null,
                               np.array([1e6, np.inf, -np.inf]))
            assert np.isfinite(values).all()
            assert ((values >= 0.0) & (values <= 1.0)).all()
            for z in (1e6, np.inf, -np.inf):
                assert 0.0 <= local_fdr(density, null, z) <= 1.0

    @pytest.mark.parametrize("p0", [None, 0.25])
    def test_underflow_matches_the_ratio_it_replaces(self, p0):
        # f is exactly the standard normal; so is f0, scaled by p0.  Past
        # z = 38.6 both underflow, yet their ratio is still p0 (or 1).
        density = MixtureDensity(np.array([-60.0, 60.0]), np.zeros(1),
                                 np.zeros(1),
                                 np.array([0.0, 0.0, -0.5]), 0.0, 1.0,
                                 float(np.log(np.sqrt(2 * np.pi))), 0)
        null = NullModel(0.0, 1.0, p0)
        z = np.array([0.0, 3.0, -40.0, 40.0, -50.0])
        assert (density.pdf(z) == 0.0).tolist() == [False] * 2 + [True] * 3
        assert local_fdr(density, null, z) == pytest.approx(p0 or 1.0)
        assert local_fdr(density, null, 45.0) == pytest.approx(p0 or 1.0)

    def test_scalar_and_array_forms(self):
        rng = np.random.default_rng(12)
        zs = z_scores(rng.standard_normal(600))
        density = fit_mixture(zs)
        null = fit_null(density)
        single = local_fdr(density, null, 0.3)
        batch = local_fdr(density, null, np.array([0.3, 0.4]))
        assert isinstance(single, float)
        assert batch[0] == pytest.approx(single)


class TestClassify:
    def test_strict_threshold(self):
        mask = classify([0.0, 0.005, 0.5], 0.01)
        assert mask.dtype == bool
        assert np.flatnonzero(mask).tolist() == [0, 1]

    def test_empty(self):
        assert np.flatnonzero(classify([], 0.01)).tolist() == []

    def test_boundary_excluded(self):
        assert np.flatnonzero(classify([0.01], 0.01)).tolist() == []

    def test_threshold_validation(self):
        with pytest.raises(UsageError):
            classify([0.1], 0.0)


class TestSimulations:
    def test_pure_null(self):
        rng = np.random.default_rng(1234)
        zs = z_scores(rng.standard_normal(5000))
        density = fit_mixture(zs)
        null = fit_null(density)
        assert -0.1 <= null.delta0 <= 0.1
        assert 0.9 <= null.sigma0 <= 1.1
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fdrs = local_fdr(density, null, np.asarray(zs.values))
        flagged = np.flatnonzero(classify(fdrs, 0.01))
        assert len(flagged) <= 0.02 * 5000

    def test_spiked_separation(self):
        rng = np.random.default_rng(99)
        n, k = 5000, 250
        raw = np.concatenate([rng.standard_normal(n - k),
                              rng.standard_normal(k) + 4.0])
        zs = z_scores(raw)
        density = fit_mixture(zs)
        null = fit_null(density)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fdrs = local_fdr(density, null, np.asarray(zs.values))
        flagged = np.flatnonzero(classify(fdrs, 0.2))
        spiked_found = sum(1 for i in flagged if i >= n - k)
        null_found = len(flagged) - spiked_found
        assert spiked_found >= 0.8 * k
        assert null_found <= 0.05 * (n - k)

    def test_plot_rows_shape(self):
        rng = np.random.default_rng(77)
        zs = z_scores(rng.standard_normal(800))
        density = fit_mixture(zs)
        null = fit_null(density)
        rows = plot_rows(density, null)
        assert len(rows) == len(density.centers)
        assert sum(r[1] for r in rows) == 800


def test_cap_reaches_exactly_one():
    rng = np.random.default_rng(21)
    zs = z_scores(rng.standard_normal(2000))
    density = fit_mixture(zs)
    null = fit_null(density)
    grid = np.linspace(-1.5, 1.5, 200)
    values = local_fdr(density, null, grid)
    assert values.max() == 1.0  # the null exceeds the mixture somewhere
