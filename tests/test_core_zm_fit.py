"""Unit tests for repro.core.zm_fit (Zipf–Mandelbrot parameter fitting)."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import optimize

from repro.analysis.comparison import pooled_relative_error
from repro.analysis.histogram import degree_histogram
from repro.analysis.pooling import pool_differential_cumulative, PooledDistribution
from repro.core import zm_fit
from repro.core.distributions import ZipfMandelbrotDistribution
from repro.core.zipf_mandelbrot import zm_differential_cumulative
from repro.core.zm_fit import ZMFitResult, fit_zipf_mandelbrot, fit_zipf_mandelbrot_histogram
from repro.streaming.pipeline import analyze_trace


def _pooled_from_model(alpha: float, delta: float, dmax: int) -> PooledDistribution:
    return zm_differential_cumulative(dmax, alpha, delta)


class TestFitOnAnalyticCurves:
    """Fitting the model to its own (noise-free) pooled curve must recover (α, δ)."""

    @pytest.mark.parametrize(
        "alpha,delta",
        [(2.0, -0.5), (1.7, -0.8), (2.3, 0.6), (1.5, 0.0), (2.8, -0.3)],
    )
    def test_recovers_parameters(self, alpha, delta):
        dmax = 20_000
        pooled = _pooled_from_model(alpha, delta, dmax)
        fit = fit_zipf_mandelbrot(pooled, dmax)
        assert fit.alpha == pytest.approx(alpha, abs=0.05)
        assert fit.delta == pytest.approx(delta, abs=0.1)

    def test_fit_error_is_tiny_on_exact_curve(self):
        pooled = _pooled_from_model(2.0, -0.5, 10_000)
        fit = fit_zipf_mandelbrot(pooled, 10_000)
        assert fit.error < 1e-4

    def test_result_model_roundtrip(self):
        pooled = _pooled_from_model(2.0, -0.5, 5_000)
        fit = fit_zipf_mandelbrot(pooled, 5_000)
        model = fit.model()
        assert model.alpha == fit.alpha
        assert model.dmax == 5_000


class TestFitOnSampledData:
    def test_recovers_parameters_from_large_sample(self, zm_sample_histogram):
        # histogram fixture: 500k draws from ZM(alpha=2.0, delta=-0.5)
        fit = fit_zipf_mandelbrot_histogram(zm_sample_histogram)
        assert fit.alpha == pytest.approx(2.0, abs=0.15)
        assert fit.delta == pytest.approx(-0.5, abs=0.2)

    def test_sigma_weighting_runs(self, zm_sample_histogram):
        pooled = pool_differential_cumulative(zm_sample_histogram)
        sigma = np.full(pooled.n_bins, 0.01)
        weighted = PooledDistribution(
            bin_edges=pooled.bin_edges, values=pooled.values, sigma=sigma, total=pooled.total
        )
        fit = fit_zipf_mandelbrot(weighted, zm_sample_histogram.dmax, use_sigma_weights=True)
        assert np.isfinite(fit.error)

    def test_alpha_ordering_preserved(self):
        """A heavier-tailed sample must fit a smaller alpha."""
        rng = np.random.default_rng(1)
        heavy = degree_histogram(ZipfMandelbrotDistribution(1.6, -0.5, 20_000).sample(200_000, rng=rng))
        light = degree_histogram(ZipfMandelbrotDistribution(2.6, -0.5, 20_000).sample(200_000, rng=rng))
        fit_heavy = fit_zipf_mandelbrot_histogram(heavy)
        fit_light = fit_zipf_mandelbrot_histogram(light)
        assert fit_heavy.alpha < fit_light.alpha


class TestFitValidation:
    def test_empty_histogram_rejected(self):
        empty = degree_histogram([])
        with pytest.raises(ValueError):
            fit_zipf_mandelbrot_histogram(empty)

    def test_empty_grid_rejected(self):
        pooled = _pooled_from_model(2.0, 0.0, 100)
        with pytest.raises(ValueError):
            fit_zipf_mandelbrot(pooled, 100, alpha_grid=[])

    def test_refine_false_still_reasonable(self):
        pooled = _pooled_from_model(2.0, -0.5, 5000)
        fit = fit_zipf_mandelbrot(pooled, 5000, refine=False)
        assert fit.alpha == pytest.approx(2.0, abs=0.2)
        assert fit.converged is False

    def test_as_row_keys(self):
        pooled = _pooled_from_model(2.0, -0.5, 1000)
        fit = fit_zipf_mandelbrot(pooled, 1000)
        row = fit.as_row()
        assert {"alpha", "delta", "dmax", "log_mse", "bins", "converged"} <= set(row)

    def test_result_is_frozen(self):
        pooled = _pooled_from_model(2.0, -0.5, 1000)
        fit = fit_zipf_mandelbrot(pooled, 1000)
        with pytest.raises(AttributeError):
            fit.alpha = 3.0  # type: ignore[misc]

    def test_all_zero_observation_rejected(self):
        empty = PooledDistribution(bin_edges=2 ** np.arange(5), values=np.zeros(5))
        with pytest.raises(ValueError, match="no positive bin"):
            fit_zipf_mandelbrot(empty, 16)

    def test_dmax_below_last_positive_bin_rejected(self):
        pooled = _pooled_from_model(2.0, -0.5, 2**13)  # 14 bins, the last is (2^12, 2^13]
        with pytest.raises(ValueError, match="below degree 4097"):
            fit_zipf_mandelbrot(pooled, 1)
        with pytest.raises(ValueError, match="below degree 4097"):
            fit_zipf_mandelbrot(pooled, 4096)
        assert fit_zipf_mandelbrot(pooled, 4097, refine=False).n_bins == 14

    def test_non_binary_log_edges_rejected(self):
        pooled = PooledDistribution(bin_edges=[1, 3, 4], values=[0.5, 0.25, 0.25])
        with pytest.raises(ValueError, match="binary-log"):
            fit_zipf_mandelbrot(pooled, 4)

    def test_custom_grids_used(self):
        pooled = _pooled_from_model(2.0, -0.5, 2000)
        fit = fit_zipf_mandelbrot(
            pooled, 2000, alpha_grid=[1.9, 2.0, 2.1], delta_grid=[-0.6, -0.5, -0.4], refine=False
        )
        assert fit.alpha in (1.9, 2.0, 2.1)
        assert fit.delta in (-0.6, -0.5, -0.4)


def _reference_fit(observed, dmax, curve, alpha_grid=None, delta_grid=None, refine=True):
    """The fit as an α-major loop of single-point objective calls over *curve*.

    *curve* is ``(dmax, α, δ) -> PooledDistribution``; the grids and the
    Nelder–Mead options are the library's.
    """

    def objective(params):
        alpha, delta = float(params[0]), float(params[1])
        if alpha <= 0.05 or alpha > 10.0 or 1.0 + delta <= 1e-9:
            return 1e6
        return pooled_relative_error(observed, curve(dmax, alpha, delta), log_space=True)

    alphas = zm_fit._DEFAULT_ALPHA_GRID if alpha_grid is None else alpha_grid
    deltas = zm_fit._DEFAULT_DELTA_GRID if delta_grid is None else delta_grid
    best_err, best_alpha, best_delta = np.inf, None, None
    for alpha in alphas:
        for delta in deltas:
            err = objective(np.array([alpha, delta]))
            if err < best_err:
                best_err, best_alpha, best_delta = err, float(alpha), float(delta)
    converged = False
    if refine:
        result = optimize.minimize(
            objective,
            x0=np.array([best_alpha, best_delta]),
            method="Nelder-Mead",
            options={"xatol": 1e-4, "fatol": 1e-8, "maxiter": 2000},
        )
        if result.fun <= best_err:
            best_err = float(result.fun)
            best_alpha, best_delta = float(result.x[0]), float(result.x[1])
            converged = bool(result.success)
    return best_alpha, best_delta, best_err, converged


def _assert_same_fit(fit, reference):
    alpha, delta, error, converged = reference
    assert fit.alpha == pytest.approx(alpha, abs=1e-9)
    assert fit.delta == pytest.approx(delta, abs=1e-9)
    assert fit.error == pytest.approx(error, rel=1e-9)
    assert fit.converged == converged


class TestFitMatchesDenseReference:
    """The batched closed-form fit picks what the dense single-point loop picks."""

    def test_zm_sample(self, zm_sample_histogram, dense_zm_curve):
        pooled = pool_differential_cumulative(zm_sample_histogram)
        dmax = zm_sample_histogram.dmax
        _assert_same_fit(fit_zipf_mandelbrot(pooled, dmax), _reference_fit(pooled, dmax, dense_zm_curve))

    def test_every_quantity_of_a_trace(self, small_trace, dense_zm_curve):
        analysis = analyze_trace(small_trace, 40_000)
        for quantity in analysis.quantities:
            pooled, dmax = analysis.pooled(quantity), analysis.dmax(quantity)
            reference = _reference_fit(pooled, dmax, dense_zm_curve)
            _assert_same_fit(analysis.fit_zipf_mandelbrot(quantity), reference)

    def test_tied_grid_points_pick_the_alpha_major_first(self, monkeypatch):
        """Exact ties, a NaN and an infinite error resolve as the strict-`<` loop does."""
        observed = PooledDistribution(bin_edges=[1, 2], values=[0.5, 0.5])
        alphas, deltas = [1.5, 2.0, 2.5], [-0.5, 0.0, 0.5]
        # (α, δ) -> bin-0 mass: the minimum (mass 0.5) is tied at (1.5, 0.5)
        # and (2.0, -0.5); (1.5, -0.5) errs NaN and (1.5, 0.0) errs inf
        head = {(1.5, -0.5): np.nan, (1.5, 0.0): np.inf, (1.5, 0.5): 0.5, (2.0, -0.5): 0.5}

        def fake_masses(dmax, alphas, delta):
            rows = [head.get((float(a), float(delta)), 0.25) for a in np.atleast_1d(alphas)]
            return np.array([[m, 1.0 - m] for m in rows])

        def fake_curve(dmax, alpha, delta):
            return PooledDistribution(bin_edges=[1, 2], values=fake_masses(dmax, [alpha], delta)[0])

        monkeypatch.setattr(zm_fit, "zm_bin_masses", fake_masses)
        with np.errstate(invalid="ignore"):
            fit = fit_zipf_mandelbrot(observed, 2, alpha_grid=alphas, delta_grid=deltas, refine=False)
            reference = _reference_fit(observed, 2, fake_curve, alphas, deltas, refine=False)
        assert (fit.alpha, fit.delta) == reference[:2] == (1.5, 0.5)
        assert fit.error == reference[2] == 0.0
