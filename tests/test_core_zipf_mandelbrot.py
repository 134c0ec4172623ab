"""Unit tests for repro.core.zipf_mandelbrot."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.zipf_mandelbrot import (
    ZipfMandelbrotModel,
    zm_bin_masses,
    zm_cumulative,
    zm_differential_cumulative,
    zm_probability,
    zm_unnormalized,
    zm_unnormalized_gradient_delta,
)


class TestUnnormalized:
    def test_formula(self):
        assert zm_unnormalized(4, 2.0, 0.5) == pytest.approx((4 + 0.5) ** -2.0)

    def test_vectorised(self):
        d = np.array([1, 2, 4, 8])
        out = zm_unnormalized(d, 1.5, -0.25)
        np.testing.assert_allclose(out, (d - 0.25) ** -1.5)

    def test_monotone_decreasing_in_d(self):
        d = np.arange(1, 100)
        out = zm_unnormalized(d, 2.0, -0.5)
        assert np.all(np.diff(out) < 0)

    def test_rejects_nonpositive_shifted_degree(self):
        with pytest.raises(ValueError):
            zm_unnormalized(1, 2.0, -1.0)

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            zm_unnormalized(1, 0.0, 0.0)

    def test_scalar_return_type(self):
        assert isinstance(zm_unnormalized(3, 2.0, 0.1), float)


class TestGradient:
    def test_matches_paper_identity(self):
        # ∂δ ρ(d; α, δ) = -α ρ(d; α+1, δ)
        d = np.array([1, 3, 10, 50])
        grad = zm_unnormalized_gradient_delta(d, 2.0, 0.3)
        np.testing.assert_allclose(grad, -2.0 * zm_unnormalized(d, 3.0, 0.3))

    def test_matches_finite_difference(self):
        eps = 1e-6
        d = 5
        numeric = (zm_unnormalized(d, 2.0, 0.2 + eps) - zm_unnormalized(d, 2.0, 0.2 - eps)) / (2 * eps)
        assert zm_unnormalized_gradient_delta(d, 2.0, 0.2) == pytest.approx(numeric, rel=1e-5)

    def test_negative_everywhere(self):
        d = np.arange(1, 20)
        assert np.all(zm_unnormalized_gradient_delta(d, 2.5, -0.5) < 0)


class TestProbability:
    def test_sums_to_one(self):
        degrees = np.arange(1, 5001, dtype=float)
        p = zm_probability(degrees, 2.0, -0.5)
        assert p.sum() == pytest.approx(1.0)

    def test_zero_total_mass_impossible(self):
        degrees = np.arange(1, 100, dtype=float)
        p = zm_probability(degrees, 2.0, 5.0)
        assert np.all(p > 0)

    def test_cumulative_endpoints(self):
        cdf = zm_cumulative(1000, 2.0, -0.5)
        assert cdf[-1] == pytest.approx(1.0)
        assert cdf[0] == pytest.approx(zm_probability(np.arange(1, 1001, dtype=float), 2.0, -0.5)[0])


class TestDifferentialCumulative:
    def test_conserves_probability(self):
        pooled = zm_differential_cumulative(10_000, 2.0, -0.5)
        assert pooled.probability_sum() == pytest.approx(1.0)

    def test_first_bin_is_degree_one_probability(self):
        dmax = 4096
        pooled = zm_differential_cumulative(dmax, 2.0, -0.5)
        p1 = zm_probability(np.arange(1, dmax + 1, dtype=float), 2.0, -0.5)[0]
        assert pooled.values[0] == pytest.approx(p1)

    def test_bin_edges_are_powers_of_two(self):
        pooled = zm_differential_cumulative(1000, 2.0, 0.0)
        np.testing.assert_array_equal(pooled.bin_edges, 2 ** np.arange(pooled.n_bins))

    def test_matches_manual_cumulative_differences(self):
        dmax = 512
        pooled = zm_differential_cumulative(dmax, 1.8, 0.2)
        cdf = zm_cumulative(dmax, 1.8, 0.2)
        # D(d_i) = P(2^i) - P(2^(i-1)) for i >= 1
        for i in range(1, pooled.n_bins):
            expected = cdf[2**i - 1] - cdf[2 ** (i - 1) - 1]
            assert pooled.values[i] == pytest.approx(expected, abs=1e-12)

    def test_tail_slope_reflects_one_minus_alpha(self):
        # pooled log-log slope should be ~ (1 - alpha) for large bins
        alpha = 2.2
        pooled = zm_differential_cumulative(2**20, alpha, 0.0)
        x = np.log(pooled.bin_edges[8:18].astype(float))
        y = np.log(pooled.values[8:18])
        slope = np.polyfit(x, y, 1)[0]
        assert slope == pytest.approx(1 - alpha, abs=0.05)


_ALPHAS = st.floats(min_value=0.05, max_value=10.0, exclude_min=True)
_DELTAS = st.floats(min_value=-1.0 + 1e-9, max_value=10.0, exclude_min=True)
_DMAXES = st.integers(min_value=1, max_value=2**21)


class TestBinMasses:
    """The closed-form bin masses against the dense per-degree sum."""

    @given(alpha=_ALPHAS, delta=_DELTAS, dmax=_DMAXES)
    @example(alpha=1.0, delta=0.0, dmax=1)
    @example(alpha=1.0, delta=-0.5, dmax=2)
    @example(alpha=1.0, delta=3.0, dmax=3)
    @example(alpha=1.0, delta=-0.999, dmax=256)
    @example(alpha=1.0, delta=10.0, dmax=257)
    @example(alpha=1.0 - 1e-6, delta=0.0, dmax=2**12)
    @example(alpha=1.0 + 1e-6, delta=0.0, dmax=2**12 + 1)
    @example(alpha=9.99, delta=-1.0 + 1e-9, dmax=2**20 + 1)
    @example(alpha=2.0, delta=10.0, dmax=2**20 + 1)  # one-degree last bin far from the origin
    @example(alpha=0.06, delta=10.0, dmax=2**21)
    def test_matches_dense_sum(self, dense_zm_curve, alpha, delta, dmax):
        masses = zm_bin_masses(dmax, [alpha], delta)
        oracle = dense_zm_curve(dmax, alpha, delta).values
        assert masses.shape == (1, oracle.size)
        nonempty = oracle > 0
        np.testing.assert_allclose(masses[0][nonempty], oracle[nonempty], rtol=1e-12, atol=0)
        # the exact sum of the row's floats
        assert abs(math.fsum(masses[0]) - 1.0) <= 1e-15

    @given(alphas=st.lists(_ALPHAS, min_size=1, max_size=12), delta=_DELTAS, dmax=_DMAXES)
    @example(alphas=[1.0, 2.0, 0.5], delta=0.0, dmax=257)
    def test_batched_rows_equal_single_calls(self, alphas, delta, dmax):
        batch = zm_bin_masses(dmax, alphas, delta)
        assert batch.shape[0] == len(alphas)
        for row, alpha in zip(batch, alphas):
            assert row.tobytes() == zm_bin_masses(dmax, [alpha], delta)[0].tobytes()

    def test_differential_cumulative_is_row_zero(self):
        pooled = zm_differential_cumulative(100_392, 1.75, 0.5)
        assert pooled.values.tobytes() == zm_bin_masses(100_392, [1.75], 0.5)[0].tobytes()

    @pytest.mark.parametrize("alpha,delta", [(0.0, 0.0), (-1.0, 0.0), (np.inf, 0.0), (np.nan, 0.0), (2.0, -1.0), (2.0, -1.5)])
    def test_rejects_inadmissible_parameters(self, alpha, delta):
        with pytest.raises(ValueError):
            zm_bin_masses(100, [alpha], delta)


class TestModelObject:
    def test_distribution_matches_probability(self):
        model = ZipfMandelbrotModel(alpha=2.0, delta=-0.3, dmax=500)
        np.testing.assert_allclose(model.probability(), model.distribution().probabilities(), rtol=1e-12)

    def test_degree_one_probability(self):
        model = ZipfMandelbrotModel(alpha=2.0, delta=-0.3, dmax=500)
        assert model.degree_one_probability() == pytest.approx(model.probability()[0])

    def test_invalid_delta_rejected(self):
        with pytest.raises(ValueError):
            ZipfMandelbrotModel(alpha=2.0, delta=-1.5, dmax=100)

    def test_invalid_dmax_rejected(self):
        with pytest.raises((ValueError, TypeError)):
            ZipfMandelbrotModel(alpha=2.0, delta=0.0, dmax=0)
