"""The modified Zipf–Mandelbrot model (Section II-B).

The paper fits streaming degree data with a two-parameter modification of the
Zipf–Mandelbrot law in which ``d`` is a *measured network quantity* rather
than a rank:

.. math::

    ρ(d; α, δ) = \\frac{1}{(d + δ)^{α}}, \\qquad
    p(d; α, δ) = \\frac{ρ(d; α, δ)}{\\sum_{d=1}^{d_{max}} ρ(d; α, δ)}

with cumulative probability ``P(d_i; α, δ)`` and differential cumulative
probability ``D(d_i; α, δ) = P(d_i) − P(d_{i−1})`` over the binary-log bins
``d_i = 2^i``.  The exponent ``α`` dominates the behaviour at large ``d``;
the offset ``δ`` dominates small ``d`` and in particular ``d = 1``.

This module provides those functions plus the analytic gradient
``∂_δ ρ = −α·ρ(d; α+1, δ)`` quoted in the paper, in a vectorised form used
by the fitting routines of :mod:`repro.core.zm_fit`.  The pooled curve
``D(d_i)`` is computed in closed form by :func:`zm_bin_masses`, at a cost of
O(log dmax) per ``(α, δ)`` rather than one term per degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.special import exprel

from repro._util.validation import check_positive, check_positive_int
from repro.analysis.pooling import PooledDistribution, log2_bin_edges
from repro.core.distributions import ZipfMandelbrotDistribution
from repro.core.zeta import _BERNOULLI_EVEN

__all__ = [
    "ZipfMandelbrotModel",
    "zm_unnormalized",
    "zm_unnormalized_gradient_delta",
    "zm_probability",
    "zm_cumulative",
    "zm_differential_cumulative",
    "zm_bin_masses",
]

ArrayLike = Union[float, np.ndarray]

#: Degrees up to this bound (the bins ``d_i <= 2^8``) are summed term by term;
#: every wider bin starts at degree 257 or above, where six Bernoulli terms of
#: the Euler–Maclaurin formula leave a remainder far below double precision.
_EXACT_DEGREES = 256

_EXACT_SUPPORT = np.arange(1, _EXACT_DEGREES + 1, dtype=np.float64)

#: The bins ``d_i <= 2^8`` and where each starts in ``_EXACT_SUPPORT``: bin
#: ``i >= 1`` holds degrees ``2^(i-1)+1 .. 2^i``.
_EXACT_BINS = log2_bin_edges(_EXACT_DEGREES).size
_EXACT_STARTS = np.concatenate(([0], 2 ** np.arange(_EXACT_BINS - 1)))

#: Coefficients ``B_{2k}/(2k)!`` of the Euler–Maclaurin corrections, k = 1..6.
_EM_COEFFS = _BERNOULLI_EVEN / np.array([math.factorial(2 * k) for k in range(1, _BERNOULLI_EVEN.size + 1)])


def zm_unnormalized(d: ArrayLike, alpha: float, delta: float) -> ArrayLike:
    """Unnormalised model ``ρ(d; α, δ) = (d + δ)^{-α}``.

    Raises if any ``d + δ <= 0`` (the model is undefined there).
    """
    alpha = check_positive(alpha, "alpha")
    arr = np.asarray(d, dtype=np.float64)
    shifted = arr + float(delta)
    if np.any(shifted <= 0):
        raise ValueError("d + delta must be positive for every evaluated degree")
    out = shifted ** (-alpha)
    if np.isscalar(d) or np.ndim(d) == 0:
        return float(out)
    return out


def zm_unnormalized_gradient_delta(d: ArrayLike, alpha: float, delta: float) -> ArrayLike:
    """Gradient ``∂ρ/∂δ = −α·(d + δ)^{-(α+1)} = −α·ρ(d; α+1, δ)``."""
    alpha = check_positive(alpha, "alpha")
    return -alpha * zm_unnormalized(d, alpha + 1.0, delta)


def zm_probability(degrees: np.ndarray, alpha: float, delta: float) -> np.ndarray:
    """Normalised model probability ``p(d; α, δ)`` over the given *degrees*.

    The normalisation runs over exactly the supplied degree values, treated
    as the model support ``1..dmax`` when the degrees are the full dense
    range, or any other explicit support.
    """
    rho = np.asarray(zm_unnormalized(degrees, alpha, delta), dtype=np.float64)
    total = rho.sum()
    if total <= 0:
        raise ValueError("model has zero total mass on the requested support")
    return rho / total


def zm_cumulative(dmax: int, alpha: float, delta: float) -> np.ndarray:
    """Cumulative model probability ``P(d; α, δ)`` on the dense support ``1..dmax``."""
    dmax = check_positive_int(dmax, "dmax")
    degrees = np.arange(1, dmax + 1, dtype=np.float64)
    return np.cumsum(zm_probability(degrees, alpha, delta))


def _euler_maclaurin_range(alphas: np.ndarray, start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Euler–Maclaurin estimate of ``Σ_{k=0}^{count-1} (start + k)^{-α}``.

    *alphas* is a column ``(n_alpha, 1)`` and *start*, *count* are rows, one
    entry per range; the result is ``(n_alpha, n_ranges)``.  With
    ``A = start`` and ``B = start + count`` the sum is the integral
    ``∫_A^B x^{-α} dx``, plus ``(A^{-α} − B^{-α})/2``, plus the Bernoulli
    corrections ``B_{2k}/(2k)! · α(α+1)…(α+2k−2) · (A^{1−α−2k} − B^{1−α−2k})``.
    The integral is written ``A^{1−α} · L · exprel((1−α)·L)`` with
    ``L = log1p(count/A)``, which is exact in form for every ``α`` (``α = 1``
    and ``α < 1`` included) and keeps full precision for a one-degree range.
    """
    end = start + count
    log_ratio = np.log1p(count / start)
    f_start = start**-alphas
    f_end = end**-alphas
    total = start * f_start * log_ratio * exprel((1.0 - alphas) * log_ratio)
    total += 0.5 * (f_start - f_end)
    # x^{1−α−2k} = x^{-α}·x^{1−2k}, stepped down by x^{-2} per Bernoulli term;
    # elementwise, so a row never depends on the other α of its batch
    g_start = f_start / start
    g_end = f_end / end
    inv_start_sq = 1.0 / (start * start)
    inv_end_sq = 1.0 / (end * end)
    rising = alphas
    for k, coeff in enumerate(_EM_COEFFS, start=1):
        if k > 1:
            rising = rising * (alphas + (2 * k - 3)) * (alphas + (2 * k - 2))
            g_start = g_start * inv_start_sq
            g_end = g_end * inv_end_sq
        total += coeff * rising * (g_start - g_end)
    return total


def zm_bin_masses(dmax: int, alphas: ArrayLike, delta: float) -> np.ndarray:
    """Model mass ``D(d_i; α, δ)`` of every binary-log bin, one row per ``α``.

    Returns an ``(n_alpha, n_bins)`` array whose rows each sum to 1: row
    ``j`` is the pmf ``p(d; alphas[j], δ)`` on ``1..dmax`` pooled into the
    bins ``(2^{i-1}, 2^i]`` of :func:`repro.analysis.pooling.log2_bin_edges`.
    Degrees up to 256 are summed exactly; each wider bin is one
    Euler–Maclaurin evaluation, so a row costs O(log dmax) whatever ``dmax``.
    Each bin agrees with the dense per-degree sum to 1e-12 relative or better.
    """
    dmax = check_positive_int(dmax, "dmax")
    alpha_col = np.atleast_1d(np.asarray(alphas, dtype=np.float64))[:, None]
    if not np.all(np.isfinite(alpha_col) & (alpha_col > 0)):
        raise ValueError("alpha must be finite and positive")
    delta = float(delta)
    if 1.0 + delta <= 0.0:
        raise ValueError("d + delta must be positive for every evaluated degree")
    n_bins = log2_bin_edges(dmax).size
    n_exact_bins = min(n_bins, _EXACT_BINS)
    masses = np.empty((alpha_col.shape[0], n_bins), dtype=np.float64)
    exact_terms = (_EXACT_SUPPORT[: min(dmax, _EXACT_DEGREES)] + delta) ** -alpha_col
    masses[:, :n_exact_bins] = np.add.reduceat(exact_terms, _EXACT_STARTS[:n_exact_bins], axis=1)
    if n_bins > n_exact_bins:
        wide = np.arange(n_exact_bins, n_bins)
        first = 2.0 ** (wide - 1) + 1.0
        last = np.minimum(2.0 ** wide, float(dmax))
        masses[:, n_exact_bins:] = _euler_maclaurin_range(alpha_col, first + delta, last - first + 1.0)
    return masses / masses.sum(axis=1, keepdims=True)


def zm_differential_cumulative(dmax: int, alpha: float, delta: float) -> PooledDistribution:
    """Differential cumulative model probability ``D(d_i; α, δ)`` on log2 bins.

    This is the curve drawn as the black model line in Figure 3: the model
    pmf on ``1..dmax`` pooled into the bins ``d_i = 2^i``, computed in
    closed form by :func:`zm_bin_masses`.
    """
    alpha = check_positive(alpha, "alpha")
    values = zm_bin_masses(dmax, alpha, delta)[0]
    return PooledDistribution(bin_edges=log2_bin_edges(dmax), values=values, total=0)


@dataclass(frozen=True)
class ZipfMandelbrotModel:
    """A fully specified modified Zipf–Mandelbrot model ``(α, δ, dmax)``.

    Thin convenience wrapper bundling the model parameters with the methods
    used throughout the experiments; the heavy lifting is delegated to the
    module-level functions and to
    :class:`repro.core.distributions.ZipfMandelbrotDistribution`.
    """

    alpha: float
    delta: float
    dmax: int

    def __post_init__(self) -> None:
        check_positive(self.alpha, "alpha")
        if 1.0 + self.delta <= 0.0:
            raise ValueError(f"delta must satisfy 1 + delta > 0, got {self.delta!r}")
        check_positive_int(self.dmax, "dmax")

    def distribution(self) -> ZipfMandelbrotDistribution:
        """The corresponding sampled-support distribution object."""
        return ZipfMandelbrotDistribution(self.alpha, self.delta, self.dmax)

    def probability(self) -> np.ndarray:
        """Dense pmf over ``1..dmax``."""
        degrees = np.arange(1, self.dmax + 1, dtype=np.float64)
        return zm_probability(degrees, self.alpha, self.delta)

    def cumulative(self) -> np.ndarray:
        """Dense cumulative probability over ``1..dmax``."""
        return zm_cumulative(self.dmax, self.alpha, self.delta)

    def differential_cumulative(self) -> PooledDistribution:
        """Model curve pooled on binary-log bins (Figure-3 black line)."""
        return zm_differential_cumulative(self.dmax, self.alpha, self.delta)

    def degree_one_probability(self) -> float:
        """Model probability at ``d = 1`` (the observation ZM must capture)."""
        return float(self.probability()[0])
