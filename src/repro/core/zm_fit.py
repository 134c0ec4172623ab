"""Fitting the modified Zipf–Mandelbrot model to pooled observations.

The paper selects ``(α, δ)`` by "minimizing the differences between the
observed differential cumulative distributions" and the model's (Section
II-B), i.e. a nonlinear least-squares problem over the binary-log-pooled
bins.  This module implements that fit:

1. a coarse grid scan over ``α ∈ [1, 4]`` and ``δ ∈ (−1, 10]`` to find a
   good basin (the objective is multimodal when the d=1 bin dominates), then
2. a Nelder–Mead refinement of the best grid point.

The objective is the mean squared error between the ``log10`` of the pooled
probabilities, optionally weighted by the inverse per-bin variance when the
observation carries cross-window ``σ(d_i)`` information — matching how the
log-log plots of Figure 3 weight every decade equally.  The model curve comes
from the closed-form :func:`repro.core.zipf_mandelbrot.zm_bin_masses`, and the
grid scan evaluates one whole ``α`` row per ``δ`` in a single call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import optimize

from repro._util.validation import check_positive_int
from repro.analysis.comparison import _log10_floored, _log_mse
from repro.analysis.histogram import DegreeHistogram
from repro.analysis.pooling import PooledDistribution, pool_differential_cumulative
from repro.core.zipf_mandelbrot import ZipfMandelbrotModel, zm_bin_masses

__all__ = ["ZMFitResult", "fit_zipf_mandelbrot", "fit_zipf_mandelbrot_histogram"]

#: Default coarse grid over the exponent α (paper range is [1.5, 3] but the
#: measured fits of Figure 3 reach down to α ≈ 1.5 and up to ≈ 2.3, so the
#: scan is kept a little wider).
_DEFAULT_ALPHA_GRID = np.linspace(1.05, 4.0, 30)

#: Default coarse grid over the offset δ; values just above −1 sharpen the
#: d = 1 probability, large positive values flatten the head.
_DEFAULT_DELTA_GRID = np.concatenate(
    [np.linspace(-0.95, 0.0, 20), np.linspace(0.05, 2.0, 14), np.linspace(2.5, 10.0, 8)]
)


@dataclass(frozen=True)
class ZMFitResult:
    """Result of a Zipf–Mandelbrot fit.

    Attributes
    ----------
    alpha, delta:
        Fitted model parameters.
    dmax:
        Support size used for the fit (largest observed degree).
    error:
        Final value of the fitting objective (log-space pooled MSE).
    n_bins:
        Number of informative (non-empty) pooled bins used.
    converged:
        Whether the local refinement reported convergence.
    """

    alpha: float
    delta: float
    dmax: int
    error: float
    n_bins: int
    converged: bool

    def model(self) -> ZipfMandelbrotModel:
        """The fitted model object."""
        return ZipfMandelbrotModel(alpha=self.alpha, delta=self.delta, dmax=self.dmax)

    def as_row(self) -> dict:
        """Dictionary form used by the experiment tables."""
        return {
            "alpha": round(self.alpha, 3),
            "delta": round(self.delta, 3),
            "dmax": self.dmax,
            "log_mse": round(self.error, 5),
            "bins": self.n_bins,
            "converged": self.converged,
        }


#: Objective value of parameters outside the admissible region.
_PENALTY = 1e6


class _Objective:
    """The log-space pooled MSE of one observation, batched over ``α``.

    The observed ``log10`` values of the positive bins, their weights and
    their model-bin columns are computed once per fit;
    each call then costs one :func:`zm_bin_masses` evaluation.
    """

    def __init__(self, observed: PooledDistribution, dmax: int, weights: np.ndarray | None) -> None:
        mask = observed.values > 0
        if not np.any(mask):
            raise ValueError("cannot fit an observation with no positive bin")
        edges = observed.bin_edges[mask]
        self.columns = np.log2(edges).astype(np.int64)
        if np.any(2**self.columns != edges):
            raise ValueError("observed bin edges must be the binary-log edges d_i = 2^i")
        # bin (e/2, e] begins at degree e//2 + 1 (bin 0 is degree 1)
        first_degree = int(edges.max()) // 2 + 1
        if dmax < first_degree:
            raise ValueError(
                f"dmax={dmax} is below degree {first_degree}, the smallest degree of the "
                "last positive observed bin"
            )
        self.dmax = dmax
        self.observed_log = _log10_floored(observed.values[mask])
        self.weights = None if weights is None else weights[mask]

    def __call__(self, alphas: np.ndarray, delta: float) -> np.ndarray:
        """Objective at ``(α, δ)`` for every ``α`` in *alphas*."""
        errors = np.full(alphas.shape, _PENALTY)
        admissible = ~((alphas <= 0.05) | (alphas > 10.0))
        if 1.0 + delta <= 1e-9 or not np.any(admissible):
            return errors
        masses = zm_bin_masses(self.dmax, alphas[admissible], delta)
        errors[admissible] = _log_mse(self.observed_log, masses[:, self.columns], self.weights)
        return errors

    def at(self, params: np.ndarray) -> float:
        """Objective at one ``(α, δ)`` pair, as Nelder–Mead calls it."""
        return float(self(params[:1], float(params[1]))[0])


def fit_zipf_mandelbrot(
    observed: PooledDistribution,
    dmax: int,
    *,
    alpha_grid: Sequence[float] | None = None,
    delta_grid: Sequence[float] | None = None,
    use_sigma_weights: bool = False,
    refine: bool = True,
) -> ZMFitResult:
    """Fit ``(α, δ)`` to a pooled differential cumulative observation.

    Parameters
    ----------
    observed:
        Pooled observation ``D(d_i)`` (possibly averaged over windows).
    dmax:
        Largest degree of the model support; normally the largest observed
        degree of the data that produced *observed*.
    alpha_grid, delta_grid:
        Override the coarse scan grids.
    use_sigma_weights:
        Weight bins by ``1/σ²`` when the observation carries cross-window
        standard deviations (bins with zero σ get the median weight).
    refine:
        Run the Nelder–Mead refinement after the grid scan (default True).

    Returns
    -------
    ZMFitResult
    """
    dmax = check_positive_int(dmax, "dmax")
    alphas = np.asarray(_DEFAULT_ALPHA_GRID if alpha_grid is None else alpha_grid, dtype=np.float64)
    deltas = np.asarray(_DEFAULT_DELTA_GRID if delta_grid is None else delta_grid, dtype=np.float64)
    if alphas.size == 0 or deltas.size == 0:
        raise ValueError("alpha_grid and delta_grid must be non-empty")

    weights = None
    if use_sigma_weights and observed.sigma is not None:
        sigma = observed.sigma
        with np.errstate(divide="ignore"):
            w = 1.0 / np.square(sigma)
        finite = np.isfinite(w)
        if np.any(finite):
            fill = float(np.median(w[finite]))
            w = np.where(finite, w, fill)
            weights = w

    objective = _Objective(observed, dmax, weights)
    n_informative = int(objective.columns.size)

    # errors[i, j] at (alphas[i], deltas[j]); ravel() walks it α-major, and
    # argmin's first minimum is the point a strict `<` α-major loop keeps
    errors = np.stack([objective(alphas, float(delta)) for delta in deltas], axis=1)
    flat = np.where(np.isnan(errors), np.inf, errors).ravel()
    best = int(np.argmin(flat))
    if not flat[best] < np.inf:
        raise RuntimeError("grid scan failed to evaluate any admissible parameter pair")
    best_err = float(flat[best])
    best_alpha = float(alphas[best // deltas.size])
    best_delta = float(deltas[best % deltas.size])

    converged = False
    if refine:
        result = optimize.minimize(
            objective.at,
            x0=np.array([best_alpha, best_delta]),
            method="Nelder-Mead",
            options={"xatol": 1e-4, "fatol": 1e-8, "maxiter": 2000},
        )
        if result.fun <= best_err:
            best_err = float(result.fun)
            best_alpha, best_delta = float(result.x[0]), float(result.x[1])
            converged = bool(result.success)

    return ZMFitResult(
        alpha=best_alpha,
        delta=best_delta,
        dmax=dmax,
        error=best_err,
        n_bins=n_informative,
        converged=converged,
    )


def fit_zipf_mandelbrot_histogram(
    histogram: DegreeHistogram,
    **kwargs,
) -> ZMFitResult:
    """Convenience wrapper: pool a raw histogram and fit ``(α, δ)`` to it."""
    if histogram.total == 0:
        raise ValueError("cannot fit an empty histogram")
    pooled = pool_differential_cumulative(histogram)
    return fit_zipf_mandelbrot(pooled, dmax=histogram.dmax, **kwargs)
