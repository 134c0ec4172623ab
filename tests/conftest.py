"""Shared fixtures for the repro test-suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# Hypothesis profiles: "dev" keeps local runs fast; "ci" (selected in
# .github/workflows/ci.yml via --hypothesis-profile=ci) runs more examples
# with a derandomized, reproducible search so CI failures replay locally.
settings.register_profile(
    "dev",
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "ci",
    max_examples=75,
    deadline=None,
    derandomize=True,
    print_blob=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))

from repro.analysis.histogram import DegreeHistogram, degree_histogram
from repro.analysis.pooling import PooledDistribution, log2_bin_edges
from repro.core.distributions import PALUDegreeDistribution, ZipfMandelbrotDistribution
from repro.core.palu_model import PALUParameters
from repro.experiments.config import default_palu_parameters
from repro.generators.palu_graph import PALUGraph, generate_palu_graph
from repro.streaming.packet import PacketTrace
from repro.streaming.trace_generator import generate_trace

#: Seed used by every deterministic fixture.
SEED = 20210329


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    """Session-wide deterministic generator (do not consume in-place in tests
    that depend on exact draws; spawn children instead)."""
    return np.random.default_rng(SEED)


@pytest.fixture(scope="session")
def palu_params() -> PALUParameters:
    """Representative PALU parameters used across the suite."""
    return default_palu_parameters(alpha=2.0, lam=2.0)


@pytest.fixture(scope="session")
def small_palu_graph(palu_params) -> PALUGraph:
    """A ~8k-node PALU underlying network (session-scoped: generated once)."""
    return generate_palu_graph(palu_params, n_nodes=8_000, rng=SEED)


@pytest.fixture(scope="session")
def medium_palu_graph(palu_params) -> PALUGraph:
    """A ~40k-node PALU underlying network for statistical assertions."""
    return generate_palu_graph(palu_params, n_nodes=40_000, rng=SEED + 1)


@pytest.fixture(scope="session")
def zm_sample_histogram() -> DegreeHistogram:
    """A large sample drawn from a known Zipf–Mandelbrot law (α=2.0, δ=-0.5)."""
    dist = ZipfMandelbrotDistribution(alpha=2.0, delta=-0.5, dmax=50_000)
    values = dist.sample(500_000, rng=SEED)
    return degree_histogram(values)


@pytest.fixture(scope="session")
def palu_sample_histogram() -> DegreeHistogram:
    """A large sample from a known reduced PALU distribution."""
    dist = PALUDegreeDistribution(c=0.3, l=0.4, u=0.05, alpha=2.0, Lambda=2.5, dmax=50_000)
    values = dist.sample(800_000, rng=SEED + 2)
    return degree_histogram(values)


@pytest.fixture(scope="session")
def small_trace(small_palu_graph) -> PacketTrace:
    """A 120k-packet synthetic trace over the small PALU graph."""
    return generate_trace(small_palu_graph.graph, 120_000, rate_model="zipf", rng=SEED + 3)


def _dense_zm_curve(dmax: int, alpha: float, delta: float) -> PooledDistribution:
    """Reference model curve: the dense pmf on ``1..dmax`` pooled degree by degree.

    The oracle for the closed-form :func:`repro.core.zipf_mandelbrot.zm_bin_masses`,
    O(dmax) per evaluation.
    """
    degrees = np.arange(1, dmax + 1, dtype=np.float64)
    pmf = (degrees + delta) ** -alpha
    pmf /= pmf.sum()
    bin_idx = np.ceil(np.log2(degrees)).astype(np.int64)
    edges = log2_bin_edges(dmax)
    return PooledDistribution(bin_edges=edges, values=np.bincount(bin_idx, weights=pmf, minlength=edges.size))


@pytest.fixture(scope="session")
def dense_zm_curve():
    """The dense-sum Zipf–Mandelbrot model curve ``(dmax, α, δ) -> PooledDistribution``."""
    return _dense_zm_curve
