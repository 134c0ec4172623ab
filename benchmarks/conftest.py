"""Shared configuration for the benchmark harness.

Every benchmark regenerates one table or figure of the paper (or one ablation
from DESIGN.md) and attaches the resulting rows to the pytest-benchmark
``extra_info`` so that ``pytest benchmarks/ --benchmark-only`` both times the
experiment and records what it produced.  Heavy experiment drivers are run
with ``rounds=1`` (they are experiments, not micro-benchmarks); the substrate
micro-benchmarks use pytest-benchmark's default calibration.

The artifact tests rewrite their committed ``BENCH_*.json`` only when
``REPRO_BENCH_WRITE=1`` is set (:func:`write_artifact`), so a plain
``pytest`` run at the repo root leaves the tracked files alone.
"""

from __future__ import annotations

import json
import os
import platform

import numpy as np
import pytest

from repro.streaming.parallel import usable_cpu_count


def machine_metadata(timing: str) -> dict:
    """Machine/toolchain context recorded in every ``BENCH_*.json`` artifact.

    The perf trajectory compares numbers committed across PRs; without the
    CPU budget, platform, and library versions those comparisons are
    guesswork.  *timing* documents how the harness measured (e.g.
    ``"best-of-3 wall clock (time.perf_counter)"``) so best-of-k and
    single-shot artifacts are never conflated.
    """
    return {
        "cpu_count": os.cpu_count() or 1,
        "usable_cpus": usable_cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "timing": timing,
    }


@pytest.fixture()
def machine_meta():
    """The :func:`machine_metadata` helper, injectable into artifact writers."""
    return machine_metadata


#: Environment flag that lets the artifact tests rewrite ``BENCH_*.json``.
BENCH_WRITE_ENV = "REPRO_BENCH_WRITE"


def write_artifact(path, report: dict) -> None:
    """Write one ``BENCH_*.json`` artifact when ``REPRO_BENCH_WRITE=1``.

    The report is serialised either way, so a malformed one fails every
    run.  Without the flag nothing is written: a plain ``pytest`` run only
    reads the committed artifacts, and recording them is an explicit
    ``REPRO_BENCH_WRITE=1 python -m pytest benchmarks/...`` step.
    """
    text = json.dumps(report, indent=1) + "\n"
    if os.environ.get(BENCH_WRITE_ENV) != "1":
        print(f"\n{path.name} not rewritten: set {BENCH_WRITE_ENV}=1 to record it")
        return
    path.write_text(text, encoding="utf-8")


@pytest.fixture()
def bench_artifact():
    """The :func:`write_artifact` helper, injectable into artifact tests."""
    return write_artifact


def attach_rows(benchmark, rows) -> None:
    """Record experiment output rows on the benchmark for the JSON report."""
    try:
        benchmark.extra_info["rows"] = json.loads(json.dumps(rows, default=str))
    except Exception:  # pragma: no cover - defensive: extra_info is best-effort
        benchmark.extra_info["rows"] = str(rows)


@pytest.fixture()
def run_once(benchmark):
    """Run an experiment driver exactly once under timing and return its result."""

    def _run(func, *args, **kwargs):
        result = benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)
        attach_rows(benchmark, result)
        return result

    return _run
