#!/usr/bin/env python3
"""The repository benchmark: one command for every workload in ``BENCHMARK.json``.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload analyze-stored --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed;
``--trace 1`` measures the same operations untraced, then again with the
layer probes of :mod:`spans` installed, and reports the per-layer metrics
plus the tracing overhead (traced minus untraced).  Every run checks its
outputs; a failed check fails the run.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

The benchmark builds nothing: it imports the package from ``src/`` of the
checkout it runs in, and refuses to run (exit code 2, no result) when that
source tree is absent.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402  (needs HERE on sys.path)

#: workload name -> the module that runs it
WORKLOADS = {
    "analyze-stored": "wl_analyze",
    "serve-ingest": "wl_serve",
    "campaign-sweep": "wl_campaign",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="seed the workload's inputs derive from")
    parser.add_argument("--seconds", type=float, required=True, help="how long the run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (harness.SRC / "repro" / "__init__.py").is_file():
        print(f"error: no source tree at {harness.SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(harness.SRC))
    # a terminated run unwinds, so it still stops its daemon and removes its
    # scratch; forked pool workers get the default action back, because
    # Pool.terminate needs them to die at once (a Python-level handler can
    # miss a signal that lands just before a blocking semaphore wait)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.register_at_fork(after_in_child=lambda: signal.signal(signal.SIGTERM, signal.SIG_DFL))
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = [metric["name"] for metric in group]

    module = importlib.import_module(WORKLOADS[args.workload])

    result = harness.Result(args.workload)
    harness.adopt_descendants()
    try:
        with harness.scratch_dir() as scratch:
            module.run(args.workload, args.seed, args.seconds, bool(args.trace), scratch, result)
    finally:
        harness.stop_children()
    result.metric("fail_ratio", result.failed / max(result.attempted, 1), "ratio")
    if args.trace:
        absent = [metric for metric in group if metric["name"] not in result.metrics]
        for metric in absent:
            # a layer (or another workload's metric) this run never exercises
            result.metric(metric["name"], 0.0, metric["unit"])
        if absent:
            result.notes.append("not on this workload's path (reported as 0): "
                                + " ".join(metric["name"] for metric in absent))
    for metric in group:
        if result.units.get(metric["name"]) != metric["unit"]:
            raise RuntimeError(f"{metric['name']} measured in {result.units.get(metric['name'])}, "
                               f"BENCHMARK.json says {metric['unit']}")
    return harness.emit(result, names)


if __name__ == "__main__":
    sys.exit(main())
