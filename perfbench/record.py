#!/usr/bin/env python3
"""Record a baseline: run every workload on several seeds and summarise the spread.

Usage (from the root of a checkout)::

    python3 perfbench/record.py [--seeds 1-10] [--workloads a,b] [--out perfbench/baseline.json]

For each workload it runs ``run.py --trace 0`` once per seed, then one
``--trace 1`` run, and writes a JSON file with the machine block (CPU count,
usable CPUs, Python and numpy versions), the seed argument, and per metric
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread — the distance between the quartiles as a share of the median, the
figure ``BENCHMARK.json``'s bounds are checked against.  Entries of
workloads not named in ``--workloads`` are kept from the existing file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, float]:
    started = time.perf_counter()
    process = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    wall = time.perf_counter() - started
    lines = process.stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited {process.returncode}:\n"
                           f"{process.stdout[-3000:]}\n{process.stderr[-3000:]}")
    return json.loads(lines[-1]), wall


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {
        "median": median, "q1": q1, "q3": q3, "n": len(values),
        "spread": (q3 - q1) / median if median else 0.0,
    }


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="seed range a-b or list a,b,c")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out", default=str(HERE / "baseline.json"))
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = Path(args.out)
    # re-recording some workloads keeps the others' entries
    previous = json.loads(out.read_text()) if out.exists() else {}
    record = {
        "machine": machine(),
        "command": spec["command"] + ["--workload", "<name>", "--seed", "<n>", "--seconds",
                                      str(seconds), "--trace", "<0|1>"],
        "seed_argument": "--seed <n>: the only source of inputs; the same seed gives the same trace, "
                         "scenario seeds and request bodies",
        "seeds": seeds,
        "run_seconds": seconds,
        "workloads": previous.get("workloads", {}),
    }
    for workload in args.workloads.split(","):
        values: dict = {}
        walls = []
        for seed in seeds:
            result, wall = run_once(workload, seed, seconds, 0)
            walls.append(wall)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: {wall:.1f} s "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        traced, traced_wall = run_once(workload, seeds[0], seconds, 1)
        end_to_end = {name: summarise(vals) for name, vals in values.items()}
        for name, summary in end_to_end.items():
            verdict = "ok" if name == "setup_s" or summary["spread"] <= bounds[name] else "OVER BOUND"
            print(f"  {workload} {name}: median {summary['median']:.5g} spread {summary['spread']:.3f} "
                  f"(bound {bounds[name]}) {verdict}", flush=True)
        record["workloads"][workload] = {
            "end_to_end": end_to_end,
            "run_wall_s": summarise(walls),
            "per_layer_seed": seeds[0],
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
            "traced_run_wall_s": traced_wall,
        }
        out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
