"""Workload ``analyze-stored``: one-shot analysis of a stored trace.

Set-up (in a child process, so its memory does not count as the system's)
writes an 8M-packet trace over the ``repro generate`` default PALU network
with ``rate_model="zipf"`` as a v2 sharded ``layout="npy"`` store.
One operation is ``analyze_trace(path, 1_000_000, keep_windows=False)`` plus
``fit_zipf_mandelbrot`` for all five quantities on the serial backend, which
is what ``repro analyze`` prints.

After the measured operations, every run also makes two passes on the
process backend (two workers, default shm transport).  They are not part of
the end-to-end metrics; they check that the process backend reproduces the
serial pooled vectors and leaks no shared memory, and in a traced run they
give the ``parallel.*`` layer metrics.

Run as a script (``python3 wl_analyze.py setup DIR SEED REPEATS``) it is the
set-up child: it writes the trace REPEATS times and prints the times.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

N_PACKETS = 8_000_000
N_VALID = 1_000_000
SHARD_PACKETS = 1_000_000
SETUP_REPEATS = 3
MIN_OPS = 2
#: extra analyze_trace passes (no fits) per run, so the pass throughput is a
#: median of several samples although the fits make each operation long
EXTRA_PASSES = 6
#: process-backend passes per run (layer coverage and the identity check)
PARALLEL_PASSES = 2
PARALLEL = {"backend": "process", "n_workers": 2}
SHM_DIR = Path("/dev/shm")


def write_trace(path: Path, seed: int) -> None:
    """The set-up: a packet stream over the default traffic model, stored sharded.

    The model — the PALU network and its per-link Zipf rates — is the one
    ``repro generate`` builds by default (seed 0); *seed* draws the stream of
    packets over it.  Each seed is a new 8M-packet sample of one network, as
    an observatory sees on different days, so the work an operation does
    (window count, largest degrees, hence fit cost) does not jump with the
    seed the way it does when every seed builds a new network.
    """
    import numpy as np

    from repro.core.palu_model import PALUParameters
    from repro.generators.palu_graph import generate_palu_graph
    from repro.streaming import PacketTrace, TraceConfig, save_trace_sharded
    from repro.streaming.trace_generator import edge_rate_weights

    params = PALUParameters.from_weights(0.55, 0.25, 0.20, lam=2.0, alpha=2.0, strict=False)
    graph = generate_palu_graph(params, n_nodes=30_000, rng=0)
    edges = graph.edges_array()
    config = TraceConfig(n_packets=N_PACKETS, rate_model="zipf")
    weights = edge_rate_weights(len(edges), config, np.random.default_rng(1))
    # the sampling steps of generate_trace_from_graph, drawn from the seed
    # (the spawn key keeps the stream apart from the model's seed-1 draws)
    gen = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    chosen = gen.choice(len(edges), size=N_PACKETS, replace=True, p=weights)
    flip = gen.random(N_PACKETS) < 0.5
    src = np.where(flip, edges[chosen, 1], edges[chosen, 0])
    dst = np.where(flip, edges[chosen, 0], edges[chosen, 1])
    times = np.cumsum(gen.exponential(config.mean_interarrival, size=N_PACKETS))
    sizes = gen.integers(64, 1500, size=N_PACKETS, dtype=np.int32)
    trace = PacketTrace.from_arrays(src, dst, time=times, size=sizes)
    save_trace_sharded(trace, path, shard_packets=SHARD_PACKETS, layout="npy")


def _setup_child(path: str, seed: str, repeats: str) -> None:
    # import the generators before timing, so no set-up pays the imports
    import repro.generators.palu_graph  # noqa: F401
    import repro.streaming.trace_generator  # noqa: F401

    times = []
    for _ in range(int(repeats)):
        started = time.perf_counter()
        write_trace(Path(path), int(seed))
        times.append(time.perf_counter() - started)
    print(json.dumps({"setup_times": times}))


def pooled_digest(analysis) -> bytes:
    """Bytes of every pooled vector (values, sigma, total) in quantity order."""
    parts = []
    for quantity in analysis.quantities:
        pooled = analysis.pooled(quantity)
        parts += [pooled.values.tobytes(), pooled.sigma.tobytes(), str(pooled.total).encode()]
    return b"|".join(parts)


def fit_digest(fits) -> tuple:
    return tuple((fit.alpha, fit.delta, fit.error) for fit in fits)


def own_segments() -> list[str]:
    """Shared-memory segments this process created that still exist."""
    prefix = f"repro_shm_{os.getpid()}_"
    if not SHM_DIR.is_dir():
        return []
    return sorted(name for name in os.listdir(SHM_DIR) if name.startswith(prefix))


def run(workload: str, seed: int, seconds: float, traced: bool, scratch: Path, result) -> None:
    import harness
    import spans
    from repro.streaming import analyze_trace, analyze_window_image, iter_trace_chunks, shutdown_shared_pools
    from repro.streaming.window import ChunkedWindower

    trace_path = scratch / "trace"
    setup = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "setup", str(trace_path), str(seed),
         str(SETUP_REPEATS)],
        env=harness.child_env(), capture_output=True, text=True, timeout=150, check=False,
    )
    if setup.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{setup.stderr}")
    setup_times = json.loads(setup.stdout.strip().splitlines()[-1])["setup_times"]

    def operation():
        started = time.perf_counter()
        analysis = analyze_trace(str(trace_path), N_VALID, keep_windows=False)
        passed = time.perf_counter()
        fits = [analysis.fit_zipf_mandelbrot(q) for q in analysis.quantities]
        return analysis, fits, passed - started, time.perf_counter() - passed

    tracer = None
    ops = []  # (label, analysis, fits, pass_s, fit_s)
    passes = []  # (label, analysis, pass_s)
    parallel = []  # (label, analysis)
    try:
        phases = [("untraced", seconds)]
        if traced:
            phases = [("untraced", seconds / 2), ("traced", seconds / 2)]
        for phase, budget in phases:
            if phase == "traced":
                tracer = spans.Tracer()
                spans.install_layer_probes(tracer)
            deadline = time.perf_counter() + budget
            count = 0
            # at least MIN_OPS operations; another only if it ends before the deadline
            while count < MIN_OPS or time.perf_counter() + ops[-1][3] + ops[-1][4] <= deadline:
                label = f"{phase}-{count}"
                if tracer is not None:
                    tracer.op = label
                analysis, fits, pass_s, fit_s = operation()
                ops.append((label, analysis, fits, pass_s, fit_s))
                count += 1
            if phase == "untraced":
                for index in range(EXTRA_PASSES):
                    started = time.perf_counter()
                    analysis = analyze_trace(str(trace_path), N_VALID, keep_windows=False)
                    passes.append((f"pass-{index}", analysis, time.perf_counter() - started))
        # the system's peak memory, before the process-backend passes below
        peak_rss = harness.peak_rss_mib()
        for index in range(PARALLEL_PASSES):
            label = f"parallel-{index}"
            if tracer is not None:
                tracer.op = label
            parallel.append((label, analyze_trace(str(trace_path), N_VALID, keep_windows=False,
                                                  **PARALLEL)))
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutdown_shared_pools()

    # -- output checks ------------------------------------------------------
    first = ops[0][1]
    digest = pooled_digest(first)
    for label, analysis, fits, _, _ in ops:
        result.check(f"{label}: pooled vectors and fits identical to the first operation",
                     pooled_digest(analysis) == digest and fit_digest(fits) == fit_digest(ops[0][2]))
    for label, analysis, _ in passes:
        result.check(f"{label}: pooled vectors identical to the first operation",
                     pooled_digest(analysis) == digest)
    for label, analysis in parallel:
        stats = analysis.engine_stats
        result.check(f"{label}: process backend (shm transport) pooled vectors identical to serial",
                     pooled_digest(analysis) == digest and stats.get("backend") == "process"
                     and stats.get("payload_transport") == "shm", str(dict(stats)))
    window = next(iter(ChunkedWindower(iter_trace_chunks(str(trace_path)), N_VALID)))
    oracle = analyze_window_image(window).aggregates.as_row()
    kernel_row = first.aggregates_table()[0]
    result.check("first window aggregates equal the analyze_window_image oracle",
                 oracle == kernel_row, f"{kernel_row} vs {oracle}")
    leaked = own_segments()
    result.check("no /dev/shm/repro_shm_* segment survives", not leaked, ", ".join(leaked))
    n_packets = first.n_windows * N_VALID
    result.check("trace cut into the expected windows", n_packets == N_PACKETS,
                 f"{first.n_windows} windows")

    # -- metrics ------------------------------------------------------------
    untraced = [op for op in ops if op[0].startswith("untraced")]
    op_s = [op[3] + op[4] for op in untraced]
    pass_s = [op[3] for op in untraced] + [p[2] for p in passes]
    result.metric("setup_s", harness.median(setup_times), "s")
    result.metric("analyze_p50_s", harness.median(op_s), "s")
    result.metric("analyze_pkts_per_s", N_PACKETS / harness.median(pass_s), "pkts/s")
    result.metric("peak_rss_mib", peak_rss, "MiB")
    result.notes.append(
        f"analyze_p50_s over {len(op_s)} operations, analyze_pkts_per_s over {len(pass_s)} passes "
        f"(pass {harness.median(pass_s):.4f} s, "
        f"fits {harness.median(op[4] for op in untraced):.4f} s); setup times {setup_times}"
    )
    if tracer is not None:
        traced_ops = [op for op in ops if op[0].startswith("traced")]
        traced_op_s = harness.median(op[3] + op[4] for op in traced_ops)
        result.metric("trace.overhead_s", traced_op_s - harness.median(op_s), "s")
        result.notes.append(f"tracing overhead: traced analyze_p50_s {traced_op_s:.4f} s "
                            f"vs untraced {harness.median(op_s):.4f} s; parallel.* metrics are "
                            f"per process-backend pass")
        spans.layer_metrics(result, tracer, [op[0] for op in traced_ops])
        self_s = tracer.self_times()
        labels = [label for label, _ in parallel]
        for metric, name, source in (
            ("parallel.publish_s", "parallel.publish", self_s),
            ("parallel.map_s", "parallel.map", self_s),
            ("parallel.bytes_published", "parallel.bytes_published", tracer.counts),
        ):
            result.metric(metric, harness.median(spans.per_op(source, name, labels)),
                          "bytes" if metric.endswith("bytes_published") else "s")
        result.metric("parallel.workers", PARALLEL["n_workers"], "count")
        tracer.dump(harness.SPANS_DIR / f"spans-{workload}.json")


if __name__ == "__main__":
    if len(sys.argv) == 5 and sys.argv[1] == "setup":
        _setup_child(*sys.argv[2:])
    else:
        sys.exit("usage: wl_analyze.py setup DIR SEED REPEATS")
