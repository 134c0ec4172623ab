"""Workload ``serve-ingest``: the ``repro serve`` daemon under open-loop HTTP ingest.

Set-up generates the request bodies — 2000-packet NDJSON batches with the
five columns ``repro jobs feed`` sends, cut from chained ``flash-crowd``
seeds — and starts ``python -m repro serve`` as its own process with one
job (N_V = 5000, all five quantities, the ``ewma``, ``cusum`` and
``page-hinkley`` detectors on ``source_fanout``) checkpointing every 50
batches into a temporary store.  The measured part is a ladder of offered
rates driven by :mod:`loadgen`; request ``seq`` carries body
``(seq - 1) mod pool``.

The check: after the ladder the job is flushed, and the stored result must
equal, bit for bit, an in-process :class:`~repro.service.engine.JobEngine`
fed the same bodies in the same order.  The traced run replays the bodies
in process through decode (``json.loads`` per line), validation
(``packet_batch_from_json``), ``JobEngine.ingest`` and the checkpointer,
under the layer probes; the daemon itself always runs untraced.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

JOB = "bench"
N_VALID = 5_000
BATCH_PACKETS = 2_000
POOL_SEEDS = 5  # flash-crowd seeds chained into the body pool (40 bodies each)
CHECKPOINT_EVERY = 50
LATENCY_LIMIT_S = 0.050
REPORT_RATE = 200
SETUP_REPEATS = 3
DETECTORS = ("ewma", "cusum", "page-hinkley")


def ladder(seconds: float) -> list[tuple[float, float]]:
    """``(rate, seconds)`` steps of one run of *seconds*.

    The 200 req/s step gets half the run, so its p99 has more than ten
    samples above it.  The 100 req/s load comes in three short steps spread
    over the run — first, after 200 req/s and last — and its figures are the
    median over them, so a neighbour's burst during one of them does not
    move them.
    """
    low = seconds / 12
    return [(100, low), (200, seconds / 2), (100, low), (300, seconds / 8), (400, seconds / 8), (100, low)]


def job_config(seed: int) -> dict:
    return {
        "name": JOB,
        "window": {"n_valid": N_VALID},
        "detection": {"detectors": list(DETECTORS), "quantity": "source_fanout"},
        "source": {"scenario": "flash-crowd", "seed": seed},
    }


def make_bodies(seed: int) -> list[bytes]:
    """The body pool: consecutive 2000-packet chunks of chained flash-crowd seeds."""
    from repro.scenarios import get_scenario
    from repro.scenarios.source import ScenarioTraceSource

    scenario = get_scenario("flash-crowd")
    bodies = []
    for k in range(POOL_SEEDS):
        source = ScenarioTraceSource(scenario, seed=seed * POOL_SEEDS + k, chunk_packets=BATCH_PACKETS)
        for chunk in source:
            packets = chunk.packets
            line = json.dumps({
                "src": packets["src"].tolist(),
                "dst": packets["dst"].tolist(),
                "time": packets["time"].tolist(),
                "size": packets["size"].tolist(),
                "valid": packets["valid"].tolist(),
            })
            bodies.append((line + "\n").encode("utf-8"))
    return bodies


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Daemon:
    """One ``python -m repro serve`` process; :meth:`stop` always reaps it."""

    def __init__(self, scratch: Path, config_path: Path, index: int) -> None:
        import harness

        self.port = free_port()
        self.store = scratch / f"store-{index}"
        self.log = open(scratch / f"daemon-{index}.log", "wb")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--job", str(config_path),
             "--port", str(self.port), "--store", str(self.store),
             "--checkpoint-every", str(CHECKPOINT_EVERY)],
            cwd=harness.ROOT, env=harness.child_env(), stdout=self.log, stderr=subprocess.STDOUT,
        )

    def alive(self) -> bool:
        return self.process.poll() is None

    def cpu_seconds(self) -> float:
        """On-CPU time of the daemon so far (``/proc/<pid>/schedstat``, excludes waiting)."""
        return int(Path(f"/proc/{self.process.pid}/schedstat").read_text().split()[0]) / 1e9

    def peak_rss_mib(self) -> float:
        for line in Path(f"/proc/{self.process.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def request(self, method: str, path: str) -> tuple[int, dict]:
        import http.client

        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            connection.request(method, path, body=b"" if method == "POST" else None)
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    def stop(self) -> int | None:
        """SIGTERM, then SIGKILL after 20 s; returns the exit code."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.log.close()
        return self.process.returncode


def pooled_bytes(pooled_by_quantity) -> dict:
    """Per quantity: the exact bytes of values and sigma, and the total."""
    import numpy as np

    return {
        q: (np.asarray(p["values"], dtype=np.float64).tobytes(),
            np.asarray(p["sigma"], dtype=np.float64).tobytes(), int(p["total"]))
        for q, p in pooled_by_quantity.items()
    }


def engine_outputs(engine) -> tuple[dict, dict, int]:
    analysis = engine.result()
    pooled = {}
    for q in analysis.quantities:
        p = analysis.pooled(q)
        pooled[q] = {"values": p.values, "sigma": p.sigma, "total": p.total}
    alarms = {name: [int(i) for i in seq] for name, seq in engine.detection().alarms.items()}
    return pooled_bytes(pooled), alarms, analysis.n_windows


def replay(bodies, n_requests: int, config, store_root: Path, tracer=None) -> tuple[object, list]:
    """Feed requests 1..n_requests in process, the daemon's ingest path minus HTTP.

    Returns the job and the per-request wall times.
    """
    from repro.campaigns.store import ResultStore
    from repro.service.checkpoint import CheckpointPolicy, JobCheckpointer
    from repro.service.engine import packet_batch_from_json
    from repro.service.jobs import Job

    job = Job(config)
    checkpointer = JobCheckpointer(ResultStore(store_root), CheckpointPolicy(every_batches=CHECKPOINT_EVERY))
    times = []
    span = tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())
    for seq in range(1, n_requests + 1):
        body = bodies[(seq - 1) % len(bodies)]
        if tracer is not None:
            tracer.op = f"req-{seq}"
        started = time.perf_counter()
        lines = [line for line in body.split(b"\n") if line.strip()]
        traces = []
        for line in lines:
            with span("engine.decode"):
                obj = json.loads(line.decode("utf-8"))
            with span("engine.validate"):
                traces.append(packet_batch_from_json(obj))
        for trace in traces:
            with span("engine.ingest"):
                job.engine.ingest(trace)
        job.engine.acked_seq = seq
        checkpointer.maybe_checkpoint(job)
        times.append(time.perf_counter() - started)
    return job, times


def run(workload: str, seed: int, seconds: float, traced: bool, scratch: Path, result) -> None:
    import harness
    import loadgen
    import spans
    from repro.campaigns.store import ResultStore
    from repro.service.config import JobConfig
    from repro.service.engine import JobEngine, packet_batch_from_json

    config_dict = job_config(seed)
    config = JobConfig.from_dict(config_dict)
    config_path = scratch / "job.json"
    config_path.write_text(json.dumps(config_dict))
    max_inflight = os.cpu_count() or 1

    daemons: list[Daemon] = []
    try:
        def setup():
            if daemons:
                daemons[-1].stop()
            bodies = make_bodies(seed)
            daemon = Daemon(scratch, config_path, len(daemons))
            daemons.append(daemon)
            if not loadgen.wait_ready(daemon.port, 60, daemon.alive):
                raise RuntimeError("daemon did not come up:\n"
                                   + (scratch / f"daemon-{len(daemons) - 1}.log").read_text())
            return bodies

        setup_times, bodies = harness.timed_setups(setup, SETUP_REPEATS)
        daemon = daemons[-1]

        steps, discarded = loadgen.run_ladder(daemon.port, JOB, bodies, ladder(seconds), max_inflight,
                                              daemon.cpu_seconds)
        n_sent = sum(len(step.statuses) for step in steps + discarded)
        flush_status, _ = daemon.request("POST", f"/jobs/{JOB}/flush")
        status_code, status = daemon.request("GET", "/status")
        peak_rss = daemon.peak_rss_mib()
        exit_code = daemon.stop()
    finally:
        for each in daemons:
            each.stop()

    # -- requests: every non-200 is a failed operation -----------------------
    refused = {}
    for step in steps + discarded:
        for code in step.statuses:
            result.attempted += 1
            if code != 200:
                result.failed += 1
                refused[code] = refused.get(code, 0) + 1
    result.check("every ingest request answered 200", not refused,
                 ", ".join(f"{n}x{code}" for code, n in sorted(refused.items())))
    result.check("daemon flushed the job and exited 0", flush_status == 200 and exit_code == 0,
                 f"flush {flush_status}, exit {exit_code}")
    job_status = status["jobs"][0] if status_code == 200 and status.get("jobs") else {}
    result.check("daemon acknowledged every request in order",
                 job_status.get("acked_seq") == n_sent, f"acked {job_status.get('acked_seq')} of {n_sent}")

    # -- bit identity against an in-process engine fed the same bodies -------
    stored = ResultStore(daemon.store).get(config.config_hash())
    daemon_pooled = pooled_bytes(stored["pooled"])
    daemon_alarms = {name: [int(i) for i in seq] for name, seq in stored["detection"]["alarms"].items()}
    replay_times = []
    tracer = None
    if traced:
        tracer = spans.Tracer()
        spans.install_layer_probes(tracer)
        try:
            job, traced_times = replay(bodies, n_sent, config, scratch / "replay-store", tracer)
        finally:
            tracer.uninstall()
        reference = job.engine
        # an untraced replay of the first requests gives the in-process
        # request time without tracing
        _, replay_times = replay(bodies, min(n_sent, 1000), config, scratch / "replay-plain")
    else:
        reference = JobEngine(config)
        traces = [packet_batch_from_json(json.loads(body)) for body in bodies]
        for seq in range(1, n_sent + 1):
            reference.ingest(traces[(seq - 1) % len(traces)])
    ref_pooled, ref_alarms, ref_windows = engine_outputs(reference)
    result.check("flushed pooled vectors equal the in-process engine bit for bit",
                 daemon_pooled == ref_pooled)
    result.check("flushed alarm sequences equal the in-process engine", daemon_alarms == ref_alarms,
                 f"{ {k: len(v) for k, v in daemon_alarms.items()} }")
    result.check("flushed window count equals the in-process engine",
                 stored["n_windows"] == ref_windows, f"{stored['n_windows']} vs {ref_windows}")

    # -- ladder: latency at each rate, sustained rate ------------------------
    # A refused request misses the latency limit; a step whose generator fell
    # behind is not used (it was re-run once; see loadgen.run_ladder).
    by_rate: dict = {}
    for step in discarded + steps:
        p50, p99 = harness.percentile(step.latencies, 50), harness.percentile(step.latencies, 99)
        failures = sum(code != 200 for code in step.statuses)
        throughput = BATCH_PACKETS * (len(step.statuses) - failures) / (step.finished - step.started)
        meets = failures == 0 and p99 <= LATENCY_LIMIT_S and step.latencies[-1] <= LATENCY_LIMIT_S
        usable = not step.generator_behind
        if usable:
            by_rate.setdefault(step.rate, []).append(
                {"p50": p50, "p99": p99, "throughput": throughput, "meets": meets,
                 "requests": len(step.statuses),
                 "cpu": step.server_cpu_s / len(step.statuses)})
        result.notes.append(
            f"rate {step.rate:>4.0f} req/s: {len(step.statuses)} requests, p50 {1e3 * p50:.3f} ms, "
            f"p99 {1e3 * p99:.3f} ms, max {1e3 * max(step.latencies):.3f} ms, refused {failures}, "
            f"{throughput:.0f} pkts/s, daemon CPU {1e3 * step.server_cpu_s / len(step.statuses):.3f} ms/request, "
            f"generator lag p99 {1e3 * harness.percentile(step.lags, 99):.3f} ms, "
            + ("meets limit" if meets else "misses limit")
            + ("" if usable else "  [FLAGGED: generator fell behind; not used]")
        )
    rates = sorted({rate for rate, _ in ladder(seconds)})
    n_steps = len(ladder(seconds))
    result.check("generator kept its schedule on every step (after one re-run)",
                 sum(len(v) for v in by_rate.values()) == n_steps,
                 f"{sum(len(v) for v in by_rate.values())} of {n_steps} steps usable")
    sustained = None
    for rate in rates:
        if by_rate.get(rate) and all(step["meets"] for step in by_rate[rate]):
            sustained = (rate, harness.median(step["throughput"] for step in by_rate[rate]))
    low_steps = by_rate.get(rates[0], [])
    low_latency = harness.median(step["p50"] for step in low_steps)
    low_cpu = harness.median(step["cpu"] for step in low_steps)
    served = BATCH_PACKETS * (n_sent - sum(refused.values()))
    ladder_cpu = sum(step.server_cpu_s for step in steps + discarded)
    report = by_rate.get(REPORT_RATE, [{"p50": 0.0, "p99": 0.0, "requests": 0}])[0]
    top = by_rate.get(rates[-1], [{"throughput": 0.0}])[0]
    result.notes.append(
        f"ingest_p50_ms/ingest_p99_ms over {report['requests']} requests at {REPORT_RATE} req/s; "
        f"ingest_sustained_pkts_per_s at the highest rate meeting p99 <= {1e3 * LATENCY_LIMIT_S:.0f} ms "
        f"with no refusal and no backlog ({sustained[0] if sustained else None} req/s); "
        f"p50 latency at {rates[0]} req/s (median of its steps) {1e3 * low_latency:.4f} ms; "
        f"saturated at {rates[-1]} req/s offered, the daemon completed {top['throughput']:.0f} pkts/s"
    )
    result.notes.append(
        f"analyze_p50_s = daemon on-CPU time per request at {rates[0]} req/s (median of its "
        f"{len(low_steps)} steps, {sum(step['requests'] for step in low_steps)} requests); "
        f"analyze_pkts_per_s = packets served per daemon CPU-second over the ladder"
    )
    result.metric("ingest_p50_ms", 1e3 * report["p50"], "ms")
    result.metric("ingest_p99_ms", 1e3 * report["p99"], "ms")
    result.metric("ingest_sustained_pkts_per_s", sustained[1] if sustained else 0.0, "pkts/s")
    result.metric("setup_s", harness.median(setup_times), "s")
    result.metric("analyze_p50_s", low_cpu, "s")
    result.metric("analyze_pkts_per_s", served / ladder_cpu if ladder_cpu else 0.0, "pkts/s")
    result.metric("peak_rss_mib", peak_rss, "MiB")

    if tracer is not None:
        labels = [f"req-{seq}" for seq in range(1, n_sent + 1)]
        spans.layer_metrics(result, tracer, labels, aggregate=harness.mean)
        self_s = tracer.self_times()
        totals = {}
        for (op, name), value in self_s.items():
            totals[name] = totals.get(name, 0.0) + value
        n = len(labels)
        decode = totals.get("engine.decode", 0.0) / n
        validate = totals.get("engine.validate", 0.0) / n
        ingest = sum(v for (op, name), v in tracer.durations().items() if name == "engine.ingest") / n
        result.metric("engine.decode_s", decode, "s")
        result.metric("engine.validate_s", validate, "s")
        result.metric("engine.ingest_s", ingest, "s")
        result.metric("engine.ns_per_packet", 1e9 * (decode + validate + ingest) / BATCH_PACKETS, "ns/packet")
        written = sum(v for (op, name), v in tracer.counts.items() if name == "checkpoint.count")
        write_s = totals.get("checkpoint.write", 0.0)
        result.metric("checkpoint.write_s", write_s / written if written else 0.0, "s")
        result.metric("checkpoint.bytes",
                      sum(v for (op, name), v in tracer.counts.items() if name == "checkpoint.bytes")
                      / written if written else 0.0, "bytes")
        result.metric("checkpoint.count", job_status.get("checkpoints_written", 0), "count")
        result.metric("detect.alarms", sum(len(v) for v in daemon_alarms.values()), "count")
        result.metric("server.requests_served", status.get("requests_served", 0), "count")
        result.metric("server.requests_failed", status.get("requests_failed", 0), "count")
        result.metric("server.backpressure_429", refused.get(429, 0), "count")
        result.metric("server.http_overhead_ms", 1e3 * (low_latency - harness.median(replay_times)), "ms")
        result.metric("generator.lag_ms", 1e3 * max(harness.percentile(s.lags, 99) for s in steps), "ms")
        result.metric("generator.inflight_max", max(s.inflight_max for s in steps), "count")
        result.metric("trace.overhead_s",
                      harness.median(traced_times[: len(replay_times)]) - harness.median(replay_times), "s")
        result.notes.append(
            f"in-process replay per request: untraced {1e3 * harness.median(replay_times):.4f} ms, "
            f"traced {1e3 * harness.median(traced_times[: len(replay_times)]):.4f} ms "
            f"(tracing overhead); HTTP overhead = ingest p50 minus untraced replay"
        )
        tracer.dump(harness.SPANS_DIR / f"spans-{workload}.json")
