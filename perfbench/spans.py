"""In-memory span tracer wrapped around the public calls into each layer.

A traced run installs :func:`install_layer_probes`, which replaces a few
public functions and methods of :mod:`repro` with wrappers that open a span
around the original call and count work at the same boundary (packets,
bytes, windows).  Nothing under ``src/`` changes: the wrappers live here and
are removed by :meth:`Tracer.uninstall`.

Spans carry a name, start and end (``perf_counter_ns``), the index of the
enclosing span and the operation they belong to.  A span's self time is its
duration minus the time covered by its child spans, so the layer times of
one operation add up without double counting.  Spans stay in memory and are
written out once, by :meth:`Tracer.dump`, when the run ends.

Only the main thread records; calls from other threads (the campaign lease
heartbeat, for one) run the original code untraced.
"""

from __future__ import annotations

import contextlib
import functools
import json
import pickle
import threading
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    """Spans and counts of one traced run, grouped by operation."""

    def __init__(self) -> None:
        #: ``[name, start_ns, end_ns, parent_index, op]`` per span
        self.spans: list[list] = []
        #: ``(op, name) -> value`` for counts recorded at span boundaries
        self.counts: dict = defaultdict(float)
        #: operation label every new span and count is attributed to
        self.op: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._thread = threading.get_ident()

    # -- recording -------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        if threading.get_ident() != self._thread:
            yield
            return
        record = [name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()

    def count(self, name: str, value: float = 1) -> None:
        if threading.get_ident() == self._thread:
            self.counts[(self.op, name)] += value

    def high_water(self, name: str, value: float) -> None:
        if threading.get_ident() == self._thread:
            key = (self.op, name)
            self.counts[key] = max(self.counts.get(key, 0), value)

    # -- patching --------------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._patches.append((owner, attr, original))

    def wrap_call(self, owner, attr: str, name: str, after=None) -> None:
        """Time every call of ``owner.attr`` as a span *name*.

        ``after(args, kwargs, result)`` runs outside the span to record
        counts, so counting never inflates the layer's time.
        """

        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                with self.span(name):
                    result = original(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result)
                return result

            return wrapper

        self._patch(owner, attr, make)

    def wrap_iter(self, owner, attr: str, name: str, on_item=None) -> None:
        """Time each step of the iterator ``owner.attr(...)`` returns as a span *name*."""

        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                with self.span(name):
                    iterator = iter(original(*args, **kwargs))
                return self._steps(name, iterator, on_item)

            return wrapper

        self._patch(owner, attr, make)

    def _steps(self, name, iterator, on_item):
        while True:
            with self.span(name):
                try:
                    item = next(iterator)
                except StopIteration:
                    return
            if on_item is not None:
                on_item(item)
            yield item

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading ---------------------------------------------------------------

    def self_times(self) -> dict:
        """``(op, name) -> total self time in seconds`` over all spans."""
        covered = [0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict = defaultdict(float)
        for index, (name, start, end, parent, op) in enumerate(self.spans):
            totals[(op, name)] += (end - start - covered[index]) / 1e9
        return totals

    def durations(self) -> dict:
        """``(op, name) -> total duration in seconds``, children included."""
        totals: dict = defaultdict(float)
        for name, start, end, _parent, op in self.spans:
            totals[(op, name)] += (end - start) / 1e9
        return totals

    def calls(self) -> dict:
        """``(op, name) -> number of spans`` (iterator spans count each step)."""
        totals: dict = defaultdict(int)
        for name, _start, _end, _parent, op in self.spans:
            totals[(op, name)] += 1
        return totals

    def dump(self, path: Path) -> None:
        """Write every span and count as JSON (one object, spans in start order)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "fields": ["name", "start_ns", "end_ns", "parent", "op"],
            "spans": self.spans,
            "counts": [[op, name, value] for (op, name), value in sorted(self.counts.items(), key=str)],
        }
        path.write_text(json.dumps(payload))


def per_op(values: dict, name: str, ops) -> list[float]:
    """The value of *name* in each of *ops* (0 where the op recorded none)."""
    return [float(values.get((op, name), 0.0)) for op in ops]


def install_layer_probes(tracer: Tracer) -> None:
    """Wrap the public layer calls every workload may go through.

    Layers that a workload never calls record nothing, and their metrics
    read 0 for it.
    """
    import repro.campaigns.store as store_mod
    import repro.detect.analyzer as detect_mod
    import repro.scenarios.source as source_mod
    import repro.streaming.kernel as kernel_mod
    import repro.streaming.parallel as parallel_mod
    import repro.streaming.pipeline as pipeline_mod
    import repro.streaming.shm as shm_mod
    import repro.streaming.window as window_mod

    # streaming.trace_io: analyze_trace reads stored shards through this name
    def on_chunk(chunk):
        tracer.count("trace_io.chunks")
        tracer.count("trace_io.bytes", chunk.packets.nbytes)

    tracer.wrap_iter(pipeline_mod, "iter_trace_chunks", "trace_io.read", on_chunk)

    # streaming.window: both the pull (ChunkedWindower) and the push (service)
    # windowers cut through PushWindower.push
    def after_push(args, _kwargs, windows):
        tracer.count("window.windows", len(windows))
        tracer.high_water("window.max_buffered_packets", args[0].max_buffered_packets)

    tracer.wrap_call(window_mod.PushWindower, "push", "window.cut", after_push)

    # streaming.kernel: the exact per-window kernel (in-process paths)
    def after_kernel(args, _kwargs, _result):
        tracer.count("kernel.packets", args[0].n_packets)

    tracer.wrap_call(kernel_mod, "window_products", "kernel.exact", after_kernel)

    # streaming.sketch: the sketch tier, called by name from the pipeline
    def after_sketch(args, _kwargs, result):
        tracer.count("sketch.packets", len(args[0]))
        tracer.count("sketch.windows")
        tracer.count("sketch.payload_bytes", result[3].nbytes)

    tracer.wrap_call(pipeline_mod, "sketch_products", "sketch.build", after_sketch)

    # streaming.pipeline fold + analysis.pooling
    tracer.wrap_call(pipeline_mod.StreamAnalyzer, "update", "fold.update")
    tracer.wrap_call(pipeline_mod, "pool_differential_cumulative", "pool")

    # core.zm_fit, as WindowedAnalysis.fit_zipf_mandelbrot calls it
    tracer.wrap_call(pipeline_mod, "fit_zipf_mandelbrot", "fit.zm")

    # detect: the detector wrapper around the fold (its fold/pool calls are
    # child spans, so its self time is the detectors' own work)
    tracer.wrap_call(detect_mod.DetectingAnalyzer, "update", "detect.update")

    # scenarios: every chunk a scenario source generates
    def on_block(chunk):
        tracer.count("scenarios.packets", chunk.n_packets)

    tracer.wrap_iter(source_mod.ScenarioTraceSource, "__iter__", "scenarios.generate", on_block)

    # campaigns.store
    def after_put(args, _kwargs, _result):
        store, key, payload = args[0], args[1], args[2]
        tracer.count("store.put_bytes", store.record(key)["payload_bytes"])
        tracer.count("store.pickle_bytes", len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)))

    tracer.wrap_call(store_mod.ResultStore, "put", "store.put", after_put)
    tracer.wrap_call(store_mod.ResultStore, "__contains__", "store.contains")
    tracer.wrap_call(store_mod.ResultStore, "get", "store.get")

    # service.checkpoint writes go through ResultStore.put_checkpoint; the
    # written size is read back from the generation's two files
    def after_checkpoint(args, kwargs, _result):
        store, key = args[0], args[1]
        seq = kwargs["seq"]
        tracer.count("checkpoint.count")
        for path in store._checkpoint_paths(key, seq):
            tracer.count("checkpoint.bytes", path.stat().st_size)

    tracer.wrap_call(store_mod.ResultStore, "put_checkpoint", "checkpoint.write", after_checkpoint)

    # streaming.parallel + streaming.shm
    def after_publish(_args, _kwargs, published):
        tracer.count("parallel.bytes_published", published.nbytes)

    tracer.wrap_call(shm_mod, "publish_payloads", "parallel.publish", after_publish)
    tracer.wrap_iter(parallel_mod.ProcessBackend, "map", "parallel.map")


def layer_metrics(result, tracer, labels, aggregate=None) -> None:
    """Every layer's self time and counts per operation, over the ops *labels*.

    *aggregate* folds the per-operation values (default: the median).
    """
    import harness

    aggregate = aggregate or harness.median
    self_s = tracer.self_times()

    def med(name, source=self_s):
        return aggregate(per_op(source, name, labels))

    counts = tracer.counts
    result.metric("trace_io.read_s", med("trace_io.read"), "s")
    result.metric("trace_io.chunks", med("trace_io.chunks", counts), "count")
    result.metric("trace_io.bytes", med("trace_io.bytes", counts), "bytes")
    result.metric("window.cut_s", med("window.cut"), "s")
    result.metric("window.windows", med("window.windows", counts), "count")
    result.metric("window.max_buffered_packets", med("window.max_buffered_packets", counts), "packets")
    kernel_s = med("kernel.exact")
    kernel_packets = med("kernel.packets", counts)
    result.metric("kernel.exact_s", kernel_s, "s")
    result.metric("kernel.exact_ns_per_packet", 1e9 * kernel_s / kernel_packets if kernel_packets else 0.0,
                  "ns/packet")
    sketch_s = med("sketch.build")
    sketch_packets = med("sketch.packets", counts)
    sketch_windows = med("sketch.windows", counts)
    result.metric("sketch.build_s", sketch_s, "s")
    result.metric("sketch.ns_per_packet", 1e9 * sketch_s / sketch_packets if sketch_packets else 0.0,
                  "ns/packet")
    result.metric("sketch.payload_bytes",
                  med("sketch.payload_bytes", counts) / sketch_windows if sketch_windows else 0.0, "bytes")
    result.metric("fold.update_s", med("fold.update"), "s")
    result.metric("pool.s", med("pool"), "s")
    result.metric("fit.zm_s", med("fit.zm"), "s")
    result.metric("fit.calls", med("fit.zm", tracer.calls()), "count")
    result.metric("detect.update_s", med("detect.update"), "s")
    result.metric("scenarios.generate_s", med("scenarios.generate"), "s")
    result.metric("scenarios.packets", med("scenarios.packets", counts), "count")
    result.metric("store.put_s", med("store.put"), "s")
    result.metric("store.put_bytes", med("store.put_bytes", counts), "bytes")
    result.metric("store.pickle_bytes", med("store.pickle_bytes", counts), "bytes")
    result.metric("store.contains_s", med("store.contains"), "s")
    result.metric("store.get_s", med("store.get"), "s")
    result.metric("parallel.publish_s", med("parallel.publish"), "s")
    result.metric("parallel.bytes_published", med("parallel.bytes_published", counts), "bytes")
    result.metric("parallel.map_s", med("parallel.map"), "s")
