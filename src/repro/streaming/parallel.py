"""Pluggable execution backends for the window-analysis map.

The paper's measurements were produced on an interactive supercomputer with
sparse-matrix parallelism; the laptop-scale equivalent here is a family of
execution strategies behind one :class:`ExecutionBackend` protocol.  Windows
are independent by construction (each aggregates a disjoint slice of
packets), so the map is embarrassingly parallel and the substrate can be
swapped beneath a stable analysis API:

* :class:`SerialBackend` — in-process, lazy, deterministic; the default and
  the debugging baseline.
* :class:`ProcessBackend` — a warm, process-wide ``multiprocessing`` pool
  driven through ``imap`` so results stream back in window order as they
  complete instead of barriering behind a single ``map`` call.  Items are
  whatever the caller maps — the single-pass engine maps *batches* of
  window payloads, so one task carries many windows — and the ``imap``
  chunksize is derived from the item (batch) count
  (:func:`default_chunksize`).  The pool outlives individual maps
  (:func:`shared_pool`), so repeated analyses stop paying worker start-up.
* :class:`StreamingBackend` — bounded-memory single-pass execution that
  overlaps window production (I/O, decompression, windowing) with analysis
  through a prefetch queue of fixed depth :data:`PREFETCH_DEPTH` fed by a
  background thread; at most that many items (window batches, as the
  engine maps them) wait in the queue at any moment.

All three yield results **in window order**, which is what lets the
incremental consumer (:class:`repro.streaming.pipeline.StreamAnalyzer`) fold
them into bit-identical pooled aggregates regardless of backend.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import queue
import threading
from typing import Callable, Iterable, Iterator, Protocol, Sequence, TypeVar, Union, runtime_checkable

from repro._util.logging import get_logger
from repro._util.validation import check_positive_int

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ProcessBackend",
    "StreamingBackend",
    "BACKEND_NAMES",
    "get_backend",
    "PREFETCH_DEPTH",
    "usable_cpu_count",
    "default_worker_count",
    "default_chunksize",
    "shared_pool",
    "shutdown_shared_pools",
]

_T = TypeVar("_T")
_R = TypeVar("_R")
_logger = get_logger("streaming.parallel")

#: Names accepted by :func:`get_backend` (and the CLI ``--backend`` flag).
BACKEND_NAMES = ("serial", "process", "streaming")


def usable_cpu_count() -> int:
    """CPUs this process may actually run on.

    Respects the scheduler affinity mask (container / cgroup CPU limits)
    where the platform exposes it, falling back to the raw CPU count.  This
    is the honest parallelism budget: spawning workers beyond it turns the
    process backend into pure overhead.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux platforms
        return os.cpu_count() or 1


def default_worker_count(*, reserve: int = 2, maximum: int = 16) -> int:
    """A sensible worker count: usable CPUs minus a *scaled* reserve, capped.

    The reserve (head-room for the parent process and the OS) is scaled to
    the machine: it only applies in full once at least ``reserve + 2`` CPUs
    are usable.  A flat ``cpus - reserve`` silently downgraded 2–3-CPU boxes
    to one worker — and therefore to serial execution — even though parallel
    hardware existed; now 2 and 3 usable CPUs yield 2 workers (reserve 0
    and 1 respectively), and only a true 1-CPU budget degrades to 1, which
    :meth:`ProcessBackend.map` treats as serial in-process execution — the
    right call when there is no parallel hardware to occupy.
    """
    cpus = usable_cpu_count()
    scaled_reserve = min(reserve, max(0, cpus - 2))
    return max(1, min(cpus - scaled_reserve, maximum))


def default_chunksize(n_items: int, n_workers: int) -> int:
    """Items handed to a worker per ``imap`` task: ``max(1, n // (4·workers))``.

    Four tasks per worker amortises dispatch overhead while still letting
    the pool balance uneven costs.  The engine maps *batches* of windows,
    so ``n_items`` is the batch count and the heuristic no longer
    over-chunks small workloads: a batched workload sized to ~4 tasks per
    worker resolves to chunksize 1, i.e. the batch itself is the unit of
    work-stealing.
    """
    if n_workers <= 0:
        raise ValueError("n_workers must be >= 1")
    return max(1, n_items // (4 * n_workers))


# -- warm shared pools --------------------------------------------------------

_POOLS: dict = {}
_POOLS_LOCK = threading.Lock()
_POOLS_ATEXIT_REGISTERED = False


def _start_method() -> str:
    # prefer fork where available: it avoids re-importing the scientific
    # stack in every worker, which dominates for second-scale workloads
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


class _PoolEntry:
    """One cached pool generation plus its in-flight map bookkeeping.

    The entry *is* the generation tag: a failed map retires its entry (so
    new maps start a fresh pool) but the pool itself is only terminated once
    the last in-flight map checks in.  Without this, one failed map would
    terminate a pool that a concurrent map — a daemon job and a campaign
    worker sharing the process, or two threads of one service — was still
    iterating, poisoning an innocent caller's results.
    """

    __slots__ = ("key", "pool", "active", "retired")

    def __init__(self, key, pool) -> None:
        self.key = key
        self.pool = pool
        self.active = 0  # maps currently iterating this pool
        self.retired = False  # no new maps; terminate when active hits 0


def _current_entry(n_workers: int) -> _PoolEntry:
    """The live cache entry for *n_workers*, creating pool + entry on demand."""
    global _POOLS_ATEXIT_REGISTERED
    n_workers = check_positive_int(n_workers, "n_workers")
    key = (_start_method(), n_workers)
    with _POOLS_LOCK:
        entry = _POOLS.get(key)
        if entry is None:
            _logger.debug("starting shared %s pool with %d workers", *key)
            pool = multiprocessing.get_context(key[0]).Pool(processes=n_workers)
            entry = _POOLS[key] = _PoolEntry(key, pool)
            if not _POOLS_ATEXIT_REGISTERED:
                atexit.register(shutdown_shared_pools)
                _POOLS_ATEXIT_REGISTERED = True
    return entry


def shared_pool(n_workers: int):
    """The process-wide worker pool for *n_workers*, started on first use.

    Pools are cached per worker count and reused across maps, so a campaign
    of many analyses pays worker start-up once instead of per call.  All
    cached pools are terminated at interpreter exit (or explicitly via
    :func:`shutdown_shared_pools`).
    """
    return _current_entry(n_workers).pool


def _checkout_shared_pool(n_workers: int) -> _PoolEntry:
    """Claim the current pool generation for one map (pairs with checkin)."""
    while True:
        entry = _current_entry(n_workers)
        with _POOLS_LOCK:
            if not entry.retired:  # else: raced a retire; take a fresh pool
                entry.active += 1
                return entry


def _checkin_shared_pool(entry: _PoolEntry, *, failed: bool) -> None:
    """Release one map's claim; a failed map retires its pool generation.

    Retiring removes the entry from the cache (new maps start a clean pool)
    but defers termination until every in-flight map on the same generation
    has checked in — concurrent maps on a shared pool must never have their
    workers killed by a neighbour's failure.
    """
    with _POOLS_LOCK:
        entry.active -= 1
        if failed and not entry.retired:
            entry.retired = True
            if _POOLS.get(entry.key) is entry:
                del _POOLS[entry.key]
        terminate = entry.retired and entry.active == 0
    if terminate:
        entry.pool.terminate()
        entry.pool.join()


def shutdown_shared_pools() -> None:
    """Retire every cached shared pool (idempotent; re-use restarts them).

    Pools with no map in flight are terminated immediately; a pool still
    being iterated is terminated by the last map's checkin instead, so a
    shutdown cannot poison concurrent results.
    """
    with _POOLS_LOCK:
        entries = list(_POOLS.values())
        _POOLS.clear()
        to_terminate = []
        for entry in entries:
            entry.retired = True
            if entry.active == 0:
                to_terminate.append(entry)
    for entry in to_terminate:
        entry.pool.terminate()
        entry.pool.join()


@runtime_checkable
class ExecutionBackend(Protocol):
    """Strategy protocol for applying an analysis function to a window stream.

    Implementations expose a ``name`` (one of :data:`BACKEND_NAMES` for the
    built-ins) and a :meth:`map` that applies *func* to every item of
    *items*, yielding results **in input order**.  ``map`` must be safe to
    consume lazily; whether the input iterable is materialized is a backend
    property (the streaming backend never does).
    """

    name: str

    def map(self, func: Callable[[_T], _R], items: Iterable[_T]) -> Iterator[_R]:
        """Apply *func* to every item, yielding results in input order."""
        ...


class SerialBackend:
    """In-process lazy execution — one window at a time, no buffering."""

    name = "serial"

    def map(self, func: Callable[[_T], _R], items: Iterable[_T]) -> Iterator[_R]:
        """Apply *func* item-by-item as the result iterator is consumed."""
        return (func(item) for item in items)


class ProcessBackend:
    """Worker-pool execution streaming results back through ``imap``.

    The input iterable is materialized (the pool needs to pickle tasks out
    ahead of results coming back), so memory is O(items); use
    :class:`StreamingBackend` when the trace does not fit.  Results still
    stream back one task at a time, so downstream folding overlaps with
    worker compute instead of waiting on a ``pool.map`` barrier.

    Maps run on the warm :func:`shared_pool` for the backend's worker
    count: the workers persist across calls, so only the first map pays
    pool start-up.  A map that raises retires its pool generation (worker
    state is no longer trusted): the next map starts a fresh pool, while
    concurrent maps still iterating the retired pool finish unharmed.
    """

    name = "process"

    def __init__(self, n_workers: int | None = None) -> None:
        self.n_workers = default_worker_count() if n_workers is None else check_positive_int(n_workers, "n_workers")

    def effective_workers(self, n_items: int) -> int:
        """Workers a map over *n_items* would actually occupy (1 = serial)."""
        return max(0, min(self.n_workers, n_items))

    def downgraded(self, n_items: int) -> bool:
        """Whether a map over *n_items* degrades to serial execution.

        The one place the downgrade decision is made and logged — both
        :meth:`map` and the engine's batched payload path consult it, so
        the policy and its log line cannot drift apart.
        """
        if self.effective_workers(n_items) > 1:
            return False
        if self.n_workers > 1 and n_items:
            _logger.info(
                "downgrading to serial execution: %d task(s) cannot occupy %d workers",
                n_items, self.n_workers,
            )
        return True

    def map(self, func: Callable[[_T], _R], items: Iterable[_T]) -> Iterator[_R]:
        """Apply *func* across the pool, yielding results in input order."""
        item_list: Sequence[_T] = items if isinstance(items, Sequence) else list(items)
        if not item_list:
            return iter(())
        if self.downgraded(len(item_list)):
            return SerialBackend().map(func, item_list)
        n_workers = self.effective_workers(len(item_list))
        chunksize = default_chunksize(len(item_list), n_workers)
        _logger.debug(
            "mapping %d tasks across %d workers (chunksize %d)", len(item_list), n_workers, chunksize
        )
        return self._imap(func, item_list, n_workers, chunksize)

    @staticmethod
    def _imap(func, item_list, n_workers, chunksize) -> Iterator:
        entry = _checkout_shared_pool(n_workers)
        failed = False
        try:
            yield from entry.pool.imap(func, item_list, chunksize=chunksize)
        except GeneratorExit:
            # the consumer abandoned the iteration — no worker failed; the
            # pool is healthy and in-flight tasks simply drain in the
            # background, so keep it warm
            raise
        except BaseException:
            # a failed map leaves in-flight tasks of unknown state behind;
            # retire this pool generation so the next map starts clean —
            # concurrent maps already iterating it finish first (checkin
            # terminates only once the last one releases its claim)
            failed = True
            raise
        finally:
            _checkin_shared_pool(entry, failed=failed)


#: Depth of the streaming backend's prefetch queue, in mapped items (window
#: batches, as the engine maps them).
PREFETCH_DEPTH = 4

#: How long a map teardown waits for the prefetch producer thread to exit
#: before logging that it is still alive (it cannot be killed; an input
#: iterator blocked in I/O pins it until that read returns).
_PRODUCER_JOIN_TIMEOUT = 5.0


class _PrefetchFailure:
    """Carries a producer-side exception across the prefetch queue."""

    def __init__(self, error: BaseException) -> None:
        self.error = error


class StreamingBackend:
    """Bounded-memory execution overlapping window production with analysis.

    A daemon thread pulls items from the input iterator into a queue of
    fixed depth :data:`PREFETCH_DEPTH` while the consuming thread applies
    *func*; the queue back-pressures the producer, so at most
    ``PREFETCH_DEPTH + 1`` items are alive at any moment no matter how long
    the trace is.  Producer exceptions are re-raised at the consumption
    point; if the consumer raises or abandons the result iterator, the
    producer is signalled to stop so no thread (or buffered window)
    outlives the map.
    """

    name = "streaming"

    def map(self, func: Callable[[_T], _R], items: Iterable[_T]) -> Iterator[_R]:
        """Apply *func* to the stream with a fixed-depth prefetch buffer."""
        return self._consume(func, iter(items))

    def _consume(self, func, items) -> Iterator:
        fence = queue.Queue(maxsize=PREFETCH_DEPTH)
        done = object()
        stop = threading.Event()

        def put(obj) -> bool:
            # bounded put that gives up when the consumer has gone away,
            # so an abandoned map never leaves a thread blocked on a full queue
            while not stop.is_set():
                try:
                    fence.put(obj, timeout=0.05)
                    return True
                except queue.Full:
                    continue
            return False

        def produce() -> None:
            try:
                for item in items:
                    if not put(item):
                        return
            except BaseException as error:  # noqa: BLE001 - forwarded to consumer
                if not put(_PrefetchFailure(error)):
                    # the consumer is gone and will never observe this error;
                    # a silent drop would bury a real producer failure
                    _logger.warning(
                        "streaming producer error dropped after the consumer "
                        "abandoned the map: %r", error,
                    )
            else:
                put(done)

        producer = threading.Thread(target=produce, name="repro-prefetch", daemon=True)
        producer.start()
        try:
            while True:
                item = fence.get()
                if item is done:
                    break
                if isinstance(item, _PrefetchFailure):
                    raise item.error
                yield func(item)
        finally:
            stop.set()
            # drain the queue so a producer blocked on a full slot wakes on
            # its very next put attempt instead of waiting out put timeouts
            while True:
                try:
                    fence.get_nowait()
                except queue.Empty:
                    break
            producer.join(timeout=_PRODUCER_JOIN_TIMEOUT)
            if producer.is_alive():
                # honest deadline: say so when the thread outlives the map
                # (an input iterator blocked in I/O can pin it) instead of
                # silently pretending the join succeeded
                _logger.warning(
                    "streaming producer thread still alive %.1fs after map "
                    "teardown; the input iterator appears blocked",
                    _PRODUCER_JOIN_TIMEOUT,
                )


def get_backend(
    backend: Union[str, ExecutionBackend, None] = None,
    *,
    n_workers: int | None = None,
) -> ExecutionBackend:
    """Resolve a backend specification to an :class:`ExecutionBackend`.

    *backend* may be a name from :data:`BACKEND_NAMES`, an already-built
    backend instance (returned as-is), or ``None`` — which preserves the
    historical behaviour of the ``n_workers`` argument: serial unless
    ``n_workers > 1``, then a process pool.  With ``backend="process"`` an
    explicit *n_workers* is honoured exactly (``1`` degrades to serial
    execution, logged); ``None`` picks :func:`default_worker_count`.
    """
    if backend is None:
        backend = "process" if n_workers is not None and n_workers > 1 else "serial"
    if isinstance(backend, str):
        if backend == "process":
            return ProcessBackend(n_workers)
        if backend == "serial":
            return SerialBackend()
        if backend == "streaming":
            return StreamingBackend()
        raise ValueError(f"unknown backend {backend!r}; expected one of {BACKEND_NAMES}")
    if isinstance(backend, ExecutionBackend):
        return backend
    raise TypeError(f"backend must be a name, ExecutionBackend, or None, got {type(backend).__name__}")
