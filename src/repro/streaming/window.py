"""Fixed-valid-packet windowing of traces.

"An essential step for increasing the accuracy of the statistical measures
of Internet traffic is using windows with the same number of valid packets
``N_V``" (Section II).  :func:`iter_windows` cuts a trace into consecutive
windows each containing exactly ``N_V`` valid packets (invalid packets ride
along inside whichever window they fall into but do not count toward the
budget); a trailing partial window is dropped so every emitted window is
statistically comparable.

:class:`ChunkedWindower` is the out-of-core counterpart: it consumes an
iterator of trace *chunks* (e.g. :func:`repro.streaming.trace_io.iter_trace_chunks`)
and yields exactly the same windows as :func:`iter_windows` would on the
concatenated trace, while only ever buffering one chunk plus the leftover
packets of the current incomplete window.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Tuple, TypeVar

import numpy as np

from repro._util.validation import check_positive_int
from repro.streaming.packet import PACKET_DTYPE, PacketTrace

__all__ = [
    "iter_windows",
    "iter_windows_chunked",
    "iter_batches",
    "ChunkedWindower",
    "PushWindower",
    "count_windows",
    "window_boundaries",
]

_T = TypeVar("_T")


def iter_batches(items: Iterable[_T], batch_size: int) -> Iterator[Tuple[_T, ...]]:
    """Group an iterable into consecutive tuples of *batch_size* (last short).

    Order-preserving and lazy — one batch is materialized at a time, so
    batching a window stream keeps its bounded-memory property.  The
    execution backends use this to move whole window batches through one
    queue slot / worker task instead of paying per-window overhead.
    """
    batch_size = check_positive_int(batch_size, "batch_size")
    batch: list = []
    for item in items:
        batch.append(item)
        if len(batch) == batch_size:
            yield tuple(batch)
            batch = []
    if batch:
        yield tuple(batch)


def window_boundaries(trace: PacketTrace, n_valid: int) -> np.ndarray:
    """Packet-index boundaries of consecutive ``N_V``-valid-packet windows.

    Returns an array ``b`` of length ``n_windows + 1``; window ``k`` spans
    packet indices ``[b[k], b[k+1])``.  Only complete windows are included.
    """
    n_valid = check_positive_int(n_valid, "n_valid")
    if len(trace) == 0:
        return np.zeros(1, dtype=np.int64)
    cumulative_valid = np.cumsum(trace.packets["valid"].astype(np.int64))
    total_valid = int(cumulative_valid[-1])
    n_windows = total_valid // n_valid
    if n_windows == 0:
        return np.zeros(1, dtype=np.int64)
    # boundary k is one past the packet index where the k*n_valid-th valid packet sits
    targets = np.arange(1, n_windows + 1, dtype=np.int64) * n_valid
    ends = np.searchsorted(cumulative_valid, targets, side="left") + 1
    return np.concatenate([[0], ends]).astype(np.int64)


def count_windows(trace: PacketTrace, n_valid: int) -> int:
    """Number of complete ``N_V``-valid-packet windows in the trace."""
    n_valid = check_positive_int(n_valid, "n_valid")
    return trace.n_valid // n_valid


def iter_windows(trace: PacketTrace, n_valid: int) -> Iterator[PacketTrace]:
    """Yield consecutive windows each containing exactly *n_valid* valid packets.

    Windows are shared-memory slices of the parent trace; the final partial
    window (fewer than *n_valid* valid packets) is not emitted.
    """
    n_valid = check_positive_int(n_valid, "n_valid")
    yield from _cut(trace.packets, trace.n_valid, n_valid)[0]


def _cut(packets: np.ndarray, total_valid: int, n_valid: int) -> Tuple[list[PacketTrace], int]:
    """The complete windows of *packets*, which hold *total_valid* valid packets.

    Returns the windows and the packet index one past the last of them.
    When every packet is valid, window ``k`` ends at ``(k+1)·N_V``, so the
    boundaries are arithmetic; otherwise :func:`window_boundaries` finds
    them in the running count of the ``valid`` column.  Every window
    carries its valid count (exactly *n_valid*), so the kernel's column
    extractors need not scan ``valid`` again.
    """
    if total_valid == packets.size:
        bounds = range(0, total_valid + 1, n_valid)
    else:
        bounds = window_boundaries(PacketTrace(packets), n_valid).tolist()
    windows = [
        PacketTrace._counted(packets[start:stop], n_valid)
        for start, stop in zip(bounds, bounds[1:])
    ]
    return windows, bounds[-1]


class PushWindower:
    """Incremental push-driven windower: feed chunks, receive cut windows.

    The *push* counterpart of :class:`ChunkedWindower` — and its actual
    implementation: both cut by one rule (arithmetic for an all-valid
    buffer, :func:`window_boundaries` otherwise) over a buffer that always
    starts at a window boundary, so for **any** re-batching of
    the same packet stream the emitted windows are packet-identical to
    ``iter_windows(full_trace, n_valid)``.  That invariance is what lets a
    resident daemon fed arbitrary network batches reproduce a one-shot
    analysis bit for bit (``tests/test_service_properties.py``).

    Attributes
    ----------
    buffered_packets / buffered_valid:
        Packets (total / valid) currently held for the next incomplete
        window — at most one window's worth plus the tail of the last chunk.
    max_buffered_packets:
        High-water mark of the internal packet buffer.
    n_chunks:
        Number of chunks pushed so far.
    """

    def __init__(self, n_valid: int) -> None:
        self.n_valid = check_positive_int(n_valid, "n_valid")
        self.max_buffered_packets = 0
        self.n_chunks = 0
        # accumulate chunk arrays and only concatenate once a window's worth
        # of valid packets is buffered — work per window stays O(window span)
        # even when chunks are tiny relative to the window
        self._parts: list[np.ndarray] = []
        self._n_buffered = 0
        self._valid_buffered = 0

    @property
    def buffered_packets(self) -> int:
        """Packets currently buffered toward the next incomplete window."""
        return self._n_buffered

    @property
    def buffered_valid(self) -> int:
        """Valid packets currently buffered toward the next incomplete window."""
        return self._valid_buffered

    def push(self, chunk: PacketTrace) -> list[PacketTrace]:
        """Feed one chunk; return the complete windows it just closed.

        Returns ``[]`` while the buffer is still short of ``n_valid`` valid
        packets.  A trailing partial window is never emitted — it stays
        buffered until later pushes complete it (matching the drop-partial
        semantics of :func:`iter_windows` at end of stream).
        """
        if not isinstance(chunk, PacketTrace):
            raise TypeError(f"chunks must be PacketTrace instances, got {type(chunk).__name__}")
        self.n_chunks += 1
        if chunk.n_packets == 0:
            return []
        self._parts.append(chunk.packets)
        self._n_buffered += chunk.n_packets
        self._valid_buffered += chunk.n_valid
        self.max_buffered_packets = max(self.max_buffered_packets, self._n_buffered)
        if self._valid_buffered < self.n_valid:
            return []
        buffered = self._parts[0] if len(self._parts) == 1 else np.concatenate(self._parts)
        windows, end = _cut(buffered, self._valid_buffered, self.n_valid)
        leftover = buffered[end:]
        self._parts = [leftover] if leftover.size else []
        self._n_buffered = int(leftover.size)
        self._valid_buffered -= len(windows) * self.n_valid
        return windows

    def snapshot(self) -> dict:
        """Exact buffered state for service checkpoints.

        The pending parts are concatenated into one structured packet array;
        concatenation order is push order, so a restored windower cuts the
        same windows at the same boundaries as the original would have.
        """
        if self._parts:
            packets = self._parts[0] if len(self._parts) == 1 else np.concatenate(self._parts)
            packets = packets.copy()
        else:
            packets = np.empty(0, dtype=PACKET_DTYPE)
        return {
            "n_valid": int(self.n_valid),
            "packets": packets,
            "n_chunks": int(self.n_chunks),
            "max_buffered_packets": int(self.max_buffered_packets),
        }

    def restore(self, state: dict) -> None:
        """Replace the buffered state with a :meth:`snapshot` payload."""
        if int(state["n_valid"]) != self.n_valid:
            raise ValueError(
                f"windower snapshot was taken with n_valid={state['n_valid']}, "
                f"cannot restore into n_valid={self.n_valid}"
            )
        trace = PacketTrace(np.asarray(state["packets"]))  # validates dtype
        packets = trace.packets.copy()
        self._parts = [packets] if packets.size else []
        self._n_buffered = int(packets.size)
        self._valid_buffered = trace.n_valid
        self.n_chunks = int(state["n_chunks"])
        self.max_buffered_packets = int(state["max_buffered_packets"])


class ChunkedWindower:
    """Single-pass windower over an iterator of trace chunks.

    The buffer always starts at a window boundary (emitted windows are cut
    off the front), so window boundaries computed chunk-locally coincide with
    the global boundaries of the concatenated trace: for any chunking of a
    trace, ``ChunkedWindower(chunks, n_valid)`` yields packet-identical
    windows to ``iter_windows(full_trace, n_valid)``.  The cutting itself
    lives in :class:`PushWindower` (this class is the pull-style adapter
    over it), so batch analyses and the resident service daemon share one
    windowing code path.

    Attributes
    ----------
    max_buffered_packets:
        High-water mark of the internal packet buffer — bounded by the
        largest chunk plus one window's worth of leftover packets, which is
        what makes the streaming engine's memory O(chunk), not O(trace).
    n_chunks:
        Number of chunks consumed so far.
    """

    def __init__(self, chunks: Iterable[PacketTrace], n_valid: int) -> None:
        self.n_valid = check_positive_int(n_valid, "n_valid")
        self._chunks = iter(chunks)
        self._pusher = PushWindower(self.n_valid)

    @property
    def max_buffered_packets(self) -> int:
        """High-water mark of the internal packet buffer."""
        return self._pusher.max_buffered_packets

    @property
    def n_chunks(self) -> int:
        """Number of chunks consumed so far."""
        return self._pusher.n_chunks

    def __iter__(self) -> Iterator[PacketTrace]:
        for chunk in self._chunks:
            yield from self._pusher.push(chunk)
        # the trailing partial window (if any) is dropped, matching iter_windows


def iter_windows_chunked(chunks: Iterable[PacketTrace], n_valid: int) -> ChunkedWindower:
    """Window an iterator of trace chunks without materializing the trace.

    Thin constructor around :class:`ChunkedWindower`; iterate the returned
    object to get the windows, then read its buffering statistics.
    """
    return ChunkedWindower(chunks, n_valid)
