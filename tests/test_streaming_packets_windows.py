"""Unit tests for repro.streaming.packet, window, and trace_io."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streaming.packet import PACKET_DTYPE, PacketTrace, concatenate_traces
from repro.streaming.trace_io import load_trace, save_trace
from repro.streaming.window import (
    ChunkedWindower,
    PushWindower,
    count_windows,
    iter_windows,
    window_boundaries,
)


def _trace_with_invalid(n: int = 100, every: int = 10) -> PacketTrace:
    """A trace where every *every*-th packet is invalid."""
    valid = np.ones(n, dtype=bool)
    valid[::every] = False
    return PacketTrace.from_arrays(
        src=np.arange(n) % 7,
        dst=(np.arange(n) + 1) % 7,
        valid=valid,
    )


class TestPacketTrace:
    def test_from_arrays_defaults(self):
        trace = PacketTrace.from_arrays([1, 2, 3], [4, 5, 6])
        assert trace.n_packets == 3
        assert trace.n_valid == 3
        assert trace.packets.dtype == PACKET_DTYPE
        np.testing.assert_array_equal(trace.packets["time"], [0.0, 1.0, 2.0])

    def test_from_arrays_shape_mismatch(self):
        with pytest.raises(ValueError):
            PacketTrace.from_arrays([1, 2], [3])

    def test_wrong_dtype_rejected(self):
        with pytest.raises(TypeError):
            PacketTrace(np.zeros(5))

    def test_empty_trace(self):
        trace = PacketTrace.empty()
        assert len(trace) == 0
        assert trace.duration == 0.0
        assert trace.unique_endpoints().size == 0

    def test_valid_only_filters(self):
        trace = _trace_with_invalid(100, 10)
        assert trace.n_valid == 90
        assert trace.valid_only().n_packets == 90

    def test_unique_endpoints(self):
        trace = PacketTrace.from_arrays([1, 1, 2], [5, 6, 5])
        np.testing.assert_array_equal(trace.unique_endpoints(), [1, 2, 5, 6])

    def test_hand_built_count_follows_the_records(self):
        # only the windowers carry a count; any other trace counts its
        # valid column on demand, so the count cannot go stale
        trace = PacketTrace.from_arrays([1, 2, 3], [4, 5, 6])
        assert trace.n_valid == 3
        trace.packets["valid"][0] = False
        assert trace.n_valid == 2
        assert trace.slice(0, 2).n_valid == 1

    def test_slice_is_view_semantics(self):
        trace = _trace_with_invalid(50)
        window = trace.slice(10, 20)
        assert window.n_packets == 10
        np.testing.assert_array_equal(window.sources, trace.sources[10:20])

    def test_duration(self):
        trace = PacketTrace.from_arrays([1, 2], [2, 3], time=[0.5, 2.0])
        assert trace.duration == pytest.approx(1.5)

    def test_total_bytes_counts_valid_only(self):
        trace = PacketTrace.from_arrays(
            [1, 2], [2, 3], size=[100, 200], valid=[True, False]
        )
        assert trace.total_bytes() == 100

    def test_iter_chunks(self):
        trace = _trace_with_invalid(25)
        chunks = list(trace.iter_chunks(10))
        assert [c.n_packets for c in chunks] == [10, 10, 5]

    def test_iter_chunks_invalid_size(self):
        with pytest.raises(ValueError):
            list(_trace_with_invalid(5).iter_chunks(0))

    def test_concatenate(self):
        a = PacketTrace.from_arrays([1], [2])
        b = PacketTrace.from_arrays([3], [4])
        combined = concatenate_traces([a, b])
        assert combined.n_packets == 2
        np.testing.assert_array_equal(combined.sources, [1, 3])

    def test_concatenate_empty_list(self):
        assert concatenate_traces([]).n_packets == 0


class TestWindowing:
    def test_count_windows(self):
        trace = _trace_with_invalid(100, 10)  # 90 valid packets
        assert count_windows(trace, 30) == 3
        assert count_windows(trace, 91) == 0

    def test_each_window_has_exact_valid_count(self):
        trace = _trace_with_invalid(200, 7)
        for window in iter_windows(trace, 40):
            assert window.n_valid == 40

    def test_windows_are_contiguous_and_ordered(self):
        trace = _trace_with_invalid(200, 9)
        boundaries = window_boundaries(trace, 50)
        assert boundaries[0] == 0
        assert np.all(np.diff(boundaries) > 0)

    def test_partial_window_dropped(self):
        trace = _trace_with_invalid(100, 10)  # 90 valid
        windows = list(iter_windows(trace, 40))
        assert len(windows) == 2
        total_valid = sum(w.n_valid for w in windows)
        assert total_valid == 80

    def test_all_valid_trace_windows_cover_everything(self):
        trace = PacketTrace.from_arrays(np.arange(90), np.arange(90) + 1)
        windows = list(iter_windows(trace, 30))
        assert len(windows) == 3
        assert sum(w.n_packets for w in windows) == 90

    def test_empty_trace(self):
        assert list(iter_windows(PacketTrace.empty(), 10)) == []

    def test_invalid_nv_rejected(self):
        with pytest.raises((ValueError, TypeError)):
            list(iter_windows(_trace_with_invalid(10), 0))


@st.composite
def _chunked_streams(draw):
    """A packet stream, a window size, a chunking of the stream, and a restore point."""
    n = draw(st.integers(min_value=0, max_value=300))
    kind = draw(st.sampled_from(["all-valid", "all-invalid", "mixed"]))
    if kind == "mixed":
        valid = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    else:
        valid = [kind == "all-valid"] * n
    trace = PacketTrace.from_arrays(
        np.arange(n) % 11, (np.arange(n) * 7) % 13, valid=np.asarray(valid, dtype=bool)
    )
    n_valid = draw(st.integers(min_value=1, max_value=40))
    # repeated cut points make empty chunks, which the windower must skip
    cuts = sorted(draw(st.lists(st.integers(min_value=0, max_value=n), max_size=12)))
    bounds = [0, *cuts, n]
    chunks = [trace.slice(a, b) for a, b in zip(bounds, bounds[1:])]
    restore_at = draw(st.integers(min_value=0, max_value=len(chunks)))
    return trace, n_valid, chunks, restore_at


def _assert_same_windows(windows, expected, n_valid):
    assert len(windows) == len(expected)
    for window, reference in zip(windows, expected):
        assert window.packets.tobytes() == reference.packets.tobytes()
        # the count a window carries is the count of its records
        assert window.n_valid == np.count_nonzero(window.packets["valid"]) == n_valid


class TestWindowerProperties:
    @given(stream=_chunked_streams())
    @settings(max_examples=200)
    def test_chunked_and_push_windows_match_iter_windows(self, stream):
        trace, n_valid, chunks, restore_at = stream
        expected = list(iter_windows(trace, n_valid))
        _assert_same_windows(expected, expected, n_valid)
        _assert_same_windows(list(ChunkedWindower(iter(chunks), n_valid)), expected, n_valid)

        # push the first chunks, checkpoint, and finish in a fresh windower
        first = PushWindower(n_valid)
        windows = [w for chunk in chunks[:restore_at] for w in first.push(chunk)]
        state = first.snapshot()
        assert np.count_nonzero(state["packets"]["valid"]) == first.buffered_valid
        second = PushWindower(n_valid)
        second.restore(state)
        assert (second.buffered_packets, second.buffered_valid) == (
            first.buffered_packets, first.buffered_valid
        )
        windows += [w for chunk in chunks[restore_at:] for w in second.push(chunk)]
        _assert_same_windows(windows, expected, n_valid)


class TestTraceIO:
    def test_round_trip(self, tmp_path):
        trace = _trace_with_invalid(64, 8)
        path = save_trace(trace, tmp_path / "trace.npz")
        loaded = load_trace(path)
        np.testing.assert_array_equal(loaded.packets, trace.packets)

    def test_round_trip_without_npz_suffix(self, tmp_path):
        trace = _trace_with_invalid(16)
        path = save_trace(trace, tmp_path / "capture")
        assert str(path).endswith(".npz")
        loaded = load_trace(path)
        assert loaded.n_packets == 16

    def test_creates_parent_directories(self, tmp_path):
        trace = _trace_with_invalid(8)
        path = save_trace(trace, tmp_path / "nested" / "dir" / "t.npz")
        assert load_trace(path).n_packets == 8

    def test_bad_version_rejected(self, tmp_path):
        trace = _trace_with_invalid(8)
        path = save_trace(trace, tmp_path / "t.npz")
        data = dict(np.load(path))
        data["version"] = np.int64(99)
        np.savez_compressed(path, **data)
        with pytest.raises(ValueError, match="version"):
            load_trace(path)
