"""Property harness pinning the fused window kernel to the matrix oracle.

The fused sort-based kernel (:mod:`repro.streaming.kernel`) must be a pure
optimisation: for **every** window, :func:`repro.streaming.pipeline.analyze_window`
(kernel) and :func:`repro.streaming.pipeline.analyze_window_image` (the
sparse ``A_t`` route it replaced) must produce *exactly* equal aggregates
and all five Figure-1 histograms — integer-exact, not approximately.  The
hypothesis strategies below deliberately cover the adversarial corners:
empty windows, all-invalid windows, single-edge windows, duplicate-heavy
traffic, and endpoint ids at the 32-bit packing boundary (including ids
beyond it, which must take the oracle fallback and still agree).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.streaming.kernel as kernel
from repro.streaming.aggregates import QUANTITY_NAMES
from repro.streaming.kernel import (
    KERNEL_MAX_ID,
    column_products,
    fused_products,
    image_products,
    packable,
    payload_columns,
    valid_columns,
    window_payload,
)
from repro.streaming.packet import PacketTrace
from repro.streaming.pipeline import (
    WindowTask,
    analyze_window,
    analyze_window_image,
)
from repro.streaming.window import iter_windows

# -- strategies ---------------------------------------------------------------

#: Id pools that stress distinct kernel regimes.
_SMALL_IDS = st.integers(min_value=0, max_value=4)  # duplicate-heavy
_MEDIUM_IDS = st.integers(min_value=0, max_value=10_000)
_BOUNDARY_IDS = st.sampled_from(
    [0, 1, 2**31 - 1, 2**31, 2**32 - 2, KERNEL_MAX_ID]
)
_WIDE_IDS = st.integers(min_value=-5, max_value=2**40)  # exercises the fallback

_ID_POOLS = st.sampled_from([_SMALL_IDS, _MEDIUM_IDS, _BOUNDARY_IDS, _WIDE_IDS])


@st.composite
def windows(draw) -> PacketTrace:
    """An adversarial window: empty / all-invalid / duplicate-heavy / boundary ids."""
    n = draw(st.integers(min_value=0, max_value=120))
    ids = draw(_ID_POOLS)
    src = draw(st.lists(ids, min_size=n, max_size=n))
    dst = draw(st.lists(ids, min_size=n, max_size=n))
    valid = draw(
        st.one_of(
            st.just([True] * n),
            st.just([False] * n),
            st.lists(st.booleans(), min_size=n, max_size=n),
        )
    )
    return PacketTrace.from_arrays(
        np.asarray(src, dtype=np.int64),
        np.asarray(dst, dtype=np.int64),
        valid=np.asarray(valid, dtype=bool),
    )


def assert_products_equal(result, oracle) -> None:
    """Exact equality of aggregates and every histogram, dtypes included."""
    assert result.aggregates == oracle.aggregates
    assert set(result.histograms) == set(oracle.histograms) == set(QUANTITY_NAMES)
    for name in QUANTITY_NAMES:
        mine, theirs = result.histograms[name], oracle.histograms[name]
        assert mine.degrees.dtype == theirs.degrees.dtype == np.int64
        assert mine.counts.dtype == theirs.counts.dtype == np.int64
        assert np.array_equal(mine.degrees, theirs.degrees), name
        assert np.array_equal(mine.counts, theirs.counts), name


# -- kernel ≡ oracle ----------------------------------------------------------


class TestKernelEquivalence:
    @given(window=windows())
    @settings(max_examples=200)
    def test_kernel_matches_image_oracle(self, window):
        assert_products_equal(analyze_window(window), analyze_window_image(window))

    @given(window=windows())
    @settings(max_examples=100)
    def test_payload_roundtrip_matches_direct_analysis(self, window):
        payload = window_payload(window)
        ((result, pooled),) = WindowTask(None, QUANTITY_NAMES, pool=True)((payload,))
        direct = analyze_window(window)
        assert_products_equal(result, direct)
        # worker-side pooling must be bitwise what the fold would compute
        from repro.analysis.pooling import pool_differential_cumulative

        for name in QUANTITY_NAMES:
            expected = pool_differential_cumulative(direct.histograms[name])
            assert np.array_equal(pooled[name].bin_edges, expected.bin_edges)
            assert np.array_equal(pooled[name].values, expected.values)
            assert pooled[name].total == expected.total

    def test_empty_window(self):
        window = PacketTrace.empty()
        result = analyze_window(window)
        assert result.aggregates.valid_packets == 0
        assert_products_equal(result, analyze_window_image(window))

    def test_all_invalid_window(self):
        window = PacketTrace.from_arrays([1, 2, 3], [4, 5, 6], valid=[False] * 3)
        result = analyze_window(window)
        assert result.aggregates.valid_packets == 0
        assert all(h.total == 0 for h in result.histograms.values())
        assert_products_equal(result, analyze_window_image(window))

    def test_single_edge_window(self):
        window = PacketTrace.from_arrays([7] * 50, [9] * 50)
        result = analyze_window(window)
        assert result.aggregates.valid_packets == 50
        assert result.aggregates.unique_links == 1
        assert result.histograms["link_packets"].degrees.tolist() == [50]
        assert_products_equal(result, analyze_window_image(window))

    def test_boundary_ids_use_fused_path(self):
        src = np.array([0, KERNEL_MAX_ID, KERNEL_MAX_ID, 0], dtype=np.int64)
        dst = np.array([KERNEL_MAX_ID, 0, KERNEL_MAX_ID, 0], dtype=np.int64)
        assert packable(src, dst)
        agg, hists = fused_products(src, dst)
        oracle_agg, oracle_hists = image_products(src, dst)
        assert agg == oracle_agg
        for name in QUANTITY_NAMES:
            assert np.array_equal(hists[name].counts, oracle_hists[name].counts)

    @pytest.mark.parametrize("bad_id", [-1, 2**32, 2**40, np.iinfo(np.int64).min, 2**63 - 1])
    def test_out_of_range_ids_fall_back_and_agree(self, bad_id, monkeypatch):
        window = PacketTrace.from_arrays([bad_id, 3, 3], [5, bad_id, 5])
        src = window.packets["src"]
        dst = window.packets["dst"]
        assert not packable(src, dst)
        calls = _spy_on_oracle(monkeypatch)
        assert_products_equal(analyze_window(window), analyze_window_image(window))
        assert calls == [3]


# -- packable: the id-range check in front of the kernel ---------------------

_INT_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]


def _reference_packable(*columns: np.ndarray) -> bool:
    """The id-range rule, evaluated on Python integers."""
    ids = [int(value) for column in columns for value in column]
    return not ids or (min(ids) >= 0 and max(ids) <= KERNEL_MAX_ID)


@st.composite
def _id_columns(draw):
    """Two id columns of any integer dtype, drawn near the dtype's and the key's edges."""
    columns = []
    for _ in range(2):
        dtype = np.dtype(draw(st.sampled_from(_INT_DTYPES)))
        info = np.iinfo(dtype)
        edges = [v for v in (-1, 0, 2**31 - 1, 2**31, KERNEL_MAX_ID, 2**32, 2**63 - 1)
                 if info.min <= v <= info.max] + [info.min, info.max]
        values = st.one_of(st.sampled_from(edges), st.integers(info.min, info.max))
        column = np.asarray(draw(st.lists(values, max_size=12)), dtype=dtype)
        # a stepped slice is a strided view, like a structured record field
        columns.append(column[:: draw(st.integers(min_value=1, max_value=3))])
    return columns[0], columns[1]


def _spy_on_oracle(monkeypatch) -> list:
    calls = []

    def spy(src, dst):
        calls.append(src.size)
        return image_products(src, dst)

    monkeypatch.setattr(kernel, "image_products", spy)
    return calls


class TestPackable:
    @given(columns=_id_columns())
    @settings(max_examples=300)
    def test_matches_the_integer_rule(self, columns):
        src, dst = columns
        assert packable(src, dst) == _reference_packable(src, dst)

    def test_empty_columns_pack(self):
        assert packable(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))

    def test_strided_structured_fields(self):
        window = PacketTrace.from_arrays([3, -1, 4, 2**32], [5, 6, KERNEL_MAX_ID, 7])
        src, dst = window.packets["src"], window.packets["dst"]
        assert not src.flags["C_CONTIGUOUS"]
        assert not packable(src, dst)
        # every other record skips both bad ids
        assert packable(src[::2], dst[::2])
        assert not packable(src[1::2], dst[1::2])

    @pytest.mark.parametrize(
        "dtype, ids, fits",
        [
            (np.int32, [0, 2**31 - 1], True),
            (np.int32, [-1, 4], False),
            (np.int32, [np.iinfo(np.int32).min, 4], False),
            (np.uint32, [0, KERNEL_MAX_ID], True),
            (np.uint64, [0, KERNEL_MAX_ID], True),
            (np.uint64, [2**32, 4], False),
            (np.uint64, [2**63 - 1, 4], False),
            (np.uint64, [2**64 - 1, 4], False),
        ],
        ids=str,
    )
    def test_other_integer_dtypes(self, dtype, ids, fits, monkeypatch):
        src = np.array(ids, dtype=dtype)
        dst = np.array([7, 8], dtype=dtype)
        assert packable(src, dst) is fits
        calls = _spy_on_oracle(monkeypatch)
        agg, _ = column_products(src, dst)
        assert calls == ([] if fits else [2])
        assert agg == image_products(src, dst)[0]


# -- payload shape ------------------------------------------------------------


class TestWindowPayload:
    def test_all_valid_elides_mask(self):
        window = PacketTrace.from_arrays([1, 2], [3, 4])
        src, dst, valid = window_payload(window)
        assert valid is None
        assert src.flags["C_CONTIGUOUS"] and dst.flags["C_CONTIGUOUS"]
        out_src, out_dst = payload_columns((src, dst, valid))
        assert np.array_equal(out_src, [1, 2]) and np.array_equal(out_dst, [3, 4])

    def test_mixed_validity_ships_mask_and_filters_in_worker(self):
        window = PacketTrace.from_arrays([1, 2, 3], [4, 5, 6], valid=[True, False, True])
        payload = window_payload(window)
        assert payload[2] is not None
        out_src, out_dst = payload_columns(payload)
        assert out_src.tolist() == [1, 3] and out_dst.tolist() == [4, 6]

    def test_cut_windows_share_the_valid_columns_rule(self):
        # a window cut by the windower carries its count; the payload, the
        # in-process extractor and the records must all agree on it
        trace = PacketTrace.from_arrays(
            np.arange(12), np.arange(12) + 1, valid=[True] * 6 + [True, False] * 3
        )
        for window in iter_windows(trace, 3):
            src, dst, valid = window_payload(window)
            all_valid = bool(window.packets["valid"].all())
            assert (valid is None) == all_valid
            expected = valid_columns(window)
            out = payload_columns((src, dst, valid))
            assert all(np.array_equal(a, b) for a, b in zip(out, expected))

    def test_payload_has_no_time_or_size(self):
        window = PacketTrace.from_arrays([1], [2])
        payload = window_payload(window)
        assert len(payload) == 3  # src, dst, valid — nothing else ships
