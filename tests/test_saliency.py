"""Polarity-intersection saliency: slicing, accumulation, components."""

import json
import math
import os
import subprocess
import sys
import textwrap
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as npst

from evrotor import (
    BBox,
    ConfigurationError,
    Detection,
    DetectorConfig,
    EventPeriod,
    FeatureSeries,
    LocalSlices,
    Region,
    SaliencyMap,
    SensorGeometry,
    ValidationError,
    connected_components,
    saliency_map,
    saliency_score,
    threshold_mask,
)
from evrotor import events
from evrotor.events import bin_events
from evrotor.saliency import (
    Labels,
    gray_at,
    render_gray,
    run_bounds,
    salient_labels,
    union_roots,
)

from conftest import SMALL, VGA, make_period
from oracles import (
    dense_counts,
    flood_fill_components,
    ndimage_components,
    saliency_counts,
    sparse_saliency,
    union_find_roots,
)


def rows_strategy(max_x=SMALL.width - 1, max_y=SMALL.height - 1, max_size=60):
    return st.lists(
        st.tuples(
            st.integers(0, 999),
            st.integers(0, max_x),
            st.integers(0, max_y),
            st.integers(0, 1),
        ),
        max_size=max_size,
    )


class TestSlicing:
    def test_twenty_ms_splits_into_twenty_slices(self):
        rows = [(j * 1000 + 37 + dt, 1, 1, p) for j in range(20) for dt, p in ((0, 1), (1, 0))]
        period = make_period(rows, duration=20_000)
        # over a 1x1 window at the events' pixel, the cell id is the slice index
        ids = bin_events(period, 20, BBox(1, 1, 1, 1), slice(None))
        assert list(ids) == [j for j in range(20) for _ in (0, 1)]
        smap = saliency_map(period, 20)
        assert smap.n_slices == 20
        assert dense_counts(smap)[1, 1] == 20  # both polarities in each of 20 slices

    def test_event_at_window_start_lands_in_first_slice(self):
        period = make_period([(0, 3, 4, 1)], duration=1000)
        assert list(bin_events(period, 4, BBox(3, 4, 1, 1), slice(None))) == [0]
        # the first slice of 4 covers t < 250: a partner at 249 meets it
        # there, one at 250 lands in the second slice and does not
        with_partner = make_period([(0, 3, 4, 1), (249, 3, 4, 0)], duration=1000)
        assert dense_counts(saliency_map(with_partner, 4))[4, 3] == 1
        too_late = make_period([(0, 3, 4, 1), (250, 3, 4, 0)], duration=1000)
        assert not dense_counts(saliency_map(too_late, 4)).any()

    def test_occupancy_is_binary_not_counted(self):
        rows = [(10, 5, 5, 1), (11, 5, 5, 1), (12, 5, 5, 0), (13, 5, 5, 0)]
        counts = dense_counts(saliency_map(make_period(rows, duration=1000), 2))
        assert counts[5, 5] == 1
        assert counts.sum() == 1

    def test_polarities_land_in_separate_grids(self):
        apart = make_period([(10, 1, 1, 1), (20, 2, 2, 0)], duration=1000)
        assert not dense_counts(saliency_map(apart, 2)).any()
        rows = [(10, 1, 1, 1), (20, 2, 2, 0), (30, 1, 1, 0)]
        counts = dense_counts(saliency_map(make_period(rows, duration=1000), 2))
        assert counts[1, 1] == 1 and counts[2, 2] == 0

    def test_rejects_bad_slice_counts(self):
        period = make_period([], duration=100)
        for n in (1, 101):
            with pytest.raises(ConfigurationError):
                bin_events(period, n, BBox(0, 0, 1, 1), slice(None))
            with pytest.raises(ConfigurationError):
                saliency_map(period, n)


class TestIntersection:
    def test_single_polarity_pixel_is_excluded(self):
        period = make_period([(10, 5, 5, 1)], duration=1000)
        assert not dense_counts(saliency_map(period, 2)).any()

    def test_pixel_with_both_polarities_is_kept(self):
        period = make_period([(10, 5, 5, 1), (12, 5, 5, 0)], duration=1000)
        counts = dense_counts(saliency_map(period, 2))
        assert counts[5, 5] == 1 and counts.sum() == 1

    def test_all_zero_pos_annihilates(self):
        period = make_period([(10, 5, 5, 0), (12, 6, 6, 0)], duration=1000)
        assert not dense_counts(saliency_map(period, 2)).any()


class TestRendering:
    def test_full_intersection_saturates(self):
        rows = []
        for t_slice in range(20):
            rows.append((t_slice * 1000 + 100, 7, 7, 1))
            rows.append((t_slice * 1000 + 200, 7, 7, 0))
        smap = saliency_map(make_period(rows, duration=20_000), 20)
        assert dense_counts(smap)[7, 7] == 20
        assert smap.gray[7, 7] == 255

    def test_partial_intersection_renders_rounded(self):
        rows = []
        for t_slice in range(4):
            rows.append((t_slice * 1000 + 100, 7, 7, 1))
            rows.append((t_slice * 1000 + 200, 7, 7, 0))
        smap = saliency_map(make_period(rows, duration=20_000), 20)
        assert dense_counts(smap)[7, 7] == 4
        assert smap.gray[7, 7] == 51  # round(255 * 4 / 20)

    def test_single_polarity_stream_yields_zero_map(self):
        rows = [(t, t % SMALL.width, 3, 1) for t in range(0, 900, 30)]
        smap = saliency_map(make_period(rows, duration=1000), 4)
        assert not dense_counts(smap).any()
        assert not smap.gray.any()

    @pytest.mark.parametrize("n", [2, 6, 10, 30])
    def test_every_count_renders_as_the_dense_map(self, n):
        """Pixel i meets both polarities in exactly i of n slices, i = 0..n.

        That reaches every gray level of n slices, the half-way ties 127.5,
        42.5 and 25.5 among them. The other slices give pixel i a positive
        event only, and the rest of the sensor stays untouched.
        """
        rows = []
        for i in range(n + 1):
            x, y = i % SMALL.width, i // SMALL.width
            for j in range(n):
                rows.append((j * 100 + 10, x, y, 1))
                if j < i:
                    rows.append((j * 100 + 20 + i % 7, x, y, 0))
        rows.sort()
        duration = n * 100
        smap = saliency_map(make_period(rows, duration=duration), n)
        want = np.array(saliency_counts(rows, 0, duration, n, SMALL.width, SMALL.height))
        assert list(want.ravel()[: n + 1]) == list(range(n + 1))
        assert np.array_equal(dense_counts(smap), want)
        assert np.array_equal(smap.gray, render_gray(want, n))
        assert not smap.gray.ravel()[n + 1 :].any()

    def test_render_gray_caps_at_255(self):
        gray = render_gray(np.array([[30]]), 20)
        assert gray[0, 0] == 255

    def test_fused_map_equals_modular_composition(self):
        """The array-pass map equals the slice-by-slice set oracle."""
        rng = np.random.default_rng(7)
        for _ in range(250):
            count = int(rng.integers(0, 150))
            t_start = int(rng.integers(0, 5000))
            duration = int(rng.integers(8, 3000))
            n = int(rng.integers(2, min(duration, 40) + 1))
            # a few pixels only, so that both polarities often share a pixel
            width = int(rng.integers(1, 9))
            height = int(rng.integers(1, 9))
            rows = [
                (t_start + int(rng.integers(0, duration)), int(rng.integers(0, width)),
                 int(rng.integers(0, height)), int(rng.integers(0, 2)))
                for _ in range(count)
            ]
            period = make_period(rows, t_start=t_start, duration=duration)
            smap = saliency_map(period, n)
            want = saliency_counts(rows, t_start, duration, n, SMALL.width, SMALL.height)
            assert np.array_equal(dense_counts(smap), np.array(want))
            assert np.array_equal(smap.gray, render_gray(np.array(want), n))


@st.composite
def blocked_periods(draw):
    """A period, its slice count and rows, shaped to stress the block cuts.

    Events gather on a 3x2 patch, so both polarities often share a cell and
    a block cut of a few events falls between them. Slices may hold more
    events than a block, or none; the period may be empty, hold fewer events
    than slices (binned by division), or start near 2**63.
    """
    duration = draw(st.integers(2, 400))
    t_start = draw(st.integers(0, 10**6) | st.integers(2**63 - 2 * duration, 2**63 - 1))
    n = draw(st.integers(2, duration))
    last = min(duration, 2**63 - t_start) - 1
    rows = draw(
        st.lists(
            st.tuples(st.integers(0, last), st.integers(0, 2), st.integers(0, 1), st.integers(0, 1)),
            max_size=40,
        )
    )
    rows = sorted((t_start + dt, x, y, p) for dt, x, y, p in rows)
    return make_period(rows, t_start=t_start, duration=duration), n, rows


# One slice of six events, then an empty one, in the last 100 us before 2**63.
TOP_ROWS = [(2**63 - 100 + dt, 1, 1, dt % 2) for dt in range(6)]


class TestBlocks:
    @settings(max_examples=200)
    @example(blocked=(make_period([], duration=10), 3, []))
    @example(blocked=(make_period(TOP_ROWS, t_start=2**63 - 100, duration=100), 2, TOP_ROWS))
    @given(blocked=blocked_periods())
    def test_every_block_size_matches_the_oracle(self, blocked):
        period, n, rows = blocked
        want = np.array(saliency_counts(rows, period.t_start, period.duration, n,
                                        SMALL.width, SMALL.height))
        # Budgets of a few held ids fold the hits into the known pixels many times.
        for block, flush in ((events._BLOCK_EVENTS, events._FLUSH_EVENTS), (1, 1), (3, 2),
                             (7, 5), (1, 4)):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(events, "_BLOCK_EVENTS", block)
                patch.setattr(events, "_FLUSH_EVENTS", flush)
                smap = saliency_map(period, n)
            assert np.array_equal(dense_counts(smap), want)
            assert np.array_equal(smap.gray, render_gray(want, n))


def slice_start(j, t_start, duration, n):
    """First microsecond of slice j of an n-way split."""
    return t_start + -(-j * duration // n)


class TestBounds:
    def test_overflowing_slice_arithmetic_is_rejected(self):
        # (t - t_start) * n would wrap in int64: 2**40 us at one slice per ms
        long = make_period([(0, 1, 1, 1), (2**40, 2, 2, 0)], duration=2**40 + 1)
        with pytest.raises(ConfigurationError, match="overflows"):
            bin_events(long, round(2**40 / 1000), BBox(0, 0, 1, 1), slice(None))
        with pytest.raises(ConfigurationError, match="overflows"):
            saliency_map(long, round(2**40 / 1000))
        # just inside the limit the products stay exact
        edge = make_period([(2**62 - 2, 1, 1, 1)], duration=2**62 - 1)
        assert list(bin_events(edge, 2, BBox(1, 1, 1, 1), slice(None))) == [1]
        with pytest.raises(ConfigurationError, match="overflows"):
            bin_events(make_period([], duration=2**62), 2, BBox(0, 0, 1, 1), slice(None))
        # the saliency key 2 * n * H * W would wrap on a huge sensor
        wide = make_period([], sensor=SensorGeometry(65535, 65535), duration=2**31)
        with pytest.raises(ConfigurationError, match="overflows"):
            saliency_map(wide, 2**31)

    def test_memory_grows_with_events_not_slices(self):
        """268 435 slices of an 8x8 sensor: a per-slice volume would be 17 MB each."""
        sensor = SensorGeometry(8, 8)
        duration = 2**28
        n = round(duration / 1000)
        rng = np.random.default_rng(5)
        cells = set()
        rows = []
        for j in [n - 1, 0, *rng.integers(0, n, 48)]:
            x, y = (7, 7) if j == n - 1 else (int(rng.integers(0, 8)), int(rng.integers(0, 8)))
            t = slice_start(int(j), 0, duration, n)
            rows += [(t, x, y, 1), (t, x, y, 0)]
            cells.add((int(j), x, y))
        period = make_period(rows, sensor=sensor, duration=duration)
        tracemalloc.start()
        try:
            smap = saliency_map(period, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        want = np.zeros((8, 8), np.int32)
        for _, x, y in cells:
            want[y, x] += 1
        assert np.array_equal(dense_counts(smap), want)

    def test_memory_follows_the_hit_pixels_not_the_hit_cells(self):
        """256 pixels hold both polarities in each of 4000 slices: holding every hit cell took 8.2 MB."""
        sensor = SensorGeometry(16, 16)

        def period_of(n):
            # 512 events a 10 us slice, a positive and a negative one at each pixel
            s, j = np.divmod(np.arange(512 * n), 512)
            pixel = j // 2
            return EventPeriod(s * 10 + j // 52, pixel % 16, pixel // 16, j % 2,
                               t_start=0, duration=10 * n, sensor=sensor)

        peaks = {}
        for n in (500, 4000):
            period = period_of(n)
            tracemalloc.start()
            try:
                smap = saliency_map(period, n)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[4000] <= 1_500_000
        assert peaks[4000] <= 2 * peaks[500]
        # The oracle takes the events a few hundred slices at a time; the slices' counts add up.
        want = np.zeros(sensor.shape, np.int64)
        step = 2**17
        for lo in range(0, len(period), step):
            cols = (c[lo : lo + step].tolist() for c in (period.t, period.x, period.y, period.p))
            want += saliency_counts(zip(*cols), 0, period.duration, 4000, 16, 16)
        assert np.array_equal(dense_counts(smap), want)
        assert (want == 4000).all()

    def test_memory_follows_a_block_not_the_period(self):
        """2M events in 250 slices of VGA: one key per event would take 8 MB alone."""
        rng = np.random.default_rng(11)
        count, duration = 2_000_000, 250_000
        period = EventPeriod(
            t=np.sort(rng.integers(0, duration, count)),
            x=rng.integers(0, VGA.width, count, dtype=np.int32),
            y=rng.integers(0, VGA.height, count, dtype=np.int32),
            p=rng.integers(0, 2, count, dtype=np.uint8),
            t_start=0,
            duration=duration,
            sensor=VGA,
        )
        tracemalloc.start()
        try:
            smap = saliency_map(period, 250)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 500_000
        assert dense_counts(smap).sum() > 0

    @pytest.mark.parametrize(
        "width, height, n",
        # 2 * n * H * W just below and at 2**31 (n * H * W = 2**30 - 2**15, 2**30),
        # then with an H * W that does not divide 2**31, so wrapped keys would
        # also land on wrong pixels
        [(256, 128, 32767), (256, 128, 32768), (255, 129, 32641), (255, 129, 32642)],
    )
    def test_key_width_switch_matches_oracle(self, width, height, n):
        """Both sides of the int32/int64 key switch agree with the set oracle."""
        sensor = SensorGeometry(width, height)
        corner = (width - 1, height - 1)
        pixels = [(0, 0), corner, (width - 2, height - 1), (width - 1, height - 2)]
        rng = np.random.default_rng(n)
        for _ in range(4):
            t_start = int(rng.integers(0, 10_000))
            duration = int(rng.integers(n, 3 * n))
            rows = []
            for _ in range(30):
                j = int(rng.choice([0, n - 1, int(rng.integers(0, n))]))
                x, y = pixels[int(rng.integers(0, len(pixels)))]
                lo = slice_start(j, t_start, duration, n)
                hi = slice_start(j + 1, t_start, duration, n)
                for _ in range(2):
                    rows.append((int(rng.integers(lo, hi)), x, y, int(rng.integers(0, 2))))
            # the last microsecond of the period, at the last pixel, with both polarities
            last = t_start + duration - 1
            rows += [(last, *corner, 1), (last, *corner, 0)]
            period = make_period(rows, sensor=sensor, t_start=t_start, duration=duration)
            smap = saliency_map(period, n)
            want = np.array(saliency_counts(rows, t_start, duration, n, width, height))
            assert want[corner[1], corner[0]] >= 1
            assert np.array_equal(dense_counts(smap), want)
            assert np.array_equal(smap.gray, render_gray(want, n))


class TestRecord:
    """The map holds its hit pixels only; the dense grids are views."""

    @staticmethod
    def make(ids=(1, 5, 11), counts=(1, 2, 3), n_slices=3, shape=(3, 4)):
        return SaliencyMap(shape=shape, ids=np.array(ids), hit_counts=np.array(counts), n_slices=n_slices)

    def test_dense_views_scatter_the_hits(self):
        smap = self.make()
        assert smap.gray.dtype == np.uint8
        assert dense_counts(smap).tolist() == [[0, 1, 0, 0], [0, 2, 0, 0], [0, 0, 0, 3]]
        assert smap.gray.tolist() == [[0, 85, 0, 0], [0, 170, 0, 0], [0, 0, 0, 255]]
        for values in (smap.ids, smap.hit_counts, smap.hit_gray):
            assert not values.flags.writeable

    def test_gray_is_rendered_from_the_counts(self):
        smap = self.make(counts=(1, 10, 20), n_slices=20)
        assert smap.hit_gray.dtype == np.uint8
        assert smap.hit_gray.tolist() == render_gray(np.array([1, 10, 20]), 20).tolist() == [13, 128, 255]
        with pytest.raises(TypeError):
            SaliencyMap(shape=(3, 4), ids=[1], hit_counts=[1], hit_gray=[255], n_slices=20)

    @pytest.mark.parametrize(
        "kind",
        [
            "EventPeriod-sorted",
            "EventPeriod-unsorted",
            "SaliencyMap",
            "Region",
            "LocalSlices",
            "FeatureSeries",
            "Detection",
        ],
    )
    def test_callers_arrays_stay_writable(self, kind):
        # Every record freezes a view, never the caller's array. The input is
        # already in the record's dtypes, so only sorting may copy it.
        mine, held = caller_and_record_arrays(kind)
        for theirs, ours in zip(mine, held):
            assert theirs.flags.writeable and not ours.flags.writeable
            assert np.shares_memory(theirs, ours) == (kind != "EventPeriod-unsorted")

    def test_strided_hits_are_held_contiguous(self):
        ids = np.array([1, 0, 5, 0, 11, 0])[::2]
        smap = SaliencyMap(shape=(3, 4), ids=ids, hit_counts=np.ones(3, int), n_slices=3)
        assert smap.ids.flags.c_contiguous and smap.ids.tolist() == [1, 5, 11]
        assert ids.flags.writeable and not np.shares_memory(ids, smap.ids)

    def test_empty_map_reads_zero(self):
        empty = np.empty(0, np.int64)
        smap = self.make(ids=empty, counts=empty)
        assert smap.gray.shape == (3, 4) and not smap.gray.any()
        assert gray_at(smap, np.array([[3, 2]])).tolist() == [0]

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"ids": (5, 1, 11)}, "strictly increasing"),
            ({"ids": (1, 5, 5)}, "strictly increasing"),
            ({"ids": (-1, 5, 11)}, "within 0..11"),
            ({"ids": (1, 5, 12)}, "within 0..11"),
            ({"ids": np.array([1, 5, 2**64 - 1], np.uint64)}, "within 0..11"),
            ({"counts": (0, 2, 3)}, "within 1..3"),
            ({"counts": (1, 2, 4)}, "within 1..3"),
            ({"counts": (1, 2)}, "equal length"),
            ({"counts": (1, 2, 3, 3)}, "equal length"),
            ({"ids": (1, 5)}, "equal length"),
            ({"counts": (1, 2, 2**40)}, "within 1..3"),
            ({"counts": (1.0, 2.0, 3.0)}, "integer"),
            ({"ids": [[1, 5, 11]]}, "one-dimensional"),
            ({"n_slices": 0}, "slice count"),
            ({"shape": (0, 4), "ids": [], "counts": []}, "shape"),
            ({"counts": (1, 2, 2**31), "n_slices": 2**32}, "within 1..2147483647"),  # int32 counts
        ],
    )
    def test_rejects_malformed_records(self, fields, message):
        with pytest.raises(ValidationError, match=message):
            self.make(**fields)

    @pytest.mark.parametrize("shape, n_slices", [((4.5, 4), 2), ((4, 4), 2.5), ((4, math.nan), 2)])
    def test_rejects_fractional_sizes(self, shape, n_slices):
        # Refused, not truncated: (4.5, 4) would store (4, 4), and 2.5 slices would render gray.
        with pytest.raises(ValidationError, match="must be integers"):
            SaliencyMap(shape, np.array([1, 2]), np.array([1, 1]), n_slices)

    def test_integral_float_sizes_still_load(self):
        smap = SaliencyMap((4.0, 4.0), np.array([1, 2]), np.array([1, 1]), 2.0)
        assert smap.shape == (4, 4) and smap.n_slices == 2 and type(smap.n_slices) is int
        assert smap.hit_gray.tolist() == [128, 128]


@st.composite
def sparse_maps(draw):
    """A SaliencyMap whose hit pixels and counts come from a random dense count grid."""
    n = draw(st.integers(1, 8))
    counts = draw(npst.arrays(np.int64, npst.array_shapes(min_dims=2, max_dims=2, max_side=48),
                              elements=st.integers(0, n)))
    ids = np.flatnonzero(counts)
    return SaliencyMap(counts.shape, ids, counts.ravel()[ids], n)


def caller_and_record_arrays(kind):
    """The arrays a caller passes to a ``kind`` record, in the record's dtypes, and the record's own."""
    pixels = np.array([[0, 0], [1, 0]], np.int32)
    if kind.startswith("EventPeriod"):
        t = np.array([9, 0, 5] if kind == "EventPeriod-unsorted" else [0, 5, 9], np.int64)
        mine = [t, np.array([1, 2, 3], np.int32), np.array([0, 1, 2], np.int32), np.array([1, 0, 1], np.uint8)]
        period = EventPeriod(*mine, t_start=0, duration=10, sensor=SensorGeometry(4, 4))
        return mine, [period.t, period.x, period.y, period.p]
    if kind == "SaliencyMap":
        mine = [np.array([1, 5, 11], np.int32), np.array([1, 2, 3], np.int32)]
        smap = SaliencyMap(shape=(3, 4), ids=mine[0], hit_counts=mine[1], n_slices=3)
        return mine, [smap.ids, smap.hit_counts]
    if kind == "Region":
        return [pixels], [Region(pixels).pixels]
    if kind == "LocalSlices":
        mine = [np.array([0, 3], np.int32), np.array([2, 1], np.int32)]
        local = LocalSlices(shape=(4, 1, 1), cells=mine[0], counts=mine[1])
        return mine, [local.cells, local.counts]
    if kind == "FeatureSeries":
        mine = [np.array([1.0, 2.0]), np.array([0.5]), np.array([0.25])]
        series = FeatureSeries(*mine)
        return mine, [series.f_d, series.f_s, series.f_p]
    assert kind == "Detection"
    return [pixels], [Detection(s_p=4, s_s=1.0, pixels=pixels).pixels]


class TestRunBounds:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(-5, 5), max_size=40))
    def test_matches_unique_counts(self, values):
        ids = np.sort(np.array(values, np.int64))
        starts, lengths = run_bounds(ids)
        want_ids, want_counts = np.unique(ids, return_counts=True)
        assert ids[starts].tolist() == want_ids.tolist()
        assert lengths.tolist() == want_counts.tolist()
        assert lengths.dtype == np.int32


class TestThreshold:
    def test_threshold_is_strict(self):
        gray = np.zeros(SMALL.shape, np.uint8)
        gray[3, 3] = 50
        gray[4, 4] = 51
        strict = threshold_mask(sparse_saliency(gray), 50)
        assert not strict[3, 3]
        assert strict[4, 4]
        assert strict.sum() == 1

    def test_zero_threshold_keeps_any_signal(self):
        period = make_period([(10, 5, 5, 1), (12, 5, 5, 0)], duration=1000)
        smap = saliency_map(period, 2)
        assert np.array_equal(threshold_mask(smap, 0), smap.gray > 0)

    def test_rejects_out_of_range_threshold(self):
        smap = saliency_map(make_period([], duration=1000), 2)
        with pytest.raises(ConfigurationError):
            threshold_mask(smap, 256)


def assert_same_regions(got, expected):
    """Equal boxes, equal pixels in equal order, and regions in equal order."""
    assert [r.bbox for r in got] == [r.bbox for r in expected]
    for a, b in zip(got, expected):
        assert a.pixels.dtype == b.pixels.dtype
        assert np.array_equal(a.pixels, b.pixels)


def spiral_mask(height, width):
    """A 1-px path spiralling inwards with 1-px gaps: one long component."""
    mask = np.zeros((height, width), bool)
    y = x = 0
    dy, dx = 0, 1
    for k in range(height + width):
        steps = width - 1 - max(k - 2, 0) if k % 2 == 0 else height - k
        if steps <= 0:
            break
        ty, tx = y + dy * steps, x + dx * steps
        mask[min(y, ty):max(y, ty) + 1, min(x, tx):max(x, tx) + 1] = True
        y, x, (dy, dx) = ty, tx, (dx, -dy)
    return mask


class TestComponents:
    def test_solid_block_is_one_region(self):
        mask = np.zeros((30, 30), bool)
        mask[10:13, 10:13] = True
        regions = connected_components(mask)
        assert len(regions) == 1
        assert regions[0].bbox.as_tuple() == (10, 10, 3, 3)
        assert regions[0].area == 9

    def test_diagonal_touch_is_one_region(self):
        mask = np.zeros((10, 10), bool)
        mask[2, 2] = mask[3, 3] = True
        assert len(connected_components(mask)) == 1

    def test_all_zero_mask_has_no_regions(self):
        assert connected_components(np.zeros((5, 5), bool)) == []

    def test_regions_are_ordered_by_bbox(self):
        mask = np.zeros((20, 20), bool)
        mask[15, 15] = True
        mask[2, 8] = True
        mask[2, 1] = True
        boxes = [r.bbox.as_tuple() for r in connected_components(mask)]
        assert boxes == [(1, 2, 1, 1), (8, 2, 1, 1), (15, 15, 1, 1)]

    def test_rejects_non_2d_mask(self):
        with pytest.raises(ValidationError):
            connected_components(np.zeros(5, bool))

    @settings(max_examples=60, deadline=None)
    @given(npst.arrays(bool, npst.array_shapes(min_dims=2, max_dims=2, max_side=14)))
    def test_components_match_flood_fill(self, mask):
        regions = connected_components(mask)
        got = {frozenset(map(tuple, r.pixels)) for r in regions}
        expected = set(flood_fill_components(mask.tolist()))
        assert got == expected
        # soundness: pairwise disjoint and exactly covering the mask
        total = sum(r.area for r in regions)
        assert total == int(mask.sum())
        covered = np.zeros_like(mask)
        for r in regions:
            covered[r.pixels[:, 1], r.pixels[:, 0]] = True
        assert np.array_equal(covered, mask)

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(
        npst.arrays(bool, npst.array_shapes(min_dims=2, max_dims=2, max_side=48)),
        npst.arrays(np.int8, npst.array_shapes(min_dims=2, max_dims=2, max_side=48),
                    elements=st.integers(-1, 1)),
    ))
    @example(np.zeros((48, 48), bool))
    @example(np.eye(1, dtype=bool))
    @example(np.eye(1, 7, 6, dtype=np.int64))
    def test_regions_equal_scipy_labeling(self, mask):
        assert_same_regions(connected_components(mask), ndimage_components(mask))

    def test_benchmark_masks_equal_scipy_labeling(self):
        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
        try:
            from workloads import WORKLOADS
        finally:
            sys.path.pop(0)
        config = DetectorConfig()
        masks = 0
        for workload in WORKLOADS.values():
            for item in workload.build(101):
                n, _ = config.slicing_for(item.period)
                mask = threshold_mask(saliency_map(item.period, n), config.tau_s)
                assert_same_regions(connected_components(mask), ndimage_components(mask))
                masks += 1
        assert masks == 20

    @pytest.mark.parametrize(
        "name", ["full", "serpentine comb", "spiral", "diagonal stripes", "lattice", "half fill"]
    )
    def test_adversarial_vga_masks_label_fast_and_exactly(self, name):
        ys, xs = np.mgrid[:480, :640]
        mask = {
            "full": np.ones((480, 640), bool),
            # full rows joined at alternate ends: one path that turns 240 times
            "serpentine comb": (ys % 2 == 0) | ((ys % 4 == 1) & (xs == 639))
            | ((ys % 4 == 3) & (xs == 0)),
            "spiral": spiral_mask(480, 640),
            # 280 one-pixel diagonals: every run is one pixel, the boxes overlap widely
            "diagonal stripes": (xs - ys) % 4 == 0,
            # two crossing families of one-pixel diagonals: about 88k runs, one component
            "lattice": ((xs + ys) % 4 == 0) | ((xs - ys) % 7 == 0),
            "half fill": np.random.default_rng(11).random((480, 640)) < 0.5,
        }[name]
        start = time.perf_counter()
        regions = connected_components(mask)
        elapsed = time.perf_counter() - start
        assert_same_regions(regions, ndimage_components(mask))
        assert elapsed < 1.0

    @pytest.mark.parametrize(
        "rows",
        [
            # a run ends at the last column and the next row starts at column 0:
            # the flat ids run on across the row break, the runs must not
            ["..##", "##..", "...."],
            ["####", "####", "####"],
            ["...#", "#...", "...#", "#..."],
            ["#..#", "#..#"],
            # width 1: every pixel starts a row
            ["#", "#", ".", "#"],
            ["#"],
        ],
    )
    def test_runs_split_at_row_breaks(self, rows):
        mask = np.array([[c == "#" for c in row] for row in rows])
        assert_same_regions(connected_components(mask), ndimage_components(mask))

    @settings(max_examples=150, deadline=None)
    @example(connected_components(np.random.default_rng(6).random((40, 50)) < 0.3))
    @given(st.one_of(
        npst.arrays(bool, npst.array_shapes(min_dims=2, max_dims=2, max_side=48)).map(connected_components),
        st.builds(salient_labels, sparse_maps(), st.integers(0, 254)).map(Labels.regions),
    ))
    def test_labelled_regions_survive_reconstruction(self, regions):
        # The labeler's fast path builds the box that the constructor derives.
        for region in regions:
            assert not region.pixels.flags.writeable
            assert_same_regions([Region(region.pixels)], [region])

    def test_region_validates_pixels_inside_bbox(self):
        with pytest.raises(ValidationError):
            Region(np.empty((0, 2), np.int32))

    @pytest.mark.parametrize(
        "pixels",
        [
            [[2**32 + 5, 0], [2**32 + 6, 1]],  # the int32 cast wraps them to [[5, 0], [6, 1]]
            [[1.7, 0.2], [3.9, 2.5]],  # the cast truncates them to [[1, 0], [3, 2]]
            [[math.nan, 0]],
            [[0, -(2**31) - 1]],
        ],
    )
    def test_region_refuses_pixels_the_cast_would_change(self, pixels):
        with pytest.raises(ValidationError, match="int32 range"):
            Region(np.array(pixels))

    def test_region_takes_integral_floats_and_the_int32_extremes(self):
        region = Region(np.array([[1.0, 2.0], [-(2.0**31), 2**31 - 1]]))
        assert region.pixels.tolist() == [[1, 2], [-(2**31), 2**31 - 1]]
        assert region.bbox == BBox(-(2**31), 2, 2**31 + 2, 2**31 - 2)

    def test_region_box_is_the_tight_box_of_its_pixels(self):
        assert Region(np.array([[3, 7], [5, 2], [4, 4]])).bbox == BBox(3, 2, 3, 6)
        with pytest.raises(TypeError):
            Region(bbox=BBox(0, 0, 100, 100), pixels=np.array([[1, 1]]))


class TestSalientRegions:
    """Labeling the salient hit ids directly, and reading their gray."""

    @settings(max_examples=100, deadline=None)
    @given(rows=rows_strategy(max_size=120), n=st.integers(2, 6), tau=st.integers(0, 200))
    def test_matches_the_dense_mask(self, rows, n, tau):
        smap = saliency_map(make_period(rows), n)
        regions = salient_labels(smap, tau).regions()
        assert_same_regions(regions, connected_components(threshold_mask(smap, tau)))
        if regions:
            dense = smap.gray
            pixels = np.concatenate([r.pixels for r in regions])
            want = dense[pixels[:, 1], pixels[:, 0]]
            assert np.array_equal(gray_at(smap, pixels), want)

    def test_gray_of_another_map_is_looked_up(self):
        rows = [(10, 5, 5, 1), (12, 5, 5, 0), (10, 6, 5, 1), (12, 6, 5, 0)]
        smap = saliency_map(make_period(rows, duration=1000), 2)
        pixels = np.concatenate([r.pixels for r in salient_labels(smap, 0).regions()])
        gray = np.zeros(SMALL.shape, np.uint8)
        gray[5, 5], gray[5, 7] = 40, 90
        other = sparse_saliency(gray)
        assert gray_at(smap, pixels).tolist() == [128, 128]
        assert gray_at(other, pixels).tolist() == [40, 0]

    def test_rejects_out_of_range_threshold(self):
        smap = saliency_map(make_period([], duration=1000), 2)
        with pytest.raises(ConfigurationError):
            salient_labels(smap, -1)

    def test_labeling_memory_per_salient_pixel(self):
        """Four disks, 20 100 salient pixels: int64 coordinates and their stacked copy took 43 B each."""
        yy, xx = np.mgrid[0:400, 0:400]
        mask = np.zeros((400, 400), bool)
        for cx, cy in ((60, 60), (200, 80), (120, 300), (330, 330)):
            mask |= (xx - cx) ** 2 + (yy - cy) ** 2 <= 40**2
        gray = np.where(mask, 200, 0).astype(np.uint8)
        smap = sparse_saliency(gray)
        tracemalloc.start()
        try:
            regions = salient_labels(smap, 100).regions()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mask.sum() == 20_100
        assert peak <= 20 * 20_100
        assert_same_regions(regions, ndimage_components(mask))
        assert not any(r.pixels.flags.writeable for r in regions)

    def test_huge_sensor_pipeline_holds_no_dense_grid(self):
        """A 65535 x 65535 period: one int32 grid of it would take 16 GiB.

        The pipeline runs in a child process whose address space may grow by
        at most 1 GiB, so a dense grid fails there with a MemoryError rather
        than exhausting the host's memory.
        """
        pytest.importorskip("resource")
        if not Path("/proc/self/statm").exists():
            pytest.skip("needs /proc/self/statm to size the address-space limit")
        assert 65534 * 65535 + 65534 >= 2**31
        child = textwrap.dedent(
            """
            import json, os, resource, tracemalloc
            from evrotor import DetectorConfig, EventPeriod, SensorGeometry
            from evrotor.detector import run_pipeline

            pixels = [(3, 7), (65534, 65534)]
            rows = [(t, x, y, p) for x, y in pixels for t, p in ((100, 1), (101, 0))]
            t, x, y, p = zip(*rows)
            period = EventPeriod(
                t, x, y, p, t_start=0, duration=20_000, sensor=SensorGeometry(65535, 65535)
            )
            config = DetectorConfig(n_slices=2, tau_p=0)
            with open("/proc/self/statm") as statm:
                in_use = int(statm.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
            resource.setrlimit(resource.RLIMIT_AS, (in_use + 2**30, resource.RLIM_INFINITY))
            tracemalloc.start()
            result = run_pipeline(period, config)
            peak = tracemalloc.get_traced_memory()[1]
            print(json.dumps({
                "peak": peak,
                "ids": result.saliency.ids.tolist(),
                "gray": result.saliency.hit_gray.tolist(),
                "regions": [r.bbox.as_tuple() for r in result.regions],
                "detections": sorted(d.bbox.as_tuple() for d in result.detections),
                "s_s": [d.s_s for d in result.detections],
            }))
            """
        )
        src = str(Path(events.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-c", child], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout)
        assert got["peak"] < 2_000_000
        assert got["ids"] == [7 * 65535 + 3, 65534 * 65535 + 65534]
        assert got["gray"] == [128, 128]
        boxes = [[3, 7, 1, 1], [65534, 65534, 1, 1]]
        assert got["regions"] == boxes
        assert got["detections"] == boxes
        assert got["s_s"] == [128, 128]


class TestNarrowIds:
    """A 65535 x 32768 map: H * W < 2**31 keeps its ids int32, and H * (W + 2) passes 2**31."""

    W, H = 32768, 65535
    # pixel: its count of 4 slices; the last rows and columns, and two consecutive
    # ids on two rows (the end of row 2**15 and the start of the next)
    COUNTS = {
        (W - 3, H - 3): 4, (W - 2, H - 2): 4, (W - 1, H - 2): 3, (W - 2, H - 1): 2,
        (W - 1, H - 1): 1, (0, H - 1): 2, (W - 1, 2**15): 1, (0, 2**15 + 1): 3,
    }

    def smap(self):
        rows = [
            (100 * s + 10 + dt, x, y, p)
            for (x, y), count in self.COUNTS.items()
            for s in range(count)
            for dt, p in ((0, 1), (1, 0))
        ]
        period = make_period(sorted(rows), sensor=SensorGeometry(self.W, self.H), duration=400)
        return saliency_map(period, 4)

    def test_regions_gray_and_masses(self):
        W, H = self.W, self.H
        assert H * W < 2**31 <= H * (W + 2)
        smap = self.smap()
        assert smap.ids.dtype == smap.hit_counts.dtype == np.int32
        gray = {pixel: int(render_gray(np.array([c]), 4)[0]) for pixel, c in self.COUNTS.items()}
        # in region order, each region's pixels in scan order
        want = [
            [(W - 1, 2**15)],
            [(0, 2**15 + 1)],
            [(W - 3, H - 3), (W - 2, H - 2), (W - 1, H - 2), (W - 2, H - 1), (W - 1, H - 1)],
            [(0, H - 1)],
        ]
        regions = salient_labels(smap, 0).regions()
        assert [r.pixels.tolist() for r in regions] == [[list(px) for px in group] for group in want]
        assert [r.bbox.as_tuple() for r in regions] == [
            (W - 1, 2**15, 1, 1), (0, 2**15 + 1, 1, 1), (W - 3, H - 3, 3, 3), (0, H - 1, 1, 1),
        ]
        # tau 64 drops the one-slice pixels, gray 64: a lone one and a corner of the corner region
        assert [r.bbox.as_tuple() for r in salient_labels(smap, 64).regions()] == [
            (0, 2**15 + 1, 1, 1), (W - 3, H - 3, 3, 3), (0, H - 1, 1, 1),
        ]
        misses = [(W - 1, H - 3), (W - 3, H - 1), (0, 0), (W - 1, 0), (1, H - 1)]
        pixels = np.array([*gray, *misses], np.int32)
        assert gray_at(smap, pixels).tolist() == [*gray.values(), 0, 0, 0, 0, 0]
        masses = [saliency_score(region, smap) for region in regions]
        assert masses == [sum(gray[px] for px in group) for group in want]


def links_strategy(n):
    node = st.integers(0, n - 1)
    return st.lists(st.tuples(node, node), max_size=3 * n)


class TestUnionRoots:
    """The hook-and-jump merge shared by labeling and clustering."""

    @staticmethod
    def merge(root, links):
        pairs = np.array(links, dtype=np.int64).reshape(-1, 2)
        return union_roots(root, pairs[:, 0], pairs[:, 1])

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 40).flatmap(lambda n: st.tuples(st.just(n), links_strategy(n))))
    @example((1, []))
    @example((6, [(5, 4), (4, 3), (3, 2), (2, 1), (1, 0)]))
    def test_links_into_singletons_match_the_oracle(self, case):
        n, links = case
        root = self.merge(np.arange(n), links)
        assert root.tolist() == union_find_roots(n, links)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 40).flatmap(
            lambda n: st.tuples(st.just(n), links_strategy(n), links_strategy(n))
        )
    )
    @example((8, [(0, 7), (1, 6)], [(6, 7), (2, 3)]))
    def test_links_into_a_merged_forest_match_the_oracle(self, case):
        n, earlier, later = case
        forest = np.array(union_find_roots(n, earlier))
        root = self.merge(forest, later)
        assert root.tolist() == union_find_roots(n, earlier + later)
        assert np.array_equal(root[root], root)
        assert (root <= np.arange(n)).all()


class TestInvariants:
    @settings(max_examples=120, deadline=None)
    @given(rows=rows_strategy(), n=st.integers(2, 6))
    def test_single_polarity_annihilation(self, rows, n):
        positive_only = [(t, x, y, 1) for t, x, y, _ in rows]
        smap = saliency_map(make_period(positive_only), n)
        assert not dense_counts(smap).any()

    @settings(max_examples=120, deadline=None)
    @given(rows=rows_strategy(), n=st.integers(2, 6))
    def test_polarity_swap_symmetry(self, rows, n):
        flipped = [(t, x, y, 1 - p) for t, x, y, p in rows]
        a = saliency_map(make_period(rows), n)
        b = saliency_map(make_period(flipped), n)
        assert np.array_equal(dense_counts(a), dense_counts(b))

    @settings(max_examples=120, deadline=None)
    @given(rows=rows_strategy(max_size=40), extra=rows_strategy(max_size=15),
           n=st.integers(2, 6))
    def test_adding_events_never_decreases_counts(self, rows, extra, n):
        base = saliency_map(make_period(rows), n)
        grown = saliency_map(make_period(rows + extra), n)
        assert np.all(dense_counts(grown) >= dense_counts(base))

    @settings(max_examples=120, deadline=None)
    @given(rows=rows_strategy(max_x=SMALL.width - 9, max_y=SMALL.height - 7),
           n=st.integers(2, 6), dx=st.integers(0, 8), dy=st.integers(0, 6))
    def test_translation_equivariance(self, rows, n, dx, dy):
        shifted = [(t, x + dx, y + dy, p) for t, x, y, p in rows]
        a = saliency_map(make_period(rows), n)
        b = saliency_map(make_period(shifted), n)
        assert np.array_equal(np.roll(dense_counts(a), (dy, dx), axis=(0, 1)), dense_counts(b))
        mask_a = threshold_mask(a, 0)
        mask_b = threshold_mask(b, 0)
        boxes_a = {r.bbox.as_tuple() for r in connected_components(mask_a)}
        boxes_b = {r.bbox.as_tuple() for r in connected_components(mask_b)}
        assert {(x + dx, y + dy, w, h) for x, y, w, h in boxes_a} == boxes_b

    @settings(max_examples=120, deadline=None)
    @given(rows=rows_strategy(), n=st.integers(2, 6))
    def test_counts_bounded_by_slice_count(self, rows, n):
        smap = saliency_map(make_period(rows), n)
        assert dense_counts(smap).max(initial=0) <= n
        assert smap.gray.max(initial=0) <= 255
