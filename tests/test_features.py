"""Periodicity features: local slices, similarity measures, scoring."""

import math
import timeit
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.signal import peak_prominences

from evrotor import (
    BBox,
    ConfigurationError,
    DegenerateInputError,
    EventPeriod,
    FeatureSeries,
    LocalSlices,
    Region,
    RegionScores,
    SaliencyMap,
    SensorGeometry,
    ValidationError,
    compute_features,
    extract_local_slices,
    periodicity_score,
    saliency_score,
)
from evrotor import events
from evrotor.events import DetectorConfig
from evrotor.features import (
    _SliceSums,
    _events_inside,
    _extrema_flags,
    _next_slice_partners,
    _prominences,
    _window_batches,
    _window_features,
    dilated_window,
    moving_average,
    principal_direction,
)
from evrotor.events import slice_blocks
from evrotor.saliency import render_gray

import oracles
from conftest import SMALL, make_period
from oracles import (
    centered_moving_average,
    direction_similarity,
    local_cell_counts,
    local_slices,
    pearson,
    principal_angle_sweep,
    structural_similarity,
)


def peaks_valleys(series):
    """The package's peak and valley flags of one series, which must equal the literal oracle's."""
    x = np.asarray(series, np.float64)
    flags = tuple(bool(flag) for flag in _extrema_flags([x]))
    assert flags == oracles.peaks_valleys(x)
    return flags


def region_of(x, y, w, h):
    return Region(np.array([(xx, yy) for yy in range(y, y + h) for xx in range(x, x + w)]))


def assert_cells_match_the_oracle(local, rows, t_start, duration, window):
    m, h, w = local.shape
    want = local_cell_counts(rows, t_start, duration, m, window)
    ids = sorted(((s * h + y) * w + x, k) for (s, y, x), k in want.items())
    assert local.cells.tolist() == [cell for cell, _ in ids]
    assert local.counts.tolist() == [k for _, k in ids]


class TestWindowing:
    def test_margin_dilation_arithmetic(self):
        window = dilated_window(BBox(10, 10, 5, 5), 2, SMALL)
        assert window.as_tuple() == (8, 8, 9, 9)

    def test_dilation_clamps_to_sensor(self):
        window = dilated_window(BBox(0, 0, 5, 5), 3, SMALL)
        assert window.as_tuple() == (0, 0, 8, 8)

    def test_negative_margin_is_rejected(self):
        with pytest.raises(ConfigurationError):
            dilated_window(BBox(1, 1, 2, 2), -1, SMALL)

    def test_window_outside_sensor_is_degenerate(self):
        with pytest.raises(DegenerateInputError):
            dilated_window(BBox(100, 100, 5, 5), 2, SensorGeometry(64, 48))

    def test_local_slices_shape_and_counts(self):
        rows = [
            (100, 10, 10, 1),
            (150, 10, 10, 1),  # same pixel, same slice: counted twice
            (600, 11, 11, 1),
            (700, 11, 11, 0),  # negative events are excluded
            (800, 40, 40, 1),  # outside the window
        ]
        period = make_period(rows, duration=1000)
        local = extract_local_slices(period, BBox(10, 10, 5, 5), 4, margin=0)
        assert local.shape == (4, 5, 5)
        assert local.size == 100
        # cells (slice, y, x) = (0, 0, 0) and (2, 1, 1) have ids 0 and (2 * 5 + 1) * 5 + 1
        assert local.cells.tolist() == [0, 56]
        assert local.counts.tolist() == [2, 1]
        assert local.cells.dtype == local.counts.dtype == np.int32  # 4 * 5 * 5 ids fit int32
        assert not local.cells.flags.writeable and not local.counts.flags.writeable

    def test_region_input_uses_its_bbox(self):
        period = make_period([(100, 10, 10, 1)], duration=1000)
        local = extract_local_slices(period, region_of(10, 10, 3, 3), 4, margin=1)
        assert local.shape == (4, 5, 5)
        assert local.cells.tolist() == [6]  # cell (0, 1, 1)
        assert local.counts.tolist() == [1]

    def test_empty_window_has_no_cells(self):
        period = make_period([(100, 40, 40, 1), (200, 11, 11, 0)], duration=1000)
        local = extract_local_slices(period, BBox(10, 10, 5, 5), 4)
        assert local.shape == (4, 5, 5)
        assert local.cells.size == local.counts.size == 0
        assert list(compute_features(local).f_d) == [0.0] * 4

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_the_cell_oracle(self, data):
        t_start = data.draw(st.integers(0, 10**6))
        duration = data.draw(st.integers(4, 5000))
        m = data.draw(st.integers(4, min(duration, 64)))
        rows = data.draw(st.lists(
            st.tuples(st.integers(t_start, t_start + duration - 1), st.integers(0, 63),
                      st.integers(0, 47), st.integers(0, 1)),
            max_size=200,
        ))
        bbox = BBox(data.draw(st.integers(0, 63)), data.draw(st.integers(0, 47)),
                    data.draw(st.integers(1, 20)), data.draw(st.integers(1, 20)))
        margin = data.draw(st.integers(0, 3))
        period = make_period(rows, t_start=t_start, duration=duration)
        local = extract_local_slices(period, bbox, m, margin)
        window = dilated_window(bbox, margin, SMALL)
        assert local.shape == (m, window.h, window.w)
        assert_cells_match_the_oracle(local, rows, t_start, duration, window)

    @pytest.mark.parametrize(
        "width, height, m",
        # m * h * w just below and at 2**31, then with an h * w that does not
        # divide 2**31, so wrapped int32 ids would also land on wrong cells
        [(256, 128, 65535), (256, 128, 65536), (255, 129, 65282), (255, 129, 65283)],
    )
    def test_id_width_switch_matches_the_cell_oracle(self, width, height, m):
        sensor = SensorGeometry(width, height)
        duration = 3 * m + 1
        last = (width - 1, height - 1)
        rows = [(0, 0, 0, 1), (duration - 1, *last, 1), (duration - 1, *last, 1),
                (duration - 2, width - 2, height - 1, 1), (duration // 2, *last, 1)]
        period = make_period(rows, sensor=sensor, duration=duration)
        window = BBox(0, 0, width, height)
        local = extract_local_slices(period, window, m)
        assert local.cells[-1] == m * width * height - 1
        assert_cells_match_the_oracle(local, rows, 0, duration, window)

    def test_slice_count_limits(self):
        period = make_period([], duration=1000)
        with pytest.raises(ConfigurationError):
            extract_local_slices(period, BBox(0, 0, 5, 5), 3)
        with pytest.raises(ConfigurationError):
            extract_local_slices(period, BBox(0, 0, 5, 5), 2000)

    def test_overflowing_slice_arithmetic_is_rejected(self):
        # (t - t_start) * m would wrap in int64: 2**40 us at two slices per ms
        period = make_period([(2**40, 1, 1, 1)], duration=2**40 + 1)
        with pytest.raises(ConfigurationError, match="overflows"):
            extract_local_slices(period, BBox(0, 0, 5, 5), round(2**40 / 500))

    def test_overflow_bound_follows_the_window_not_the_sensor(self):
        # 2 * m * H * W passes 2**63 on this sensor, but the 5x5 window's
        # ids stay below m * 25, so the cells come back exact.
        side = 65535
        sensor = SensorGeometry(side, side)
        duration, m = 2**31, 2**30 + 2**16
        rows = [(0, side - 5, side - 5, 1), (7, side - 1, side - 1, 1), (7, side - 1, side - 1, 1),
                (2**30 + 3, side - 3, side - 2, 1), (2**30 + 4, 0, 0, 1),
                (duration - 1, side - 1, side - 1, 1), (duration - 1, side - 2, side - 1, 0)]
        period = make_period(rows, sensor=sensor, duration=duration)
        window = BBox(side - 5, side - 5, 5, 5)
        local = extract_local_slices(period, window, m)
        assert local.cells[-1] == m * 25 - 1
        assert_cells_match_the_oracle(local, rows, 0, duration, window)


@st.composite
def windowed_periods(draw):
    """A period, its rows, a slice count m, and boxes with a margin for the windowed pass.

    Events gather at the two far corners of the sensor, so windows clamped
    at its edges hold many of them, and a block of a few events can give one
    window m events and another fewer. Boxes may overlap or hold no event,
    and m may exceed the events, so that they are binned by division.
    """
    duration = draw(st.integers(4, 400))
    t_start = draw(st.integers(0, 10**6))
    m = draw(st.integers(4, min(duration, 12)) | st.integers(4, duration))
    pixel = (st.tuples(st.integers(0, 4), st.integers(0, 3))
             | st.tuples(st.integers(60, 63), st.integers(44, 47))
             | st.tuples(st.integers(0, 63), st.integers(0, 47)))
    rows = draw(st.lists(st.tuples(st.integers(0, duration - 1), pixel, st.integers(0, 1)),
                         max_size=60))
    rows = sorted((t_start + dt, x, y, p) for dt, (x, y), p in rows)
    box = st.builds(BBox, st.integers(0, 63), st.integers(0, 47), st.integers(1, 8),
                    st.integers(1, 8))
    boxes = draw(st.lists(box, min_size=1, max_size=4))
    margin = draw(st.integers(0, 3))
    return make_period(rows, t_start=t_start, duration=duration), rows, m, boxes, margin


# Five positive events at (1, 1), then two at (62, 46), then more at both
# corners: a block of 7 gives the corner windows 5 and 2 events at m = 4.
CORNER_ROWS = ([(t, 1, 1, 1) for t in range(5)] + [(t, 62, 46, 1) for t in (5, 6)]
               + [(t, 62, 46, t % 2) for t in range(7, 20)] + [(t, 1, 1, 0) for t in range(20, 25)])
CORNER_BOXES = [BBox(0, 0, 3, 3), BBox(1, 1, 3, 3), BBox(60, 44, 4, 4), BBox(30, 20, 2, 2)]


def walked(period, boxes, m, margin):
    """Each box's LocalSlices, joined from the batches of one walk of the period.

    Checks on the way that every batch holds whole slices, past the window's
    earlier batches.
    """
    windows = [dilated_window(box, margin, period.sensor) for box in boxes]
    cells = [[] for _ in windows]
    counts = [[] for _ in windows]
    for k, batch_cells, batch_counts in _window_batches(period, windows, m):
        hw = windows[k].h * windows[k].w
        if cells[k]:
            assert batch_cells[0] // hw > cells[k][-1][-1] // hw
        cells[k].append(batch_cells)
        counts[k].append(batch_counts)
    return [
        LocalSlices((m, window.h, window.w),
                    np.concatenate(cells[k] or [np.empty(0, np.int64)]),
                    np.concatenate(counts[k] or [np.empty(0, np.int32)]))
        for k, window in enumerate(windows)
    ]


class TestWindowPass:
    @settings(max_examples=150, deadline=None)
    @example(windowed=(make_period(CORNER_ROWS, duration=40), CORNER_ROWS, 4, CORNER_BOXES, 2))
    @example(windowed=(make_period(CORNER_ROWS, duration=400), CORNER_ROWS, 100, CORNER_BOXES, 0))
    @given(windowed=windowed_periods())
    def test_every_window_matches_the_cell_oracle(self, windowed):
        period, rows, m, boxes, margin = windowed
        for block, flush in ((events._BLOCK_EVENTS, events._FLUSH_EVENTS), (1, 1), (3, 2),
                             (7, 5), (1, 4)):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(events, "_BLOCK_EVENTS", block)
                patch.setattr(events, "_FLUSH_EVENTS", flush)
                locals_ = walked(period, boxes, m, margin)
                singles = [extract_local_slices(period, box, m, margin) for box in boxes]
            assert len(locals_) == len(boxes)
            for local, single, box in zip(locals_, singles, boxes):
                window = dilated_window(box, margin, SMALL)
                assert local.shape == single.shape == (m, window.h, window.w)
                assert_cells_match_the_oracle(local, rows, period.t_start, period.duration, window)
                assert np.array_equal(single.cells, local.cells)
                assert np.array_equal(single.counts, local.counts)

    def test_a_slice_above_a_block_is_binned_whole(self):
        """Slice 1 of 4 holds more events than a block: its block of whole slices outgrows it."""
        rng = np.random.default_rng(5)
        crowded = events._BLOCK_EVENTS + 4_000
        t = np.sort(np.concatenate([rng.integers(100, 200, crowded), rng.integers(0, 400, 600)]))
        x, y = rng.integers(0, 10, t.size), rng.integers(0, 8, t.size)
        rows = list(zip(t.tolist(), x.tolist(), y.tolist(), rng.integers(0, 2, t.size).tolist()))
        period = make_period(rows, duration=400)
        boxes = [BBox(0, 0, 5, 4), BBox(3, 2, 7, 6), BBox(40, 30, 3, 3)]
        for block in (events._BLOCK_EVENTS, 1000):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(events, "_BLOCK_EVENTS", block)
                _, cuts = slice_blocks(period, 4)
                locals_ = walked(period, boxes, 4, 1)
            assert max(np.diff(cuts)) > crowded > block
            for local, box in zip(locals_, boxes):
                window = dilated_window(box, 1, SMALL)
                assert_cells_match_the_oracle(local, rows, 0, 400, window)
        # Beside the indexes it finds, the window test holds one bool and one
        # compare's temporary per event of the crowded block.
        _, cuts = slice_blocks(period, 4)
        k = int(np.argmax(np.diff(cuts)))
        lo, hi = int(cuts[k]), int(cuts[k + 1])
        for box, found in ((boxes[0], 12_920), (boxes[2], 0)):
            window = dilated_window(box, 1, SMALL)
            tracemalloc.start()
            try:
                index = _events_inside(period, window, lo, hi)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert index.size == found
            assert peak - 8 * index.size < 2.5 * (hi - lo)

    def test_window_events_past_a_flush_in_one_block(self):
        """One block puts more than _FLUSH_EVENTS events in a window: they form one batch."""
        rng = np.random.default_rng(21)
        inside = events._FLUSH_EVENTS + 3_000
        t = np.sort(np.concatenate([rng.integers(0, 100, inside), rng.integers(0, 400, 2_000)]))
        x, y = rng.integers(0, 12, t.size), rng.integers(0, 9, t.size)
        p = np.ones(t.size, int)
        p[-2_000:] = rng.integers(0, 2, 2_000)  # some late events of the slices 0..3 are negative
        rows = list(zip(t.tolist(), x.tolist(), y.tolist(), p.tolist()))
        period = make_period(rows, duration=400)
        boxes = [BBox(0, 0, 12, 9), BBox(2, 3, 4, 4)]
        _, cuts = slice_blocks(period, 8)
        held = [((period.t[lo:hi] < 100) & (period.p[lo:hi] == 1)).sum()
                for lo, hi in zip(cuts[:-1], cuts[1:])]
        assert max(held) > events._FLUSH_EVENTS
        batches = _window_batches(period, boxes, 8)
        assert max(int(counts.sum()) for _, _, counts in batches) > events._FLUSH_EVENTS
        locals_ = walked(period, boxes, 8, 0)
        for local, box in zip(locals_, boxes):
            assert_cells_match_the_oracle(local, rows, 0, 400, box)
            single = extract_local_slices(period, box, 8)
            assert np.array_equal(single.cells, local.cells)
            assert np.array_equal(single.counts, local.counts)


def searched_partners(cells, hw):
    """(i, j) with cells[j] == cells[i] + hw, from np.searchsorted(cells, cells + hw).

    Searched in uint64, where cells + hw cannot wrap for ids below 2**63.
    """
    ids = cells.astype(np.uint64)
    wanted = ids + np.uint64(hw)
    j = np.searchsorted(ids, wanted)
    found = j < ids.size
    found[found] = ids[j[found]] == wanted[found]
    return np.flatnonzero(found), j[found]


class TestPartnerJoin:
    @settings(max_examples=200, deadline=None)
    @example(base=0, hw=1, picks=[])
    @example(base=0, hw=5, picks=[3])
    @example(base=2**63 - 81, hw=7, picks=[66, 73, 80])
    @given(
        # ids from 0, around the int32 tag switch at cells[-1] = 2**30, or up to 2**63 - 1
        base=st.sampled_from([0, 2**30 - 40, 2**30 + 1, 2**63 - 81]),
        hw=st.integers(1, 12),
        picks=st.lists(st.integers(0, 80), unique=True, max_size=60),
    )
    def test_matches_the_binary_search(self, base, hw, picks):
        cells = np.array([base + k for k in sorted(picks)], np.int64)
        i, j = _next_slice_partners(cells, hw)
        want_i, want_j = searched_partners(cells, hw)
        assert i.tolist() == want_i.tolist() and j.tolist() == want_j.tolist()

    def test_random_sorted_cells(self):
        rng = np.random.default_rng(11)
        for m, hw, size in [(50, 400, 6000), (3, 2, 6), (500, 1911, 100_000)]:
            cells = np.sort(rng.choice(m * hw, size, replace=False)).astype(np.int64)
            i, j = _next_slice_partners(cells, hw)
            want_i, want_j = searched_partners(cells, hw)
            assert np.array_equal(i, want_i) and np.array_equal(j, want_j)
            assert i.size > 0


class TestBounds:
    def test_memory_grows_with_events_not_cells(self):
        """10,000 local slices of a 40x25 window: a dense grid would hold 10M cells."""
        duration = 2**28
        m = 10_000
        bbox = BBox(3, 5, 40, 25)
        rng = np.random.default_rng(8)
        rows = []
        # Slices in pairs, so that both f_s and f_p see neighbouring nonempty slices,
        # plus the first and the last slice alone.
        for j in [0, m - 1, *(2 * rng.choice(m // 2 - 1, 30, replace=False) + 1)]:
            for k in (0, 1) if 0 < j < m - 1 else (0,):
                lo = -(-(j + k) * duration // m)  # first microsecond of slice j + k
                for _ in range(int(rng.integers(1, 12))):
                    x, y = int(rng.integers(0, 40)) + bbox.x, int(rng.integers(0, 25)) + bbox.y
                    rows.append((lo + int(rng.integers(0, duration // m)), x, y, 1))
        period = make_period(rows, duration=duration)
        tracemalloc.start()
        try:
            series = compute_features(extract_local_slices(period, bbox, m))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16_000_000
        # A slice pair with an empty member scores 0.0 on f_s and f_p, so the
        # oracle only needs the pairs of nonempty slices, each as a dense grid.
        grids = {}
        for (j, y, x), k in local_cell_counts(rows, 0, duration, m, bbox).items():
            grids.setdefault(j, np.zeros((25, 40), np.int64))[y, x] = k
        want_d = np.zeros(m)
        want_s = np.zeros(m - 1)
        want_p = np.zeros(m - 1)
        for j, grid in grids.items():
            want_d[j] = grid.sum()
            if j + 1 in grids:
                f_d, f_s, f_p = oracles.compute_features(np.stack([grid, grids[j + 1]]))
                want_s[j], want_p[j] = f_s[0], f_p[0]
        assert np.array_equal(series.f_d, want_d)
        assert np.abs(series.f_s - want_s).max() <= 1e-12
        assert np.abs(series.f_p - want_p).max() <= 1e-12
        assert np.count_nonzero(series.f_s) >= 20

    def test_window_memory_follows_a_block_not_the_period(self):
        """2M uniform VGA events over 250 ms: a 20x20 window holds about 1300 of them."""
        rng = np.random.default_rng(12)
        size = 2_000_000
        period = EventPeriod(
            np.sort(rng.integers(0, 250_000, size)), rng.integers(0, 640, size),
            rng.integers(0, 480, size), rng.integers(0, 2, size),
            t_start=0, duration=250_000, sensor=SensorGeometry(640, 480),
        )
        window = BBox(300, 200, 20, 20)
        tracemalloc.start()
        try:
            local = extract_local_slices(period, window, 500)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * events._BLOCK_EVENTS  # masks of the whole period took 4 MB
        inside = ((period.p == 1) & (period.x >= 300) & (period.x < 320)
                  & (period.y >= 200) & (period.y < 220))
        assert local.counts.sum() == np.count_nonzero(inside)

    def test_window_and_features_hold_few_bytes_per_nonzero_cell(self):
        """About 100k nonzero cells of a 60x60 window over 200 slices, among 500k events."""
        rng = np.random.default_rng(19)
        m, duration, window = 200, 100_000, BBox(200, 150, 60, 60)
        ids = rng.choice(m * 3600, 100_000, replace=False)
        hits = np.repeat(ids, rng.integers(1, 4, ids.size))
        s, pixel = np.divmod(hits, 3600)
        noise = 300_000
        x = np.concatenate([window.x + pixel % 60, rng.integers(0, 640, noise)])
        y = np.concatenate([window.y + pixel // 60, rng.integers(0, 480, noise)])
        t = np.concatenate([s * duration // m + rng.integers(0, duration // m, hits.size),
                            rng.integers(0, duration, noise)])
        outside = (x[-noise:] - window.x) % 640 >= 60
        outside |= (y[-noise:] - window.y) % 480 >= 60
        p = np.concatenate([np.ones(hits.size, int), rng.integers(0, 2, noise) * outside])
        order = np.argsort(t, kind="stable")
        period = EventPeriod(t[order], x[order], y[order], p[order], t_start=0,
                             duration=duration, sensor=SensorGeometry(640, 480))
        tracemalloc.start()
        try:
            local = extract_local_slices(period, window, m)
            window_peak = tracemalloc.get_traced_memory()[1]
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            compute_features(local)
            feature_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        cells, counts = np.unique(s * 3600 + pixel, return_counts=True)
        assert np.array_equal(local.cells, cells) and np.array_equal(local.counts, counts)
        # The cells and counts take 4 bytes each, and one block of the walk
        # about 13 bytes an event; int64 records and the whole window's key
        # join took 2.9 MB here, and the features 25 bytes a cell above them.
        assert window_peak < 8 * cells.size + 20 * events._BLOCK_EVENTS
        assert feature_peak < 16 * cells.size

    def test_scoring_memory_follows_a_flush_not_the_window(self):
        """m fixed, four times the nonzero cells of one window: the stage's peak barely moves."""
        m, duration, window = 100, 100_000, BBox(100, 100, 100, 100)
        sensor = SensorGeometry(640, 480)
        peaks = []
        for cells in (60_000, 240_000):
            rng = np.random.default_rng(cells)
            ids = rng.choice(m * 10_000, cells, replace=False)
            s, pixel = np.divmod(ids, 10_000)
            noise = 3 * cells  # events outside the window, so a block holds a quarter of it
            t = np.concatenate([s * (duration // m) + rng.integers(0, duration // m, cells),
                                rng.integers(0, duration, noise)])
            x = np.concatenate([window.x + pixel % 100, rng.integers(300, 640, noise)])
            y = np.concatenate([window.y + pixel // 100, rng.integers(0, 480, noise)])
            order = np.argsort(t, kind="stable")
            period = EventPeriod(t[order], x[order], y[order], np.ones(t.size, int), t_start=0,
                                 duration=duration, sensor=sensor)
            tracemalloc.start()
            try:
                [series] = _window_features(period, [window], m, 0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert series.f_d.sum() == cells
        # Holding the window's cells whole (8 bytes a cell) and featurizing
        # them at once (about 13 more) makes the peak grow about fourfold.
        assert peaks[1] < 1.25 * peaks[0]

    def test_walk_memory_does_not_grow_with_the_windows(self):
        """Eight overlapping windows over 600k events: one pending-key budget serves them all."""
        rng = np.random.default_rng(23)
        n = 600_000
        period = EventPeriod(
            np.sort(rng.integers(0, 20_000, n)), rng.integers(0, 64, n), rng.integers(0, 64, n),
            rng.integers(0, 2, n), t_start=0, duration=20_000, sensor=SensorGeometry(64, 64),
        )
        peaks = []
        for boxes in ([BBox(0, 0, 64, 64)], [BBox(k, k, 64 - k, 64 - k) for k in range(8)]):
            tracemalloc.start()
            try:
                _window_features(period, boxes, 40, 0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # A budget of pending keys per window took the eight windows to 2.2x.
        assert peaks[1] < 1.5 * peaks[0]

    def test_feature_memory_follows_the_nonempty_slices(self):
        """64 events in 2**20 slices of an 8x8 window: per-slice sums over all m took 219 MB."""
        m = 2**20
        duration = 2 * m
        rng = np.random.default_rng(3)
        rows = []
        for j in 4 * rng.choice(m // 4, 16, replace=False):
            for s in (j, j + 1):  # neighbouring slices, two pixels each; pairs 4 slices apart
                for pixel in rng.choice(64, 2, replace=False).tolist():
                    rows.append((2 * s + int(rng.integers(0, 2)), pixel % 8, pixel // 8, 1))
        period = make_period(sorted(rows), sensor=SensorGeometry(8, 8), duration=duration)
        local = extract_local_slices(period, BBox(0, 0, 8, 8), m)
        tracemalloc.start()
        try:
            series = compute_features(local)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48_000_000  # the three float64 series alone take 24 MB
        assert series.f_d.sum() == 64 and np.count_nonzero(series.f_d) == 32
        assert np.count_nonzero(series.f_s) == 16


class TestDensity:
    def test_counts_positive_events(self):
        # seven events in cell (0, 1, 1) of 4x4 slices, id 1 * 4 + 1
        local = LocalSlices(shape=(3, 4, 4), cells=np.array([5]), counts=np.array([7]))
        assert list(compute_features(local).f_d) == [7, 0, 0]

    def test_constant_rate_gives_constant_series(self):
        local = LocalSlices(shape=(5, 2, 2), cells=np.arange(20), counts=np.ones(20, np.int32))
        assert list(compute_features(local).f_d) == [4] * 5

    def test_rejects_wrong_rank(self):
        no_cells = np.empty(0, np.int64)
        with pytest.raises(ValidationError):
            LocalSlices(shape=(2, 2), cells=no_cells, counts=no_cells)
        with pytest.raises(ValidationError):
            compute_features(LocalSlices(shape=(1, 2, 2), cells=no_cells, counts=no_cells))
        with pytest.raises(ValidationError, match="LocalSlices"):
            compute_features(np.zeros((2, 2, 2), np.int32))


class TestStructuralSimilarity:
    def test_identical_non_constant_slices(self):
        a = np.array([[0, 1], [2, 3]])
        assert structural_similarity(a, a) == 1.0

    def test_value_inverted_pattern(self):
        a = np.array([[0.0, 1.0], [2.0, 3.0]])
        assert structural_similarity(a, -a + 10.0) == pytest.approx(-1.0)

    def test_affine_map_preserves_correlation(self):
        a = np.array([[0, 4], [1, 9]], float)
        assert structural_similarity(a, 3 * a + 5) == pytest.approx(1.0, abs=1e-12)

    def test_constant_slice_scores_zero(self):
        a = np.full((3, 3), 7.0)
        b = np.arange(9.0).reshape(3, 3)
        assert structural_similarity(a, b) == 0.0
        assert structural_similarity(b, a) == 0.0

    def test_shape_mismatch_is_rejected(self):
        with pytest.raises(ValueError):
            structural_similarity(np.zeros((2, 2)), np.zeros((3, 3)))

    def test_behaviours_hold_through_compute_features(self):
        def f_s(a, b):
            return compute_features(local_slices(np.stack([a, b]).astype(np.int32))).f_s[0]

        a = np.array([[0, 1], [2, 3]])
        assert f_s(a, a) == 1.0
        assert f_s(a, 10 - a) == pytest.approx(-1.0, abs=1e-12)
        assert f_s(a, 3 * a + 5) == pytest.approx(1.0, abs=1e-12)
        flat = np.full((3, 3), 7)
        ramp = np.arange(9).reshape(3, 3)
        assert f_s(flat, ramp) == 0.0
        assert f_s(ramp, flat) == 0.0

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(0, 9), min_size=8, max_size=8),
           st.lists(st.integers(0, 9), min_size=8, max_size=8))
    def test_matches_plain_pearson(self, a, b):
        ga = np.array(a, float).reshape(2, 4)
        gb = np.array(b, float).reshape(2, 4)
        got = structural_similarity(ga, gb)
        assert -1.0 <= got <= 1.0
        assert got == pytest.approx(pearson(a, b), abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 9), min_size=8, max_size=8),
           st.floats(0.1, 50.0), st.floats(-20.0, 20.0))
    def test_positive_affine_invariance(self, a, scale, shift):
        ga = np.array(a, float).reshape(2, 4)
        gb = np.arange(8.0).reshape(2, 4)
        base = structural_similarity(ga, gb)
        mapped = structural_similarity(ga * scale + shift, gb)
        assert mapped == pytest.approx(base, abs=1e-9)


class TestPrincipalDirection:
    def test_collinear_horizontal(self):
        d = principal_direction(np.array([[0, 0], [1, 0], [2, 0]], float))
        assert not d.isotropic
        assert d.vector == pytest.approx([1.0, 0.0])

    def test_collinear_diagonal(self):
        d = principal_direction(np.array([[0, 0], [1, 1], [2, 2]], float))
        assert d.vector == pytest.approx([math.sqrt(0.5), math.sqrt(0.5)])

    def test_collinear_vertical_sign_convention(self):
        d = principal_direction(np.array([[0, 0], [0, 5]], float))
        assert d.vector == pytest.approx([0.0, 1.0])
        assert d.vector[1] > 0

    def test_isotropic_square_is_flagged(self):
        square = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], float)
        d = principal_direction(square)
        assert d.isotropic
        assert d.vector == pytest.approx([1.0, 0.0])

    def test_single_point_is_degenerate(self):
        with pytest.raises(DegenerateInputError):
            principal_direction(np.array([[3, 3]], float))

    def test_identical_points_are_degenerate(self):
        with pytest.raises(DegenerateInputError):
            principal_direction(np.array([[3, 3], [3, 3]], float))

    def test_empty_cloud_is_degenerate(self):
        with pytest.raises(DegenerateInputError):
            principal_direction(np.empty((0, 2)))

    @pytest.mark.parametrize("shape", [(4,), (3, 3), (2, 2, 2)])
    def test_wrong_shape_is_rejected(self, shape):
        with pytest.raises(ValidationError):
            principal_direction(np.zeros(shape))

    def test_matches_angle_sweep_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            theta = rng.uniform(0, math.pi)
            rot = np.array(
                [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
            )
            pts = rng.normal(size=(50, 2)) * [4.0, 0.7] @ rot.T
            vec = principal_direction(pts).vector
            got = math.atan2(vec[1], vec[0]) % math.pi
            want = principal_angle_sweep([tuple(p) for p in pts])
            diff = abs(got - want) % math.pi
            assert min(diff, math.pi - diff) <= math.radians(1.0)

    def test_rotation_equivariance_on_collinear_sets(self):
        base = np.array([[0, 0], [1, 0], [2, 0], [3, 0]], float)
        for theta in (math.radians(30), math.radians(90)):
            rot = np.array(
                [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
            )
            vec = principal_direction(base @ rot.T).vector
            expected = np.array([math.cos(theta), math.sin(theta)])
            assert direction_similarity(vec, expected) == pytest.approx(1.0)


class TestDirectionSimilarity:
    def test_orthogonal(self):
        assert direction_similarity((1, 0), (0, 1)) == 0.0

    def test_identical(self):
        assert direction_similarity((1, 0), (1, 0)) == 1.0

    def test_forty_five_degrees(self):
        got = direction_similarity((1, 0), (math.sqrt(0.5), math.sqrt(0.5)))
        assert got == pytest.approx(math.sqrt(0.5))

    def test_zero_vector_is_rejected(self):
        with pytest.raises(ValueError):
            direction_similarity((0, 0), (1, 0))

    def test_behaviours_hold_through_compute_features(self):
        def f_p(cells_a, cells_b):
            grids = np.zeros((2, 5, 5), np.int32)
            for j, cells in enumerate((cells_a, cells_b)):
                for x, y in cells:
                    grids[j, y, x] = 1
            return compute_features(local_slices(grids)).f_p[0]

        row = [(x, 2) for x in range(5)]
        column = [(2, y) for y in range(5)]
        diagonal = [(k, k) for k in range(5)]
        anti_diagonal = [(k, 4 - k) for k in range(5)]
        assert f_p(row, column) == 0.0
        assert f_p(row, row) == pytest.approx(1.0)
        assert f_p(row, diagonal) == pytest.approx(math.sqrt(0.5))
        assert f_p(diagonal, anti_diagonal) == pytest.approx(0.0, abs=1e-12)
        assert f_p(diagonal, row) == f_p(row, diagonal)
        # A slice without a direction plays the part of the zero vector.
        assert f_p(row, [(1, 1)]) == 0.0
        assert f_p([], row) == 0.0

    @settings(max_examples=80, deadline=None)
    @given(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5))
    def test_sign_invariance_and_bounds(self, ax, ay, bx, by):
        a = (ax, ay)
        b = (bx, by)
        # squared tiny components underflow to a zero norm, which is rejected
        if ax * ax + ay * ay == 0 or bx * bx + by * by == 0:
            return
        s = direction_similarity(a, b)
        assert 0.0 <= s <= 1.0
        assert direction_similarity(a, (-bx, -by)) == pytest.approx(s)
        assert direction_similarity((-ax, -ay), b) == pytest.approx(s)


SLICE_KINDS = ("empty", "single", "collinear", "square", "random")
LINE_STEPS = ((0, 1), (1, 0), (1, 1), (1, -1), (2, 1), (1, 3))


@st.composite
def count_grids(draw):
    """(m, h, w) count grids whose slices are drawn from SLICE_KINDS.

    One draw in eight is a large sparse window of 40 slices of 240x630 with
    at most 1,000 nonzero cells per slice; the rest are small grids.
    """
    large = draw(st.integers(0, 7)) == 0
    if large:
        m, h, w = 40, 240, 630
    else:
        m, h, w = draw(st.integers(2, 6)), draw(st.integers(1, 9)), draw(st.integers(1, 9))
    dtype = draw(st.sampled_from([np.int32, np.int64, np.uint16]))
    top = draw(st.sampled_from([1, 3, 1000]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grids = np.zeros((m, h, w), dtype)
    for j in range(m):
        kind = draw(st.sampled_from(SLICE_KINDS))
        if kind == "single":
            ys, xs = [rng.integers(h)], [rng.integers(w)]
        elif kind == "collinear":
            dy, dx = LINE_STEPS[rng.integers(len(LINE_STEPS))]
            k = np.arange(rng.integers(2, max(h, w, 2) + 1))
            ys, xs = rng.integers(h) + dy * k, rng.integers(w) + dx * k
            keep = (ys < h) & (xs >= 0) & (xs < w)
            ys, xs = ys[keep], xs[keep]
        elif kind == "square":
            y0, x0 = rng.integers(max(h - 1, 1)), rng.integers(max(w - 1, 1))
            ys, xs = np.array([y0, y0, y0 + 1, y0 + 1]), np.array([x0, x0 + 1, x0, x0 + 1])
            keep = (ys < h) & (xs < w)
            ys, xs = ys[keep], xs[keep]
        elif kind == "random" and large:
            cells = rng.choice(h * w, rng.integers(0, 1001), replace=False)
            ys, xs = np.divmod(cells, w)
        elif kind == "random":
            ys, xs = np.nonzero(rng.uniform(size=(h, w)) < rng.uniform())
        else:
            ys, xs = [], []
        grids[j, ys, xs] = rng.integers(1, top + 1, size=len(ys))
    return grids


class TestComputeFeatures:
    @settings(max_examples=150, deadline=None)
    @given(count_grids())
    def test_matches_the_per_slice_oracle(self, grids):
        got = compute_features(local_slices(grids))
        f_d, f_s, f_p = oracles.compute_features(grids)
        assert np.array_equal(got.f_d, f_d)
        assert np.abs(got.f_s - f_s).max() <= 1e-12
        assert np.abs(got.f_p - f_p).max() <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(shape=st.sampled_from([(256, 256), (255, 257), (97, 1021)]), data=st.data())
    def test_id_dtypes_around_2_to_the_31_give_the_oracle_series(self, shape, data):
        # A few slices at the top of the largest int32 shape, so that the ids
        # reach just below 2**31; one slice more makes the shape's ids int64.
        # The same cells, as int32 or int64 ids, must give the same series.
        h, w = shape
        below = (2**31 - 1) // (h * w)
        m0 = data.draw(st.integers(2, 4))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        grids = np.zeros((m0, h, w), np.int64)
        for j in range(m0):
            k = data.draw(st.sampled_from([0, 1, 2, 40]))
            grids[j].flat[rng.choice(h * w, k, replace=False)] = rng.integers(1, 4, k)
        flat = grids.reshape(-1)
        ids = np.flatnonzero(flat) + (below - m0) * h * w
        f_d, f_s, f_p = oracles.compute_features(grids)
        got = []
        for m in (below, below + 1):
            for ids_dtype in (np.int32, np.int64):
                local = LocalSlices((m, h, w), ids.astype(ids_dtype), flat[flat > 0])
                assert local.cells.dtype == (np.int32 if m == below else np.int64)
                series = compute_features(local)
                lo = below - m0
                assert np.array_equal(series.f_d[lo:below], f_d)
                assert np.abs(series.f_s[lo : below - 1] - f_s).max() <= 1e-12
                assert np.abs(series.f_p[lo : below - 1] - f_p).max() <= 1e-12
                for tail in (series.f_d[:lo], series.f_s[:lo], series.f_p[:lo],
                             series.f_d[below:], series.f_s[below - 1 :], series.f_p[below - 1 :]):
                    assert not tail.any()
                got.append(series)
        for series in got[1:]:
            assert np.array_equal(series.f_d[:below], got[0].f_d)
            assert np.array_equal(series.f_s[: below - 1], got[0].f_s)
            assert np.array_equal(series.f_p[: below - 1], got[0].f_p)

    def test_sums_past_int32_stay_exact(self):
        # Counts near 2**30 square past 2**59, and columns near 65535 past 2**32,
        # so these sums take int64 where narrower ones take int32.
        heavy = np.zeros((3, 2, 3), np.int64)
        heavy[0, 0, 1] = heavy[1, 0, 1] = 2**30 - 8
        heavy[0, 1, 2] = heavy[1, 1, 0] = heavy[2, 0, 0] = 3
        wide = np.zeros((3, 2, 65535), np.int64)
        wide[0, 0, [65534, 65533, 3]] = [1, 2, 3]
        wide[1, 1, [65534, 65530]] = [2, 1]
        wide[1, 0, 65534] = 5
        for grids in (heavy, wide):
            got = compute_features(local_slices(grids))
            f_d, f_s, f_p = oracles.compute_features(grids)
            assert np.array_equal(got.f_d, f_d)
            assert np.abs(got.f_s - f_s).max() <= 1e-12
            assert np.abs(got.f_p - f_p).max() <= 1e-12
            assert got.f_s[0] != 0.0

    def test_products_past_2_to_the_63_stay_exact(self):
        # One count of 1.5e9 squares to 2.25e18, and slice 1's h * w = 6 times
        # that, less its sum squared, passes 2**63: int64 would wrap even the
        # result, so the series' products take Python ints here.
        grids = np.array([
            [[5, 3, 0], [0, 7, 1]],
            [[1, 1_500_000_000, 0], [2, 0, 9]],
            [[3, 0, 5], [0, 1, 2]],
            [[0, 2, 6], [4, 0, 3]],
        ], np.int64)
        total = int(grids.sum())
        s1, s2 = int(grids[1].sum()), int((grids[1] ** 2).sum())
        assert total < 2**31 and 6 * s2 - s1 * s1 >= 2**63
        got = compute_features(local_slices(grids))
        f_d, f_s, f_p = oracles.compute_features(grids)
        assert np.array_equal(got.f_d, f_d)
        assert np.abs(got.f_s - f_s).max() <= 1e-12
        assert np.abs(got.f_p - f_p).max() <= 1e-12
        assert got.f_s[:2].all()

    def test_rejects_non_integer_and_oversized_counts(self):
        with pytest.raises(ValidationError, match="integer"):
            local_slices(np.ones((3, 2, 2)))
        with pytest.raises(ValidationError, match="2\\*\\*31"):
            local_slices(np.full((2, 2, 2), 2**28, np.int64))
        local_slices(np.full((2, 2, 2), 2**28 - 1, np.int64))  # totals 2**31 - 8

    @pytest.mark.parametrize(
        "cells, counts",
        [
            ([3, 1], [1, 1]),  # unsorted
            ([1, 1], [1, 1]),  # repeated
            ([-1, 2], [1, 1]),  # negative id
            ([0, 24], [1, 1]),  # past the last of 3 * 2 * 4 cells
            ([0, 2], [1, 0]),  # a zero count
            ([0, 2], [1, -4]),  # a negative count
            ([0, 2], [1]),  # lengths differ
            ([[0, 2]], [[1, 1]]),  # not one-dimensional
        ],
    )
    def test_record_rejects_malformed_cells(self, cells, counts):
        with pytest.raises(ValidationError):
            LocalSlices(shape=(3, 2, 4), cells=np.array(cells), counts=np.array(counts))

    @pytest.mark.parametrize("shape", [(4.5, 2, 2), (4, math.nan, 2)])
    def test_record_rejects_fractional_shapes(self, shape):
        with pytest.raises(ValidationError, match="must be integers"):
            LocalSlices(shape=shape, cells=np.array([0]), counts=np.array([1]))

    def test_record_takes_integral_float_shapes(self):
        local = LocalSlices(shape=(4.0, 2.0, 2.0), cells=np.array([0, 5]), counts=np.array([1, 2]))
        assert local.shape == (4, 2, 2) and all(type(v) is int for v in local.shape)
        assert compute_features(local).f_d.tolist() == [1.0, 2.0, 0.0, 0.0]

    def test_record_holds_read_only_arrays_of_the_id_dtype(self):
        # ids take int32 while m * h * w is below 2**31, as bin_events picks them
        for shape, cells_dtype in [
            ((3, 2, 4), np.int32), ((2**30 - 1, 2, 1), np.int32), ((2**30, 2, 1), np.int64)
        ]:
            local = LocalSlices(
                shape=shape, cells=np.array([0, 5], np.uint16), counts=np.array([2, 5], np.uint8)
            )
            assert local.size == shape[0] * shape[1] * shape[2]
            assert local.cells.dtype == cells_dtype
            assert local.counts.dtype == np.int32
            for values in (local.cells, local.counts):
                assert not values.flags.writeable
        cells, counts = np.array([0, 5], np.int32), np.array([2, 5], np.int32)
        local = LocalSlices(shape=(3, 2, 4), cells=cells, counts=counts)
        assert np.shares_memory(local.cells, cells) and np.shares_memory(local.counts, counts)
        assert cells.flags.writeable and counts.flags.writeable

    def test_series_lengths_and_ranges(self):
        rng = np.random.default_rng(3)
        grids = rng.integers(0, 4, size=(6, 5, 5)).astype(np.int32)
        series = compute_features(local_slices(grids))
        assert series.f_d.size == 6
        assert series.f_s.size == 5
        assert series.f_p.size == 5
        assert np.all(series.f_d >= 0)
        assert np.all((series.f_s >= -1) & (series.f_s <= 1))
        assert np.all((series.f_p >= 0) & (series.f_p <= 1))

    def test_degenerate_slices_contribute_zero_direction_pairs(self):
        grids = np.zeros((4, 4, 4), np.int32)
        grids[1, 0, :] = 1  # only slice 1 has a usable direction
        series = compute_features(local_slices(grids))
        assert list(series.f_p) == [0.0, 0.0, 0.0]

    def test_feature_series_validation(self):
        with pytest.raises(ValidationError):
            FeatureSeries(f_d=np.ones(4), f_s=np.zeros(2), f_p=np.zeros(3))
        with pytest.raises(ValidationError):
            FeatureSeries(f_d=np.ones(4), f_s=np.zeros(3), f_p=np.full(3, 2.0))
        with pytest.raises(ValidationError):
            FeatureSeries(f_d=-np.ones(4), f_s=np.zeros(3), f_p=np.zeros(3))
        # NaN fails every comparison, so it must not pass as "not out of range"
        nan = math.nan
        for f_d, f_s, f_p in (
            ([1, nan, 3, 1, 3, 1, 3], np.full(6, nan), np.full(6, nan)),
            ([1, math.inf, 3], np.zeros(2), np.zeros(2)),
            (np.ones(3), [0.0, nan], np.zeros(2)),
            (np.ones(3), np.zeros(2), [nan, 0.0]),
        ):
            with pytest.raises(ValidationError):
                FeatureSeries(f_d=f_d, f_s=f_s, f_p=f_p)


@st.composite
def batched_cells(draw):
    """(shape, cells, counts, cuts, grids, low): cells cut into batches of whole slices.

    The cells are those of dense (m0, h, w) count ``grids``, some slices of
    them empty, placed from slice ``low`` on of an (m, h, w) shape. Ids are
    int32 or int64, and in one draw in three the shape passes 2**31 cells,
    so the record's ids are int64. The cuts fall at slice starts: every
    slice alone, at an empty slice, or between two nonempty neighbours.
    """
    wide = draw(st.integers(0, 2)) == 0
    h, w = (256, 256) if wide else (draw(st.integers(1, 9)), draw(st.integers(1, 9)))
    m0 = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grids = np.zeros((m0, h, w), np.int64)
    for j in range(m0):
        k = min(draw(st.sampled_from([0, 1, 2, 5, 40])), h * w)
        grids[j].flat[rng.choice(h * w, k, replace=False)] = rng.integers(1, 4, k)
    low = (2**31 // (h * w) + 1 if wide else 0) + draw(st.integers(0, 2))
    m = low + m0 + draw(st.integers(0, 2))
    flat = grids.reshape(-1)
    cells = (np.flatnonzero(flat) + low * h * w).astype(draw(st.sampled_from([np.int32, np.int64]))
                                                       if not wide else np.int64)
    counts = flat[flat > 0].astype(np.int32)
    starts = np.flatnonzero(np.diff(cells // (h * w), prepend=-1))
    cuts = sorted({0, cells.size} | {int(c) for c in starts if draw(st.booleans())})
    return (m, h, w), cells, counts, cuts, grids, low


def fed(shape, cells, counts, cuts):
    sums = _SliceSums(shape)
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        sums.add(cells[lo:hi], counts[lo:hi])
    return sums.series()


def series_bytes(series):
    return series.f_d.tobytes(), series.f_s.tobytes(), series.f_p.tobytes()


# Slices 0, 1 and 3 of 4 hold cells; the cuts split the neighbours 0 and 1
# and fall at the empty slice 2.
GAP_GRIDS = np.array([[[1, 2], [0, 3]], [[2, 0], [1, 1]], [[0, 0], [0, 0]], [[4, 1], [1, 0]]])
GAP_CELLS = np.flatnonzero(GAP_GRIDS).astype(np.int32)
GAP_BATCHES = ((4, 2, 2), GAP_CELLS, GAP_GRIDS.reshape(-1)[GAP_CELLS].astype(np.int32),
               [0, 3, 6, 9], GAP_GRIDS, 0)


class TestSliceSums:
    @settings(max_examples=150, deadline=None)
    @example(batched=GAP_BATCHES, every_slice=False)
    @given(batched=batched_cells(), every_slice=st.booleans())
    def test_batch_cuts_give_the_one_batch_series(self, batched, every_slice):
        shape, cells, counts, cuts, grids, low = batched
        if every_slice:  # one slice per batch
            cuts = [0, *np.flatnonzero(np.diff(cells // (shape[1] * shape[2]))) + 1, cells.size]
        got = fed(shape, cells, counts, cuts)
        assert series_bytes(got) == series_bytes(fed(shape, cells, counts, [0, cells.size]))
        assert series_bytes(got) == series_bytes(compute_features(LocalSlices(shape, cells, counts)))
        m0 = grids.shape[0]
        f_d, f_s, f_p = oracles.compute_features(grids)
        assert np.array_equal(got.f_d[low : low + m0], f_d)
        assert np.abs(got.f_s[low : low + m0 - 1] - f_s).max() <= 1e-12
        assert np.abs(got.f_p[low : low + m0 - 1] - f_p).max() <= 1e-12
        assert not got.f_d[:low].any() and not got.f_d[low + m0 :].any()

    def test_checks_hold_across_batches(self):
        sums = _SliceSums((4, 2, 3))
        sums.add(np.array([0, 4], np.int32), np.array([2**30, 5], np.int32))
        with pytest.raises(ValidationError, match="2\\*\\*31"):
            sums.add(np.array([12], np.int32), np.array([2**30], np.int32))
        total = _SliceSums((4, 2, 3))
        total.add(np.array([0], np.int32), np.array([2**30], np.int32))
        total.add(np.array([6], np.int32), np.array([2**30 - 1], np.int32))  # 2**31 - 1 passes
        with pytest.raises(ValidationError, match="2\\*\\*31"):
            total.add(np.array([12], np.int32), np.array([1], np.int32))


class TestMovingAverage:
    def test_window_one_is_identity(self):
        # Non-integer samples too: a running-sum difference gives 0.1 + 0.2 back off by 5.6e-17.
        for x in ([3.0, 1.0, 4.0, 1.0], [0.3, 0.1 + 0.2, 0.3, 0.7]):
            assert list(moving_average(x, 1)) == x

    @pytest.mark.parametrize(
        "x, window, flat",
        [([0.6706244146936303, *[0.6471895115742501] * 6, 0.6153851114812539,
           0.38367755426188344], 3, slice(2, 6)),
         ([0.9, *[0.1] * 15, 0.2], 7, slice(4, 13))],
    )
    def test_plateau_stays_flat(self, x, window, flat):
        # Each window over the plateau holds the same values, so its average
        # must not depend on where the window sits in the series.
        assert len(set(moving_average(x, window)[flat].tolist())) == 1

    def test_constant_series_is_unchanged(self):
        assert list(moving_average([5.0] * 6, 3)) == [5.0] * 6

    def test_edge_windows_truncate(self):
        assert list(moving_average([0.0, 3.0, 0.0], 3)) == [1.5, 1.0, 1.5]

    def test_even_window_is_rejected(self):
        with pytest.raises(ConfigurationError):
            moving_average([1.0, 2.0, 3.0], 2)

    def test_oversized_window_is_rejected(self):
        with pytest.raises(ConfigurationError):
            moving_average([1.0, 2.0], 5)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=25),
           st.sampled_from([1, 3, 5, 7, 11, 15]))
    def test_matches_plain_loop_oracle(self, values, window):
        # The oracle adds in the same fixed order, so the bits agree.
        if window > len(values):
            return
        got = moving_average(values, window)
        want = centered_moving_average(values, window)
        assert got.tolist() == want

    def test_window_three_adds_left_to_right(self):
        x = np.random.default_rng(3).normal(size=200)
        padded = np.concatenate([[0.0], x, [0.0]])
        i = np.arange(x.size)
        want = (padded[:-2] + padded[1:-1] + padded[2:]) / (
            np.minimum(i + 2, x.size) - np.maximum(i - 1, 0)
        )
        assert moving_average(x, 3).tolist() == want.tolist()

    def test_wide_window_costs_log_window_passes(self):
        # One pass per window sample, O(n * window), took 157 ms on a 2-core x86-64 host.
        x = np.random.default_rng(0).normal(size=20_000)
        best = min(timeit.repeat(lambda: moving_average(x, 19_999), number=1, repeat=3))
        assert best < 0.020


class TestPeaksValleys:
    def test_constant_series_has_no_extrema(self):
        assert peaks_valleys([4.0] * 12) == (False, False)

    def test_three_cycle_sine_has_both(self):
        j = np.arange(30)
        series = np.sin(2 * np.pi * 3 * j / 30)
        assert peaks_valleys(series) == (True, True)

    def test_single_bump_fails_the_two_peak_rule(self):
        series = [0.0, 0.0, 1.0, 2.0, 3.0, 2.0, 1.0, 0.0, 0.0]
        assert peaks_valleys(series) == (False, False)

    def test_short_series_reports_nothing(self):
        assert peaks_valleys([0.0, 9.0, 0.0, 9.0]) == (False, False)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_samples_report_nothing(self, bad):
        series = np.sin(2 * np.pi * 3 * np.arange(30) / 30)
        for where in (0, 7, 29):
            x = series.copy()
            x[where] = bad
            with np.errstate(invalid="ignore"):  # the std of an infinite series
                assert peaks_valleys(x) == (False, False)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.lists(st.integers(-4, 4), min_size=3, max_size=40),
        st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=3, max_size=40),
    ))
    def test_prominences_match_scipy(self, values):
        for x in (np.array(values, float), -np.array(values, float)):
            interior = x[1:-1]
            peaks = np.flatnonzero((interior > x[:-2]) & (interior > x[2:])) + 1
            walled = np.concatenate([[np.inf], x, [np.inf]])  # inf walls for the ends
            assert np.array_equal(_prominences(walled, peaks + 1), peak_prominences(x, peaks)[0])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(
        st.lists(st.integers(-3, 3), min_size=1, max_size=30),  # plateaus and ties
        st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=30),
        st.lists(st.sampled_from([0.0, 0.5, 1.0, math.nan, math.inf]), min_size=1, max_size=12),
    ), min_size=1, max_size=6))
    def test_joined_search_matches_the_literal_oracle(self, values):
        # All series go through one search, end to end behind walls; each must
        # get the flags that the oracle gives it alone.
        series = [np.array(v, float) for v in values]
        with np.errstate(invalid="ignore"):  # the std of an infinite series
            flags = _extrema_flags(series).reshape(-1, 2)
            want = [oracles.peaks_valleys(x) for x in series]
        assert [tuple(bool(f) for f in pair) for pair in flags] == want

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(-50, 50), min_size=5, max_size=30),
           st.sampled_from([0.25, 0.5, 2.0, 8.0, 64.0]))
    def test_positive_scaling_invariance(self, values, scale):
        x = np.array(values, float)
        assert peaks_valleys(x) == peaks_valleys(x * scale)


def sine_series(length, cycles, lo, hi):
    # half-sample phase offset so crests hit one sample instead of straddling
    # two equal ones, which smoothing would turn into a plateau
    j = np.arange(length) + 0.5
    return lo + (hi - lo) * (0.5 + 0.5 * np.sin(2 * np.pi * cycles * j / length))


class TestPeriodicityScore:
    def test_all_constant_scores_zero(self):
        series = FeatureSeries(f_d=np.full(10, 4.0), f_s=np.full(9, 0.5), f_p=np.full(9, 0.5))
        assert periodicity_score(series) == 0

    def test_all_periodic_scores_six(self):
        series = FeatureSeries(
            f_d=sine_series(40, 4, 10, 30),
            f_s=sine_series(39, 4, -0.5, 0.5),
            f_p=sine_series(39, 4, 0.1, 0.9),
        )
        assert periodicity_score(series) == 6

    def test_density_only_scores_two(self):
        series = FeatureSeries(
            f_d=sine_series(40, 4, 10, 30),
            f_s=np.full(39, 0.3),
            f_p=np.full(39, 0.7),
        )
        assert periodicity_score(series) == 2

    def test_score_is_scale_invariant(self):
        series = FeatureSeries(
            f_d=sine_series(40, 4, 10, 30),
            f_s=sine_series(39, 4, -0.5, 0.5),
            f_p=np.full(39, 0.7),
        )
        scaled = FeatureSeries(
            f_d=series.f_d * 37.0, f_s=series.f_s, f_p=series.f_p
        )
        assert periodicity_score(series) == periodicity_score(scaled) == 4

    def test_even_smoothing_window_is_rejected(self):
        series = FeatureSeries(f_d=np.ones(6), f_s=np.zeros(5), f_p=np.zeros(5))
        with pytest.raises(ConfigurationError):
            periodicity_score(series, smooth_window=4)

    def test_window_shrinks_for_short_series(self):
        # f_s and f_p have 4 samples; a window of 5 must not blow up.
        series = FeatureSeries(
            f_d=sine_series(5, 1, 0, 10), f_s=np.zeros(4), f_p=np.zeros(4)
        )
        assert periodicity_score(series, smooth_window=5) == 0


class TestSaliencyScore:
    def make_map(self, gray):
        return oracles.sparse_saliency(gray)

    def test_direct_sum(self):
        gray = np.zeros(SMALL.shape, np.uint8)
        gray[10:13, 10:13] = 51
        assert saliency_score(region_of(10, 10, 3, 3), self.make_map(gray)) == 459

    def test_zero_gray_region_scores_zero(self):
        gray = np.zeros(SMALL.shape, np.uint8)
        assert saliency_score(region_of(5, 5, 2, 2), self.make_map(gray)) == 0

    def test_monotone_under_growth_and_brightening(self):
        gray = np.zeros(SMALL.shape, np.uint8)
        gray[4:10, 4:10] = 100
        small = saliency_score(region_of(4, 4, 3, 3), self.make_map(gray))
        grown = saliency_score(region_of(4, 4, 6, 6), self.make_map(gray))
        assert grown >= small
        brighter = gray.copy()
        brighter[4:10, 4:10] = 200
        assert saliency_score(region_of(4, 4, 3, 3), self.make_map(brighter)) >= small

    def test_region_outside_map_is_rejected(self):
        gray = np.zeros((8, 8), np.uint8)
        with pytest.raises(ValidationError):
            saliency_score(region_of(6, 6, 3, 3), self.make_map(gray))

    def test_negative_pixel_coordinates_are_rejected(self):
        # gray[0, -1] would read the last column of row 0 instead of raising.
        smap = self.make_map(np.arange(16, dtype=np.uint8).reshape(4, 4) * 14)
        for region in (
            Region(np.array([[-1, 0], [0, 0]])),
            Region(np.array([[0, -1], [0, 0]])),
        ):
            with pytest.raises(ValidationError, match="outside the saliency map"):
                saliency_score(region, smap)


class TestRegionScores:
    def test_validation(self):
        RegionScores(s_s=0.0)
        RegionScores(s_s=10.0, s_p=6)
        with pytest.raises(ValidationError):
            RegionScores(s_s=-1.0)
        with pytest.raises(ValidationError):
            RegionScores(s_s=1.0, s_p=7)
        with pytest.raises(ValidationError, match="s_p must be an integer"):
            RegionScores(s_s=1.0, s_p=2.7)

    @pytest.mark.parametrize("s_s", [math.nan, math.inf])
    def test_rejects_a_mass_that_is_not_finite(self, s_s):
        with pytest.raises(ValidationError, match="s_s must be finite"):
            RegionScores(s_s=s_s)


def test_render_gray_reexport_consistency():
    # round(255 * 4 / 20) = 51, matching the saliency threshold arithmetic
    assert render_gray(np.array([[4]]), 20)[0, 0] == 51
