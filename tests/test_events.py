"""Core domain types: events, periods, boxes, and configuration."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from evrotor import (
    BBox,
    ConfigurationError,
    DetectorConfig,
    EventPeriod,
    SensorGeometry,
    ValidationError,
)
from evrotor import (
    FeatureSeries,
    cluster_regions,
    events,
    extract_local_slices,
    periodicity_score,
    saliency_map,
    threshold_mask,
)
from evrotor.events import bin_events, slice_blocks, slice_starts
from evrotor.features import dilated_window
from evrotor.saliency import salient_regions

from conftest import SMALL, make_period
from oracles import dense_counts

EMPTY_MAP = saliency_map(make_period([], duration=1000), 2)
FLAT_SERIES = FeatureSeries(f_d=np.ones(6), f_s=np.zeros(5), f_p=np.zeros(5))


class TestSensorGeometry:
    def test_shape_is_height_by_width(self):
        assert SensorGeometry(640, 480).shape == (480, 640)

    @pytest.mark.parametrize("w,h", [(0, 10), (10, 0), (-1, 5)])
    def test_rejects_non_positive_dimensions(self, w, h):
        with pytest.raises(ValidationError):
            SensorGeometry(w, h)

    @pytest.mark.parametrize("w,h", [(64.5, 48), (64, float("nan")), (float("inf"), 48)])
    def test_refuses_a_fraction_nan_or_inf(self, w, h):
        # A NaN side used to pass and fail later as "outside the nanx48 sensor".
        with pytest.raises(ValidationError, match="must be integers"):
            SensorGeometry(w, h)

    def test_numpy_ints_and_integral_floats_load_as_python_ints(self):
        sensor = SensorGeometry(64.0, np.int64(48))
        assert sensor == SensorGeometry(64, 48)
        assert type(sensor.width) is int and type(sensor.height) is int


class TestEvent:
    """Each event is validated as it enters a period."""

    def test_rejects_negative_timestamp(self):
        with pytest.raises(ValidationError):
            make_period([(-1, 0, 0, 1)])

    @pytest.mark.parametrize("p", [-1, 2, 7, 257])
    def test_rejects_bad_polarity(self, p):
        with pytest.raises(ValidationError, match="polarity"):
            make_period([(0, 0, 0, p)])


class TestBBox:
    def test_derived_edges_and_area(self):
        b = BBox(10, 20, 30, 40)
        assert (b.right, b.bottom, b.area) == (40, 60, 1200)
        assert b.as_tuple() == (10, 20, 30, 40)

    @pytest.mark.parametrize("w,h", [(0, 5), (5, 0), (-3, 5)])
    def test_rejects_non_positive_size(self, w, h):
        with pytest.raises(ValidationError):
            BBox(0, 0, w, h)

    @pytest.mark.parametrize("fields", [(1.5, 0, 2, 2), (0, 0, float("nan"), 2)])
    def test_refuses_a_fraction_or_nan(self, fields):
        with pytest.raises(ValidationError, match="must be integers"):
            BBox(*fields)

    def test_numpy_ints_and_integral_floats_load_as_python_ints(self):
        box = BBox(np.int64(3), 2.0, np.int32(4), np.uint8(5))
        assert box == BBox(3, 2, 4, 5)
        assert all(type(v) is int for v in box.as_tuple())

    def test_clamped_trims_to_sensor(self):
        sensor = SensorGeometry(100, 80)
        assert BBox(-5, -5, 20, 20).clamped(sensor) == BBox(0, 0, 15, 15)
        assert BBox(90, 70, 20, 20).clamped(sensor) == BBox(90, 70, 10, 10)

    def test_clamped_outside_sensor_raises(self):
        with pytest.raises(ValidationError):
            BBox(200, 200, 5, 5).clamped(SensorGeometry(100, 80))


class TestEventPeriod:
    def test_columns_and_iteration(self):
        period = make_period([(10, 1, 2, 1), (20, 3, 4, 0)])
        assert len(period) == 2
        assert period.t.dtype == np.int64
        assert period.x.dtype == np.int32
        assert period.p.dtype == np.uint8
        rows = zip(period.t.tolist(), period.x.tolist(), period.y.tolist(), period.p.tolist())
        assert list(rows) == [(10, 1, 2, 1), (20, 3, 4, 0)]

    def test_columns_are_read_only(self):
        period = make_period([(10, 1, 2, 1)])
        with pytest.raises(ValueError):
            period.t[0] = 5

    def test_unsorted_input_is_repaired_and_flagged(self):
        period = make_period([(30, 1, 1, 1), (10, 2, 2, 0), (20, 3, 3, 1)])
        assert list(period.t) == [10, 20, 30]
        assert list(period.x) == [2, 3, 1]

    def test_repair_sort_is_stable_on_ties(self):
        period = make_period([(30, 9, 9, 1), (10, 1, 1, 1), (10, 2, 2, 0)])
        assert list(period.x) == [1, 2, 9]

    def test_time_order_check_takes_a_byte_per_event(self):
        """Sorted columns already in the period's dtypes are checked, not copied."""
        size = 2_000_000
        t = np.arange(size, dtype=np.int64)
        x = np.zeros(size, dtype=np.int32)
        p = np.ones(size, dtype=np.uint8)
        tracemalloc.start()
        try:
            period = EventPeriod(t, x, x, p, t_start=0, duration=size, sensor=SMALL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(period) == size
        assert peak < 4 << 20  # an int64 difference of the times would take 16 MB

    def test_rejects_out_of_bounds_pixel(self):
        with pytest.raises(ValidationError, match="700"):
            make_period([(10, 700, 100, 0)], sensor=SensorGeometry(640, 480))
        # Values that a narrowing int32 cast would wrap onto the sensor.
        with pytest.raises(ValidationError, match=str(2**32 + 1)):
            make_period([(10, 2**32 + 1, 1, 0)])
        with pytest.raises(ValidationError, match=str(2**40)):
            EventPeriod(t=[10], x=[2**40], y=[1], p=[0], t_start=0, duration=1000, sensor=SMALL)

    def test_rejects_out_of_window_timestamp(self):
        with pytest.raises(ValidationError, match="outside the period"):
            make_period([(2000, 1, 1, 1)], duration=1000)
        with pytest.raises(ValidationError, match="outside the period"):
            make_period([(5, 1, 1, 1)], t_start=10, duration=100)

    @pytest.mark.parametrize("t", [np.array([2**63 + 5], np.uint64), [2**63 + 5], [2**64 - 1]])
    def test_rejects_times_an_int64_column_would_wrap(self, t):
        # The period ends past 2**63, so its range check alone lets these times through.
        with pytest.raises(ValidationError, match=f"t={int(t[0])} is past the last time"):
            EventPeriod(t, [0], [0], [1], t_start=0, duration=2**64, sensor=SensorGeometry(4, 4))

    @pytest.mark.parametrize(
        "column, values, message",
        [("t", [10.0, 11.5], "event 1 has a non-integral t of 11.5"),
         ("x", [1.0, 0.7], "event 1 has a non-integral x of 0.7"),
         ("y", [1.0, np.nan], "event 1 has a non-integral y of nan")],
    )
    def test_rejects_non_integral_values_before_the_cast(self, column, values, message):
        # The integer casts would truncate 11.5 to 11 and 0.7 to 0 without a word.
        cols = dict(t=[10, 20], x=[1, 2], y=[1, 2], p=[1, 0])
        cols[column] = np.array(values)
        with pytest.raises(ValidationError, match=f"^{message}$"):
            EventPeriod(**cols, t_start=0, duration=1000, sensor=SMALL)

    def test_integral_floats_still_load(self):
        period = EventPeriod(t=[10.0, 20.0], x=[1.0, 2.0], y=[3.0, 4.0], p=[1.0, 0.0],
                             t_start=0, duration=1000, sensor=SMALL)
        assert period.t.tolist() == [10, 20] and period.x.tolist() == [1, 2]
        assert period.y.tolist() == [3, 4] and period.p.tolist() == [1, 0]

    def test_rejects_bad_polarity_column(self):
        with pytest.raises(ValidationError, match="polarity"):
            make_period([(10, 1, 1, 3)])
        with pytest.raises(ValidationError, match="polarity 300"):
            EventPeriod(t=[10], x=[1], y=[1], p=[300], t_start=0, duration=1000, sensor=SMALL)

    def test_rejects_ragged_columns(self):
        with pytest.raises(ValidationError):
            EventPeriod(
                t=np.array([1, 2]),
                x=np.array([1]),
                y=np.array([1]),
                p=np.array([1]),
                t_start=0,
                duration=10,
                sensor=SMALL,
            )

    @pytest.mark.parametrize(
        "t_start, duration", [(0, 20_000.5), (0, float("nan")), (0.5, 1000), (float("nan"), 1000)]
    )
    def test_refuses_fractional_or_nan_bounds(self, t_start, duration):
        # A duration of 20000.5 used to be stored as 20000 while it kept the
        # events at t = 20000, which the slicing then indexed past its end.
        with pytest.raises(ValidationError, match="period start and duration must be integers"):
            EventPeriod([0, 5, 19_999, 20_000, 20_000], [0] * 5, [0] * 5, [1] * 5,
                        t_start=t_start, duration=duration, sensor=SMALL)

    def test_integral_float_bounds_load_as_python_ints(self):
        period = EventPeriod([0, 19_999], [0, 1], [0, 1], [1, 0], t_start=0.0,
                             duration=20_000.0, sensor=SMALL)
        assert (period.t_start, period.duration) == (0, 20_000)
        assert type(period.t_start) is int and type(period.duration) is int

    def test_rejects_bad_window(self):
        with pytest.raises(ValidationError):
            make_period([], t_start=-1)
        with pytest.raises(ValidationError):
            make_period([], t_start=2**63)
        with pytest.raises(ValidationError):
            make_period([], duration=0)

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 999),
                st.integers(0, SMALL.width - 1),
                st.integers(0, SMALL.height - 1),
                st.integers(0, 1),
            ),
            max_size=50,
        )
    )
    def test_loaded_periods_are_sorted_and_in_bounds(self, rows):
        period = make_period(rows)
        assert np.all(np.diff(period.t) >= 0)
        assert len(period) == len(rows)
        if len(period):
            assert period.x.min() >= 0 and period.x.max() < SMALL.width
            assert period.y.min() >= 0 and period.y.max() < SMALL.height
            assert period.t.min() >= period.t_start
            assert period.t.max() < period.t_start + period.duration


class TestDetectorConfig:
    def test_defaults(self):
        config = DetectorConfig()
        assert config.tau_s == 50
        assert config.tau_p == 3
        assert config.k_top == 4
        assert config.d_merge == 50.0
        assert config.smooth_window == 3
        assert config.region_margin == 2
        assert config.n_slices is None and config.m_slices is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_slices": 1},
            {"m_slices": 3},
            {"tau_s": -1},
            {"tau_s": 256},
            {"tau_p": 7},
            {"tau_p": -1},
            {"k_top": 0},
            {"d_merge": -0.5},
            {"smooth_window": 2},
            {"smooth_window": 0},
            {"region_margin": -1},
            {"d_merge": float("nan")},
        ],
    )
    def test_rejects_out_of_range_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            DetectorConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [{"n_slices": 20.5}, {"m_slices": 40.5}, {"tau_s": 50.5}, {"tau_p": 2.5},
         {"k_top": 2.5}, {"smooth_window": 3.5}, {"region_margin": 1.5},
         {"tau_s": float("nan")}, {"k_top": float("inf")}],
    )
    def test_refuses_fractional_counts(self, kwargs):
        # Some of these passed (tau_s, tau_p) and some ended in a bare TypeError.
        with pytest.raises(ConfigurationError, match=f"^{next(iter(kwargs))} must be integers"):
            DetectorConfig(**kwargs)

    def test_integral_float_counts_load_as_python_ints(self):
        config = DetectorConfig(n_slices=20.0, m_slices=np.int64(40), tau_s=50.0, tau_p=3.0,
                                k_top=2.0, smooth_window=3.0, region_margin=np.uint8(1))
        assert config == DetectorConfig(n_slices=20, m_slices=40, tau_s=50, tau_p=3, k_top=2,
                                        smooth_window=3, region_margin=1)
        counts = ("n_slices", "m_slices", "tau_s", "tau_p", "k_top", "smooth_window",
                  "region_margin")
        assert all(type(getattr(config, name)) is int for name in counts)
        assert DetectorConfig(n_slices=20.0).m_slices is None

    @pytest.mark.parametrize(
        "field, value, stage",
        [
            ("tau_s", 256, lambda v: threshold_mask(EMPTY_MAP, v)),
            ("tau_s", -1, lambda v: salient_regions(EMPTY_MAP, v)),
            ("d_merge", -1.0, lambda v: cluster_regions([], v)),
            ("d_merge", float("nan"), lambda v: cluster_regions([], v)),
            ("region_margin", -1, lambda v: dilated_window(BBox(1, 1, 2, 2), v, SMALL)),
            ("region_margin", -1,
             lambda v: extract_local_slices(make_period([], duration=1000), BBox(0, 0, 5, 5), 4, v)),
            ("smooth_window", 4, lambda v: periodicity_score(FLAT_SERIES, smooth_window=v)),
            ("smooth_window", 0, lambda v: periodicity_score(FLAT_SERIES, smooth_window=v)),
        ],
    )
    def test_stage_functions_refuse_by_the_configs_rule(self, field, value, stage):
        # A stage given a raw parameter refuses it with the config's own message.
        with pytest.raises(ConfigurationError) as config_error:
            DetectorConfig(**{field: value})
        with pytest.raises(ConfigurationError) as stage_error:
            stage(value)
        assert str(stage_error.value) == str(config_error.value)

    def test_slicing_defaults_scale_with_duration(self):
        period = make_period([], duration=20_000)
        assert DetectorConfig().slicing_for(period) == (20, 40)
        short = make_period([], duration=1_500)
        assert DetectorConfig().slicing_for(short) == (2, 4)

    def test_explicit_slicing_passes_through(self):
        period = make_period([], duration=20_000)
        assert DetectorConfig(n_slices=10, m_slices=20).slicing_for(period) == (10, 20)

    def test_slicing_rejects_more_slices_than_microseconds(self):
        tiny = make_period([], duration=3)
        with pytest.raises(ConfigurationError, match="shorter than the 4 us that default slicing"):
            DetectorConfig().slicing_for(tiny)
        with pytest.raises(ConfigurationError, match="shorter than the 4 us that default slicing"):
            DetectorConfig(n_slices=2).slicing_for(tiny)
        with pytest.raises(ConfigurationError, match="m_slices 5 exceeds"):
            DetectorConfig(n_slices=2, m_slices=5).slicing_for(tiny)
        period = make_period([], duration=50)
        with pytest.raises(ConfigurationError, match="n_slices 100 exceeds"):
            DetectorConfig(n_slices=100, m_slices=4).slicing_for(period)


def python_ids(rows, t_start, duration, k, window, bits=0):
    """Cell ids in Python ints: ((slice * h + y) * w + x) << bits, window-relative."""
    return [
        ((((t - t_start) * k // duration) * window.h + y - window.y) * window.w + x - window.x)
        << bits
        for t, x, y, _ in rows
    ]


class TestBinEvents:
    def test_ids_on_the_largest_sensor_do_not_wrap(self):
        """On 65535x65535, y * width passes 2**31: y = 40000 once wrapped to -1673567296."""
        side = 65535
        sensor = SensorGeometry(side, side)
        rows = [(0, 0, 0, 1), (10, 7, 40000, 0), (500, side - 1, 40000, 1),
                (999, side - 1, side - 1, 0)]
        period = make_period(rows, sensor=sensor, duration=1000)
        window = BBox(0, 0, side, side)
        tracemalloc.start()
        try:
            for bits in (0, 1):
                ids = bin_events(period, 2, window, bits=bits)
                assert ids.dtype == np.int64
                assert ids.tolist() == python_ids(rows, 0, 1000, 2, window, bits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ids[-1] == (2 * side * side - 1) << 1
        assert peak < 1 << 20  # one H*W byte grid would take 4 GiB

    @pytest.mark.parametrize("bits", [0, 1])
    def test_ids_switch_to_int64_at_2_to_the_31(self, bits):
        # 2**15 slices of a 256 x 128 window reach 2**30 ids, 2**31 once shifted by one
        sensor = SensorGeometry(300, 200)
        duration = 2**16
        rows = [(0, 20, 30, 1), (duration // 2, 100, 100, 1), (duration - 1, 275, 157, 0)]
        period = make_period(rows, sensor=sensor, duration=duration)
        window = BBox(20, 30, 256, 128)
        for k, dtype in ((2**15 - 1, np.int32), (2**15, np.int32 if bits == 0 else np.int64)):
            ids = bin_events(period, k, window, bits=bits)
            assert ids.dtype == dtype
            assert ids.tolist() == python_ids(rows, 0, duration, k, window, bits)

    def test_ids_past_2_to_the_63_are_rejected(self):
        # 2**31 slices of a 2**31 x 2**31 window reach 2**93, though time alone fits
        period = make_period([], duration=2**31)
        with pytest.raises(ConfigurationError, match="overflows"):
            bin_events(period, 2**31, BBox(0, 0, 2**31, 2**31))

    @given(st.data())
    def test_ids_match_python_ints_on_both_sides_of_the_slice_search(self, data):
        # Searched starts while k <= binned events, as slice_blocks hands them
        # out, division above; the start may sit so close to 2**63 that the
        # later slices begin past it.
        duration = data.draw(st.integers(100, 10**7))
        t_start = data.draw(st.integers(0, 10**6) | st.integers(2**63 - 2 * duration, 2**63 - 1))
        last = min(duration, 2**63 - t_start) - 1
        wx = data.draw(st.integers(0, SMALL.width - 1))
        wy = data.draw(st.integers(0, SMALL.height - 1))
        window = BBox(wx, wy, data.draw(st.integers(1, SMALL.width - wx)),
                      data.draw(st.integers(1, SMALL.height - wy)))
        offsets = data.draw(st.lists(st.integers(0, last), max_size=40).map(sorted))
        rows = [
            (t_start + dt, data.draw(st.integers(wx, window.right - 1)),
             data.draw(st.integers(wy, window.bottom - 1)), 1)
            for dt in offsets
        ]
        index = data.draw(st.none() | st.sets(st.integers(0, max(len(rows) - 1, 0)),
                                              max_size=len(rows)).map(sorted))
        binned = rows if index is None else [rows[i] for i in index]
        if len(binned) >= 2 and data.draw(st.booleans()):
            k = data.draw(st.integers(2, len(binned)))
        else:
            k = data.draw(st.integers(max(2, len(binned) + 1), duration))
        bits = data.draw(st.integers(0, 1))
        period = make_period(rows, t_start=t_start, duration=duration)
        if index is not None:
            index = np.array(index, dtype=np.intp)
        starts = slice_starts(period, k) if k <= len(binned) else None
        ids = bin_events(period, k, window, index, starts=starts, bits=bits)
        assert ids.tolist() == python_ids(binned, t_start, duration, k, window, bits)

    @given(st.data())
    def test_runs_read_through_views_match_python_ints(self, data):
        # A contiguous run binned with the period's slice starts, as saliency
        # bins its blocks, whatever slices it cuts and however few events it holds.
        duration = data.draw(st.integers(2, 10**7))
        t_start = data.draw(st.integers(0, 10**6) | st.integers(2**63 - 2 * duration, 2**63 - 1))
        last = min(duration, 2**63 - t_start) - 1
        offsets = data.draw(st.lists(st.integers(0, last), max_size=40).map(sorted))
        rows = [
            (t_start + dt, data.draw(st.integers(0, SMALL.width - 1)),
             data.draw(st.integers(0, SMALL.height - 1)), 1)
            for dt in offsets
        ]
        k = data.draw(st.integers(2, min(duration, 2 * len(rows) + 2)))
        lo = data.draw(st.integers(0, len(rows)))
        hi = data.draw(st.integers(lo, len(rows)))
        bits = data.draw(st.integers(0, 1))
        period = make_period(rows, t_start=t_start, duration=duration)
        window = BBox(0, 0, SMALL.width, SMALL.height)
        starts = slice_starts(period, k)
        slices = [(t - t_start) * k // duration for t, *_ in rows]
        assert starts.tolist() == [sum(j < s for j in slices) for s in range(k)] + [len(rows)]
        ids = bin_events(period, k, window, slice(lo, hi), starts=starts, bits=bits)
        assert ids.tolist() == python_ids(rows[lo:hi], t_start, duration, k, window, bits)

    def test_slice_starts_past_2_to_the_63_do_not_wrap(self):
        # Slice 1 would start at 2**63 + 2**60 - 1000: every event is in slice 0.
        t_start = 2**63 - 1000
        rows = [(t_start, 1, 1, 1), (t_start + 500, 1, 1, 0), (2**63 - 1, 1, 1, 1)]
        period = make_period(rows, t_start=t_start, duration=2**61)
        starts = slice_starts(period, 2)
        assert starts.tolist() == [0, 3, 3]
        for known in (None, starts):
            assert bin_events(period, 2, BBox(1, 1, 1, 1), starts=known).tolist() == [0, 0, 0]
            index = np.array([0, 2])
            assert bin_events(period, 2, BBox(1, 1, 1, 1), index, starts=known).tolist() == [0, 0]

    def test_many_slices_over_few_events_need_no_boundaries(self):
        # 2**24 slice boundaries would take about 400 MB; 3 events need a few bytes.
        period = make_period([(0, 1, 1, 1), (2**23, 1, 1, 0), (2**24 - 1, 1, 1, 1)],
                             duration=2**24)
        tracemalloc.start()
        try:
            ids = bin_events(period, 2**24, BBox(1, 1, 1, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ids.tolist() == [0, 2**23, 2**24 - 1]
        assert peak < 1 << 20


class TestSliceBlocks:
    def test_blocks_hold_whole_slices(self, monkeypatch):
        """Slices of 5, 0, 2, 9 and 1 events, cut into blocks of up to 4 events."""
        sizes = [5, 0, 2, 9, 1]
        rows = [(j * 100 + e, 1, 1, e % 2) for j, size in enumerate(sizes) for e in range(size)]
        period = make_period(rows, duration=500)
        monkeypatch.setattr(events, "_BLOCK_EVENTS", 4)
        starts, cuts = slice_blocks(period, 5)
        assert starts.tolist() == [0, 5, 5, 7, 16, 17]
        assert cuts == [0, 5, 7, 16, 17]
        monkeypatch.setattr(events, "_BLOCK_EVENTS", 7)
        assert slice_blocks(period, 5)[1] == [0, 7, 16, 17]
        assert dense_counts(saliency_map(period, 5))[1, 1] == 3  # the last slice has no + event

    def test_more_slices_than_events_is_one_block_without_starts(self):
        period = make_period([(0, 1, 1, 1), (50, 2, 2, 0), (99, 3, 3, 1)], duration=100)
        assert slice_blocks(period, 3)[1] == [0, 3]
        assert slice_blocks(period, 4) == (None, [0, 3])
        assert slice_blocks(make_period([], duration=100), 2) == (None, [0, 0])

    def test_checks_the_split_it_cuts(self):
        """A direct cut checks any split; the feature walk adds its own rule of at least 4."""
        period = make_period([(0, 1, 1, 1)], duration=100)
        with pytest.raises(ConfigurationError, match="^slice count must be at least 2, got 1$"):
            slice_blocks(period, 1)
        with pytest.raises(ConfigurationError, match="local slice count must be at least 4, got 3"):
            extract_local_slices(period, BBox(0, 0, 2, 2), 3)
        with pytest.raises(ConfigurationError, match="exceeds the period duration"):
            slice_blocks(period, 101)
