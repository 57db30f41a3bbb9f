"""Event stream files, annotation JSON, and PGM dumps."""

import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evrotor import (
    AnnotationRecord,
    BBox,
    BoxRecord,
    Detection,
    EventFormatError,
    EventPeriod,
    EvrotorError,
    SensorGeometry,
    ValidationError,
    load_annotations,
    load_events,
    write_annotation,
    write_events,
)
from evrotor.io import write_pgm
from evrotor.metrics import evaluate_records

from conftest import SMALL, VGA, make_period


def test_csv_row_parses_to_event(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text("t_us,x,y,p\n1000,320,240,1\n")
    period = load_events(path, VGA)
    assert len(period) == 1
    assert (period.t[0], period.x[0], period.y[0], period.p[0]) == (1000, 320, 240, 1)


def test_csv_header_is_optional(tmp_path):
    path = tmp_path / "bare.csv"
    path.write_text("1000,5,6,0\n")
    period = load_events(path, SMALL)
    assert len(period) == 1 and period.p[0] == 0


def test_empty_csv_with_metadata_keeps_declared_window(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# t_start_us=500\n# duration_us=20000\nt_us,x,y,p\n")
    period = load_events(path, SMALL)
    assert len(period) == 0
    assert period.t_start == 500
    assert period.duration == 20000


def test_empty_csv_without_duration_is_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("t_us,x,y,p\n")
    with pytest.raises(ValidationError, match="duration"):
        load_events(path, SMALL)


def test_csv_out_of_bounds_pixel_is_rejected(tmp_path):
    path = tmp_path / "oob.csv"
    path.write_text("500,700,100,0\n")
    with pytest.raises(ValidationError, match="700"):
        load_events(path, VGA)


def test_csv_needs_sensor_geometry(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text("10,1,1,1\n")
    with pytest.raises(ValidationError, match="sensor"):
        load_events(path)


def test_csv_sensor_is_bounded_like_the_binary_header(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text("10,1,1,1\n")
    assert load_events(path, SensorGeometry(65535, 65535)).sensor.shape == (65535, 65535)
    for sensor in (SensorGeometry(65536, 8), SensorGeometry(8, 65536)):
        with pytest.raises(ValidationError, match="exceeds 65535 pixels per side"):
            load_events(path, sensor)


def test_csv_wrong_field_count_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t_us,x,y,p\n10,1,1,1\n20,2,2\n")
    with pytest.raises(EventFormatError, match=r"bad\.csv:3"):
        load_events(path, SMALL)


def test_csv_cr_line_ends_split_lines_like_lf(tmp_path):
    rows = ["t_us,x,y,p", "10,1,2,1", "20,3,4,0"]
    path = tmp_path / "ends.csv"
    for end in ("\n", "\r\n", "\r"):
        path.write_bytes(end.join(rows + [""]).encode())
        period = load_events(path, SMALL)
        assert period.t.tolist() == [10, 20] and period.x.tolist() == [1, 3]
        assert period.t_start == 10 and period.duration == 11
    path = tmp_path / "bad.csv"
    path.write_bytes(b"10,1,1,1\r20,2,2,0\r30,3,3\r")
    with pytest.raises(EventFormatError, match=r"bad\.csv:3: expected 4 fields"):
        load_events(path, SMALL)


def test_csv_non_integer_field_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    # the last three rows hold an integer that does not fit its column:
    # p in uint8, x in int32, t in int64
    for row in ("2.5,1,1,0", "5,1,1,300", "5,3000000000,1,1", "99999999999999999999999,1,1,1"):
        path.write_text(f"10,1,1,1\n{row}\n")
        with pytest.raises(EventFormatError, match=r"bad\.csv:2"):
            load_events(path, SMALL)


def test_csv_non_ascii_byte_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"10,1,1,1\n20,\xff2,2,0\n")
    with pytest.raises(EventFormatError, match=r"bad\.csv:2: non-ASCII"):
        load_events(path, SMALL)


def test_csv_unknown_header_is_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,col,row,sign\n10,1,1,1\n")
    with pytest.raises(EventFormatError, match="header"):
        load_events(path, SMALL)


def test_csv_window_falls_back_to_timestamp_range(tmp_path):
    path = tmp_path / "derived.csv"
    path.write_text("40,1,1,1\n90,2,2,0\n")
    period = load_events(path, SMALL)
    assert period.t_start == 40
    assert period.duration == 51  # covers the last event's microsecond


def test_csv_explicit_window_overrides_metadata(tmp_path):
    # the declared window wins over the one the timestamps imply
    path = tmp_path / "meta.csv"
    path.write_text("# t_start_us=30\n# duration_us=500\n40,1,1,1\n")
    period = load_events(path, SMALL)
    assert (period.t_start, period.duration) == (30, 500)


@pytest.mark.parametrize("line", ["# duration_us=20000.5", "# t_start_us=abc", "#t_start_us= 1e3"])
def test_csv_malformed_period_bound_reports_line(tmp_path, line):
    # without the check the bounds fell back silently to the 5..900 us timestamps
    path = tmp_path / "bad.csv"
    path.write_text(f"# t_start_us=0\n{line}\n5,1,1,1\n900,2,2,0\n")
    with pytest.raises(EventFormatError, match=r"bad\.csv:2: (duration|t_start)_us must be an integer"):
        load_events(path, SMALL)


def test_csv_other_comments_stay_free_form(tmp_path):
    path = tmp_path / "notes.csv"
    path.write_text("# note=rotor 1.5 m away\n# t_start_us = 0\n# duration_us=1000\n5,1,1,1\n")
    period = load_events(path, SMALL)
    assert (period.t_start, period.duration) == (0, 1000)


def test_csv_unsorted_rows_are_flagged(tmp_path):
    path = tmp_path / "unsorted.csv"
    path.write_text("# t_start_us=0\n# duration_us=100\n90,1,1,1\n10,2,2,0\n")
    period = load_events(path, SMALL)
    assert list(period.t) == [10, 90]


def test_csv_round_trip_is_identity(tmp_path):
    period = make_period(
        [(3, 1, 2, 1), (7, 4, 5, 0), (7, 0, 0, 1)], t_start=0, duration=50
    )
    path = tmp_path / "round.csv"
    write_events(period, path)
    loaded = load_events(path, SMALL)
    assert np.array_equal(loaded.t, period.t)
    assert np.array_equal(loaded.x, period.x)
    assert np.array_equal(loaded.y, period.y)
    assert np.array_equal(loaded.p, period.p)
    assert (loaded.t_start, loaded.duration) == (period.t_start, period.duration)


def test_binary_round_trip_is_identity(tmp_path):
    period = make_period(
        [(3, 1, 2, 1), (900, 4, 5, 0)], t_start=0, duration=1000
    )
    path = tmp_path / "round.evd"
    write_events(period, path)
    loaded = load_events(path)  # geometry comes from the header
    assert loaded.sensor == SMALL
    assert np.array_equal(loaded.t, period.t)
    assert np.array_equal(loaded.x, period.x)
    assert np.array_equal(loaded.y, period.y)
    assert np.array_equal(loaded.p, period.p)
    assert (loaded.t_start, loaded.duration) == (0, 1000)


def test_binary_round_trip_of_float_sides_reads_python_ints(tmp_path):
    # Float sides used to reach the header's struct.pack and fail there.
    sensor = SensorGeometry(64.0, 48.0)
    period = EventPeriod([3], [63], [47], [1], t_start=0, duration=1000, sensor=sensor)
    path = tmp_path / "x.evd"
    write_events(period, path)
    loaded = load_events(path)
    assert loaded.sensor == SensorGeometry(64, 48)
    assert type(loaded.sensor.width) is int and type(loaded.sensor.height) is int
    assert (loaded.x.tolist(), loaded.y.tolist()) == ([63], [47])


def test_binary_empty_round_trip(tmp_path):
    path = tmp_path / "empty.bin"
    write_events(make_period([], duration=777), path)
    loaded = load_events(path)
    assert len(loaded) == 0 and loaded.duration == 777


def test_binary_sensor_mismatch_is_rejected(tmp_path):
    path = tmp_path / "a.evd"
    write_events(make_period([(1, 1, 1, 1)]), path)
    with pytest.raises(ValidationError, match="disagrees"):
        load_events(path, VGA)


def test_binary_truncated_header_is_rejected(tmp_path):
    path = tmp_path / "short.evd"
    path.write_bytes(b"EVD1\x00\x01")
    with pytest.raises(EventFormatError, match="truncated"):
        load_events(path)


def test_binary_bad_magic_is_rejected(tmp_path):
    path = tmp_path / "bad.evd"
    path.write_bytes(b"NOPE" + bytes(20))
    with pytest.raises(EventFormatError, match="magic"):
        load_events(path)


def test_binary_ragged_record_section_is_rejected(tmp_path):
    path = tmp_path / "ragged.evd"
    write_events(make_period([(1, 1, 1, 1)]), path)
    path.write_bytes(path.read_bytes() + b"\x00" * 5)
    with pytest.raises(EventFormatError, match="multiple of 16"):
        load_events(path)


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.integers(0, 999),
            st.integers(0, SMALL.width - 1),
            st.integers(0, SMALL.height - 1),
            st.integers(0, 1),
        ),
        max_size=30,
    ),
    fmt=st.sampled_from(["csv", "binary"]),
)
def test_round_trip_property(tmp_path_factory, rows, fmt):
    period = make_period(rows)
    path = tmp_path_factory.mktemp("rt") / ("events." + ("evd" if fmt == "binary" else "csv"))
    write_events(period, path)
    loaded = load_events(path, SMALL)
    for column in ("t", "x", "y", "p"):
        assert np.array_equal(getattr(loaded, column), getattr(period, column))
    assert (loaded.t_start, loaded.duration) == (period.t_start, period.duration)


class TestAnnotations:
    def test_detection_record_serializes_exact_fields(self, tmp_path):
        record = AnnotationRecord(
            file="a.csv",
            width=640,
            height=480,
            duration_us=20000,
            boxes=(BoxRecord(BBox(10, 20, 30, 40), s_p=5, s_s=1234),),
        )
        path = tmp_path / "det.json"
        write_annotation(record, path)
        payload = json.loads(path.read_text())
        assert payload["boxes"] == [
            {"x": 10, "y": 20, "w": 30, "h": 40, "s_p": 5, "s_s": 1234}
        ]
        assert payload["file"] == "a.csv"
        assert payload["duration_us"] == 20000

    def test_empty_detection_list_serializes_to_empty_array(self, tmp_path):
        record = AnnotationRecord("a", 64, 48, 1000, boxes=())
        path = tmp_path / "empty.json"
        write_annotation(record, path)
        assert json.loads(path.read_text())["boxes"] == []

    def test_round_trip_preserves_boxes_and_scores(self, tmp_path):
        record = AnnotationRecord(
            file="scene",
            width=640,
            height=480,
            duration_us=20000,
            boxes=(
                BoxRecord(BBox(1, 2, 3, 4)),
                BoxRecord(BBox(5, 6, 7, 8), s_p=4, s_s=99.5),
            ),
        )
        path = tmp_path / "ann.json"
        write_annotation(record, path)
        assert load_annotations(path) == record

    @pytest.mark.parametrize(
        "box, message",
        [
            # Ids keep the numbering these cases had beside the fractional-x
            # case, which BBox itself now refuses (see TestBBox).
            pytest.param(
                BoxRecord(BBox(0, 0, 2, 2), s_p=4, s_s=math.nan),
                "s_s must be a finite number",
                id="box1-s_s must be a finite number",
            ),
            pytest.param(
                BoxRecord(BBox(0, 0, 2, 2), s_p=4, s_s=math.inf),
                "s_s must be a finite number",
                id="box2-s_s must be a finite number",
            ),
        ],
    )
    def test_writer_refuses_what_the_reader_refuses(self, tmp_path, box, message):
        path = tmp_path / "det.json"
        with pytest.raises(ValidationError, match=message):
            write_annotation(AnnotationRecord("a", 64, 48, 1000, boxes=(box,)), path)
        assert not path.exists()

    def test_detections_with_a_nan_mass_write_no_file(self, tmp_path):
        # The detection itself refuses the mass, before any writer can see it.
        path = tmp_path / "det.json"
        with pytest.raises(ValidationError, match="s_s must be finite"):
            Detection(s_p=4, s_s=math.nan, pixels=np.zeros((1, 2)))
        assert not path.exists()

    def test_ground_truth_omits_scores(self, tmp_path):
        record = AnnotationRecord("gt", 64, 48, 1000, boxes=(BoxRecord(BBox(0, 0, 5, 5)),))
        path = tmp_path / "gt.json"
        write_annotation(record, path)
        assert "s_p" not in json.loads(path.read_text())["boxes"][0]

    def test_invalid_json_is_a_format_error(self, tmp_path):
        path = tmp_path / "bad.json"
        for payload in (b"{not json", b'{"file": "\xff"}', b"[" * 100_000):
            path.write_bytes(payload)
            with pytest.raises(EventFormatError, match="JSON"):
                load_annotations(path)

    def test_missing_field_is_a_format_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"file": "a", "boxes": []}))
        with pytest.raises(EventFormatError, match="field"):
            load_annotations(path)

    def test_non_integer_box_field_is_a_format_error(self, tmp_path):
        path = tmp_path / "bad.json"
        box = {"x": 0, "y": 0, "w": 4, "h": 4}
        record = {"file": "a", "width": 64, "height": 48, "duration_us": 20000, "boxes": [box]}
        texts = [
            json.dumps(dict(record, boxes=[dict(box, x="abc")])),
            # 1e400 parses to inf, which has no integer value
            json.dumps(record).replace('"width": 64', '"width": 1e400'),
            # s_s must be a finite number; Python's json reads NaN and Infinity
            *(json.dumps(dict(record, boxes=[dict(box, s_s=s_s)]))
              for s_s in ("abc", [1], math.nan, math.inf, -math.inf)),
        ]
        for text in texts:
            path.write_text(text)
            with pytest.raises(EventFormatError, match="field"):
                load_annotations(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("x", 1.5),
            ("y", "2"),
            ("w", 20.9),
            ("h", True),
            ("s_p", 2.7),
            ("s_p", "3"),
            ("width", 64.5),
            ("height", False),
            ("duration_us", "20000"),
            ("duration_us", 20000.5),
        ],
    )
    def test_non_integral_field_is_a_format_error(self, tmp_path, field, value):
        # int() used to load these as the truncated or converted integer
        box = {"x": 1, "y": 2, "w": 20, "h": 1, "s_p": 2}
        record = {"file": "a", "width": 64, "height": 48, "duration_us": 20000, "boxes": [box]}
        if field in box:
            record["boxes"] = [dict(box, **{field: value})]
        else:
            record[field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(record))
        with pytest.raises(EventFormatError, match=f"{field} must be an integer"):
            load_annotations(path)

    def test_box_errors_name_the_file(self, tmp_path):
        box = {"x": 1, "y": 1, "w": 0, "h": 3}
        record = {"file": "a", "width": 64, "height": 48, "duration_us": 20000, "boxes": [box]}
        path = tmp_path / "pred_7.json"
        path.write_text(json.dumps(record))
        with pytest.raises(ValidationError) as err:
            load_annotations(path)
        assert str(err.value) == f"{path}: box size must be positive, got 0x3"

    def test_integral_numbers_still_load(self, tmp_path):
        box = {"x": 1.0, "y": 2, "w": 20.0, "h": 1, "s_p": 2.0}
        record = {"file": "a", "width": 64.0, "height": 48, "duration_us": 2e4, "boxes": [box]}
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(record))
        loaded = load_annotations(path)
        assert loaded == AnnotationRecord("a", 64, 48, 20000, (BoxRecord(BBox(1, 2, 20, 1), s_p=2),))
        assert all(type(v) is int for v in (loaded.width, loaded.duration_us, loaded.boxes[0].s_p))


class TestPgm:
    def test_header_and_payload(self, tmp_path):
        gray = np.arange(12, dtype=np.uint8).reshape(3, 4)
        path = tmp_path / "map.pgm"
        write_pgm(gray, path)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n4 3\n255\n")
        assert raw[len(b"P5\n4 3\n255\n"):] == gray.tobytes()

    def test_rejects_non_image_input(self, tmp_path):
        with pytest.raises(ValidationError):
            write_pgm(np.zeros(5, dtype=np.uint8), tmp_path / "x.pgm")


# Integers inside and just outside the int64 (t), int32 (x, y) and uint8 (p)
# column ranges, small ones that can form valid events, and wide ones.
_LIMITS = [0, 1, 2, 255, 256, 2**31 - 1, 2**31, 2**63 - 1, 2**63, 2**64]
_CSV_INTS = st.one_of(
    st.integers(-3, 70),
    st.sampled_from(_LIMITS + [-v for v in _LIMITS] + [-(2**31) - 1, -(2**63) - 1]),
    st.integers(-(2**70), 2**70),
).map(str)
_CSV_FIELDS = st.one_of(_CSV_INTS, st.sampled_from(["", "x", "1.5", "1e3", " 7", "0x1f", "t_us"]))
_CSV_LINES = st.one_of(
    st.lists(_CSV_FIELDS, min_size=4, max_size=4).map(",".join),
    st.lists(_CSV_FIELDS, min_size=1, max_size=6).map(",".join),
    st.tuples(st.sampled_from(["t_start_us", "duration_us", "note"]), _CSV_INTS).map(
        lambda kv: f"# {kv[0]}={kv[1]}"
    ),
    st.just("t_us,x,y,p"),
)

_U64 = st.one_of(st.integers(0, 3000), st.integers(0, 2**64 - 1))
_U16 = st.one_of(st.integers(0, 80), st.integers(0, 2**16 - 1))


def _evd_bytes(magic, width, height, t_start, duration, records, tail, cut):
    raw = struct.pack("<4sHHQQ", magic, width, height, t_start, duration)
    raw += b"".join(struct.pack("<QHHB3x", *record) for record in records)
    return (raw + tail)[:cut]


_EVD_FILES = st.builds(
    _evd_bytes,
    magic=st.sampled_from([b"EVD1", b"EVD0"]),
    width=_U16,
    height=_U16,
    t_start=_U64,
    duration=_U64,
    records=st.lists(st.tuples(_U64, _U16, _U16, st.integers(0, 255)), max_size=6),
    tail=st.binary(max_size=20),
    cut=st.integers(0, 200),
)

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5,
)
_JSON_FIELDS = st.one_of(st.integers(-3, 100), _JSON_VALUES)
_JSON_BOXES = st.fixed_dictionaries(
    {key: _JSON_FIELDS for key in "xywh"}, optional={"s_p": _JSON_FIELDS, "s_s": _JSON_FIELDS}
)
_JSON_RECORDS = st.fixed_dictionaries(
    {"boxes": st.one_of(st.lists(_JSON_BOXES, max_size=4), _JSON_VALUES)},
    optional={
        key: _JSON_FIELDS for key in ("file", "width", "height", "duration_us")
    },
)
_JSON_TEXTS = st.one_of(_JSON_RECORDS.map(json.dumps), _JSON_VALUES.map(json.dumps), st.text(max_size=20))


@settings(max_examples=400, deadline=None)
@given(target=st.sampled_from(["csv", "evd", "json"]), data=st.data())
def test_loaders_raise_only_documented_errors(tmp_path_factory, target, data):
    """Malformed CSV, .evd or annotation input fails with EvrotorError or OSError."""
    directory = tmp_path_factory.mktemp("fuzz")
    try:
        if target == "csv":
            path = directory / "events.csv"
            path.write_text("\n".join(data.draw(st.lists(_CSV_LINES, max_size=8))) + "\n")
            load_events(path, SMALL)
        elif target == "evd":
            path = directory / "events.evd"
            path.write_bytes(data.draw(_EVD_FILES))
            load_events(path)
        else:
            path = directory / "record.json"
            path.write_text(data.draw(_JSON_TEXTS))
            record = load_annotations(path)
            evaluate_records([("record", record, record)])
    except (EvrotorError, OSError):
        pass
