"""File formats: event streams (CSV and binary), box annotations, PGM dumps.

CSV streams hold one ``t_us,x,y,p`` row per event, with optional ``#``
comment lines. Writers emit ``# t_start_us=`` and ``# duration_us=`` comments
so the period bounds survive a round trip; readers reject a non-integer value
in either and fall back to deriving the bounds from the timestamps when the
comments are absent.

Binary streams open with a 24-byte little-endian header (magic ``EVD1``,
width u16, height u16, t_start u64, duration u64) followed by 16-byte
records (t u64, x u16, y u16, p u8, 3 pad bytes). The reader checks the
header and the record size, then hands the records, read in place and in
their file dtypes, to ``EventPeriod``, whose rules (times within the period
and below 2**63, pixels on the sensor, polarity 0 or 1) hold for every
event source and name the first bad event.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from io import BytesIO, TextIOWrapper
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import EventFormatError, ValidationError
from .events import BBox, EventPeriod, SensorGeometry

BINARY_MAGIC = b"EVD1"
_BINARY_SUFFIXES = (".evd", ".bin")
_HEADER = struct.Struct("<4sHHQQ")
_RECORD_DTYPE = np.dtype(
    [("t", "<u8"), ("x", "<u2"), ("y", "<u2"), ("p", "u1"), ("pad", "V3")]
)
_CSV_HEADER = "t_us,x,y,p"
# Largest sensor side of either format: the .evd header stores it as u16.
_SIDE_MAX = 0xFFFF
# Largest period duration of an .evd header, which stores it as u64.
_U64_MAX = 2**64 - 1
# Inclusive value ranges of the t (int64) and x, y (int32) columns; p is uint8.
_T_MIN, _T_MAX = -(2**63), 2**63 - 1
_XY_MIN, _XY_MAX = -(2**31), 2**31 - 1

assert _RECORD_DTYPE.itemsize == 16


@dataclass(frozen=True)
class BoxRecord:
    """One annotated box; scores are present on detections, absent on GT."""

    bbox: BBox
    s_p: int | None = None
    s_s: float | None = None


@dataclass(frozen=True)
class AnnotationRecord:
    """Boxes of one period plus the metadata identifying it."""

    file: str
    width: int
    height: int
    duration_us: int
    boxes: tuple[BoxRecord, ...]


def write_events(period: EventPeriod, path) -> None:
    """Write a period to disk: binary for ``.evd``/``.bin``, CSV otherwise."""
    path = Path(path)
    if path.suffix.lower() in _BINARY_SUFFIXES:
        _write_binary(period, path)
    else:
        _write_csv(period, path)


def _write_csv(period: EventPeriod, path: Path) -> None:
    with open(path, "w", encoding="ascii") as handle:
        handle.write(f"# t_start_us={period.t_start}\n")
        handle.write(f"# duration_us={period.duration}\n")
        handle.write(_CSV_HEADER + "\n")
        columns = np.column_stack(
            [period.t, period.x.astype(np.int64), period.y.astype(np.int64), period.p.astype(np.int64)]
        )
        np.savetxt(handle, columns, "%d", ",")


def _write_binary(period: EventPeriod, path: Path) -> None:
    if max(period.sensor.width, period.sensor.height) > _SIDE_MAX:
        raise ValidationError(f"binary format caps sensor dimensions at {_SIDE_MAX}")
    # EventPeriod holds t_start below 2**63, but any positive duration.
    if period.duration > _U64_MAX:
        raise ValidationError(f"binary format caps the duration at 2**64 - 1, got {period.duration}")
    # Packed before the file opens, so a refused value leaves an existing file as it was.
    header = _HEADER.pack(
        BINARY_MAGIC, period.sensor.width, period.sensor.height, period.t_start, period.duration
    )
    records = np.zeros(len(period), dtype=_RECORD_DTYPE)
    records["t"] = period.t
    records["x"] = period.x
    records["y"] = period.y
    records["p"] = period.p
    with open(path, "wb") as handle:
        handle.write(header)
        handle.write(records.tobytes())


def load_events(path, sensor: SensorGeometry | None = None) -> EventPeriod:
    """Load a period from a CSV or binary event file.

    Binary files carry their own geometry and period bounds; a ``sensor``
    argument must then agree with the header. CSV files need ``sensor``, at
    most 65535 pixels per side as in the binary header, and take period
    bounds from the metadata comments or, failing those, from the timestamp
    range.
    """
    path = Path(path)
    raw = path.read_bytes()
    magic = raw[:4]
    if magic != BINARY_MAGIC and path.suffix.lower() in _BINARY_SUFFIXES:
        raise EventFormatError(f"bad magic {magic!r}, expected {BINARY_MAGIC!r}", path=path)
    load = _load_binary if magic == BINARY_MAGIC else _load_csv
    try:
        return load(raw, path, sensor)
    except ValidationError as err:  # the EventPeriod checks and the sensor checks
        raise ValidationError(f"{path}: {err}") from None


def _load_binary(raw: bytes, path: Path, sensor: SensorGeometry | None) -> EventPeriod:
    if len(raw) < _HEADER.size:
        raise EventFormatError("truncated header", path=path)
    _, width, height, t_start, duration = _HEADER.unpack_from(raw)
    size = len(raw) - _HEADER.size
    if size % _RECORD_DTYPE.itemsize:
        raise EventFormatError(f"record section of {size} bytes is not a multiple of 16", path=path)
    file_sensor = SensorGeometry(width, height)
    if sensor is not None and sensor != file_sensor:
        raise ValidationError(
            f"sensor {sensor.width}x{sensor.height} disagrees with file header "
            f"{width}x{height}"
        )
    # Read in place: EventPeriod checks each column before any cast that could change
    # it, and casts each once.
    records = np.frombuffer(raw, _RECORD_DTYPE, offset=_HEADER.size)
    return EventPeriod(
        *(records[name] for name in "txyp"), t_start=t_start, duration=duration, sensor=file_sensor
    )


def _load_csv(raw: bytes, path: Path, sensor: SensorGeometry | None) -> EventPeriod:
    if sensor is None:
        raise ValidationError("CSV event streams need explicit sensor geometry")
    if max(sensor.width, sensor.height) > _SIDE_MAX:
        raise ValidationError(
            f"sensor {sensor.width}x{sensor.height} exceeds {_SIDE_MAX} pixels per side"
        )
    meta: dict[str, int] = {}
    ts: list[int] = []
    xs: list[int] = []
    ys: list[int] = []
    ps: list[int] = []
    header_seen = False
    # A text-mode file's own layer over the bytes read splits the same lines. Undecodable
    # bytes become surrogates, so the check below can name the line.
    with TextIOWrapper(BytesIO(raw), encoding="ascii", errors="surrogateescape") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.isascii():
                raise EventFormatError("non-ASCII byte", path=path, line=line_no)
            text = line.strip()
            if not text:
                continue
            if text.startswith("#"):
                # Only the period bounds are read; other comments are free-form notes.
                key, equals, value = text.lstrip("#").partition("=")
                key = key.strip()
                if equals and key in ("t_start_us", "duration_us"):
                    if not _is_int(value):
                        raise EventFormatError(
                            f"{key} must be an integer, got {value.strip()!r}",
                            path=path,
                            line=line_no,
                        )
                    meta[key] = int(value)
                continue
            fields = text.split(",")
            if not header_seen and not ts and fields[0].strip() and not _is_int(fields[0]):
                if [f.strip() for f in fields] != _CSV_HEADER.split(","):
                    raise EventFormatError(
                        f"unrecognized header {text!r}", path=path, line=line_no
                    )
                header_seen = True
                continue
            if len(fields) != 4:
                raise EventFormatError(
                    f"expected 4 fields, got {len(fields)}", path=path, line=line_no
                )
            try:
                t, x, y, p = [int(f) for f in fields]
            except ValueError:
                raise EventFormatError(
                    f"non-integer field in {text!r}", path=path, line=line_no
                ) from None
            if not (
                _T_MIN <= t <= _T_MAX
                and _XY_MIN <= x <= _XY_MAX
                and _XY_MIN <= y <= _XY_MAX
                and 0 <= p <= 255
            ):
                raise EventFormatError(
                    f"field out of range in {text!r} (t int64, x and y int32, p uint8)",
                    path=path,
                    line=line_no,
                )
            ts.append(t)
            xs.append(x)
            ys.append(y)
            ps.append(p)
    t_start = meta.get("t_start_us")
    duration = meta.get("duration_us")
    if t_start is None:
        t_start = min(ts) if ts else 0
    if duration is None:
        if not ts:
            raise ValidationError(
                "cannot infer the duration of an empty stream; declare duration_us"
            )
        duration = max(ts) - t_start + 1
    return EventPeriod(
        np.asarray(ts, dtype=np.int64),
        np.asarray(xs, dtype=np.int32),
        np.asarray(ys, dtype=np.int32),
        np.asarray(ps, dtype=np.uint8),
        t_start=t_start,
        duration=duration,
        sensor=sensor,
    )


def _is_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True


def write_annotation(record: AnnotationRecord, path) -> None:
    """Write one period's boxes as a JSON record; scores only when present.

    A record that ``load_annotations`` would refuse raises ValidationError and writes no file.
    """
    boxes = []
    for box in record.boxes:
        entry: dict = dict(zip("xywh", box.bbox.as_tuple()))
        if box.s_p is not None:
            entry["s_p"] = int(box.s_p)
        if box.s_s is not None:
            entry["s_s"] = box.s_s if isinstance(box.s_s, int) else float(box.s_s)
        boxes.append(entry)
    payload = {
        "file": record.file,
        "width": record.width,
        "height": record.height,
        "duration_us": record.duration_us,
        "boxes": boxes,
    }
    try:
        _annotation_record(payload)
        text = json.dumps(payload)
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise ValidationError(f"cannot write {path}: {err}") from None
    Path(path).write_text(text + "\n", encoding="ascii")


def write_detections(
    detections: Sequence,
    path,
    *,
    source: str,
    sensor: SensorGeometry,
    duration_us: int,
) -> None:
    """Write ranked detections for one period as a JSON record."""
    boxes = tuple(BoxRecord(bbox=d.bbox, s_p=d.s_p, s_s=d.s_s) for d in detections)
    record = AnnotationRecord(
        file=source, width=sensor.width, height=sensor.height, duration_us=duration_us, boxes=boxes
    )
    write_annotation(record, path)


def _integer(record: dict, key: str) -> int:
    """An integer field: a JSON integer or integral number, never a string or boolean."""
    value = record[key]
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"{key} must be an integer, got {value!r}")


def _saliency_mass(value):
    """The ``s_s`` field of a box: a finite JSON number, or None when absent.

    Python's json reads ``NaN`` and ``Infinity``; a NaN mass has no rank order.
    """
    if value is None or (isinstance(value, int) and not isinstance(value, bool)) or (
        isinstance(value, float) and math.isfinite(value)
    ):
        return value
    raise ValueError(f"s_s must be a finite number, got {value!r}")


def _annotation_record(payload: dict) -> AnnotationRecord:
    """The record a parsed JSON payload holds; ValueError, KeyError or TypeError if malformed."""
    boxes = tuple(
        BoxRecord(
            bbox=BBox(*(_integer(b, key) for key in "xywh")),
            s_p=None if b.get("s_p") is None else _integer(b, "s_p"),
            s_s=_saliency_mass(b.get("s_s")),
        )
        for b in payload["boxes"]
    )
    return AnnotationRecord(
        file=str(payload["file"]),
        width=_integer(payload, "width"),
        height=_integer(payload, "height"),
        duration_us=_integer(payload, "duration_us"),
        boxes=boxes,
    )


def load_annotations(path) -> AnnotationRecord:
    """Load a detection or ground-truth JSON record."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="ascii"))
    except (ValueError, RecursionError) as err:  # also UnicodeDecodeError, deep nesting
        raise EventFormatError(f"invalid JSON: {err}", path=path) from None
    try:
        return _annotation_record(payload)
    except ValidationError as err:  # the BBox checks
        raise ValidationError(f"{path}: {err}") from None
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise EventFormatError(f"missing or malformed field: {err}", path=path) from None


def write_pgm(gray: np.ndarray, path) -> None:
    """Write an 8-bit grayscale image as binary PGM (P5)."""
    image = np.ascontiguousarray(gray, dtype=np.uint8)
    if image.ndim != 2:
        raise ValidationError("PGM export needs a two-dimensional gray image")
    height, width = image.shape
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + image.tobytes())
