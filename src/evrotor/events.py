"""Core domain types: bounded event periods, boxes, detector config.

Event periods keep their events in columnar numpy arrays, sorted by time.
All detector math runs on whole columns; ``bin_events`` is the one rule that
gives an event its (slice, row, column) cell id, for saliency and feature
windows alike. It finds the slices from the time order, by one binary search
per slice boundary (``slice_starts``), or per event by division. Saliency
and the feature windows walk the period in the blocks of whole slices of
``slice_blocks``, and bin each block through views of the columns.

Records check their inputs by shared rules: ``whole_numbers`` for counts
and sizes, ``finite_real`` for float fields, ``number_array`` for every
array input (event columns, pixels, ids and counts, feature series),
``pixel_view`` for pixels, and ``id_count_views`` for the sparse records of
sorted unique ids with positive counts, the saliency map's hit pixels and
the local slices' cells. Each rule is written once, in the record that owns
it: ``EventPeriod`` holds the time, sensor and polarity rules of every event
source, ``BBox.clamped`` the one clamp of a box to the sensor.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ValidationError

# Events per block of a period walk, unless one slice alone holds more.
_BLOCK_EVENTS = 2**16
# Keys or ids a walk holds, past its current block, before it folds them into its result.
_FLUSH_EVENTS = 2**15


@dataclass(frozen=True)
class SensorGeometry:
    """Pixel dimensions of the event sensor, Python ints as ``BBox`` holds them."""

    width: int
    height: int

    def __post_init__(self) -> None:
        whole_fields(self, ("width", "height"))
        if self.width <= 0 or self.height <= 0:
            raise ValidationError(
                f"sensor dimensions must be positive, got {self.width}x{self.height}"
            )

    @property
    def shape(self) -> tuple[int, int]:
        """Array shape (height, width) for grids over this sensor."""
        return (self.height, self.width)


@dataclass(frozen=True)
class BBox:
    """Axis-aligned pixel rectangle, top-left corner plus positive size.

    Its fields are Python ints; integral floats and numpy ints load as them,
    and a fraction or NaN is refused (``whole_numbers``).
    """

    x: int
    y: int
    w: int
    h: int

    def __post_init__(self) -> None:
        if not type(self.x) is type(self.y) is type(self.w) is type(self.h) is int:
            fields = whole_numbers(self.as_tuple(), "box x, y, w and h")
            for name, value in zip("xywh", fields):
                object.__setattr__(self, name, value)
        if self.w <= 0 or self.h <= 0:
            raise ValidationError(f"box size must be positive, got {self.w}x{self.h}")

    @property
    def right(self) -> int:
        """First column past the box."""
        return self.x + self.w

    @property
    def bottom(self) -> int:
        """First row past the box."""
        return self.y + self.h

    @property
    def area(self) -> int:
        return self.w * self.h

    def clamped(self, sensor: SensorGeometry) -> "BBox":
        """Intersection with the sensor frame. Raises if nothing remains."""
        x0 = max(self.x, 0)
        y0 = max(self.y, 0)
        x1 = min(self.right, sensor.width)
        y1 = min(self.bottom, sensor.height)
        if x1 <= x0 or y1 <= y0:
            raise ValidationError(f"box {self.as_tuple()} lies outside the sensor")
        return BBox(x0, y0, x1 - x0, y1 - y0)

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.x, self.y, self.w, self.h)


def tight_boxes(xs: np.ndarray, ys: np.ndarray, starts) -> np.ndarray:
    """The int64 (x, y, w, h) rows of the tight box of each run of the (xs, ys) pixels.

    Run k holds the pixels from starts[k] up to the next start, at least one.
    Every box drawn around pixels comes from this rule, ``reduceat`` per column.
    """
    x0, x1, y0, y1 = (
        f.reduceat(c, starts).astype(np.int64) for c in (xs, ys) for f in (np.minimum, np.maximum)
    )
    return np.column_stack([x0, y0, x1 - x0 + 1, y1 - y0 + 1])


def tight_box(pixels: np.ndarray, what: str) -> BBox:
    """The smallest box holding every (x, y) row of ``what``'s pixels, a non-empty (k, 2) array."""
    if pixels.ndim != 2 or pixels.shape[1] != 2 or pixels.shape[0] < 1:
        raise ValidationError(f"{what} pixels must form a non-empty (k, 2) array")
    return BBox(*tight_boxes(pixels[:, 0], pixels[:, 1], [0])[0].tolist())


def pixel_view(pixels, what: str) -> np.ndarray:
    """A read-only int32 view (``frozen_view``) of ``what``'s pixels, for every record of pixels.

    A non-integral, NaN or out-of-int32 value, which the cast would change,
    is refused. int32 input is taken as it is, with no pass over its values.
    """
    message = f"{what} pixels must be integers within the int32 range"
    pixels = number_array(pixels, "biuf", message)
    if pixels.dtype == np.int32:
        return frozen_view(pixels)
    with np.errstate(invalid="ignore"):  # NaN and inf cast to some int, which the compare refuses
        view = frozen_view(pixels, np.int32)
    if not (view == pixels).all():
        raise ValidationError(message)
    return view


def id_count_views(ids, counts, size: int, top: int, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Read-only views (``frozen_view``) of a sparse record's ids and counts, for every such record.

    The ids must be strictly increasing within 0..size-1 and the counts within
    1..top, in two one-dimensional integer arrays of equal length. They are
    tested in the input dtypes, which the casts could wrap, and held in
    ``id_dtype(size)`` and int32; input in those dtypes is not copied.
    """
    message = f"{what} ids and counts must be one-dimensional integer arrays"
    ids, counts = (number_array(a, "iu", message) for a in (ids, counts))
    if ids.ndim != 1 or counts.ndim != 1:
        raise ValidationError(message)
    if ids.size != counts.size:
        raise ValidationError(f"{what} ids and counts must have equal length")
    if ids.size:
        if not (ids[1:] > ids[:-1]).all():
            raise ValidationError(f"{what} ids must be strictly increasing")
        if ids[0] < 0 or ids[-1] >= size:
            raise ValidationError(f"{what} ids must lie within 0..{size - 1}")
        if counts.min() < 1 or counts.max() > top:
            raise ValidationError(f"{what} counts must lie within 1..{top}")
    return frozen_view(ids, id_dtype(size)), frozen_view(counts, np.int32)


def whole_numbers(values, what: str, error: type[Exception] = ValidationError) -> tuple[int, ...]:
    """The sequence ``values`` as Python ints, refusing a non-number, a fraction, NaN or inf.

    Integral floats and numpy numbers load; None and strings are refused, as
    is a ``values`` that is not a sequence.
    """
    if np.iterable(values):
        values = tuple(values)
    # NaN % 1 and inf % 1 are NaN, which fail too.
    if not isinstance(values, tuple) or not all(
        isinstance(v, numbers.Real) and v % 1 == 0 for v in values
    ):
        raise error(f"{what} must be integers, got {values}")
    return tuple(int(v) for v in values)


def number_array(values, kinds: str, message: str) -> np.ndarray:
    """``values`` as a numpy array of one of the dtype kinds ``kinds``, for every record of arrays.

    Ragged nesting, which numpy cannot make one array of, and any other kind
    (None, strings and objects among them) raise ValidationError(message).
    """
    try:
        array = np.asarray(values)
    except ValueError:  # ragged nesting
        raise ValidationError(message) from None
    if array.dtype.kind not in kinds:
        raise ValidationError(message)
    return array


def finite_real(value) -> bool:
    """Whether ``value`` is a finite real number, the rule of every float field.

    Ints, floats and numpy numbers pass; None, strings, NaN and inf fail.
    Each field tests its own range after this rule, with its own message.
    """
    return isinstance(value, numbers.Real) and -math.inf < value < math.inf


def whole_fields(record, names, error: type[Exception] = ValidationError) -> None:
    """Load each named field of a frozen record that is not an int by ``whole_numbers``."""
    for name in names:
        if type(value := getattr(record, name)) is not int:
            object.__setattr__(record, name, whole_numbers((value,), name, error)[0])


class EventPeriod:
    """A bounded time window of events in columnar, timestamp-sorted form.

    Unsorted input is put in time order by a stable sort. Like every record,
    it keeps read-only views of its arrays (``frozen_view``), copied only to
    cast, sort or make them contiguous; the caller's arrays stay writable and
    must not be changed afterwards.
    """

    __slots__ = ("t", "x", "y", "p", "t_start", "duration", "sensor")

    def __init__(
        self,
        t,
        x,
        y,
        p,
        *,
        t_start: int,
        duration: int,
        sensor: SensorGeometry,
    ):
        # Validate in the input dtype where the cast to the held dtype would wrap.
        message = "event columns must be one-dimensional arrays of numbers"
        t, x, y, p = (number_array(col, "biuf", message) for col in (t, x, y, p))
        if not (t.ndim == x.ndim == y.ndim == p.ndim == 1):
            raise ValidationError(message)
        if not isinstance(sensor, SensorGeometry):
            raise ValidationError(f"period sensor must be a SensorGeometry, got {sensor!r}")
        if not (t.size == x.size == y.size == p.size):
            raise ValidationError("event columns must have equal length")
        # A cast that can change no value goes first, so the checks below read
        # contiguous columns, not the strided views of an .evd file's records.
        dtypes = (np.int64, np.int32, np.int32, np.uint8)
        t, x, y, p = (
            frozen_view(col, dtype) if np.can_cast(col.dtype, dtype) else col
            for col, dtype in zip((t, x, y, p), dtypes)
        )
        t_start, duration = whole_numbers((t_start, duration), "period start and duration")
        if not 0 <= t_start < 2**63:
            raise ValidationError(f"period start must be within 0..2**63-1, got {t_start}")
        if duration <= 0:
            raise ValidationError(f"period duration must be positive, got {duration}")
        for name, col in (("t", t), ("x", x), ("y", y), ("p", p)):
            # Only float columns can hold a fraction or NaN, which the casts below would drop.
            if col.dtype.kind == "f" and not (col == np.trunc(col)).all():
                i = int(np.argmax(col != np.trunc(col)))
                raise ValidationError(f"event {i} has a non-integral {name} of {col[i]}")
        if t.size:
            if not (x.min() >= 0 and x.max() < sensor.width and y.min() >= 0 and y.max() < sensor.height):
                bad = ~((x >= 0) & (x < sensor.width) & (y >= 0) & (y < sensor.height))
                i = int(np.argmax(bad))
                raise ValidationError(
                    f"event {i} at ({x[i]},{y[i]}) is outside the "
                    f"{sensor.width}x{sensor.height} sensor"
                )
            t_max = t.max()
            if not (t.min() >= t_start and t_max < t_start + duration):
                bad = ~((t >= t_start) & (t < t_start + duration))
                i = int(np.argmax(bad))
                raise ValidationError(
                    f"event {i} at t={t[i]} is outside the period "
                    f"[{t_start}, {t_start + duration})"
                )
            if int(t_max) >= 2**63:  # a period may end past 2**63, its times may not
                i = int(np.argmax(t))
                raise ValidationError(f"event {i} at t={t[i]} is past the last time, 2**63-1 us")
            if not (p.min() >= 0 and p.max() <= 1):
                bad = ~((p >= 0) & (p <= 1))
                i = int(np.argmax(bad))
                raise ValidationError(f"event {i} has polarity {p[i]}, expected 0 or 1")
        t = frozen_view(t, np.int64)  # column by column, so each input is freed once cast
        x = frozen_view(x, np.int32)
        y = frozen_view(y, np.int32)
        p = frozen_view(p, np.uint8)
        if bool((t[1:] < t[:-1]).any()):
            order = np.argsort(t, kind="stable")
            t, x, y, p = (frozen_view(col[order]) for col in (t, x, y, p))
        self.t = t
        self.x = x
        self.y = y
        self.p = p
        self.t_start = t_start
        self.duration = duration
        self.sensor = sensor

    def __len__(self) -> int:
        return self.t.size

    def __repr__(self) -> str:
        return (
            f"EventPeriod({self.t.size} events, t_start={self.t_start}, "
            f"duration={self.duration}, sensor={self.sensor.width}x{self.sensor.height})"
        )


@dataclass(frozen=True)
class DetectorConfig:
    """Detector parameters: each one's name, default and allowed range.

    ``n_slices`` and ``m_slices`` may be None, in which case they resolve per
    period: one saliency slice per millisecond of duration and two feature
    slices per millisecond, at least 2 and 4. The milliseconds are the
    duration in us rounded in integers, halves up: (duration + 500) // 1000,
    so 1 500 us gives 2 and 2 500 us gives 3. The counts load as ints and
    ``d_merge`` as a float. A stage function given a raw parameter checks it
    by building a config from it, so it raises this class's error.
    """

    n_slices: int | None = None
    m_slices: int | None = None
    tau_s: int = 50
    tau_p: int = 3
    k_top: int = 4
    d_merge: float = 50.0
    smooth_window: int = 3
    region_margin: int = 2

    def __post_init__(self) -> None:
        slices = [name for name in ("n_slices", "m_slices") if getattr(self, name) is not None]
        counts = ("tau_s", "tau_p", "k_top", "smooth_window", "region_margin")
        whole_fields(self, (*slices, *counts), ConfigurationError)
        if self.n_slices is not None and self.n_slices < 2:
            raise ConfigurationError(f"n_slices must be at least 2, got {self.n_slices}")
        if self.m_slices is not None and self.m_slices < 4:
            raise ConfigurationError(f"m_slices must be at least 4, got {self.m_slices}")
        if not 0 <= self.tau_s <= 255:
            raise ConfigurationError(f"tau_s must be within 0..255, got {self.tau_s}")
        if not 0 <= self.tau_p <= 6:
            raise ConfigurationError(f"tau_p must be within 0..6, got {self.tau_p}")
        if self.k_top < 1:
            raise ConfigurationError(f"k_top must be at least 1, got {self.k_top}")
        if not (isinstance(self.d_merge, numbers.Real) and self.d_merge >= 0):  # also rejects NaN
            raise ConfigurationError(f"d_merge must be non-negative, got {self.d_merge!r}")
        try:  # a float, so that no reach added to an int64 box edge wraps
            object.__setattr__(self, "d_merge", float(self.d_merge))
        except OverflowError:
            raise ConfigurationError("d_merge must be at most the largest float, ~1.8e308") from None
        if self.smooth_window < 1 or self.smooth_window % 2 == 0:
            raise ConfigurationError(
                f"smooth_window must be an odd integer >= 1, got {self.smooth_window}"
            )
        if self.region_margin < 0:
            raise ConfigurationError(
                f"region_margin must be non-negative, got {self.region_margin}"
            )

    def slicing_for(self, period: EventPeriod) -> tuple[int, int]:
        """Resolve (n, m) slice counts for one period; the stages check their windows' ids."""
        duration_ms = max(1, (period.duration + 500) // 1000)
        n = self.n_slices if self.n_slices is not None else max(2, duration_ms)
        m = self.m_slices if self.m_slices is not None else max(4, 2 * duration_ms)
        defaulted = [k for k, given in ((n, self.n_slices), (m, self.m_slices)) if given is None]
        if defaulted and max(defaulted) > period.duration:
            raise ConfigurationError(
                f"the period of {period.duration} us is shorter than the {max(defaulted)} us"
                " that default slicing needs"
            )
        _id_dtype(period, n, 1, 2, "n_slices")
        _id_dtype(period, m, 1, 4, "m_slices")
        return n, m


def _id_dtype(period: EventPeriod, k: int, cells: int, minimum: int, what: str) -> type:
    """Check a k-way split of the period with ids below k * cells; return the id dtype.

    ``minimum`` <= k <= duration, and (t - t_start) * k and the ids stay below 2**63.
    """
    if k < minimum:
        raise ConfigurationError(f"{what} must be at least {minimum}, got {k}")
    if k > period.duration:
        raise ConfigurationError(f"{what} {k} exceeds the period duration of {period.duration} us")
    if period.duration * k >= 2**63 or k * cells >= 2**63:
        raise ConfigurationError(
            f"{what} {k} over a {period.duration} us period overflows 64-bit slice arithmetic"
        )
    return id_dtype(k * cells)


def id_dtype(size: int) -> type:
    """The dtype of every id array with ids below ``size``: int32 while size < 2**31, else int64."""
    return np.int32 if size < 2**31 else np.int64


def slice_starts(period: EventPeriod, k: int) -> np.ndarray:
    """Where each of the k slices' run of events starts in the time order, then len(period).

    Slice s starts at t_start + ceil(s * duration / k), so k - 1 binary
    searches of the sorted times give the k + 1 ascending entries: slice s
    holds the events starts[s]:starts[s + 1].
    """
    _id_dtype(period, k, 1, 2, "slice count")
    # Last microsecond of slices 0..k-2; s * duration < 2**63 (checked above),
    # and the cap keeps t_start + offset from wrapping past 2**63 - 1.
    s = np.arange(1, k, dtype=np.int64)
    offset = -(-s * period.duration // k) - 1
    last = np.minimum(offset, 2**63 - 1 - period.t_start) + period.t_start
    starts = np.empty(k + 1, dtype=np.intp)
    starts[0], starts[k] = 0, period.t.size
    starts[1:k] = np.searchsorted(period.t, last, side="right")
    return starts


def slice_blocks(period: EventPeriod, k: int) -> tuple[np.ndarray | None, list[int]]:
    """The k-way split's ``slice_starts`` and the event cuts of its blocks of whole slices.

    A block takes the slices that start within ``_BLOCK_EVENTS`` events of
    its first one, or its first slice alone when that is larger. With more
    slices than events there are no starts, and the period is one block.
    """
    if k > len(period):
        _id_dtype(period, k, 1, 2, "slice count")
        return None, [0, len(period)]
    starts = slice_starts(period, k)
    cuts = [0]
    while cuts[-1] < len(period):
        lo = cuts[-1]
        hi = int(starts[np.searchsorted(starts, lo + _BLOCK_EVENTS, side="right") - 1])
        if hi == lo:
            hi = int(starts[np.searchsorted(starts, lo, side="right")])
        cuts.append(hi)
    return starts, cuts


def bin_events(
    period: EventPeriod,
    k: int,
    window: BBox,
    index: np.ndarray | slice,
    *,
    starts: np.ndarray | None = None,
    bits: int = 0,
) -> np.ndarray:
    """Cell ids of the events ``index`` for a k-way split over a window.

    An event inside the window falls in slice (t - t_start) * k // duration,
    and its cell (slice, y, x) in window coordinates gets the id
    ((slice * h + y) * w + x) << bits; the caller may fill the low bits.
    ``index`` is an ascending index array, so that the binned events stay
    time-sorted, or a ``slice`` of the time order, whose columns are read
    through views rather than gathered.

    The slices are found in one of two exact ways. With ``starts`` from
    ``slice_starts``, which a caller binning several runs of one split
    passes once for all of them, the ids repeat each slice number over its
    run of events: two binary searches of the starts place a contiguous run,
    and an index array takes one search per slice from its first event's to
    its last event's. Without them, the division runs per event.
    Ids are int32 while (k * h * w) << bits is below 2**31, else int64, and
    every Horner step runs in that dtype, so none wraps.
    """
    dtype = _id_dtype(period, k, (window.h * window.w) << bits, 2, "slice count")
    if starts is None:
        key = period.t[index] - period.t_start
        key *= k
        key //= period.duration
        key = key.astype(dtype, copy=False)
    elif isinstance(index, slice):
        lo, hi, _ = index.indices(period.t.size)
        # Slices first..last-1 hold the run (none when it is empty), and only
        # their outer starts can lie outside it; the run's own ends replace them.
        first = int(np.searchsorted(starts, lo, side="right")) - 1
        last = max(int(np.searchsorted(starts, hi)), first)
        runs = starts[first : last + 1].copy()
        runs[0], runs[-1] = lo, hi
        key = np.repeat(np.arange(first, last, dtype=dtype), np.diff(runs))
    else:
        # Only the slices from the first binned event's to the last one's
        # hold binned events, so only their starts are searched.
        first, last = np.searchsorted(starts, index[[0, -1]], "right") if index.size else (1, 0)
        runs = np.searchsorted(index, starts[first - 1 : last + 1])
        key = np.repeat(np.arange(first - 1, last, dtype=dtype), runs[1:] - runs[:-1])
    for size, coord, origin in ((window.h, period.y, window.y), (window.w, period.x, window.x)):
        coord = coord[index]
        key *= size
        key += coord - origin if origin else coord
    if bits:
        key <<= bits
    return key


def frozen_view(values, dtype=None) -> np.ndarray:
    """A read-only view of ``values`` as a contiguous ``dtype`` array, for every record.

    It copies only to cast or to make the array contiguous, and it leaves the
    caller's array writable.
    """
    view = np.ascontiguousarray(values, dtype=dtype).view()
    view.setflags(write=False)
    return view
