"""Spatio-temporal periodicity features for salient regions.

A candidate region is re-sliced at a finer temporal resolution, keeping only
positive events inside its margin-dilated bbox. A window's cells are the
(slice, row, column) ids of ``events.bin_events`` with a nonzero count. The
top-K windows are binned in one walk of the period, in the blocks of whole
slices of ``events.slice_blocks``. The binned keys of all windows share one
budget of ``events._FLUSH_EVENTS`` events: once their total reaches it, the
keys of the window that holds the most are sorted and reduced to one batch of
whole slices' cells and counts, which goes straight into the window's
accumulator of exact per-slice integer sums. So the feature stage's working
memory follows one block, one budget of pending keys, however many windows
there are, and one batch: never the period's events, and never a window's
cells whole.
Three series are read off the per-slice sums: event density, structural
similarity between consecutive slices, and similarity of consecutive
principal point-cloud directions. All three come from integer sums over the
nonzero cells of the nonempty slices only, scattered into the m-long
series; every other slice, and every pair of slices with an empty side,
reads 0. Each cell finds the same pixel one slice later by one sort of
tagged ids per batch, not by a binary search per cell. The float math runs
once per window, on the concatenated sums, so the series are the same
wherever the batches were cut. A ``LocalSlices`` record holds a window's
cells whole, for ``extract_local_slices`` and inspection; ``compute_features``
feeds it to the same accumulator as one batch. A rotor modulates all three
series periodically; the periodicity score counts how many of the smoothed
series show repeated peaks and valleys.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, islice
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ConfigurationError, DegenerateInputError, ValidationError
from . import events
from .events import BBox, DetectorConfig, EventPeriod, SensorGeometry, bin_events, frozen_view
from .events import id_dtype, slice_blocks, whole_numbers
from .saliency import Region, SaliencyMap, gray_at, sorted_runs


class PrincipalDirection(NamedTuple):
    """Unit eigenvector of the largest covariance eigenvalue, plus isotropy flag."""

    vector: np.ndarray
    isotropic: bool


@dataclass(frozen=True)
class RegionScores:
    """Saliency mass and periodicity score of one candidate."""

    s_s: float
    s_p: int | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.s_s < np.inf:  # also rejects NaN
            raise ValidationError(f"s_s must be finite and non-negative, got {self.s_s}")
        if self.s_p is not None and not (0 <= self.s_p <= 6 and self.s_p % 1 == 0):
            raise ValidationError(f"s_p must be an integer within 0..6, got {self.s_p}")


@dataclass(frozen=True, eq=False)
class FeatureSeries:
    """Density, structural-similarity, and direction-similarity series.

    For m local slices, f_d has length m while f_s and f_p pair consecutive
    slices and have length m - 1.
    """

    f_d: np.ndarray
    f_s: np.ndarray
    f_p: np.ndarray

    def __post_init__(self) -> None:
        f_d, f_s, f_p = (frozen_view(s, np.float64) for s in (self.f_d, self.f_s, self.f_p))
        if f_d.ndim != f_s.ndim or f_d.ndim != f_p.ndim or f_d.ndim != 1:
            raise ValidationError("feature series must be one-dimensional")
        if f_s.size != f_d.size - 1 or f_p.size != f_d.size - 1:
            raise ValidationError(
                "consecutive-slice series must be one shorter than the density series"
            )
        # "Not inside" tests, so that NaN, which fails every comparison, fails them.
        if not ((f_d >= 0.0) & (f_d < np.inf)).all():
            raise ValidationError("densities must be finite and non-negative")
        if not ((f_s >= -1.0) & (f_s <= 1.0)).all():
            raise ValidationError("structural similarities must lie in [-1, 1]")
        if not ((f_p >= 0.0) & (f_p <= 1.0)).all():
            raise ValidationError("direction similarities must lie in [0, 1]")
        object.__setattr__(self, "f_d", f_d)
        object.__setattr__(self, "f_s", f_s)
        object.__setattr__(self, "f_p", f_p)


@dataclass(frozen=True, eq=False)
class LocalSlices:
    """Positive-event counts of m local slices of an h x w window, nonzero cells only.

    Cell (s, y, x) of the window has the flat id (s * h + y) * w + x, as
    ``events.bin_events`` forms it. ``cells`` holds the sorted ids of the
    nonzero cells in the window's id dtype, as ``bin_events`` picks it:
    int32 while m * h * w is below 2**31, else int64. ``counts`` holds
    their counts as int32. The counts total less than 2**31, which bounds
    every int64 sum that compute_features forms from them.

    The record holds a window's cells whole, so it is built for
    ``extract_local_slices``, inspection and tests; the detector never
    builds one, and featurizes each window's cells batch by batch.

    Like every record, it keeps read-only views of its arrays
    (``events.frozen_view``), copied only to cast or make them contiguous;
    the caller's arrays stay writable and must not be changed afterwards.
    """

    shape: tuple[int, int, int]
    cells: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        shape = whole_numbers(self.shape, "local slice shape")
        if len(shape) != 3 or min(shape) < 1:
            raise ValidationError(f"local slices need an (m, h, w) shape, got {shape}")
        cells = np.asarray(self.cells)
        counts = np.asarray(self.counts)
        if cells.dtype.kind not in "iu" or counts.dtype.kind not in "iu":
            raise ValidationError(
                f"local slice cells and counts must be integers, got {cells.dtype}, {counts.dtype}"
            )
        if cells.ndim != 1 or counts.shape != cells.shape:
            raise ValidationError("local slice cells and counts must be congruent 1-d arrays")
        # Checked in the input dtypes, before the casts below.
        size = shape[0] * shape[1] * shape[2]
        if cells.size:
            if cells[0] < 0 or cells[-1] >= size or not (cells[1:] > cells[:-1]).all():
                raise ValidationError(
                    "local slice cells must be sorted, unique ids inside the shape"
                )
            if counts.min() < 1:
                raise ValidationError("local slice counts must be positive")
        _count_total(0, counts)
        object.__setattr__(self, "cells", frozen_view(cells, id_dtype(size)))
        object.__setattr__(self, "counts", frozen_view(counts, np.int32))
        object.__setattr__(self, "shape", shape)

    @property
    def size(self) -> int:
        """Cells of the window, m * h * w, nonzero or not."""
        m, h, w = self.shape
        return m * h * w


def _count_total(total: int, counts: np.ndarray) -> int:
    """The running count total past ``counts``, which must stay below 2**31.

    The counts are summed in float64, which no integer dtype's total can wrap.
    """
    total += counts.sum(dtype=np.float64)
    if total >= 2**31:
        raise ValidationError("local slice counts must total less than 2**31")
    return int(total)


def dilated_window(bbox: BBox, margin: int, sensor: SensorGeometry) -> BBox:
    """The bbox grown by margin on every side, clamped to the sensor."""
    DetectorConfig(region_margin=margin)  # raises on a margin the config refuses
    x0 = max(bbox.x - margin, 0)
    y0 = max(bbox.y - margin, 0)
    x1 = min(bbox.right + margin, sensor.width)
    y1 = min(bbox.bottom + margin, sensor.height)
    if x1 <= x0 or y1 <= y0:
        raise DegenerateInputError("dilated window has no pixels inside the sensor")
    return BBox(x0, y0, x1 - x0, y1 - y0)


def extract_local_slices(
    period: EventPeriod,
    region: Region | BBox,
    m: int,
    margin: int = 0,
) -> LocalSlices:
    """Positive-event counts over m slices of the dilated region window.

    The batches that one walk of the period (``_window_batches``) reduces
    for the window, joined: memory follows one block of the walk and the
    window's nonzero cells, never the period's events or m * h * w.
    """
    bbox = region.bbox if isinstance(region, Region) else region
    window = dilated_window(bbox, margin, period.sensor)
    cells: list[np.ndarray] = []
    counts: list[np.ndarray] = []
    for _, batch_cells, batch_counts in _window_batches(period, [window], m):
        cells.append(batch_cells)
        counts.append(batch_counts)
    return LocalSlices(
        shape=(m, window.h, window.w),
        cells=_joined(cells or [np.empty(0, np.int32)]),
        counts=_joined(counts or [np.empty(0, np.int32)]),
    )


def _window_features(
    period: EventPeriod, boxes: Sequence[BBox], m: int, margin: int
) -> list[FeatureSeries]:
    """The feature series of each box's dilated window, from one walk of the period.

    Each batch of cells the walk reduces goes straight into its window's
    ``_SliceSums``, so no window's cells exist whole.
    """
    windows = [dilated_window(box, margin, period.sensor) for box in boxes]
    sums = [_SliceSums((m, window.h, window.w)) for window in windows]
    for k, cells, counts in _window_batches(period, windows, m):
        sums[k].add(cells, counts)
        del cells, counts  # before the walk forms the next batch
    return [window_sums.series() for window_sums in sums]


def _window_batches(
    period: EventPeriod, windows: Sequence[BBox], m: int
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """(k, cells, counts) batches of whole slices of each window k, from one walk of the period.

    The walk takes the blocks of whole slices of ``events.slice_blocks``.
    Each block finds each window's positive events (``_events_inside``) and
    bins them. The windows' keys wait until they number
    ``events._FLUSH_EVENTS`` in all; the keys of the window that holds the
    most (the lowest k on a tie) are then sorted and reduced to their nonzero
    cells and int32 counts, one batch. So the pending keys stay below
    ``events._FLUSH_EVENTS`` plus one block's keys of one window, whatever the
    number of windows. At the end of the walk each window's rest forms one
    batch, in window order. A cell's slice is the major part of its id and
    no slice spans two blocks, so a batch holds whole slices, and a window's
    batches, in order, are its sorted, unique cells.
    """
    # The feature split's own rule, and each window's id bound, before the walk.
    for window in windows:
        events._id_dtype(period, m, window.h * window.w, 4, "local slice count")
    starts, cuts = slice_blocks(period, m)
    pending: list[list[np.ndarray]] = [[] for _ in windows]
    held = [0 for _ in windows]
    total = 0  # sum(held)

    def batch(k: int) -> tuple[int, np.ndarray, np.ndarray]:
        key = _joined(pending[k])
        held[k] = 0
        key.sort()
        cells, counts = sorted_runs(key, np.int32)
        return k, cells, counts

    for lo, hi in zip(cuts[:-1], cuts[1:]):
        for k, window in enumerate(windows):
            index = _events_inside(period, window, lo, hi)
            if not index.size:
                continue
            pending[k].append(bin_events(period, m, window, index, starts=starts))
            held[k] += index.size
            total += index.size
            del index
            while total >= events._FLUSH_EVENTS:
                largest = held.index(max(held))  # the lowest k on a tie
                total -= held[largest]
                yield batch(largest)
    for k in range(len(windows)):
        if pending[k]:
            yield batch(k)


def _joined(parts: list[np.ndarray]) -> np.ndarray:
    """The parts end to end, one of them as it is; empties the list, so they go with it."""
    joined = np.concatenate(parts) if len(parts) > 1 else parts[0]
    parts.clear()
    return joined


def _events_inside(period: EventPeriod, window: BBox, lo: int, hi: int) -> np.ndarray:
    """Ascending indexes of the positive events lo:hi inside the window.

    The four edge compares, against the window's Python ints (a numpy scalar
    would cast the column), and the polarity are and-ed into one bool per
    event: beside the indexes it finds, the test holds one bool and one
    compare's temporary per event of its block, which ``events.slice_blocks``
    caps at 2**16 events or one larger slice.
    """
    x, y = period.x[lo:hi], period.y[lo:hi]
    inside = x >= window.x
    inside &= x < window.right
    inside &= y >= window.y
    inside &= y < window.bottom
    inside &= period.p[lo:hi].view(bool)
    index = np.flatnonzero(inside)
    index += lo
    return index


def _major_axes(cxx, cxy, cyy) -> tuple[np.ndarray, np.ndarray]:
    """(k, 2) unit major axes and isotropy flags of k covariances [[cxx, cxy], [cxy, cyy]].

    The entries may share any positive scale. Isotropic ones report (1, 0).
    """
    # Largest eigenvalue in closed form; its eigenvector is the longer of two candidates.
    half_gap = (cxx - cyy) / 2.0
    disc = np.hypot(half_gap, cxy)
    isotropic = disc <= 1e-12 * np.maximum(cxx + cyy, 1e-300)
    lam = (cxx + cyy) / 2.0 + disc
    v1 = np.stack([lam - cyy, cxy], axis=1)
    v2 = np.stack([cxy, lam - cxx], axis=1)
    v = np.where(((v1 * v1).sum(axis=1) >= (v2 * v2).sum(axis=1))[:, None], v1, v2)
    v[isotropic] = (1.0, 0.0)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    flip = (v[:, 0] < 0.0) | ((v[:, 0] == 0.0) & (v[:, 1] < 0.0))
    v[flip] = -v[flip]
    return v, isotropic


def principal_direction(points: np.ndarray) -> PrincipalDirection:
    """Dominant axis of a (k, 2) point cloud via its 2x2 coordinate covariance.

    The returned vector is unit length with its first nonzero coordinate
    positive. Isotropic clouds (equal eigenvalues) report (1, 0) with the
    isotropy flag set. Clouds of fewer than two distinct points have no
    direction and raise DegenerateInputError.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValidationError("points must form a (k, 2) array")
    if points.shape[0] < 2:
        raise DegenerateInputError("need at least two points for a direction")
    d = points - points.mean(axis=0)
    if not d.any():
        raise DegenerateInputError("all points are identical")
    (v,), (isotropic,) = _major_axes(
        *(np.mean(d[:, a] * d[:, b], keepdims=True) for a, b in ((0, 0), (0, 1), (1, 1)))
    )
    return PrincipalDirection(frozen_view(v), bool(isotropic))


def _next_slice_partners(cells: np.ndarray, hw: int) -> tuple[np.ndarray, np.ndarray]:
    """int32 index pairs (i, j) with cells[j] == cells[i] + hw, for sorted unique cells.

    One sort joins the tags 2c of the cells and the tags 2(c + hw) + 1 of
    their needles, two ascending runs. The tags are unique, so two
    neighbours with equal halves are a partner's tag followed by its
    needle's. The running count of needles up to the partner's tag is then
    i, since needle i belongs to cell i, and the other tags before it
    number j. The halves and the low bits are compared and counted in
    place, beside two bool arrays. Only cells with c + hw <= cells[-1] need
    a needle, which also leaves out the last slice, so every tag stays below
    2**64; the tags are int32 when they fit, else uint64. Fewer than 2**31
    cells index into int32.
    """
    top = int(cells[-1]) if cells.size else -1
    needles = int(np.searchsorted(cells, top - hw, side="right"))
    if not needles:
        return np.empty(0, np.int32), np.empty(0, np.int32)
    tags = np.empty(cells.size + needles, np.int32 if 2 * top + 1 < 2**31 else np.uint64)
    tags[: cells.size] = cells
    tags[cells.size :] = cells[:needles]
    tags[cells.size :] += hw
    tags <<= 1
    tags[cells.size :] |= 1
    tags.sort(kind="stable")  # two sorted runs: one merge
    needle = np.empty(tags.size, bool)
    np.bitwise_and(tags, 1, out=needle, casting="unsafe")
    tags >>= 1
    partner = np.flatnonzero(tags[1:] == tags[:-1]).astype(np.int32)
    np.copyto(tags, needle)
    del needle
    np.cumsum(tags, out=tags)
    i = tags[partner].astype(np.int32, copy=False)
    del tags
    partner -= i
    return i, partner


def compute_features(local: LocalSlices) -> FeatureSeries:
    """The feature series of local slices, from exact per-slice sums over their nonzero cells.

    f_s correlates consecutive slices over all h*w cells (0.0 if either is constant); f_p is
    the |cos| of their cells' principal directions (0.0 if either has under two cells).
    The record's cells go to one ``_SliceSums`` as one batch.
    """
    if not isinstance(local, LocalSlices):
        raise ValidationError(f"expected LocalSlices, got {type(local).__name__}")
    m, h, w = local.shape
    if m < 2:
        raise ValidationError(f"need at least 2 local slices, got {m}")
    sums = _SliceSums(local.shape)
    sums.add(local.cells, local.counts)
    return sums.series()


class _SliceSums:
    """Exact per-slice integer sums of one window's nonzero cells, fed in batches of whole slices.

    ``add`` takes the next batch: the cells of some whole slices, in the
    window's id dtype and past every earlier batch's, and their positive
    int32 counts, as a ``LocalSlices`` record or the walk's own sort gives
    them. It checks only that the counts so far total below 2**31, which
    bounds every int64 sum below, and reduces the batch to its nonempty
    slices' sums of n, the counts v, v**2, x, y, x**2, xy and y**2, and of v
    times the count of the same pixel one slice earlier.
    ``_next_slice_partners`` pairs the cells inside the batch, and once more
    the previous batch's last slice, carried over, with this batch's first.
    Slices and pixel coordinates come from floor division alone, in the
    cells' own dtype, and every summed array takes int32 while its per-slice
    sums fit: from int32 cells no cell-sized int64 array is made.

    ``series`` does the float math once, on the concatenated sums. Their
    products are exact, in int64 when one check of the window's count total
    and shape proves that none reaches 2**63, else in Python ints. The sums
    are exact integers wherever the batches were cut, so the series are too.
    """

    def __init__(self, shape: tuple[int, int, int]) -> None:
        self.shape = shape
        self.total = 0
        self.carry: tuple[int, np.ndarray, np.ndarray] | None = None
        self.sums: list[tuple[np.ndarray, ...]] = []

    def add(self, cells: np.ndarray, counts: np.ndarray) -> None:
        if not cells.size:
            return
        _, h, w = self.shape
        hw = h * w
        self.total = _count_total(self.total, counts)
        v = counts
        # (s * h + y) * w + x: floor division alone, which numpy runs far faster than %.
        x = cells // w  # s * h + y
        y = x // h  # s
        slices, n = sorted_runs(y)
        starts = np.cumsum(n) - n
        longest = int(n.max())
        # The previous batch's last slice, when it pairs with this batch's first.
        carry = self.carry if self.carry is not None and self.carry[0] + 1 == slices[0] else None
        top = int(v.max() if carry is None else max(v.max(), carry[2].max())) ** 2

        def sum_dtype(top: int) -> type:
            # int32 when any slice's sum of values at most top fits in it.
            return np.int32 if top * longest < 2**31 else np.int64

        def per_slice(values: np.ndarray) -> np.ndarray:
            # Summed in the values' own dtype, as reduceat would cast a copy of them to any other.
            return np.add.reduceat(values, starts, dtype=values.dtype).astype(np.int64, copy=False)

        def per_slice_products(a: np.ndarray, b: np.ndarray, top: int) -> np.ndarray:
            return per_slice(np.multiply(a, b, dtype=sum_dtype(top)))

        y *= h
        np.subtract(x, y, out=y)
        x *= w
        np.subtract(cells, x, out=x)
        x = x.astype(sum_dtype(w - 1), copy=False)
        y = y.astype(sum_dtype(h - 1), copy=False)
        moments = (
            per_slice(x), per_slice(y),
            per_slice_products(x, x, (w - 1) ** 2),
            per_slice_products(x, y, (w - 1) * (h - 1)),
            per_slice_products(y, y, (h - 1) ** 2),
        )
        del x, y  # before the partner join takes its own cell-sized arrays
        # Each cell's count times that of the same pixel one slice earlier,
        # cell - h*w, summed on the later slice.
        earlier, cell = _next_slice_partners(cells, hw)
        products = np.zeros(cells.size, sum_dtype(top))
        products[cell] = np.multiply(v[earlier], v[cell], dtype=products.dtype)
        del earlier, cell
        if carry is not None:
            # The carried slice joins this batch's first one, two slices in all.
            _, carry_cells, carry_v = carry
            earlier, cell = _next_slice_partners(np.concatenate([carry_cells, cells[: n[0]]]), hw)
            cell -= carry_cells.size
            products[cell] = np.multiply(carry_v[earlier], v[cell], dtype=products.dtype)
        cross = per_slice(products)
        del products
        self.sums.append((slices, n, per_slice(v), per_slice_products(v, v, top), cross, *moments))
        last = cells.size - int(n[-1])
        self.carry = int(slices[-1]), cells[last:].copy(), v[last:].copy()

    def series(self) -> FeatureSeries:
        m, h, w = self.shape
        hw = h * w
        if not self.sums:
            return FeatureSeries(f_d=np.zeros(m), f_s=np.zeros(m - 1), f_p=np.zeros(m - 1))
        slices, *sums = (np.concatenate(column) for column in zip(*self.sums))
        # Every product below stays under hw * total**2 or (most * max(h, w))**2,
        # a slice holding at most min(hw, total) cells: int64 while both are
        # below 2**63, else Python ints, so that none can overflow.
        most = min(hw, self.total)
        exact = np.int64 if max(hw * self.total**2, (most * max(h, w)) ** 2) < 2**63 else object
        n, s1, s2, cross, sx, sy, sxx, sxy, syy = (
            values.astype(exact, copy=False) for values in sums
        )
        # Nonempty (s, s + 1) at pair, pair + 1; the other slices, and every
        # pair with an empty side, keep 0 in every series.
        pair = np.flatnonzero(slices[1:] == slices[:-1] + 1)
        var = (hw * s2 - s1 * s1).astype(np.float64)  # (h*w)^2 * variance
        cov = (hw * cross[pair + 1] - s1[pair] * s1[pair + 1]).astype(np.float64)
        denom = np.sqrt(var[pair] * var[pair + 1])
        f_s = np.zeros(m - 1)
        f_s[slices[pair]] = np.clip(
            np.divide(cov, denom, out=np.zeros(pair.size), where=denom > 0.0), -1.0, 1.0
        )
        axes, _ = _major_axes(  # n^2 times each slice's occupancy covariance
            (n * sxx - sx * sx).astype(np.float64),
            (n * sxy - sx * sy).astype(np.float64),
            (n * syy - sy * sy).astype(np.float64),
        )
        f_p = np.zeros(m - 1)
        f_p[slices[pair]] = np.where(  # no direction below two cells
            (n[pair] < 2) | (n[pair + 1] < 2),
            0.0,
            np.minimum(np.abs((axes[pair] * axes[pair + 1]).sum(axis=1)), 1.0),
        )
        f_d = np.zeros(m)
        f_d[slices] = s1.astype(np.float64)
        return FeatureSeries(f_d=f_d, f_s=f_s, f_p=f_p)


def moving_average(series, window: int) -> np.ndarray:
    """Centered moving average; edge windows truncate at the boundaries.

    Output length equals input length. Each window, zero-padded at the
    edges, is summed in one fixed order, never taken as a difference of
    running sums, so equal windows give equal averages: a plateau stays
    flat, and a window of 1 returns the series. The order splits the window
    into blocks of the powers of two in its size, largest first; each block
    is summed as a pairwise tree, and the blocks from the last to the first.
    Window 3 so sums (a + b) + c, left to right. Block sums of size 2**k
    come from those of size 2**(k - 1), so the cost is O(n * log(window)).
    """
    x = np.asarray(series, dtype=np.float64)
    if x.ndim != 1:
        raise ValidationError("series must be one-dimensional")
    if window < 1 or window % 2 == 0:
        raise ConfigurationError(f"window must be an odd integer >= 1, got {window}")
    if window > x.size:
        raise ConfigurationError(f"window {window} exceeds series length {x.size}")
    half = window // 2
    # Zeros pad the edge windows; adding 0.0 changes no sum.
    padded = np.concatenate([np.zeros(half), x, np.zeros(half)])
    # blocks[j] is the pairwise-tree sum of the 2**k padded samples from j.
    # The window from i takes the block of each set bit k of its size after
    # the blocks of its higher bits, at i + window - window % 2**(k + 1).
    blocks, total = padded, None
    for k in range(window.bit_length()):
        if window >> k & 1:
            start = window - window % 2 ** (k + 1)
            block = blocks[start : start + x.size]
            total = block if total is None else block + total
        if window >> (k + 1):
            blocks = blocks[: -(2**k)] + blocks[2**k :]
    i = np.arange(x.size)
    return total / (np.minimum(i + half + 1, x.size) - np.maximum(i - half, 0))


def _prominences(x: np.ndarray, peaks: np.ndarray) -> np.ndarray:
    """Topographic prominence of each peak.

    On each side the base is the lowest sample between the peak and the
    nearest strictly higher sample; the prominence is the peak height over
    the higher base. x holds no NaN and starts and ends with an inf sample.
    """
    # Past the nearest higher sample the series rises on to a non-strict local
    # maximum (a top), so stopping at the nearest higher top gives the same base.
    tops = np.flatnonzero((x >= np.append(-np.inf, x[:-1])) & (x >= np.append(x[1:], -np.inf)))
    # Pointer jumping, on the tops for the left side and on the reversed tops
    # for the right: a top points at a nearer one until that one is higher.
    n = tops.size
    height = np.concatenate([x[tops], x[tops[::-1]]])
    target = np.arange(-1, 2 * n - 1)
    target[[0, n]] = [0, n]  # the end walls
    pending = height < np.inf
    while pending.any():
        pending &= height[target] <= height
        target = np.where(pending, target[target], target)
    j = np.searchsorted(tops, peaks)
    left = tops[target[j]]
    right = tops[2 * n - 1 - target[2 * n - 1 - j]]
    # reduceat takes the minimum of each run from a (start, stop) pair; every second is a base.
    left_base = np.minimum.reduceat(x, np.column_stack([left + 1, peaks + 1]).ravel())
    right_base = np.minimum.reduceat(x, np.column_stack([peaks, right]).ravel())
    return x[peaks] - np.maximum(left_base[::2], right_base[::2])


def _extrema_flags(series: list[np.ndarray]) -> np.ndarray:
    """Whether each series has at least two qualifying peaks, then two valleys, as flag pairs.

    Qualifying extrema are interior strict local extrema with prominence of
    at least half the series standard deviation, so series shorter than 5
    samples get neither flag. All series are searched in one pass.
    """
    floors = np.array([0.5 * float(x.std()) if x.size else 0.0 for x in series])
    # The valleys of a series are the peaks of its negation. All copies go end
    # to end behind inf walls, which stop every walk as a series end would.
    # Zeros replace a series with a NaN floor (no flags) so it keeps the walls.
    # Two strict interior extrema need 5 samples, so shorter series get none.
    series = [x if floor == floor else np.zeros_like(x) for x, floor in zip(series, floors)]
    copies = [c for x in series for c in (x, -x)]
    joined = np.concatenate([part for c in copies for part in ([np.inf], c)] + [[np.inf]])
    inner = joined[1:-1]
    peaks = np.flatnonzero((inner > joined[:-2]) & (inner > joined[2:]) & (inner < np.inf)) + 1
    owner = np.repeat(np.arange(len(copies)), [c.size + 1 for c in copies])[peaks]
    kept = owner[_prominences(joined, peaks) >= np.repeat(floors, 2)[owner]]
    return np.bincount(kept, minlength=len(copies)) >= 2


def periodicity_score(
    features: FeatureSeries, smooth_window: int = DetectorConfig.smooth_window
) -> int:
    """Sum of peak and valley flags over the three smoothed series, 0..6.

    The smoothing window shrinks (to the next odd length) for series shorter
    than the configured window. The one-window case of ``_periodicity_scores``.
    """
    return _periodicity_scores([features], smooth_window)[0]


def _periodicity_scores(features: Sequence[FeatureSeries], smooth_window: int) -> list[int]:
    """periodicity_score of each window's series, from one extrema search over all of them."""
    DetectorConfig(smooth_window=smooth_window)  # raises on a window the config refuses
    smoothed = [
        [  # x.size - 1 + x.size % 2 is the longest odd window that fits
            moving_average(x, max(min(smooth_window, x.size - 1 + x.size % 2), 1))
            for x in (series.f_d, series.f_s, series.f_p)
            if x.size
        ]
        for series in features
    ]
    if not smoothed:
        return []
    # Two flags, peaks and valleys, per series, in window order.
    flags = iter(_extrema_flags([x for window in smoothed for x in window]).tolist())
    return [sum(islice(flags, 2 * len(window))) for window in smoothed]


def saliency_masses(groups: Sequence[Sequence[Region]], smap: SaliencyMap) -> list[int]:
    """Saliency mass of each group of regions: the sum of gray over their pixels.

    One checked gray gather over all the groups' pixels, then one
    ``np.add.reduceat`` over each group's run of them, in exact int64, so the
    cost follows the pixels and not one numpy round per region. Each group
    holds at least one region, as every cluster does.
    """
    if not groups:
        return []
    sizes = [sum(len(region.pixels) for region in group) for group in groups]
    gray = gray_at(smap, np.concatenate([region.pixels for group in groups for region in group]))
    return np.add.reduceat(gray, list(accumulate(sizes[:-1], initial=0)), dtype=np.int64).tolist()


def saliency_score(region: Region, smap: SaliencyMap) -> int:
    """Sum of rendered gray values over the region pixels.

    The one-region case of ``saliency_masses``, which scores many regions
    in one pass.
    """
    return saliency_masses([[region]], smap)[0]
