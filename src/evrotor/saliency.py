"""Polarity-intersection saliency over a sliced event period.

A spinning rotor blade crosses a pixel so quickly that the positive and the
negative event it triggers land inside the same short time slice. Ordinary
moving edges brighten a pixel first and darken it only much later, so their
polarities land in different slices. Counting, per pixel, how many slices
have both polarities present therefore highlights rotor regions while
suppressing camera-motion clutter and background noise.

The counts come from one sorted integer key per event, its (slice, row,
column) cell id from ``events.bin_events`` with the polarity as the lowest
bit, rather than from per-slice pixel grids. The keys are formed and sorted
one block of whole slices (``events.slice_blocks``) at a time, and only the
pixel ids of a block's hit cells outlive it. A hit cell's two keys differ
in the lowest bit only. The hit test writes the low byte of each pair of
neighbouring keys' XOR, one byte per key, and checks exactly only the
pairs whose byte reads 1, so a block holds its keys plus one byte per key.
Once the held ids reach a fixed budget, and after the last block, they are
folded into per-pixel counts. So working memory follows one block, one
budget of held ids and the hit pixels: never the whole period's events,
never slices times pixels, never slices times hit pixels. The map itself
holds only the hit pixels, those with at least one salient slice: their
sorted flat ids, in the id dtype of ``events.id_dtype``, int32 counts and
gray, and checks its ids and counts by ``events.id_count_views``, as the
local slices check theirs. Every other pixel reads 0, and the dense gray
grid is built only when asked for, so nothing on the detection path grows
with the sensor's height times its width.

Labeling takes the sorted flat ids of the salient pixels, those whose gray
exceeds the threshold, and reads their horizontal runs from the ids, with
numpy passes over the ids and the runs only. Each pixel's gray is carried
beside it from where its id sits among the salient ids. All regions' boxes
then come from their pixels in one pass, by the tight-box rule of every
record (``events.tight_boxes``). The labeler returns these arrays
(``Labels``), so the detect path reads gray from the labeler; ``gray_at``,
which searches pixels' flat ids among the map's sorted hit ids, serves only
the one-record calls, ``saliency_score`` and ``gaussian_fine_refine``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import events
from .errors import ConfigurationError, ValidationError
from .events import BBox, DetectorConfig, EventPeriod, bin_events, frozen_view, id_count_views
from .events import id_dtype, pixel_view, slice_blocks, tight_box, tight_boxes, whole_numbers


@dataclass(frozen=True, eq=False)
class SaliencyMap:
    """Intersection counts and their 8-bit rendering at the hit pixels of a map.

    ``shape`` is (height, width). ``ids`` holds the sorted flat ids
    y * width + x of the hit pixels, those with at least one salient slice,
    int32 while height * width is below 2**31, else int64
    (``events.id_dtype``), and ``hit_counts`` their int32 counts,
    1..n_slices, both checked by the sparse records' one rule,
    ``events.id_count_views``. ``hit_gray`` is derived: the counts'
    ``render_gray``. Every other pixel reads 0 in both. The
    ``gray`` grid is a dense view built on each access, for inspection and
    dumps; the detector never builds it.

    Like every record, it keeps read-only views of its arrays
    (``events.frozen_view``), copied only to cast or make them contiguous;
    the caller's arrays stay writable and must not be changed afterwards.
    """

    shape: tuple[int, int]
    ids: np.ndarray
    hit_counts: np.ndarray
    n_slices: int
    hit_gray: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        (n_slices,) = whole_numbers((self.n_slices,), "saliency map slice count")
        shape = whole_numbers(self.shape, "saliency map shape")
        if n_slices < 1:
            raise ValidationError(f"slice count must be positive, got {n_slices}")
        if len(shape) != 2 or min(shape) < 1:
            raise ValidationError(f"saliency map shape must be a positive (h, w), got {self.shape}")
        height, width = shape
        ids, counts = id_count_views(
            self.ids, self.hit_counts, height * width, min(n_slices, 2**31 - 1), "saliency hit"
        )
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "hit_counts", counts)
        object.__setattr__(self, "hit_gray", frozen_view(render_gray(counts, n_slices)))
        object.__setattr__(self, "shape", (height, width))
        object.__setattr__(self, "n_slices", n_slices)

    @property
    def gray(self) -> np.ndarray:
        """The dense (height, width) uint8 grid of gray values."""
        grid = np.zeros(self.shape[0] * self.shape[1], np.uint8)
        grid[self.ids] = self.hit_gray
        return grid.reshape(self.shape)


@dataclass(frozen=True, eq=False)
class Region:
    """An 8-connected component of a thresholded saliency map.

    ``pixels`` holds (x, y) cell coordinates in row-major scan order, ``bbox`` their tight box.
    """

    pixels: np.ndarray
    bbox: BBox = field(init=False)

    def __post_init__(self) -> None:
        pixels = pixel_view(self.pixels, "region")
        object.__setattr__(self, "bbox", tight_box(pixels, "region"))
        object.__setattr__(self, "pixels", pixels)

    @property
    def area(self) -> int:
        return int(self.pixels.shape[0])


class Labels(NamedTuple):
    """The labeler's components as arrays, the regions indexed in box order.

    Region k's pixels are the run ``pixels[starts[k] : starts[k] + areas[k]]``,
    (x, y) int32 rows in scan order, read-only, and ``gray`` holds each
    pixel's uint8 gray beside it (a mask's value, for ``connected_components``).
    ``boxes`` holds the regions' int64 (x, y, w, h) tight boxes, in box order.
    """

    pixels: np.ndarray
    gray: np.ndarray
    starts: np.ndarray
    areas: np.ndarray
    boxes: np.ndarray

    def regions(self) -> list[Region]:
        """The Region records of the runs, in box order, built past ``Region``'s checks.

        The labeler's pixels are read-only int32 already, and it draws each box
        by ``events.tight_boxes``, the rule of ``Region``'s own box.
        """
        regions = []
        for box, s, a in zip(self.boxes.tolist(), self.starts.tolist(), self.areas.tolist()):
            regions.append(region := object.__new__(Region))
            object.__setattr__(region, "bbox", BBox(*box))
            object.__setattr__(region, "pixels", self.pixels[s : s + a])
        return regions

    def laid_out(self, order: np.ndarray) -> Labels:
        """The same regions, their runs laid out one after another in ``order``, each once."""
        at = run_ranges(np.empty(self.gray.size, np.intp), self.starts[order], self.areas[order])
        starts = (np.cumsum(self.areas[order]) - self.areas[order])[np.argsort(order)]
        return self._replace(pixels=frozen_view(self.pixels[at]), gray=self.gray[at], starts=starts)


def run_ranges(out: np.ndarray, begin: np.ndarray, length: np.ndarray, step: int = 1) -> np.ndarray:
    """Fill ``out`` with the runs begin[k], begin[k] + step, ..., length[k] >= 1 values each.

    The runs lie one after another. Each run's first value steps from the
    last value of the run before, every other value by ``step``, and the
    steps are summed in place, so every partial sum is a value. Returns ``out``.
    """
    out[:] = step
    out[np.cumsum(length) - length] = begin - np.append(0, (begin + step * (length - 1))[:-1])
    return np.add.accumulate(out, out=out)


def box_order(boxes: np.ndarray) -> np.ndarray:
    """Stable order of (x, y, w, h) box rows by (y, x, h, w), the region order."""
    return np.lexsort((boxes[:, 2], boxes[:, 3], boxes[:, 0], boxes[:, 1]))


def run_bounds(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each run of equal values of a sorted id array starts, and its int32 length.

    A run of equal ids starts at the first id and wherever the id changes.
    No caller's run reaches 2**31 ids.
    """
    change = np.empty(ids.size, dtype=bool)
    change[:1] = True
    np.not_equal(ids[1:], ids[:-1], out=change[1:])
    starts = np.flatnonzero(change)
    del change
    lengths = np.empty(starts.size, np.int32)
    np.subtract(starts[1:], starts[:-1], out=lengths[:-1], casting="unsafe")
    lengths[-1:] = ids.size - starts[-1:]
    return starts, lengths


def render_gray(counts: np.ndarray, n_slices: int) -> np.ndarray:
    """Scale intersection counts to 8-bit gray: round(255 * count / n), capped."""
    if n_slices < 1:
        raise ConfigurationError(f"slice count must be positive, got {n_slices}")
    gray = np.rint(counts * 255.0 / n_slices)
    return np.clip(gray, 0, 255).astype(np.uint8)


def saliency_map(period: EventPeriod, n: int) -> SaliencyMap:
    """Build the saliency map of an n-way split of the period.

    Each event becomes the key (cell << 1) | polarity, where cell is its
    (slice, y, x) id from ``bin_events`` over the whole sensor. The keys are
    formed, sorted and tested one block of ``slice_blocks`` at a time, so no
    cell spans two blocks. After a block's sort, a cell holds both
    polarities exactly when an even key 2c is followed directly by 2c + 1,
    that is, when two neighbouring keys differ in the lowest bit only; so
    each cell counts once, and only the hit cells' pixel ids outlive their
    block. The test writes only the low byte of each neighbouring pair's
    XOR, one int8 per key, which reads 1 at every hit. Only the pairs where
    it does are checked exactly, as k + 1 == next key: an odd k's XOR with
    k + 1 is 2**j - 1 for some j >= 2, whose low byte is never 1. Once the
    held ids number ``events._FLUSH_EVENTS``, or the hit pixels found so
    far when those are more, and after the last block, ``_fold`` sorts them
    together with those pixels into per-pixel counts.
    So the walk holds one block, one budget of ids and the hit pixels, and
    all folds together sort at most twice the hit cells plus the hit pixels.
    The map renders the counts' gray and holds nothing else. The slice count
    loads as ``DetectorConfig``'s counts do: an integral float as its int.
    """
    (n,) = whole_numbers((n,), "slice count", ConfigurationError)
    height, width = period.sensor.shape
    sensor = BBox(0, 0, width, height)
    ids, counts = np.empty(0, id_dtype(height * width)), np.empty(0, np.int32)
    held: list[np.ndarray] = []
    total = 0  # the ids in held
    starts, cuts = slice_blocks(period, n)
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        key = bin_events(period, n, sensor, slice(lo, hi), starts=starts, bits=1)
        key |= period.p[lo:hi]
        key.sort()
        low = np.empty_like(key[1:], np.int8)  # the XOR's low byte, then its == 1 mask
        np.bitwise_xor(key[1:], key[:-1], out=low, casting="unsafe")
        at = np.flatnonzero(np.equal(low, 1, out=low.view(bool)))
        del low  # before the candidates are checked
        hits = key[at]
        hits = hits[key[1:][at] == hits + 1]
        del key, at  # before the next block's key exists
        hits >>= 1
        hits %= height * width
        held.append(hits)
        total += hits.size
        if total >= max(events._FLUSH_EVENTS, ids.size):
            ids, counts = _fold(ids, counts, held)
            total = 0
    if held:  # the ids of the last blocks
        ids, counts = _fold(ids, counts, held)
    return SaliencyMap(shape=(height, width), ids=ids, hit_counts=counts, n_slices=n)


def _fold(
    ids: np.ndarray, counts: np.ndarray, held: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """The sorted hit pixels ``ids`` and their int32 ``counts`` with the ``held`` ids added.

    The known pixels join the held ids' sort as the tags 2 * id, the held
    ids as 2 * id + 1, so each pixel's run of tags starts with its even tag
    when the pixel is known. A run's length counts the pixel's held ids,
    plus one when it is known, whose count then replaces that one. The held
    ids come in the dtype of the keys they were cut from, which holds every
    tag. ``held`` is emptied.
    """
    tags = np.concatenate([ids, *held])
    held.clear()
    tags <<= 1
    tags[ids.size :] |= 1
    tags.sort()
    odd = np.empty(tags.size, bool)
    np.bitwise_and(tags, 1, out=odd, casting="unsafe")
    tags >>= 1
    starts, lengths = run_bounds(tags)
    pixels = tags[starts].astype(ids.dtype, copy=False)
    del tags  # before the arrays of the count update
    known = np.flatnonzero(~odd[starts])  # indexes, far faster than a scattered bool mask
    del odd, starts
    lengths[known] += counts - 1
    return pixels, lengths


def gray_at(smap: SaliencyMap, pixels: np.ndarray) -> np.ndarray:
    """The map's gray values at (x, y) pixels, which must lie inside the map.

    Each pixel's flat id is searched among the sorted hit ids; a pixel that
    is not a hit reads 0.
    """
    height, width = smap.shape
    x, y = pixels[:, 0], pixels[:, 1]
    if x.size and (pixels.min() < 0 or x.max() >= width or y.max() >= height):
        raise ValidationError("region pixels fall outside the saliency map")
    if not smap.ids.size:
        return np.zeros(x.size, np.uint8)
    flat = y.astype(smap.ids.dtype) * width + x  # the ids' dtype: the search casts no copy
    at = np.searchsorted(smap.ids, flat)
    np.minimum(at, smap.ids.size - 1, out=at)
    gray = smap.hit_gray[at]
    gray[smap.ids[at] != flat] = 0
    return gray


def threshold_mask(smap: SaliencyMap, tau_s: int) -> np.ndarray:
    """The dense (height, width) mask of the pixels whose gray strictly exceeds tau_s.

    For inspection; ``salient_labels(...).regions()`` labels the same pixels without it.
    """
    DetectorConfig(tau_s=tau_s)  # raises on a threshold the config refuses
    return smap.gray > tau_s


def salient_labels(smap: SaliencyMap, tau_s: int) -> Labels:
    """8-connected components of the pixels whose gray strictly exceeds tau_s, as arrays.

    Labels the salient hit ids directly, each pixel's gray read beside its
    id, so no (height, width) array is formed. ``regions()`` gives the
    regions of ``connected_components(threshold_mask(smap, tau_s))``.
    """
    DetectorConfig(tau_s=tau_s)  # raises on a threshold the config refuses
    salient = smap.hit_gray > tau_s
    return _label(smap.ids[salient], smap.hit_gray[salient], smap.shape[1])


def union_roots(root: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Merge the links (a[k], b[k]) into ``root`` and return it, overwritten.

    ``root`` maps each node to its root, with root[i] <= i. Hooking the larger
    root of each link onto the smaller closes no cycle; pointers are then
    jumped until every root is its own parent (Shiloach & Vishkin, J. Algorithms 1982).
    """
    while True:
        ra, rb = root[a], root[b]
        if np.array_equal(ra, rb):
            return root
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while not np.array_equal(root, jumped := root[root]):
            root = jumped


def connected_components(mask: np.ndarray) -> list[Region]:
    """8-connected components of a binary mask, ordered by bbox top-left.

    Labels the sorted flat ids of the mask's set pixels, as
    ``salient_labels(...).regions()`` labels a map's salient pixels.
    """
    m = np.asarray(mask)
    if m.ndim != 2:
        raise ValidationError("mask must be two-dimensional")
    return _label(np.flatnonzero(m), m[m != 0], m.shape[1]).regions()


def _label(ids: np.ndarray, gray: np.ndarray, width: int) -> Labels:
    """8-connected components of the pixels with sorted flat ``ids``, each ``gray`` beside its id.

    Works on the horizontal runs of the pixels, read from their ids: a run
    ends where the ids skip or a row ends, since the last pixel of a row
    and the first of the next have consecutive ids. A run on row r and one
    on row r + 1 touch when their [x0, x1) extents overlap or meet at a
    corner, and the runs of row r + 1 that touch a given run form one
    contiguous block.
    ``union_roots`` merges the linked runs. Each component is then labelled
    by its first run in scan order, so ties in the bbox order fall in
    first-pixel order.
    """
    # A run starts where the flat ids break, or where a row starts.
    start = np.empty(ids.size, dtype=bool)
    start[:1] = True
    np.not_equal(ids[1:], ids[:-1] + 1, out=start[1:])
    start |= ids % width == 0
    starts = np.flatnonzero(start)
    row, x0 = np.divmod(ids[starts], width)
    x1 = x0 + np.diff(starts, append=ids.size)
    # Keys row * stride + x sort runs in scan order: x never reaches stride.
    # Run i's block is [lo, hi): the next-row runs with x1' >= x0 and x0' <= x1.
    # Every key lies below (last row + 2) * stride, which the rows' dtype must hold.
    stride = width + 2
    row = row.astype(id_dtype((int(row.max(initial=0)) + 2) * stride), copy=False)
    lo = np.searchsorted(row * stride + x1, (row + 1) * stride + x0)
    hi = np.searchsorted(row * stride + x0, (row + 1) * stride + x1, side="right")
    links = hi - lo  # one link per touching pair (a, b)
    a = np.repeat(np.arange(row.size), links)
    b = np.arange(a.size) + np.repeat(lo - (np.cumsum(links) - links), links)
    root = union_roots(np.arange(row.size), a, b)
    # The stable sort keeps each component's runs, and so its pixels, in scan order.
    order = np.argsort(root, kind="stable")
    row, x0, length = row[order], x0[order], (x1 - x0)[order]
    # Each pixel's gray comes from where its id sits in ids, gathered before
    # the pixels exist, so the intp positions and the pixels never live
    # together. The pixels go straight into one int32 (N, 2) array.
    gray = gray[run_ranges(np.empty(ids.size, np.intp), starts[order], length)]
    pixels = np.empty((ids.size, 2), np.int32)
    run_ranges(pixels[:, 0], x0, length)
    run_ranges(pixels[:, 1], row, length, step=0)
    # A component's pixels start with those of its first run.
    first = np.cumsum(length) - length
    starts = first[np.flatnonzero(np.diff(root[order], prepend=-1))]
    boxes = tight_boxes(pixels[:, 0], pixels[:, 1], starts)
    # box_order is stable, so regions with equal boxes stay in first-pixel order.
    order = box_order(boxes)
    areas = np.diff(starts, append=ids.size)
    return Labels(frozen_view(pixels), gray, starts[order], areas[order], boxes[order])
