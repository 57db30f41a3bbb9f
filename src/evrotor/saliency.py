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
one block of whole slices at a time, and only the hit pixel ids outlive a
block, so working memory follows one block and the hits: never the whole
period's events, never slices times pixels. Only the hit pixels, those with
at least one salient slice, are counted and rendered; the rest of the map
stays zero, so no pass walks every pixel of the sensor.

Thresholding the rendered map and labeling its 8-connected components gives
the salient regions. Labeling reads the horizontal runs of the mask from the
flat ids of its set pixels, with numpy passes over those ids and the runs
only; it checks all regions' pixels against their boxes in one pass too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ValidationError
from .events import BBox, EventPeriod, bin_events, slice_starts

# Events per saliency block, unless one slice alone holds more.
_BLOCK_EVENTS = 2**16


@dataclass(frozen=True, eq=False)
class SaliencyMap:
    """Per-pixel intersection counts plus their 8-bit rendering."""

    counts: np.ndarray
    gray: np.ndarray
    n_slices: int

    def __post_init__(self) -> None:
        if self.counts.shape != self.gray.shape or self.counts.ndim != 2:
            raise ValidationError("saliency grids must be two-dimensional and congruent")
        if self.n_slices < 1:
            raise ValidationError(f"slice count must be positive, got {self.n_slices}")


@dataclass(frozen=True, eq=False)
class Region:
    """An 8-connected component of a thresholded saliency map.

    ``pixels`` holds (x, y) cell coordinates in row-major scan order.
    """

    bbox: BBox
    pixels: np.ndarray

    def __post_init__(self) -> None:
        pixels = np.ascontiguousarray(self.pixels, dtype=np.int32)
        if pixels.ndim != 2 or pixels.shape[1] != 2 or pixels.shape[0] < 1:
            raise ValidationError("region pixels must form a non-empty (k, 2) array")
        box = self.bbox
        check_inside(pixels, np.array([[box.x, box.y, box.right, box.bottom]]), np.zeros(1, int))
        pixels.setflags(write=False)
        object.__setattr__(self, "pixels", pixels)

    @property
    def area(self) -> int:
        return int(self.pixels.shape[0])


def check_inside(pixels: np.ndarray, bounds: np.ndarray, starts: np.ndarray) -> None:
    """Raise unless every region's pixels lie inside its box.

    ``pixels`` holds the (x, y) pixels of several regions back to back,
    region k's from row starts[k] on; bounds[k] is its (x0, y0, x1, y1) box
    with exclusive x1 and y1. Every region needs at least one pixel.
    """
    low = np.minimum.reduceat(pixels, starts)
    high = np.maximum.reduceat(pixels, starts)
    if (low < bounds[:, :2]).any() or (high >= bounds[:, 2:]).any():
        raise ValidationError("region pixels fall outside the region bbox")


def _labelled_region(bbox: BBox, pixels: np.ndarray) -> Region:
    """A Region whose read-only int32 pixels ``check_inside`` already passed."""
    region = object.__new__(Region)
    object.__setattr__(region, "bbox", bbox)
    object.__setattr__(region, "pixels", pixels)
    return region


def box_order(boxes: np.ndarray) -> np.ndarray:
    """Stable order of (x, y, w, h) box rows by (y, x, h, w), the region order."""
    return np.lexsort((boxes[:, 2], boxes[:, 3], boxes[:, 0], boxes[:, 1]))


def sorted_runs(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of a sorted id array and how often each occurs.

    A run of equal ids starts at the first id and wherever the id changes.
    """
    change = np.empty(ids.size, dtype=bool)
    change[:1] = True
    np.not_equal(ids[1:], ids[:-1], out=change[1:])
    starts = np.flatnonzero(change)
    return ids[starts], np.diff(starts, append=ids.size)


def render_gray(counts: np.ndarray, n_slices: int) -> np.ndarray:
    """Scale intersection counts to 8-bit gray: round(255 * count / n), capped."""
    if n_slices < 1:
        raise ConfigurationError(f"slice count must be positive, got {n_slices}")
    gray = np.rint(counts * 255.0 / n_slices)
    return np.clip(gray, 0, 255).astype(np.uint8)


def _block_cuts(starts: np.ndarray) -> list[int]:
    """Event cuts of the blocks of whole slices, given the slices' ``starts``.

    A block takes the slices that start within ``_BLOCK_EVENTS`` events of
    its first one, or its first slice alone when that is larger.
    """
    cuts = [0]
    total = int(starts[-1])
    while cuts[-1] < total:
        lo = cuts[-1]
        hi = int(starts[np.searchsorted(starts, lo + _BLOCK_EVENTS, side="right") - 1])
        if hi == lo:
            hi = int(starts[np.searchsorted(starts, lo, side="right")])
        cuts.append(hi)
    return cuts


def saliency_map(period: EventPeriod, n: int) -> SaliencyMap:
    """Build the full saliency map for an n-way split of the period.

    Each event becomes the key (cell << 1) | polarity, where cell is its
    (slice, y, x) id from ``bin_events`` over the whole sensor. The keys are
    formed, sorted and tested one block of whole slices at a time, so no
    cell spans two blocks. After a block's sort, a cell holds both
    polarities exactly when an even key 2c is followed directly by 2c + 1,
    that is, when two neighbouring keys differ in the lowest bit only; so
    each cell counts once, and only the hit cells' pixel ids outlive their
    block. Those ids, sorted, give the hit pixels and their counts; only
    those pixels are counted and rendered, and the rest of both grids stays
    zero. With more slices than events the period is one block, binned by
    division.
    """
    height, width = period.sensor.shape
    pixels = height * width
    sensor = BBox(0, 0, width, height)
    starts = slice_starts(period, n) if n <= len(period) else None
    cuts = [0, len(period)] if starts is None else _block_cuts(starts)
    blocks = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        key = bin_events(period, n, sensor, slice(lo, hi), starts=starts, bits=1)
        key |= period.p[lo:hi]
        key.sort()
        blocks.append(key[np.flatnonzero((key[1:] ^ key[:-1]) == 1)])
    hits = np.concatenate(blocks)
    hits >>= 1
    hits %= pixels
    hits.sort()
    ids, hit_counts = sorted_runs(hits)
    counts = np.zeros(pixels, np.int32)
    counts[ids] = hit_counts
    gray = np.zeros(pixels, np.uint8)
    gray[ids] = render_gray(hit_counts, n)
    return SaliencyMap(
        counts=counts.reshape(height, width), gray=gray.reshape(height, width), n_slices=n
    )


def gray_at(smap: SaliencyMap, pixels: np.ndarray) -> np.ndarray:
    """The map's gray values at (x, y) pixels, which must lie inside the map."""
    height, width = smap.gray.shape
    x, y = pixels[:, 0], pixels[:, 1]
    if x.size and (pixels.min() < 0 or x.max() >= width or y.max() >= height):
        raise ValidationError("region pixels fall outside the saliency map")
    return smap.gray.reshape(-1)[y.astype(np.intp) * width + x]


def threshold_mask(smap: SaliencyMap, tau_s: int) -> np.ndarray:
    """Pixels whose gray value strictly exceeds tau_s."""
    if not 0 <= tau_s <= 255:
        raise ConfigurationError(f"tau_s must be within 0..255, got {tau_s}")
    return smap.gray > tau_s


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

    Works on the horizontal runs of the mask, read from the sorted flat ids
    of its set pixels: a run ends where the ids skip or a row ends, since the
    last pixel of a row and the first of the next have consecutive ids. A
    run on row r and one on row r + 1 touch when their [x0, x1) extents
    overlap or meet at a corner, and the runs of row r + 1 that touch a
    given run form one contiguous block.
    ``union_roots`` merges the linked runs. Each component is then labelled
    by its first run in scan order, so ties in the bbox order fall in
    first-pixel order.
    """
    m = np.asarray(mask)
    if m.ndim != 2:
        raise ValidationError("mask must be two-dimensional")
    ids = np.flatnonzero(m)
    if ids.size == 0:
        return []
    # A run starts where the flat ids break, or where a row starts.
    start = np.empty(ids.size, dtype=bool)
    start[:1] = True
    np.not_equal(ids[1:], ids[:-1] + 1, out=start[1:])
    start |= ids % m.shape[1] == 0
    starts = np.flatnonzero(start)
    row, x0 = np.divmod(ids[starts], m.shape[1])
    x1 = x0 + np.diff(starts, append=ids.size)
    # Keys row * stride + x sort runs in scan order: x never reaches stride.
    # Run i's block is [lo, hi): the next-row runs with x1' >= x0 and x0' <= x1.
    stride = m.shape[1] + 2
    lo = np.searchsorted(row * stride + x1, (row + 1) * stride + x0)
    hi = np.searchsorted(row * stride + x0, (row + 1) * stride + x1, side="right")
    links = hi - lo  # one link per touching pair (a, b)
    a = np.repeat(np.arange(row.size), links)
    b = np.arange(a.size) + np.repeat(lo - (np.cumsum(links) - links), links)
    root = union_roots(np.arange(row.size), a, b)
    # The stable sort keeps each component's runs, and so its pixels, in scan order.
    order = np.argsort(root, kind="stable")
    row, x0, x1 = row[order], x0[order], x1[order]
    first = np.flatnonzero(np.diff(root[order], prepend=-1))
    last = np.append(first[1:], row.size) - 1
    left = np.minimum.reduceat(x0, first)
    right = np.maximum.reduceat(x1, first)
    top, bottom = row[first], row[last] + 1
    length = x1 - x0
    ends = np.cumsum(length)
    xs = np.arange(ends[-1]) - np.repeat(ends - length - x0, length)
    pixels = np.column_stack([xs, np.repeat(row, length)]).astype(np.int32)
    pixels.setflags(write=False)
    starts = np.append(0, ends[last[:-1]])
    check_inside(pixels, np.column_stack([left, top, right, bottom]), starts)
    # box_order is stable, so regions with equal boxes stay in first-pixel order.
    boxes = np.column_stack([left, top, right - left, bottom - top])
    order = box_order(boxes)
    cuts = np.append(starts, pixels.shape[0]).tolist()
    return [
        _labelled_region(BBox(*box), pixels[cuts[k] : cuts[k + 1]])
        for box, k in zip(boxes[order].tolist(), order.tolist())
    ]
