"""Polarity-intersection saliency over a sliced event period.

A spinning rotor blade crosses a pixel so quickly that the positive and the
negative event it triggers land inside the same short time slice. Ordinary
moving edges brighten a pixel first and darken it only much later, so their
polarities land in different slices. Counting, per pixel, how many slices
have both polarities present therefore highlights rotor regions while
suppressing camera-motion clutter and background noise.

The counts come from one sorted integer key per event, (slice, pixel,
polarity), rather than from per-slice pixel grids, so memory grows with the
events and the pixels only, never with slices times pixels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import ConfigurationError, ValidationError
from .events import BBox, EventPeriod

_EIGHT_CONNECTED = np.ones((3, 3), dtype=int)


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
        xs, ys = pixels[:, 0], pixels[:, 1]
        if (
            int(xs.min()) < self.bbox.x
            or int(xs.max()) >= self.bbox.right
            or int(ys.min()) < self.bbox.y
            or int(ys.max()) >= self.bbox.bottom
        ):
            raise ValidationError("region pixels fall outside the region bbox")
        pixels.setflags(write=False)
        object.__setattr__(self, "pixels", pixels)

    @property
    def area(self) -> int:
        return int(self.pixels.shape[0])


# Slice arithmetic runs in int64: the product (t - t_start) * k and the
# saliency key 2 * (k * H * W) must both stay below this.
_INT64_LIMIT = 2**63


def check_slice_count(
    period: EventPeriod, k: int, minimum: int = 2, what: str = "slice count"
) -> None:
    """Reject a k-way split of the period that is too fine or overflows int64.

    Shared by ``slice_indices`` and ``features.extract_local_slices``.
    """
    if k < minimum:
        raise ConfigurationError(f"{what} must be at least {minimum}, got {k}")
    if k > period.duration:
        raise ConfigurationError(
            f"{what} {k} exceeds the period duration of {period.duration} us"
        )
    height, width = period.sensor.shape
    if period.duration * k >= _INT64_LIMIT or 2 * k * height * width >= _INT64_LIMIT:
        raise ConfigurationError(
            f"{what} {k} over a {period.duration} us period on a "
            f"{width}x{height} sensor overflows 64-bit slice arithmetic"
        )


def slice_indices(period: EventPeriod, n: int) -> np.ndarray:
    """0-based slice index of every event for an n-way split of the period."""
    check_slice_count(period, n)
    s = period.t - period.t_start
    s *= n
    s //= period.duration
    return s


def render_gray(counts: np.ndarray, n_slices: int) -> np.ndarray:
    """Scale intersection counts to 8-bit gray: round(255 * count / n), capped."""
    if n_slices < 1:
        raise ConfigurationError(f"slice count must be positive, got {n_slices}")
    gray = np.rint(counts * 255.0 / n_slices)
    return np.clip(gray, 0, 255).astype(np.uint8)


def saliency_map(period: EventPeriod, n: int) -> SaliencyMap:
    """Build the full saliency map for an n-way split of the period.

    Each event becomes the key ((slice * H * W + pixel) << 1) | polarity.
    After one sort, a (slice, pixel) cell holds both polarities exactly when
    an even key 2c is followed directly by 2c + 1, that is, when two
    neighbouring keys differ in the lowest bit only; so each cell counts once.
    Every key is below 2 * n * H * W, so keys are int32 while that is below
    2**31, else int64.
    """
    height, width = period.sensor.shape
    pixels = height * width
    key_dtype = np.int32 if 2 * n * pixels < 2**31 else np.int64
    key = slice_indices(period, n).astype(key_dtype, copy=False)
    key *= pixels
    key += period.y * width
    key += period.x
    key <<= 1
    key |= period.p
    key.sort()
    hits = key[np.flatnonzero((key[1:] ^ key[:-1]) == 1)]
    counts = np.bincount((hits >> 1) % pixels, minlength=pixels)
    counts = counts.astype(np.int32).reshape(height, width)
    return SaliencyMap(counts=counts, gray=render_gray(counts, n), n_slices=n)


def threshold_mask(smap: SaliencyMap, tau_s: int) -> np.ndarray:
    """Pixels whose gray value strictly exceeds tau_s."""
    if not 0 <= tau_s <= 255:
        raise ConfigurationError(f"tau_s must be within 0..255, got {tau_s}")
    return smap.gray > tau_s


def connected_components(mask: np.ndarray) -> list[Region]:
    """8-connected components of a binary mask, ordered by bbox top-left."""
    m = np.asarray(mask)
    if m.ndim != 2:
        raise ValidationError("mask must be two-dimensional")
    if m.dtype != bool:
        m = m != 0
    labels, _ = ndimage.label(m, structure=_EIGHT_CONNECTED)
    regions: list[Region] = []
    for index, slc in enumerate(ndimage.find_objects(labels), start=1):
        if slc is None:
            continue
        ys, xs = np.nonzero(labels[slc] == index)
        xs = (xs + slc[1].start).astype(np.int32)
        ys = (ys + slc[0].start).astype(np.int32)
        bbox = BBox(
            x=slc[1].start,
            y=slc[0].start,
            w=slc[1].stop - slc[1].start,
            h=slc[0].stop - slc[0].start,
        )
        regions.append(Region(bbox=bbox, pixels=np.column_stack([xs, ys])))
    regions.sort(key=lambda r: (r.bbox.y, r.bbox.x, r.bbox.h, r.bbox.w))
    return regions
