"""Spatio-temporal periodicity features for salient regions.

A candidate region is re-sliced at a finer temporal resolution, keeping only
positive events inside its margin-dilated bbox. Three series are read off the
local slices: event density, structural similarity between consecutive
slices, and similarity of consecutive principal point-cloud directions. A
rotor modulates all three periodically; the periodicity score counts how many
of the smoothed series show repeated peaks and valleys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.signal import peak_prominences

from .errors import ConfigurationError, DegenerateInputError, ValidationError
from .events import BBox, EventPeriod, SensorGeometry
from .saliency import Region, SaliencyMap, slice_indices


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
        if self.s_s < 0:
            raise ValidationError(f"s_s must be non-negative, got {self.s_s}")
        if self.s_p is not None and not 0 <= self.s_p <= 6:
            raise ValidationError(f"s_p must be within 0..6, got {self.s_p}")


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
        f_d = np.ascontiguousarray(self.f_d, dtype=np.float64)
        f_s = np.ascontiguousarray(self.f_s, dtype=np.float64)
        f_p = np.ascontiguousarray(self.f_p, dtype=np.float64)
        if f_d.ndim != f_s.ndim or f_d.ndim != f_p.ndim or f_d.ndim != 1:
            raise ValidationError("feature series must be one-dimensional")
        if f_s.size != f_d.size - 1 or f_p.size != f_d.size - 1:
            raise ValidationError(
                "consecutive-slice series must be one shorter than the density series"
            )
        if f_d.size and f_d.min() < 0:
            raise ValidationError("densities must be non-negative")
        if f_s.size and (f_s.min() < -1.0 or f_s.max() > 1.0):
            raise ValidationError("structural similarities must lie in [-1, 1]")
        if f_p.size and (f_p.min() < 0.0 or f_p.max() > 1.0):
            raise ValidationError("direction similarities must lie in [0, 1]")
        for series in (f_d, f_s, f_p):
            series.setflags(write=False)
        object.__setattr__(self, "f_d", f_d)
        object.__setattr__(self, "f_s", f_s)
        object.__setattr__(self, "f_p", f_p)


def dilated_window(bbox: BBox, margin: int, sensor: SensorGeometry) -> BBox:
    """The bbox grown by margin on every side, clamped to the sensor."""
    if margin < 0:
        raise ConfigurationError(f"margin must be non-negative, got {margin}")
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
) -> np.ndarray:
    """Positive-event count grids over m slices of the dilated region window.

    Returns an (m, window_h, window_w) int32 array.
    """
    if m < 4:
        raise ConfigurationError(f"local slice count must be at least 4, got {m}")
    if m > period.duration:
        raise ConfigurationError(
            f"local slice count {m} exceeds the period duration of {period.duration} us"
        )
    bbox = region.bbox if isinstance(region, Region) else region
    window = dilated_window(bbox, margin, period.sensor)
    inside = (
        (period.p == 1)
        & (period.x >= window.x)
        & (period.x < window.right)
        & (period.y >= window.y)
        & (period.y < window.bottom)
    )
    s = slice_indices(period, m)[inside]
    lx = period.x[inside] - window.x
    ly = period.y[inside] - window.y
    cell = (s * window.h + ly) * window.w + lx
    counts = np.bincount(cell, minlength=m * window.h * window.w)
    return counts.astype(np.int32).reshape(m, window.h, window.w)


def density_series(local_slices: np.ndarray) -> np.ndarray:
    """Total event count per local slice."""
    slices = np.asarray(local_slices)
    if slices.ndim != 3:
        raise ValidationError("local slices must form an (m, h, w) array")
    return slices.sum(axis=(1, 2), dtype=np.int64)


def structural_similarity(slice_a: np.ndarray, slice_b: np.ndarray) -> float:
    """Pearson correlation of two equally shaped grids, flattened row-major.

    Either grid being constant yields 0.0.
    """
    a = np.asarray(slice_a, dtype=np.float64)
    b = np.asarray(slice_b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValidationError(f"grid shapes differ: {a.shape} vs {b.shape}")
    a = a.ravel()
    b = b.ravel()
    std_a = a.std()
    std_b = b.std()
    if std_a == 0.0 or std_b == 0.0:
        return 0.0
    za = (a - a.mean()) / std_a
    zb = (b - b.mean()) / std_b
    return float(np.clip(np.dot(za, zb) / a.size, -1.0, 1.0))


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
    cov_xx = float(np.mean(d[:, 0] * d[:, 0]))
    cov_xy = float(np.mean(d[:, 0] * d[:, 1]))
    cov_yy = float(np.mean(d[:, 1] * d[:, 1]))
    # Largest eigenvalue of [[xx, xy], [xy, yy]] in closed form.
    half_gap = (cov_xx - cov_yy) / 2.0
    disc = float(np.hypot(half_gap, cov_xy))
    if disc <= 1e-12 * max(cov_xx + cov_yy, 1e-300):
        return PrincipalDirection(np.array([1.0, 0.0]), True)
    lam = (cov_xx + cov_yy) / 2.0 + disc
    v1 = np.array([lam - cov_yy, cov_xy])
    v2 = np.array([cov_xy, lam - cov_xx])
    v = v1 if float(v1 @ v1) >= float(v2 @ v2) else v2
    v = v / np.linalg.norm(v)
    if v[0] < 0.0 or (v[0] == 0.0 and v[1] < 0.0):
        v = -v
    v.setflags(write=False)
    return PrincipalDirection(v, False)


def direction_similarity(xi_1, xi_2) -> float:
    """Absolute cosine between two directions; sign-insensitive, in [0, 1]."""
    a = np.asarray(xi_1, dtype=np.float64)
    b = np.asarray(xi_2, dtype=np.float64)
    norm_a = float(np.linalg.norm(a))
    norm_b = float(np.linalg.norm(b))
    if norm_a == 0.0 or norm_b == 0.0:
        raise ValidationError("direction vectors must be nonzero")
    return float(min(abs(float(a @ b)) / (norm_a * norm_b), 1.0))


def compute_features(local_slices: np.ndarray) -> FeatureSeries:
    """Assemble the three feature series from local slice grids.

    Slices with no usable direction (empty, or all points identical)
    contribute 0.0 to the direction-similarity pairs they take part in.
    """
    slices = np.asarray(local_slices)
    if slices.ndim != 3 or slices.shape[0] < 2:
        raise ValidationError("need an (m, h, w) array with m >= 2")
    m = slices.shape[0]
    f_d = density_series(slices).astype(np.float64)
    f_s = np.array([structural_similarity(slices[j], slices[j + 1]) for j in range(m - 1)])
    directions: list[np.ndarray | None] = []
    for j in range(m):
        ys, xs = np.nonzero(slices[j])
        try:
            directions.append(principal_direction(np.column_stack([xs, ys])).vector)
        except DegenerateInputError:
            directions.append(None)
    f_p = np.array(
        [
            direction_similarity(directions[j], directions[j + 1])
            if directions[j] is not None and directions[j + 1] is not None
            else 0.0
            for j in range(m - 1)
        ]
    )
    return FeatureSeries(f_d=f_d, f_s=f_s, f_p=f_p)


def moving_average(series, window: int) -> np.ndarray:
    """Centered moving average; edge windows truncate at the boundaries.

    Output length equals input length.
    """
    x = np.asarray(series, dtype=np.float64)
    if x.ndim != 1:
        raise ValidationError("series must be one-dimensional")
    if window < 1 or window % 2 == 0:
        raise ConfigurationError(f"window must be an odd integer >= 1, got {window}")
    if window > x.size:
        raise ConfigurationError(f"window {window} exceeds series length {x.size}")
    csum = np.concatenate([[0.0], np.cumsum(x)])
    half = window // 2
    i = np.arange(x.size)
    lo = np.maximum(i - half, 0)
    hi = np.minimum(i + half + 1, x.size)
    return (csum[hi] - csum[lo]) / (hi - lo)


def _qualifying_extrema(x: np.ndarray, floor: float) -> int:
    """Count interior strict local maxima whose prominence reaches floor."""
    interior = x[1:-1]
    peaks = np.flatnonzero((interior > x[:-2]) & (interior > x[2:])) + 1
    if peaks.size == 0:
        return 0
    prominences = peak_prominences(x, peaks)[0]
    return int(np.count_nonzero(prominences >= floor))


def peaks_valleys(series) -> tuple[bool, bool]:
    """Whether the series has at least two qualifying peaks and two valleys.

    Qualifying extrema are interior strict local extrema with prominence of
    at least half the series standard deviation. Series shorter than 5
    samples report (False, False).
    """
    x = np.asarray(series, dtype=np.float64)
    if x.ndim != 1:
        raise ValidationError("series must be one-dimensional")
    if x.size < 5:
        return (False, False)
    floor = 0.5 * float(x.std())
    return (_qualifying_extrema(x, floor) >= 2, _qualifying_extrema(-x, floor) >= 2)


def periodicity_score(features: FeatureSeries, smooth_window: int = 3) -> int:
    """Sum of peak and valley flags over the three smoothed series, 0..6.

    The smoothing window shrinks (to the next odd length) for series shorter
    than the configured window.
    """
    if smooth_window < 1 or smooth_window % 2 == 0:
        raise ConfigurationError(
            f"smooth_window must be an odd integer >= 1, got {smooth_window}"
        )
    score = 0
    for series in (features.f_d, features.f_s, features.f_p):
        if series.size == 0:
            continue
        window = min(smooth_window, series.size if series.size % 2 else series.size - 1)
        window = max(window, 1)
        smoothed = moving_average(series, window)
        has_peaks, has_valleys = peaks_valleys(smoothed)
        score += int(has_peaks) + int(has_valleys)
    return score


def saliency_score(region: Region, smap: SaliencyMap) -> int:
    """Sum of rendered gray values over the region pixels."""
    xs = region.pixels[:, 0]
    ys = region.pixels[:, 1]
    height, width = smap.gray.shape
    if int(xs.max()) >= width or int(ys.max()) >= height:
        raise ValidationError("region pixels fall outside the saliency map")
    return int(smap.gray[ys, xs].sum(dtype=np.int64))
