"""Slow reference implementations used to cross-check the library.

Everything here is written against the observable contracts only, in the
most literal way possible (pure python loops, recompute-from-scratch), so
that agreement with the optimized library code is meaningful evidence.
``reference_pipeline`` chains them into the whole detector. A few small
helpers that only the tests need (dense count grids, box unions) live here
too, not in the package.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy import ndimage
from scipy.signal import peak_prominences

import evrotor
from evrotor import BBox, DegenerateInputError, LocalSlices, Region, SaliencyMap
from evrotor.features import principal_direction


def flood_fill_components(mask):
    """8-connected components of a boolean grid via BFS.

    mask is indexed [y][x].  Returns a list of frozensets of (x, y) pixels,
    one per component, in no particular order.
    """
    height = len(mask)
    width = len(mask[0]) if height else 0
    seen = [[False] * width for _ in range(height)]
    components = []
    for sy in range(height):
        for sx in range(width):
            if not mask[sy][sx] or seen[sy][sx]:
                continue
            queue = [(sx, sy)]
            seen[sy][sx] = True
            pixels = set()
            while queue:
                x, y = queue.pop()
                pixels.add((x, y))
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        if dx == 0 and dy == 0:
                            continue
                        nx, ny = x + dx, y + dy
                        if 0 <= nx < width and 0 <= ny < height:
                            if mask[ny][nx] and not seen[ny][nx]:
                                seen[ny][nx] = True
                                queue.append((nx, ny))
            components.append(frozenset(pixels))
    return components


def ndimage_components(mask):
    """8-connected components as scipy.ndimage labels them.

    Regions carry (x, y) pixels in row-major order and come sorted by bbox
    (y, x, h, w), ties in scipy's label order, which is first-pixel order.
    """
    m = np.asarray(mask) != 0
    labels, _ = ndimage.label(m, structure=np.ones((3, 3), dtype=int))
    regions = []
    for index, slc in enumerate(ndimage.find_objects(labels), start=1):
        if slc is None:
            continue
        ys, xs = np.nonzero(labels[slc] == index)
        region = Region(np.column_stack([xs + slc[1].start, ys + slc[0].start]))
        # find_objects gives the component's tight box, independently of the pixels.
        assert region.bbox == BBox(
            slc[1].start, slc[0].start, slc[1].stop - slc[1].start, slc[0].stop - slc[0].start
        )
        regions.append(region)
    regions.sort(key=lambda r: (r.bbox.y, r.bbox.x, r.bbox.h, r.bbox.w))
    return regions


def sparse_saliency(gray):
    """The SaliencyMap whose dense ``gray`` grid is the given one.

    A pixel's count is its gray value out of 255 slices, which renders back
    to that gray; the hit pixels are those with a positive gray.
    """
    gray = np.asarray(gray, np.uint8)
    assert gray.ndim == 2
    ids = np.flatnonzero(gray)
    smap = SaliencyMap(shape=gray.shape, ids=ids, hit_counts=gray.ravel()[ids], n_slices=255)
    assert np.array_equal(smap.gray, gray)
    return smap


def dense_counts(smap):
    """The dense (height, width) int32 grid of a SaliencyMap's intersection counts."""
    grid = np.zeros(smap.shape, np.int32)
    grid.flat[smap.ids] = smap.hit_counts
    return grid


def union_find_roots(n, links):
    """Smallest node of each node's component after merging the links.

    links is a sequence of (a, b) node pairs.  A plain union-find whose
    find walks parent pointers one step at a time and whose union sets the
    larger root's parent to the smaller root, so every root is the smallest
    node of its set.  Returns a list of n roots.
    """
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for a, b in links:
        ra, rb = find(a), find(b)
        parent[max(ra, rb)] = min(ra, rb)
    return [find(i) for i in range(n)]


def saliency_counts(events, t_start, duration, n, width, height):
    """Per-pixel count of the slices in which a pixel fired both polarities.

    events is a sequence of (t, x, y, p) tuples.  An event falls in slice
    (t - t_start) * n // duration.  Each slice keeps one set of pixels that
    fired a positive event and one set of pixels that fired a negative one;
    a pixel scores one for every slice whose two sets both hold it.
    Returns a [y][x] list of lists.
    """
    positive = [set() for _ in range(n)]
    negative = [set() for _ in range(n)]
    for t, x, y, p in events:
        k = (t - t_start) * n // duration
        if p == 1:
            positive[k].add((x, y))
        else:
            negative[k].add((x, y))
    counts = [[0] * width for _ in range(height)]
    for k in range(n):
        for x, y in positive[k]:
            if (x, y) in negative[k]:
                counts[y][x] += 1
    return counts


def local_cell_counts(events, t_start, duration, m, window):
    """Positive-event count of every nonzero cell of a window's m local slices.

    events is a sequence of (t, x, y, p) tuples and window a BBox.  A positive
    event inside the window falls in slice (t - t_start) * m // duration and
    in the cell (slice, y - window.y, x - window.x).  Returns a dict from
    (slice, y, x) to count.
    """
    counts = {}
    for t, x, y, p in events:
        if p == 1 and window.x <= x < window.right and window.y <= y < window.bottom:
            cell = ((t - t_start) * m // duration, y - window.y, x - window.x)
            counts[cell] = counts.get(cell, 0) + 1
    return counts


def local_slices(grids):
    """The LocalSlices record of a dense (m, h, w) count grid.

    The counts keep the grid's dtype, so the record's own checks see them.
    """
    grids = np.asarray(grids)
    flat = grids.reshape(-1)
    cells = np.flatnonzero(flat)
    return LocalSlices(shape=grids.shape, cells=cells, counts=flat[cells])


def rect_gap(a, b):
    """Minimum distance between two axis-aligned rectangles (x, y, w, h)."""
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    dx = max(max(ax, bx) - min(ax + aw, bx + bw), 0)
    dy = max(max(ay, by) - min(ay + ah, by + bh), 0)
    return math.hypot(dx, dy)


def _union_rect(a, b):
    x0 = min(a[0], b[0])
    y0 = min(a[1], b[1])
    x1 = max(a[0] + a[2], b[0] + b[2])
    y1 = max(a[1] + a[3], b[1] + b[3])
    return (x0, y0, x1 - x0, y1 - y0)


def bbox_union(a, b):
    """The smallest BBox that covers both boxes."""
    return BBox(*_union_rect(a.as_tuple(), b.as_tuple()))


def _rect_key(rect):
    return (rect[1], rect[0], rect[3], rect[2])


def greedy_union_clusters(rects, d_merge):
    """Recompute-everything version of the greedy agglomeration.

    Each step scans every live pair from scratch, picks the minimum-distance
    pair (ties resolved by the sorted (y, x, h, w) key pair), and replaces
    both with their union rectangle.  Returns the member index sets and the
    final bounding rectangles, sorted by rectangle key.
    """
    clusters = [({i}, tuple(rect)) for i, rect in enumerate(rects)]
    while len(clusters) > 1:
        best = None
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                dist = rect_gap(clusters[i][1], clusters[j][1])
                if dist > d_merge:
                    continue
                pair_key = tuple(
                    sorted((_rect_key(clusters[i][1]), _rect_key(clusters[j][1])))
                )
                if best is None or (dist, pair_key) < (best[0], best[1]):
                    best = (dist, pair_key, i, j)
        if best is None:
            break
        _, _, i, j = best
        merged = (
            clusters[i][0] | clusters[j][0],
            _union_rect(clusters[i][1], clusters[j][1]),
        )
        clusters = [c for k, c in enumerate(clusters) if k not in (i, j)]
        clusters.append(merged)
    clusters.sort(key=lambda c: _rect_key(c[1]))
    return [(frozenset(members), rect) for members, rect in clusters]


def gaussian_keep(members, gray):
    """Which members of a candidate lie inside its Gaussian shape prior.

    members is a list of lists of (x, y) pixels; gray is indexed [y][x] and
    weights each pixel. The prior is the weighted mean and covariance of all
    the pixels, in exact rational arithmetic. Returns None when the prior is
    degenerate (no weight, or a singular covariance). Otherwise returns one
    (kept, d2) pair per member: d2 is the squared Mahalanobis distance of the
    member's weighted centroid, inf for a member without weight, and the
    member is kept when d2 <= 4.
    """
    pixels = [(x, y, int(gray[y][x])) for member in members for x, y in member]
    total = sum(w for _, _, w in pixels)
    if total == 0:
        return None
    mean_x = Fraction(sum(w * x for x, _, w in pixels), total)
    mean_y = Fraction(sum(w * y for _, y, w in pixels), total)
    cxx = sum(w * (x - mean_x) ** 2 for x, _, w in pixels) / total
    cxy = sum(w * (x - mean_x) * (y - mean_y) for x, y, w in pixels) / total
    cyy = sum(w * (y - mean_y) ** 2 for _, y, w in pixels) / total
    det = cxx * cyy - cxy * cxy
    if det == 0:
        return None
    result = []
    for member in members:
        mass = sum(int(gray[y][x]) for x, y in member)
        if mass == 0:
            result.append((False, math.inf))
            continue
        dx = Fraction(sum(int(gray[y][x]) * x for x, y in member), mass) - mean_x
        dy = Fraction(sum(int(gray[y][x]) * y for x, y in member), mass) - mean_y
        inv_xx, inv_xy, inv_yy = cyy / det, -cxy / det, cxx / det
        d2 = inv_xx * dx * dx + 2 * inv_xy * dx * dy + inv_yy * dy * dy
        result.append((d2 <= 4, float(d2)))
    return result


def principal_angle_sweep(points, steps=3600):
    """Direction of maximum variance found by scanning projection angles.

    Returns the angle in [0, pi) whose unit direction maximizes the variance
    of the projected centered points.  Resolution is pi / steps.
    """
    n = len(points)
    cx = sum(p[0] for p in points) / n
    cy = sum(p[1] for p in points) / n
    best_angle = 0.0
    best_var = -1.0
    for k in range(steps):
        theta = math.pi * k / steps
        ux, uy = math.cos(theta), math.sin(theta)
        var = sum(((p[0] - cx) * ux + (p[1] - cy) * uy) ** 2 for p in points) / n
        if var > best_var:
            best_var = var
            best_angle = theta
    return best_angle


def average_precision_literal(is_tp, total_gt):
    """All-points interpolated AP computed straight from the definition.

    For every distinct achieved recall level r, the interpolated precision
    is the best precision among ranked prefixes whose recall is >= r; AP is
    the sum of interpolated precision times recall increment.
    """
    if total_gt <= 0:
        raise ValueError("total_gt must be positive")
    precisions = []
    recalls = []
    tp = 0
    for k, hit in enumerate(is_tp, start=1):
        if hit:
            tp += 1
        precisions.append(tp / k)
        recalls.append(tp / total_gt)
    area = 0.0
    prev_recall = 0.0
    for r in sorted(set(recalls)):
        if r <= prev_recall:
            continue
        interp = max(
            (p for p, rec in zip(precisions, recalls) if rec >= r), default=0.0
        )
        area += (r - prev_recall) * interp
        prev_recall = r
    return area


def pearson(a, b):
    """Plain-loop Pearson correlation of two equal-length sequences."""
    n = len(a)
    ma = sum(a) / n
    mb = sum(b) / n
    cov = sum((x - ma) * (y - mb) for x, y in zip(a, b)) / n
    va = sum((x - ma) ** 2 for x in a) / n
    vb = sum((y - mb) ** 2 for y in b) / n
    if va == 0.0 or vb == 0.0:
        return 0.0
    return cov / math.sqrt(va * vb)


def tree_sum(values):
    """Pairwise sum of a power-of-two count of values: the halves' sums, added."""
    if len(values) == 1:
        return values[0]
    half = len(values) // 2
    return tree_sum(values[:half]) + tree_sum(values[half:])


def centered_moving_average(values, window):
    """Truncated-window centered moving average, plain loops.

    Each window, zero-padded at the edges, is cut into blocks of the powers
    of two in its size, largest first; each block is summed by ``tree_sum``,
    and the blocks are added from the last to the first, the order
    ``moving_average`` takes.
    """
    half = window // 2
    padded = [0.0] * half + [float(v) for v in values] + [0.0] * half
    sizes = [2**k for k in reversed(range(window.bit_length())) if window >> k & 1]
    out = []
    for i in range(len(values)):
        sums, start = [], i
        for size in sizes:
            sums.append(tree_sum(padded[start : start + size]))
            start += size
        total = sums.pop()
        while sums:
            total = sums.pop() + total
        lo = max(i - half, 0)
        hi = min(i + half + 1, len(values))
        out.append(total / (hi - lo))
    return out


def structural_similarity(slice_a, slice_b):
    """Pearson correlation of two equally shaped grids, flattened row-major.

    Either grid being constant yields 0.0.
    """
    a = np.asarray(slice_a, dtype=np.float64)
    b = np.asarray(slice_b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"grid shapes differ: {a.shape} vs {b.shape}")
    a = a.ravel()
    b = b.ravel()
    std_a = a.std()
    std_b = b.std()
    if std_a == 0.0 or std_b == 0.0:
        return 0.0
    za = (a - a.mean()) / std_a
    zb = (b - b.mean()) / std_b
    return float(np.clip(np.dot(za, zb) / a.size, -1.0, 1.0))


def direction_similarity(xi_1, xi_2):
    """Absolute cosine between two directions; sign-insensitive, in [0, 1]."""
    a = np.asarray(xi_1, dtype=np.float64)
    b = np.asarray(xi_2, dtype=np.float64)
    norm_a = float(np.linalg.norm(a))
    norm_b = float(np.linalg.norm(b))
    if norm_a == 0.0 or norm_b == 0.0:
        raise ValueError("direction vectors must be nonzero")
    return float(min(abs(float(a @ b)) / (norm_a * norm_b), 1.0))


def compute_features(local_slices):
    """The three feature series of (m, h, w) slice grids, one slice at a time.

    f_d sums each slice.  f_s applies structural_similarity to each
    consecutive pair.  f_p applies direction_similarity to the principal
    directions of consecutive slices' nonzero cells, taking 0.0 where either
    slice has no direction.  Returns (f_d, f_s, f_p) as float arrays.
    principal_direction is the package's own; its tests check it against
    principal_angle_sweep.
    """
    slices = np.asarray(local_slices)
    m = slices.shape[0]
    f_d = [float(slices[j].sum(dtype=np.int64)) for j in range(m)]
    f_s = [structural_similarity(slices[j], slices[j + 1]) for j in range(m - 1)]
    directions = []
    for j in range(m):
        ys, xs = np.nonzero(slices[j])
        try:
            directions.append(principal_direction(np.column_stack([xs, ys])).vector)
        except DegenerateInputError:
            directions.append(None)
    f_p = [
        direction_similarity(directions[j], directions[j + 1])
        if directions[j] is not None and directions[j + 1] is not None
        else 0.0
        for j in range(m - 1)
    ]
    return np.array(f_d), np.array(f_s), np.array(f_p)


def peaks_valleys(series):
    """Whether one series has at least two qualifying peaks, then two qualifying valleys.

    A peak qualifies when it is a strict local maximum of the interior whose
    prominence, as ``scipy.signal.peak_prominences`` measures it, is at least
    half the series' standard deviation. The valleys are the peaks of the
    negated series.
    """
    x = np.asarray(series, np.float64)
    floor = 0.5 * x.std()
    flags = []
    for y in (x, -x):
        peaks = [i for i in range(1, y.size - 1) if y[i - 1] < y[i] > y[i + 1]]
        prominences = peak_prominences(y, peaks)[0] if peaks else []
        flags.append(sum(1 for p in prominences if p >= floor) >= 2)
    return tuple(flags)


def _pixel_rect(pixels):
    xs = [x for x, _ in pixels]
    ys = [y for _, y in pixels]
    return (min(xs), min(ys), max(xs) - min(xs) + 1, max(ys) - min(ys) + 1)


def reference_pipeline(period, config):
    """The whole detector, built from the oracles above and the rules the package documents.

    Saliency counts render to gray as round(255 * count / n), with halves to
    even. The components of the pixels whose gray exceeds tau_s are the
    regions, ordered by box (y, x, h, w) and then by first pixel in scan
    order; each holds its pixels in scan order. Clusters merge greedily by
    box distance (``greedy_union_clusters``) and hold their regions in
    region order. A cluster's mass s_s sums its pixels' gray. Clusters rank
    by descending mass, then descending pixel count, then box (y, x, h, w);
    the first k_top are scored. Each scored cluster's box grows by the
    margin, clamped to the sensor, and the cells of its m local slices give
    the three feature series. Each series is smoothed with the configured
    window, or with the longest odd window that fits a shorter series; s_p
    counts the peak and valley flags of the three. The clusters with s_p >=
    tau_p are the candidates, ranked by descending (s_p, s_s) and then box.
    Each becomes a detection of the members that ``gaussian_keep`` keeps,
    all of them when the prior is degenerate, their pixels in member order.

    The series' float math is the package's ``compute_features``, fed the
    cells that ``local_cell_counts`` finds. A correlation's last bit depends
    on how it is computed, and ``compute_features`` above rounds differently:
    where slice pairs of equal similarity form a plateau, a 1e-16 difference
    breaks it into strict extrema and can change s_p. The tests check the
    package's series against ``compute_features`` above to 1e-12.

    Returns (detections, clusters): one (box, s_p, s_s, pixels) per
    detection in rank order, box an (x, y, w, h) tuple and pixels a (k, 2)
    array, and one (box, s_s, s_p, flags) per cluster in box order, with
    s_p and flags None for a cluster outside the top K.
    """
    n, m = config.slicing_for(period)
    width, height = period.sensor.width, period.sensor.height
    events = list(zip(*(col.tolist() for col in (period.t, period.x, period.y, period.p))))
    counts = saliency_counts(events, period.t_start, period.duration, n, width, height)
    gray = [[min(round(c * 255.0 / n), 255) for c in row] for row in counts]
    components = flood_fill_components([[g > config.tau_s for g in row] for row in gray])
    regions = [sorted(c, key=lambda p: (p[1], p[0])) for c in components]
    regions.sort(key=lambda r: (_rect_key(_pixel_rect(r)), r[0][1], r[0][0]))
    merged = greedy_union_clusters([_pixel_rect(r) for r in regions], config.d_merge)
    members = [[regions[i] for i in sorted(indices)] for indices, _ in merged]
    rects = [rect for _, rect in merged]
    mass = [sum(gray[y][x] for r in group for x, y in r) for group in members]
    area = [sum(len(r) for r in group) for group in members]
    ranked = sorted(range(len(merged)), key=lambda k: (-mass[k], -area[k], _rect_key(rects[k])))
    flags = {}
    for k in ranked[: config.k_top]:
        x, y, w, h = rects[k]
        x0, y0 = max(x - config.region_margin, 0), max(y - config.region_margin, 0)
        x1 = min(x + w + config.region_margin, width)
        y1 = min(y + h + config.region_margin, height)
        window = BBox(x0, y0, x1 - x0, y1 - y0)
        grids = np.zeros((m, window.h, window.w), np.int64)
        cells = local_cell_counts(events, period.t_start, period.duration, m, window)
        for cell, count in cells.items():
            grids[cell] = count
        features = evrotor.compute_features(local_slices(grids))
        flags[k] = []
        for series in (features.f_d, features.f_s, features.f_p):
            size = len(series)
            smooth = min(config.smooth_window, size if size % 2 else size - 1)
            flags[k] += peaks_valleys(centered_moving_average(list(series), smooth))
    s_p = {k: sum(f) for k, f in flags.items()}
    passed = sorted(
        (k for k in s_p if s_p[k] >= config.tau_p),
        key=lambda k: (-s_p[k], -mass[k], _rect_key(rects[k])),
    )
    detections = []
    for k in passed:
        keep = gaussian_keep(members[k], gray)
        kept = [r for r, (inside, _) in zip(members[k], keep) if inside] if keep else members[k]
        pixels = np.array([p for r in kept for p in r]).reshape(-1, 2)
        detections.append((_pixel_rect(pixels.tolist()), s_p[k], mass[k], pixels))
    clusters = [
        (rects[k], mass[k], s_p.get(k), tuple(flags[k]) if k in flags else None)
        for k in range(len(merged))
    ]
    return detections, clusters
