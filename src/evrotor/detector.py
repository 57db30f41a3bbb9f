"""Coarse-to-fine rotor detection over a saliency map.

Thresholded saliency components are agglomerated into clusters whenever the
minimum distance between their union bboxes stays within d_merge. Merging
runs in passes to a fixpoint; since union bboxes only grow, that fixpoint is
the partition that closest-pair-first merging reaches too. Each pass tests
its candidate pairs in bounded batches, not one numpy round per region or
per offset. ``run_pipeline`` calls each stage itself, in the paper's order,
on the labeler's arrays (``saliency.Labels``), reading every gray from the
labeler: the regions' boxes clustered by index, each cluster's pixels and
gray laid out as one run, the saliency mass of every cluster in one
reduction over those runs, the top K clusters by mass scored for
periodicity in one walk of the period, and each candidate that clears tau_p
refined from its run against one Gaussian shape prior fitted to all its
pixels, which cuts the member components whose centroids fall outside its
2-sigma ellipse. The coarse stage ranks indexes into the clusters, which
come in box order with unique boxes; its sorts are stable, so every tie
falls to the box order. A window's s_p is the sum of its row of six peak and
valley flags. The run builds one ``Detection`` per candidate and no other
record: its ``PipelineResult`` keeps the arrays, and builds the ``Region``
and ``Cluster`` records, with each cluster's scores, when they are first
read. ``cluster_regions`` and ``gaussian_fine_refine`` run the same code on
one record at a time; refinement then reads the gray by ``gray_at``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .events import BBox, DetectorConfig, EventPeriod, pixel_view, tight_box
from .features import FeatureSeries, RegionScores, _periodicity_flags, _window_features
from .saliency import Region, SaliencyMap, box_order, gray_at, saliency_map, salient_labels
from .saliency import Labels, union_roots


@dataclass
class Cluster:
    """Regions merged by proximity; ``PipelineResult.clusters`` builds each with its scores."""

    members: tuple[Region, ...]
    bbox: BBox
    scores: RegionScores | None = None

    @property
    def area(self) -> int:
        return sum(member.area for member in self.members)


@dataclass(frozen=True, eq=False)
class Detection:
    """One detected rotor: scores that obey ``RegionScores`` (``s_p`` not None), pixels, tight box."""

    s_p: int
    s_s: float
    pixels: np.ndarray
    bbox: BBox = field(init=False)

    def __post_init__(self) -> None:
        if self.s_p is None:  # RegionScores allows it, for a cluster not yet scored
            raise ValidationError("a detection needs an s_p, got None")
        scores = RegionScores(s_s=self.s_s, s_p=self.s_p)  # raises on a pair no candidate carries
        object.__setattr__(self, "s_p", scores.s_p)  # a Python int, as RegionScores loads it
        pixels = pixel_view(self.pixels, "detection")
        object.__setattr__(self, "bbox", tight_box(pixels, "detection"))
        object.__setattr__(self, "pixels", pixels)


@dataclass(eq=False)
class PipelineResult:
    """Full intermediate state of one detection run, for inspection and dumps.

    The salient pixels are those of ``threshold_mask(saliency, tau_s)``.
    The run keeps arrays: ``labels``, the salient regions as the laid-out
    ``saliency.Labels``; ``clustering``, ``_cluster_boxes``' member order,
    cuts and cluster boxes over those regions; ``masses`` and ``s_p``, each
    cluster's saliency mass and, for the top K, its s_p, by cluster index;
    and ``ranked``, the candidates' cluster indexes. The ``regions``,
    ``clusters`` and ``candidates`` records are built from them on first
    read, and each later read returns the same list; a candidate is the
    object that ``clusters`` holds at its index.
    """

    detections: list[Detection]
    saliency: SaliencyMap
    candidate_features: list[FeatureSeries]
    labels: Labels
    clustering: tuple[np.ndarray, np.ndarray, np.ndarray]
    masses: list[int]
    s_p: dict[int, int]
    ranked: list[int]

    @cached_property
    def regions(self) -> list[Region]:
        return self.labels.regions()

    @cached_property
    def clusters(self) -> list[Cluster]:
        scores = [RegionScores(s_s=mass, s_p=self.s_p.get(k)) for k, mass in enumerate(self.masses)]
        return _cluster_records(self.regions, *self.clustering, scores)

    @cached_property
    def candidates(self) -> list[Cluster]:
        return [self.clusters[k] for k in self.ranked]


# Most candidate pairs one clustering sweep expands at a time: enough that a
# batch's numpy calls run long, few enough that a batch stays a few MB.
_PAIR_BATCH = 2**14

# Refinement sums its integer moments in int64 while a bound proves every
# sum stays below this, else in Python ints.
_INT64_SUMS = 2**63


def cluster_regions(regions: list[Region], d_merge: float) -> list[Cluster]:
    """Agglomerate regions into clusters by union-bbox proximity.

    Two clusters merge when the shortest distance between their union bboxes
    is at most d_merge. Each pass sweeps the boxes in order of their low edge
    on one axis and takes as candidates the pairs whose extents on that axis
    come within d_merge. It numbers those pairs and tests them in batches of
    at most ``_PAIR_BATCH``, merging each batch's pairs within reach with one
    ``union_roots`` call, then recomputes the union bboxes; passes repeat
    until one merges nothing. A union bbox only grows, so a pair within
    reach stays within reach after any other merge. Every merge made here is
    therefore forced in any merge order, and the result, whatever the batch
    size, is the partition that closest-pair-first merging reaches. Clusters
    and their members are sorted by (y, x, h, w); members with equal boxes
    keep their input order.
    """
    d_merge = DetectorConfig(d_merge=d_merge).d_merge  # raises on a reach the config refuses
    boxes = np.array([r.bbox.as_tuple() for r in regions], np.int64).reshape(-1, 4)
    return _cluster_records(regions, *_cluster_boxes(boxes, d_merge))


def _cluster_boxes(boxes: np.ndarray, d_merge: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``cluster_regions`` over int64 (x, y, w, h) region boxes, by index.

    Returns the member order, the region indexes of each cluster one after
    another; the C + 1 cuts of that order, cluster k's members lying from
    cuts[k] to cuts[k + 1]; and the (C, 4) cluster boxes. Clusters come in
    box order, and each cluster's members in box order, ties in index order.
    """
    sort = box_order(boxes)
    # One (x0, y0, x1, y1) row per cluster, and the cluster row of each region.
    boxes = boxes[sort]
    boxes[:, 2:] += boxes[:, :2]
    owner = np.arange(len(sort))
    while len(boxes) > 1:
        # Box order[j] can lie within d_merge of box order[i], i < j, only
        # while j < reach[i]; sweep the axis with fewer such pairs.
        sweeps = []
        for axis in (0, 1):
            order = np.argsort(boxes[:, axis])
            reach = np.searchsorted(boxes[order, axis], boxes[order, axis + 2] + d_merge, "right")
            sweeps.append((reach.sum(), axis, order, reach))
        _, axis, order, reach = min(sweeps)
        # Edges in sweep order: low and high along the sweep axis, then across it.
        low, high, low_across, high_across = np.ascontiguousarray(
            boxes[order][:, [axis, axis + 2, 1 - axis, 3 - axis]].T
        )
        # Number the pairs row by row: row i holds the pairs (i, j), j from
        # i + 1 up to reach[i], and they end before pair number ends[i].
        ends = np.cumsum(reach - np.arange(1, len(boxes) + 1))
        total = int(ends[-1])
        root = np.arange(len(boxes))
        for first in range(0, total, _PAIR_BATCH):
            last = min(first + _PAIR_BATCH, total)
            top, bottom = np.searchsorted(ends, [first, last - 1], "right")
            rows = np.arange(top, bottom + 1)
            taken = np.diff(np.clip(ends[rows], first, last), prepend=first)
            i = np.repeat(rows, taken)
            j = np.arange(first, last) + np.repeat(reach[rows] - ends[rows], taken)
            # low[i] <= low[j], so along the sweep axis only box j can lie past box i.
            along = np.maximum(low[j] - high[i], 0)
            across = np.maximum(low_across[j] - high_across[i], low_across[i] - high_across[j])
            np.maximum(across, 0, out=across)
            near = np.sqrt(along * along + across * across) <= d_merge
            root = union_roots(root, order[i[near]], order[j[near]])
        _, group = np.unique(root, return_inverse=True)
        if group.max() + 1 == len(boxes):
            break
        lo = np.full((int(group.max()) + 1, 2), np.iinfo(np.int64).max)
        hi = np.full_like(lo, np.iinfo(np.int64).min)
        np.minimum.at(lo, group, boxes[:, :2])
        np.maximum.at(hi, group, boxes[:, 2:])
        boxes = np.hstack([lo, hi])
        owner = group[owner]
    boxes[:, 2:] -= boxes[:, :2]
    order = box_order(boxes)
    rank = np.argsort(order)  # each cluster's place in box order
    cuts = np.append(0, np.cumsum(np.bincount(rank[owner], minlength=order.size)))
    return sort[np.argsort(rank[owner], kind="stable")], cuts, boxes[order]


def _cluster_records(regions: list[Region], members, cuts, boxes, scores=None) -> list[Cluster]:
    """``_cluster_boxes``' clusters of ``regions`` as Cluster records, with ``scores`` if given."""
    members, cuts, scores = members.tolist(), cuts.tolist(), scores or [None] * len(boxes)
    return [
        Cluster(members=tuple(regions[k] for k in members[a:b]), bbox=BBox(*box), scores=score)
        for a, b, box, score in zip(cuts[:-1], cuts[1:], boxes.tolist(), scores)
    ]


def gaussian_fine_refine(candidate: Cluster, smap: SaliencyMap) -> Detection:
    """Cut the members of a candidate that fall outside its Gaussian shape prior.

    The prior is the gray-weighted mean and covariance C of all the
    candidate's pixels. A member is kept when its weighted centroid lies
    inside the prior's 2-sigma ellipse: squared Mahalanobis distance at most
    4. The mass-weighted mean of those distances is tr(C^-1 B) <= 2, where
    B <= C is the covariance of the member centroids, so some member is
    always kept. The detection holds the kept members' pixels, and its box
    is their tight box. Every member is kept when the prior is degenerate:
    no pixel has weight, or the pixels are collinear. The gray is read by
    ``gray_at``; ``run_pipeline`` runs the same ``_refine`` on the labeler's gray.
    """
    if candidate.scores is None or candidate.scores.s_p is None:
        raise ValidationError("candidate has no scores; run the coarse stage first")
    areas = [region.area for region in candidate.members]
    pixels = np.concatenate([region.pixels for region in candidate.members])
    return _refine(candidate.scores.s_p, candidate.scores.s_s, areas, pixels, gray_at(smap, pixels))


def _refine(s_p: int, s_s: float, areas, pixels: np.ndarray, g: np.ndarray) -> Detection:
    """``gaussian_fine_refine`` of a candidate scored (s_p, s_s), given its members' pixels and gray.

    The (x, y) ``pixels`` hold the members' pixels one after another, in
    member order, ``areas`` of them each, and ``g`` their gray. The
    detection's pixels are a new array.
    """
    # The moments are taken from the pixels' low corner. Per-column
    # reductions: numpy reduces a (N, 2) array over axis 0 far slower.
    columns = pixels[:, 0], pixels[:, 1]
    low = [int(c.min()) for c in columns]
    reach = max(max(int(c.max()) - c0 for c, c0 in zip(columns, low)), 1)
    # Every moment is an exact integer sum of at most N terms g * x**a * y**b,
    # a + b <= 2, each at most 255 * reach**2. When N such terms stay below
    # _INT64_SUMS the sums, and every partial sum, fit in int64; else they
    # are taken in Python ints. Collinear pixels give det == 0 exactly.
    exact = np.int64 if 255 * reach * reach * g.size < _INT64_SUMS else object
    # Each member is a run of the pixels, and every region has a pixel.
    runs = np.cumsum(areas) - areas
    mass = np.add.reduceat(g, runs, dtype=exact)
    # One pixel-sized offset array and one product array at a time. The
    # offsets are int64, since an integer dot casts any other dtype to a
    # full int64 copy; integer dots never go to BLAS and its threads.
    x = np.subtract(columns[0], low[0], dtype=np.int64)
    gx = np.multiply(g, x, dtype=exact)
    sx, sxx = np.add.reduceat(gx, runs), int(np.dot(gx, x))
    del x
    y = np.subtract(columns[1], low[1], dtype=np.int64)
    sxy = int(np.dot(gx, y))
    del gx
    gy = np.multiply(g, y, dtype=exact)
    sy, syy = np.add.reduceat(gy, runs), int(np.dot(gy, y))
    del gy, y  # before the kept pixels are gathered
    total, sum_x, sum_y = (int(v.sum()) for v in (mass, sx, sy))
    mass, sx, sy = (v.astype(np.float64) for v in (mass, sx, sy))
    # T = total**2 times the prior covariance, in Python integers.
    cxx = total * sxx - sum_x * sum_x
    cxy = total * sxy - sum_x * sum_y
    cyy = total * syy - sum_y * sum_y
    det = cxx * cyy - cxy * cxy
    keep = np.ones(len(areas), bool)
    if det > 0:
        # Row k of u is total * mass_k times member k's centroid offset from
        # the prior mean; its squared distance is u' adj(T) u / (det * mass_k**2).
        u = total * np.column_stack([sx, sy]) - np.outer(mass, (sum_x, sum_y))
        adj = np.array([[cyy, -cxy], [-cxy, cxx]], dtype=np.float64)
        quad = np.einsum("ki,ij,kj->k", u, adj, u)
        keep = (mass > 0.0) & (quad <= 4.0 * det * mass * mass)
    return Detection(s_p, s_s, pixels[np.repeat(keep, areas)])


def run_pipeline(period: EventPeriod, config: DetectorConfig | None = None) -> PipelineResult:
    """Run the full detection pipeline, keeping intermediates.

    Clusters rank by saliency mass, then area, then box order; the top K
    are scored for periodicity over m local slices, and those with s_p >=
    tau_p become the candidates, ranked by descending (s_p, s_s), then box
    order, each refined once.
    """
    config = config or DetectorConfig()
    n, m = config.slicing_for(period)
    smap = saliency_map(period, n)
    labels = salient_labels(smap, config.tau_s)
    members, cuts, rects = clustering = _cluster_boxes(labels.boxes, config.d_merge)
    # Each cluster's pixels and gray become one run, its members' runs in member order:
    # cluster k's run starts at edges[k] and ends at edges[k + 1].
    labels = labels.laid_out(members)
    edges = np.append(labels.starts[members], labels.gray.size)[cuts]
    masses = np.add.reduceat(labels.gray, edges[:-1], dtype=np.int64).tolist()
    # By mass, then size. The clusters come in box order, and sorts are stable: a tie
    # falls to the lower index.
    top = np.lexsort((edges[:-1] - edges[1:], np.negative(masses)))[: config.k_top].tolist()
    # One walk of the period bins all K windows; one extrema search flags them.
    features = _window_features(period, [BBox(*rects[k]) for k in top], m, config.region_margin)
    s_p = dict(zip(top, _periodicity_flags(features, config.smooth_window).sum(axis=1).tolist()))
    ranked = sorted((k for k in top if s_p[k] >= config.tau_p), key=lambda k: (-s_p[k], -masses[k], k))
    # Each candidate with its member areas and its run of pixels and gray.
    spans = [(k, labels.areas[members[cuts[k] : cuts[k + 1]]], slice(*edges[k : k + 2])) for k in ranked]
    detections = [_refine(s_p[k], masses[k], a, labels.pixels[r], labels.gray[r]) for k, a, r in spans]
    candidate_features = [features[top.index(k)] for k in ranked]
    return PipelineResult(detections, smap, candidate_features, labels, clustering, masses, s_p, ranked)


def detect_period(period: EventPeriod, config: DetectorConfig | None = None) -> list[Detection]:
    """Detect rotors in one event period.

    Returns detections ranked by descending (s_p, s_s); empty or quiet
    periods yield an empty list.
    """
    return run_pipeline(period, config).detections
