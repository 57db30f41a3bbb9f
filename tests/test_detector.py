"""Clustering, coarse-to-fine selection, and whole-pipeline behavior."""

import math
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from evrotor import (
    BBox,
    Cluster,
    ConfigurationError,
    Detection,
    DetectorConfig,
    Region,
    RegionScores,
    SaliencyMap,
    SensorGeometry,
    ValidationError,
    cluster_regions,
    connected_components,
    detect_period,
    gaussian_fine_refine,
    generate_scene,
    run_pipeline,
    saliency_map,
    threshold_mask,
    BackgroundSpec,
    EventPeriod,
    PropellerSpec,
    SynthScene,
    benchmark_period,
    generate_background_events,
    generate_propeller_events,
    match_detections,
    saliency_score,
)
from evrotor import detector, features, saliency
from evrotor.features import _periodicity_flags, _window_features
from evrotor.saliency import salient_regions
from evrotor.metrics import iou

from conftest import VGA, make_period
from oracles import (
    bbox_union,
    gaussian_keep,
    greedy_union_clusters,
    rect_gap,
    reference_pipeline,
    sparse_saliency,
)


def rect_region(x, y, w, h):
    return Region(np.array([(xx, yy) for yy in range(y, y + h) for xx in range(x, x + w)]))


def cluster_count(rects, d_merge):
    return len(cluster_regions([rect_region(*r) for r in rects], d_merge))


# Region layouts that make clustering costly, as (rects, d_merge, cluster boxes).
ADVERSARIAL_LAYOUTS = {
    # A 1x3 seed, then 1x1 regions alternating between rows 0 and 2. Each one
    # touches only the union box of all the earlier ones: one pass per link.
    "chain of 401": (
        [(0, 0, 1, 3)] + [(x, 2 - 2 * (x % 2), 1, 1) for x in range(1, 401)],
        0.0,
        [(0, 0, 401, 3)],
    ),
    # Pixels two apart: each is 1 from its row and column neighbours.
    "lattice of 9800": (
        [(2 * i, 2 * j, 1, 1) for j in range(98) for i in range(100)],
        1.0,
        [(0, 0, 199, 195)],
    ),
    # Touching pairs of pixels, 1 apart: 5000 clusters, all on one row or column.
    "row of 10000": (
        [(i + i // 2, 0, 1, 1) for i in range(10_000)],
        0.0,
        [(3 * k, 0, 2, 1) for k in range(5000)],
    ),
    "column of 10000": (
        [(0, i + i // 2, 1, 1) for i in range(10_000)],
        0.0,
        [(0, 3 * k, 1, 2) for k in range(5000)],
    ),
}


class TestRectMinDistance:
    """The box-to-box distance that decides a merge, seen through cluster_regions."""

    def test_overlapping_boxes(self):
        assert cluster_count([(0, 0, 10, 10), (5, 5, 10, 10)], 0.0) == 1

    def test_three_four_five(self):
        # gap (3, 4): exactly 5 px
        assert cluster_count([(0, 0, 10, 10), (13, 14, 10, 10)], 5.0) == 1
        assert cluster_count([(0, 0, 10, 10), (13, 14, 10, 10)], 4.999) == 2

    def test_shared_edge(self):
        assert cluster_count([(0, 0, 10, 10), (10, 0, 10, 10)], 0.0) == 1

    def test_symmetry(self):
        # gap (25, 34) is 42.2 px; the input order must not matter on either side
        a, b = (1, 2, 3, 4), (29, 40, 5, 6)
        for d_merge, expected in ((42.3, 1), (42.1, 2)):
            assert cluster_count([a, b], d_merge) == cluster_count([b, a], d_merge) == expected


class TestClustering:
    def test_close_regions_merge(self):
        regions = [rect_region(0, 0, 10, 10), rect_region(0, 20, 10, 10)]
        clusters = cluster_regions(regions, 50.0)
        assert len(clusters) == 1
        assert clusters[0].bbox == BBox(0, 0, 10, 30)
        assert len(clusters[0].members) == 2

    def test_distant_regions_stay_apart(self):
        regions = [rect_region(0, 0, 10, 10), rect_region(0, 70, 10, 10)]
        clusters = cluster_regions(regions, 50.0)
        assert [c.bbox.as_tuple() for c in clusters] == [(0, 0, 10, 10), (0, 70, 10, 10)]

    def test_chain_merging_is_single_linkage(self):
        # A-B and B-C are 30 apart; A-C is 70 apart. The chain still unites them.
        regions = [
            rect_region(0, 0, 10, 10),
            rect_region(0, 40, 10, 10),
            rect_region(0, 80, 10, 10),
        ]
        clusters = cluster_regions(regions, 50.0)
        assert len(clusters) == 1
        assert clusters[0].bbox == BBox(0, 0, 10, 90)

    def test_quadcopter_corner_blobs_form_one_cluster(self):
        blobs = [
            rect_region(0, 0, 10, 10),
            rect_region(40, 0, 10, 10),
            rect_region(0, 40, 10, 10),
            rect_region(40, 40, 10, 10),
        ]
        clusters = cluster_regions(blobs, 50.0)
        assert len(clusters) == 1
        assert clusters[0].bbox == BBox(0, 0, 50, 50)
        assert clusters[0].area == 400

    def test_empty_input(self):
        assert cluster_regions([], 50.0) == []

    def test_negative_reach_is_rejected(self):
        for d_merge in (-1.0, float("nan")):
            with pytest.raises(ConfigurationError):
                cluster_regions([rect_region(0, 0, 2, 2)], d_merge)

    def test_zero_reach_merges_only_touching_boxes(self):
        regions = [
            rect_region(0, 0, 5, 5),
            rect_region(5, 0, 5, 5),  # shares an edge: distance 0
            rect_region(11, 0, 5, 5),
        ]
        clusters = cluster_regions(regions, 0.0)
        assert [c.bbox.as_tuple() for c in clusters] == [(0, 0, 10, 5), (11, 0, 5, 5)]

    def test_matches_brute_force_oracle(self, monkeypatch):
        rng = np.random.default_rng(42)
        # Gaps exactly at the reach: a (30, 40) gap is 50 px, a (3, 4) gap 5 px.
        cases = [
            ([(0, 0, 10, 10), (40, 50, 10, 10)], 50.0),
            ([(0, 0, 10, 10), (40, 50, 10, 10)], 49.999),
            ([(0, 0, 10, 10), (13, 14, 10, 10)], 5.0),
            ([(0, 0, 10, 10), (13, 14, 10, 10)], 4.999),
        ]
        for _ in range(60):
            count = int(rng.integers(1, 11))
            rects = []
            seen = set()
            while len(rects) < count:
                rect = (
                    int(rng.integers(0, 260)),
                    int(rng.integers(0, 260)),
                    int(rng.integers(1, 41)),
                    int(rng.integers(1, 41)),
                )
                key = (rect[1], rect[0], rect[3], rect[2])
                if key not in seen:
                    seen.add(key)
                    rects.append(rect)
            cases.append((rects, float(rng.choice([0.0, 10.0, 30.0, 60.0]))))
        # Layouts of ten boxes have up to 45 candidate pairs per sweep, so
        # batches of 1 and 4 pairs split a sweep, and rows of pairs, many times.
        for batch in (detector._PAIR_BATCH, 4, 1):
            monkeypatch.setattr(detector, "_PAIR_BATCH", batch)
            for rects, d_merge in cases:
                got = cluster_regions([rect_region(*r) for r in rects], d_merge)
                got_sig = sorted(
                    (
                        tuple(sorted(m.bbox.as_tuple() for m in c.members)),
                        c.bbox.as_tuple(),
                    )
                    for c in got
                )
                want = greedy_union_clusters(rects, d_merge)
                want_sig = sorted(
                    (tuple(sorted(rects[i] for i in members)), rect)
                    for members, rect in want
                )
                assert got_sig == want_sig

    def test_partition_and_separation_properties(self):
        rng = np.random.default_rng(9)
        rects = [
            (int(rng.integers(0, 200)), int(rng.integers(0, 200)),
             int(rng.integers(2, 30)), int(rng.integers(2, 30)))
            for _ in range(8)
        ]
        regions = [rect_region(*r) for r in rects]
        clusters = cluster_regions(regions, 25.0)
        assert sum(len(c.members) for c in clusters) == len(regions)
        for c in clusters:
            box = c.members[0].bbox
            for member in c.members[1:]:
                box = bbox_union(box, member.bbox)
            assert box == c.bbox
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                gap = rect_gap(clusters[i].bbox.as_tuple(), clusters[j].bbox.as_tuple())
                assert gap > 25.0

    def test_noise_scene_clusters_quickly(self):
        # Uniform noise labels into about 2,200 small regions that chain into
        # one cluster; the cost must stay far from quadratic in merges.
        scene = SynthScene(
            sensor=VGA,
            duration=20_000,
            background=BackgroundSpec(noise_rate=12_000.0),
            seed=0,
        )
        period, _ = generate_scene(scene)
        regions = connected_components(threshold_mask(saliency_map(period, 20), 10))
        assert len(regions) > 2000
        started = time.perf_counter()
        clusters = cluster_regions(regions, 50.0)
        assert time.perf_counter() - started < 2.0
        assert sum(len(c.members) for c in clusters) == len(regions)

    @pytest.mark.parametrize("name", list(ADVERSARIAL_LAYOUTS))
    def test_adversarial_layouts_cluster_in_bounded_time_and_memory(self, name):
        layout, d_merge, expected = ADVERSARIAL_LAYOUTS[name]
        regions = [rect_region(*rect) for rect in layout]
        started = time.perf_counter()
        clusters = cluster_regions(regions, d_merge)
        elapsed = time.perf_counter() - started
        tracemalloc.start()
        try:
            cluster_regions(regions, d_merge)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [c.bbox.as_tuple() for c in clusters] == expected
        assert sum(len(c.members) for c in clusters) == len(regions)
        assert elapsed < 1.0
        assert peak < 32 * 2**20


# A hand-built scene with one periodic blob and one constant blob. The
# periodic blob cycles through four positive patterns (horizontal bar,
# vertical bar, diagonal, short bar) so density, structure, and principal
# direction all repeat every four fine slices; the constant blob repeats one
# full-block pattern, which pins its periodicity score to exactly zero.
BLOB_SENSOR = SensorGeometry(200, 200)
BLOB_DURATION = 20_000
BLOB_CONFIG = DetectorConfig(n_slices=10, m_slices=20, region_margin=0)


def periodic_blob_rows(ox, oy):
    size = 12
    patterns = [
        [(x, y) for y in (5, 6) for x in range(size)],          # 24 px, horizontal
        [(x, y) for y in range(size) for x in (5, 6, 7)],       # 36 px, vertical
        [(j, j) for j in range(size)],                          # 12 px, diagonal
        [(x, y) for y in (2, 3, 4) for x in range(6)],          # 18 px, horizontal
    ]
    rows = []
    for j in range(20):
        t = j * 1000 + 500
        rows += [(t, ox + x, oy + y, 1) for x, y in patterns[j % 4]]
    for s in range(10):
        t = s * 2000 + 700
        rows += [(t, ox + x, oy + y, 0) for y in range(size) for x in range(size)]
    return rows


def constant_blob_rows(ox, oy):
    size = 10
    cells = [(x, y) for y in range(size) for x in range(size)]
    rows = []
    for j in range(20):
        t = j * 1000 + 500
        rows += [(t, ox + x, oy + y, 1) for x, y in cells]
    for s in range(10):
        t = s * 2000 + 700
        rows += [(t, ox + x, oy + y, 0) for x, y in cells]
    return rows


def blob_period(periodic_at=(8, 8), constant_at=(8, 120)):
    rows = periodic_blob_rows(*periodic_at) + constant_blob_rows(*constant_at)
    return make_period(rows, sensor=BLOB_SENSOR, duration=BLOB_DURATION)


class TestCoarseStage:
    def test_periodicity_threshold_separates_the_blobs(self):
        period = blob_period()
        result = run_pipeline(period, BLOB_CONFIG)
        assert len(result.clusters) == 2
        by_pos = {c.bbox.as_tuple(): c for c in result.clusters}
        periodic = by_pos[(8, 8, 12, 12)]
        constant = by_pos[(8, 120, 10, 10)]
        assert constant.scores.s_p == 0
        assert periodic.scores.s_p >= BLOB_CONFIG.tau_p
        assert [c.bbox.as_tuple() for c in result.candidates] == [(8, 8, 12, 12)]
        assert len(result.detections) == 1
        assert result.detections[0].bbox == BBox(8, 8, 12, 12)

    def test_slicing_is_resolved_once_per_period(self, monkeypatch):
        calls = []
        resolve = DetectorConfig.slicing_for

        def counted(self, period):
            calls.append(period)
            return resolve(self, period)

        monkeypatch.setattr(DetectorConfig, "slicing_for", counted)
        assert len(run_pipeline(blob_period(), BLOB_CONFIG).detections) == 1
        assert len(calls) == 1

    def test_candidates_rank_by_periodicity_then_mass(self):
        period = blob_period()
        config = DetectorConfig(n_slices=10, m_slices=20, region_margin=0, tau_p=0)
        result = run_pipeline(period, config)
        # the constant blob has the larger saliency mass but the lower s_p
        assert len(result.detections) == 2
        first, second = result.detections
        assert first.bbox == BBox(8, 8, 12, 12)
        assert first.s_p > second.s_p
        assert second.s_s > first.s_s

    def test_top_k_cut_happens_before_periodicity(self):
        period = blob_period()
        config = DetectorConfig(n_slices=10, m_slices=20, region_margin=0, k_top=1)
        result = run_pipeline(period, config)
        # K=1 keeps only the heavier constant blob, which then fails tau_p.
        assert result.candidates == []
        assert result.detections == []

    def test_cluster_mass_sums_the_member_scores(self):
        # Dense noise labels into hundreds of regions; at d_merge 5 some
        # clusters gather several of them.
        scene = SynthScene(
            sensor=VGA,
            duration=20_000,
            background=BackgroundSpec(noise_rate=8_000.0),
            seed=3,
        )
        period, _ = generate_scene(scene)
        result = run_pipeline(period, DetectorConfig(tau_s=10, d_merge=5.0))
        assert len(result.regions) >= 200
        assert any(len(c.members) > 1 for c in result.clusters)
        gray = result.saliency.gray
        for cluster in result.clusters:
            s_s = cluster.scores.s_s
            assert type(s_s) is int
            assert s_s == sum(saliency_score(r, result.saliency) for r in cluster.members)
            assert s_s == sum(
                int(gray[r.pixels[:, 1], r.pixels[:, 0]].sum(dtype=np.int64))
                for r in cluster.members
            )

    def test_coarse_select_returns_scored_clusters(self):
        result = run_pipeline(blob_period(), BLOB_CONFIG)
        candidates = result.candidates
        assert len(candidates) == 1
        assert candidates[0].scores.s_p is not None
        assert candidates[0].scores.s_p >= BLOB_CONFIG.tau_p
        assert len(result.candidate_features) == len(candidates)

    def test_raising_tau_p_only_removes_detections(self):
        period = blob_period()
        previous = None
        for tau_p in range(7):
            config = DetectorConfig(
                n_slices=10, m_slices=20, region_margin=0, tau_p=tau_p
            )
            boxes = {d.bbox.as_tuple() for d in detect_period(period, config)}
            if previous is not None:
                assert boxes <= previous
            previous = boxes

    def test_translation_equivariance_of_detections(self):
        base = detect_period(blob_period((8, 8), (8, 120)), BLOB_CONFIG)
        moved = detect_period(blob_period((15, 11), (15, 123)), BLOB_CONFIG)
        assert len(base) == len(moved) == 1
        bx, by, bw, bh = base[0].bbox.as_tuple()
        assert moved[0].bbox.as_tuple() == (bx + 7, by + 3, bw, bh)
        assert moved[0].s_p == base[0].s_p


def record_path(period, config):
    """Clusters and detections by the public one-record calls, ranked as ``run_pipeline`` ranks.

    ``salient_regions``, ``cluster_regions``, ``saliency_score`` per member and
    ``gaussian_fine_refine`` per candidate, each reading gray by ``gray_at``.
    """
    n, m = config.slicing_for(period)
    smap = saliency_map(period, n)
    clusters = cluster_regions(salient_regions(smap, config.tau_s), config.d_merge)
    mass = [sum(saliency_score(region, smap) for region in c.members) for c in clusters]
    top = sorted(range(len(clusters)), key=lambda k: (-mass[k], -clusters[k].area))[: config.k_top]
    windows = _window_features(period, [clusters[k].bbox for k in top], m, config.region_margin)
    s_p = dict(zip(top, _periodicity_flags(windows, config.smooth_window).sum(axis=1).tolist()))
    for k, cluster in enumerate(clusters):
        cluster.scores = RegionScores(s_s=mass[k], s_p=s_p.get(k))
    passed = [k for k in top if s_p[k] >= config.tau_p]
    passed.sort(key=lambda k: (-s_p[k], -mass[k], k))
    return clusters, [gaussian_fine_refine(clusters[k], smap) for k in passed]


def lattice_period():
    """2 000 isolated pixels in 80 blocks of 5 x 5, 3 px apart, the blocks 13 px apart.

    Each pixel fires a positive event and, 50 us later, a negative one in
    slices 0-3 of 20 and in each later slice with probability 0.3.
    """
    rng = np.random.default_rng(5)
    bx, by, i, j = np.meshgrid(np.arange(10), np.arange(8), np.arange(5), np.arange(5))
    xs, ys = (25 * bx + 3 * i).ravel(), (25 * by + 3 * j).ravel()
    fires = rng.random((xs.size, 20)) < 0.3
    fires[:, :4] = True
    k, s = np.nonzero(fires)
    t = s * 1000 + rng.integers(0, 900, s.size)
    return EventPeriod(np.concatenate([t, t + 50]), np.tile(xs[k], 2), np.tile(ys[k], 2),
                       np.repeat([1, 0], s.size), t_start=0, duration=20_000,
                       sensor=SensorGeometry(260, 200))


def flicker_clutter_periods():
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.pop(0)
    return [item.period for item in WORKLOADS["flicker_clutter"].build(1)]


class TestArrayPipeline:
    def test_runs_on_the_labelers_arrays_as_the_record_path_does(self, monkeypatch):
        # Blocks of the lattice are clusters at reach 2; at the default reach all
        # 2 000 regions form one cluster. tau_p 0 refines every top-K cluster.
        lattice = lattice_period()
        runs = [(period, DetectorConfig()) for period in flicker_clutter_periods()]
        runs += [(lattice, DetectorConfig(d_merge=2.0, tau_p=0, k_top=8)),
                 (lattice, DetectorConfig(tau_p=0))]
        want = [record_path(period, config) for period, config in runs]

        def refuse(*args):
            raise AssertionError("the detect path must not call this")

        for module in (saliency, features, detector):
            monkeypatch.setattr(module, "gray_at", refuse)
        monkeypatch.setattr(detector, "cluster_regions", refuse)
        assert not hasattr(features, "saliency_masses")
        assert len(run_pipeline(lattice).regions) == 2000
        sizes = set()
        for (period, config), (clusters, detections) in zip(runs, want):
            result = run_pipeline(period, config)
            assert [(c.bbox, c.scores, len(c.members)) for c in result.clusters] == [
                (c.bbox, c.scores, len(c.members)) for c in clusters
            ]
            assert [type(c.scores.s_s) for c in result.clusters] == [int] * len(clusters)
            assert [(d.bbox, d.s_p, d.s_s) for d in result.detections] == [
                (d.bbox, d.s_p, d.s_s) for d in detections
            ]
            for got, expected in zip(result.detections, detections):
                assert np.array_equal(got.pixels, expected.pixels)
            sizes.add((len(result.clusters), len(result.detections)))
        assert {(80, 8), (1, 1)} <= sizes


def gray_map(shape, regions, level=200):
    gray = np.zeros(shape, np.uint8)
    for region in regions:
        gray[region.pixels[:, 1], region.pixels[:, 0]] = level
    return sparse_saliency(gray)


def disk_region(cx, cy, radius):
    cells = [
        (x, y)
        for y in range(cy - radius, cy + radius + 1)
        for x in range(cx - radius, cx + radius + 1)
        if (x - cx) ** 2 + (y - cy) ** 2 <= radius * radius
    ]
    return Region(np.array(cells))


def line_region(cells):
    return Region(np.array(cells))


class TestDetectionRecord:
    def test_box_is_the_tight_box_of_its_pixels(self):
        detection = Detection(4, 10.0, np.array([[1, 1]]))
        assert detection.bbox == BBox(1, 1, 1, 1)
        with pytest.raises(TypeError):
            Detection(BBox(0, 0, 50, 50), 4, 10.0, np.array([[1, 1]]))

    @pytest.mark.parametrize(
        "s_p, s_s, message",
        [(2.7, 1.0, "s_p must be"), (9, 1.0, "s_p must be"), (4, -5.0, "s_s must be"),
         (4, math.nan, "s_s must be")],
    )
    def test_scores_obey_region_scores(self, s_p, s_s, message):
        with pytest.raises(ValidationError, match=message):
            Detection(s_p, s_s, np.array([[0, 0]]))

    def test_keeps_the_scores_region_scores_loads(self):
        detection = Detection(3.0, 1.0, np.array([[0, 0]]))
        assert detection.s_p == RegionScores(1.0, 3.0).s_p == 3 and type(detection.s_p) is int

    def test_refuses_an_unscored_cluster(self):
        # RegionScores takes s_p=None for a cluster not yet scored; a detection
        # must not, or write_detections fails on it with a bare TypeError.
        with pytest.raises(ValidationError, match="needs an s_p"):
            Detection(None, 1.0, np.array([[0, 0]]))

    @pytest.mark.parametrize("pixels", [[[2**31, 7]], [[0.5, 7]], [[7, math.inf]]])
    def test_refuses_pixels_the_cast_would_change(self, pixels):
        # [[2**31, 7]] would wrap to a box at x = -2**31.
        with pytest.raises(ValidationError, match="int32 range"):
            Detection(3, 10.0, np.array(pixels))

    @pytest.mark.parametrize("pixels", [np.empty((0, 2)), np.zeros((2, 3)), np.zeros(2)])
    def test_rejects_malformed_pixels(self, pixels):
        with pytest.raises(ValidationError, match="non-empty"):
            Detection(4, 1.0, pixels)


class TestFineStage:
    def test_streak_is_dropped_and_box_tightens(self):
        disk = disk_region(30, 30, 10)
        streak = line_region([(60, y) for y in range(10, 60)])
        candidate = Cluster(
            members=(disk, streak),
            bbox=bbox_union(disk.bbox, streak.bbox),
            scores=RegionScores(s_s=5000.0, s_p=5),
        )
        smap = gray_map((80, 80), [disk, streak])
        detection = gaussian_fine_refine(candidate, smap)
        assert detection.bbox == disk.bbox
        assert detection.pixels.shape[0] == disk.area
        assert detection.s_p == 5

    def test_wide_scatter_is_dropped_too(self):
        # The centroid of an L-shaped 1-px outline lies outside the 2-sigma
        # ellipse of the prior fitted to the disk and the outline together.
        disk = disk_region(30, 30, 10)
        outline = line_region(
            [(x, 60) for x in range(50, 78)] + [(50, y) for y in range(61, 78)]
        )
        candidate = Cluster(
            members=(disk, outline),
            bbox=bbox_union(disk.bbox, outline.bbox),
            scores=RegionScores(s_s=5000.0, s_p=4),
        )
        detection = gaussian_fine_refine(candidate, gray_map((90, 90), [disk, outline]))
        assert detection.bbox == disk.bbox

    def test_degenerate_prior_keeps_every_member(self):
        # A lone straight streak is collinear: the prior is degenerate. The
        # box is the kept pixels' tight box, whatever box the candidate holds.
        streak = line_region([(20, y) for y in range(5, 55)])
        candidate = Cluster(
            members=(streak,),
            bbox=BBox(0, 0, 70, 70),
            scores=RegionScores(s_s=100.0, s_p=3),
        )
        detection = gaussian_fine_refine(candidate, gray_map((80, 80), [streak]))
        assert detection.bbox == BBox(20, 5, 1, 50)
        assert detection.pixels.shape[0] == streak.area

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 50), st.integers(1, 12),
                              st.integers(1, 12)), min_size=1, max_size=8))
    def test_keeping_every_member_gives_the_clusters_box(self, rects):
        # A cluster's box is the union of its members' tight boxes, so the
        # tight box of all its pixels: the old fallback rule is a consequence.
        regions = [rect_region(*rect) for rect in rects]
        smap = gray_map((64, 64), regions)
        for cluster in cluster_regions(regions, d_merge=6.0):
            cluster.scores = RegionScores(s_s=1.0, s_p=3)
            detection = gaussian_fine_refine(cluster, smap)
            if detection.pixels.shape[0] == cluster.area:
                assert detection.bbox == cluster.bbox

    def test_compact_blob_is_kept(self):
        disk = disk_region(25, 25, 8)
        candidate = Cluster(
            members=(disk,), bbox=disk.bbox, scores=RegionScores(s_s=900.0, s_p=6)
        )
        detection = gaussian_fine_refine(candidate, gray_map((60, 60), [disk]))
        assert detection.bbox == disk.bbox
        assert detection.pixels.shape[0] == disk.area

    @pytest.mark.parametrize("pixel", [(-1, 1), (1, -1), (4, 1), (1, 4)])
    def test_pixels_outside_the_map_are_rejected(self, pixel):
        # Negative coordinates must not wrap around to the far edge of the map.
        region = line_region([(1, 1), (2, 1), (1, 2), pixel])
        candidate = Cluster(
            members=(region,), bbox=region.bbox, scores=RegionScores(s_s=800.0, s_p=4)
        )
        smap = sparse_saliency(np.full((4, 4), 200))
        with pytest.raises(ValidationError, match="outside the saliency map"):
            gaussian_fine_refine(candidate, smap)

    def test_unscored_candidate_is_rejected(self):
        disk = disk_region(25, 25, 8)
        with pytest.raises(ValidationError):
            gaussian_fine_refine(Cluster(members=(disk,), bbox=disk.bbox), gray_map((60, 60), [disk]))

    def test_candidate_above_10k_pixels_matches_the_oracle(self):
        # Moments over more than 10k pixels, where a float64 dot would run in BLAS.
        rng = np.random.default_rng(4)
        members = (
            disk_region(100, 100, 64),
            line_region([(200, y) for y in range(10, 190)]),
            rect_region(20, 180, 12, 12),
            disk_region(175, 40, 6),
        )
        gray = np.zeros((220, 240), np.uint8)
        for member in members:
            x, y = member.pixels[:, 0], member.pixels[:, 1]
            gray[y, x] = rng.integers(1, 256, x.size)
        bbox = members[0].bbox
        for member in members[1:]:
            bbox = bbox_union(bbox, member.bbox)
        candidate = Cluster(members=members, bbox=bbox, scores=RegionScores(s_s=1.0, s_p=4))
        assert sum(member.area for member in members) > 13_000
        detection = gaussian_fine_refine(candidate, sparse_saliency(gray))
        expected = gaussian_keep([member.pixels.tolist() for member in members], gray)
        detected = set(map(tuple, detection.pixels.tolist()))
        kept = [tuple(member.pixels[0].tolist()) in detected for member in members]
        assert all(abs(d2 - 4.0) > 1e-3 for _, d2 in expected)
        assert kept == [want for want, _ in expected] == [True, False, False, False]
        assert detection.bbox == members[0].bbox
        assert detection.pixels.shape[0] == members[0].area

    def test_memory_per_candidate_pixel(self):
        # Four disks, 20 100 pixels: five float64 arrays of them took 48 B a pixel.
        rng = np.random.default_rng(0)
        centers = ((60, 60), (200, 80), (120, 300), (330, 330))
        members = tuple(disk_region(cx, cy, 40) for cx, cy in centers)
        gray = np.zeros((400, 400), np.uint8)
        for member in members:
            gray[member.pixels[:, 1], member.pixels[:, 0]] = rng.integers(1, 256, member.area)
        smap = sparse_saliency(gray)
        candidate = Cluster(members=members, bbox=BBox(0, 0, 400, 400),
                            scores=RegionScores(s_s=1.0, s_p=4))
        tracemalloc.start()
        try:
            detection = gaussian_fine_refine(candidate, smap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert candidate.area == 20_100
        assert peak <= 32 * 20_100
        expected = gaussian_keep([member.pixels.tolist() for member in members], gray)
        kept = [member for member, (inside, _) in zip(members, expected) if inside]
        assert np.array_equal(detection.pixels, np.concatenate([m.pixels for m in kept]))

    def test_collinear_members_60000_px_apart_keep_every_member(self):
        # Pixels on one anti-diagonal of a 65535 x 65535 map, with random
        # grays: the prior is degenerate, so the oracle keeps every member.
        # Sums of g * x * x pass 2**54 here, and the float64 sums refinement
        # once took rounded to a det > 0 that cut the two far members.
        rng = np.random.default_rng(4)
        members = tuple(
            Region(np.column_stack([t, 65534 - t]))
            for t in (np.arange(0, 32000), np.arange(62000, 62010), np.arange(65500, 65535))
        )
        pixels = np.concatenate([member.pixels for member in members])
        levels = rng.integers(1, 256, len(pixels))
        ids = pixels[:, 1].astype(np.int64) * 65535 + pixels[:, 0]
        order = np.argsort(ids)
        smap = SaliencyMap((65535, 65535), ids[order], levels[order], n_slices=255)
        gray = {}
        for (x, y), level in zip(pixels.tolist(), levels.tolist()):
            gray.setdefault(y, {})[x] = level
        assert gaussian_keep([member.pixels.tolist() for member in members], gray) is None
        candidate = Cluster(members=members, bbox=BBox(0, 0, 65535, 65535),
                            scores=RegionScores(s_s=1.0, s_p=4))
        detection = gaussian_fine_refine(candidate, smap)
        assert np.array_equal(detection.pixels, pixels)

    @pytest.mark.parametrize("bound", ["at", "above"])
    def test_moments_past_the_int64_bound_are_taken_in_python_ints(self, monkeypatch, bound):
        # The bound patched to this candidate's own 255 * reach**2 * N: at it
        # the moments must leave int64, just above it they stay. Either way
        # the detection is the one at the default bound, and the oracle's.
        rng = np.random.default_rng(4)
        members = (
            disk_region(100, 100, 64),
            line_region([(200, y) for y in range(10, 190)]),
            rect_region(20, 180, 12, 12),
            disk_region(175, 40, 6),
        )
        gray = np.zeros((220, 240), np.uint8)
        for member in members:
            gray[member.pixels[:, 1], member.pixels[:, 0]] = rng.integers(1, 256, member.area)
        candidate = Cluster(members=members, bbox=BBox(0, 0, 240, 220),
                            scores=RegionScores(s_s=1.0, s_p=4))
        smap = sparse_saliency(gray)
        want = gaussian_fine_refine(candidate, smap).pixels
        pixels = np.concatenate([member.pixels for member in members])
        reach = int((pixels - pixels.min(axis=0)).max())
        limit = 255 * reach**2 * len(pixels)
        monkeypatch.setattr(detector, "_INT64_SUMS", limit if bound == "at" else limit + 1)
        dot, dtypes = np.dot, []

        def spy(a, b):
            dtypes.append(a.dtype)
            return dot(a, b)

        monkeypatch.setattr(np, "dot", spy)
        got = gaussian_fine_refine(candidate, smap).pixels
        assert dtypes == [np.dtype(object if bound == "at" else np.int64)] * 3
        assert np.array_equal(got, want)
        expected = gaussian_keep([member.pixels.tolist() for member in members], gray)
        kept = [member for member, (inside, _) in zip(members, expected) if inside]
        assert np.array_equal(got, np.concatenate([m.pixels for m in kept]))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_kept_members_match_the_oracle(self, data):
        # Members are small pixel clumps around their own origins, or all
        # pixels lie on one line; one member may carry no weight at all.
        if data.draw(st.integers(0, 3)) == 3:
            dx, dy = data.draw(st.sampled_from([(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 3)]))
            origins = [(6, 12)] * 5
            spots = [(k, step * dx, step * dy) for k, step in data.draw(
                st.lists(st.tuples(st.integers(0, 4), st.integers(0, 12)), min_size=2, max_size=13)
            )]
        else:
            origins = data.draw(st.lists(st.tuples(st.integers(0, 56), st.integers(0, 56)),
                                         min_size=5, max_size=5))
            spots = data.draw(st.lists(
                st.tuples(st.integers(0, 4), st.integers(0, 7), st.integers(0, 7)),
                min_size=4, max_size=60,
            ))
        owner = {}
        for k, step_x, step_y in spots:
            owner.setdefault((origins[k][0] + step_x, origins[k][1] + step_y), k)
        groups = [[c for c, k in owner.items() if k == g] for g in sorted(set(owner.values()))]
        silent = data.draw(st.integers(-1, len(groups) - 1))
        levels = [[0 if g == silent else data.draw(st.integers(1, 255)) for _ in group]
                  for g, group in enumerate(groups)]
        gray = np.zeros((64, 64), np.uint8)
        for group, group_levels in zip(groups, levels):
            for (x, y), level in zip(group, group_levels):
                gray[y, x] = level
        members = tuple(line_region(group) for group in groups)
        bbox = members[0].bbox
        for member in members[1:]:
            bbox = bbox_union(bbox, member.bbox)
        smap = sparse_saliency(gray)
        candidate = Cluster(members=members, bbox=bbox, scores=RegionScores(s_s=1.0, s_p=3))
        detection = gaussian_fine_refine(candidate, smap)

        box = detection.bbox
        assert bbox.x <= box.x and bbox.y <= box.y
        assert box.right <= bbox.right and box.bottom <= bbox.bottom
        detected = set(map(tuple, detection.pixels.tolist()))
        kept = [tuple(member.pixels[0].tolist()) in detected for member in members]
        assert any(kept)
        expected = gaussian_keep(groups, gray)
        if expected is None:
            assert box == bbox and len(detected) == len(owner)
            return
        for got, (want, d2) in zip(kept, expected):
            if abs(d2 - 4.0) > 4e-9:
                assert got == want
        if all(kept):
            assert box == bbox


def flicker_blob_events(rng, center, radius, duration):
    """A disk of pixels that flickers at random about every 2-4 ms.

    Each burst fires a positive, then a negative event at every pixel within
    200 us, so both polarities land in one 1 ms saliency slice.
    """
    cx, cy = center
    disk = [(cx + dx, cy + dy)
            for dx in range(-radius, radius + 1) for dy in range(-radius, radius + 1)
            if dx * dx + dy * dy <= radius * radius + 1]
    px, py = (np.array(axis) for axis in zip(*disk))
    starts = rng.uniform(0, duration - 250, rng.poisson(rng.uniform(0.25, 0.5) * duration / 1000))
    t = [t0 + np.concatenate([rng.uniform(0, 100, px.size), rng.uniform(100, 200, px.size)])
         for t0 in starts]
    bursts = len(starts)
    return (
        np.concatenate([np.empty(0)] + t).astype(np.int64),
        np.tile(np.concatenate([px, px]), bursts),
        np.tile(np.concatenate([py, py]), bursts),
        np.tile(np.repeat(np.array([1, 0], np.uint8), px.size), bursts),
    )


def merged_clutter_scene(seed, blob_radii):
    """A rotor with three flickering blobs 10-45 px outside its ground-truth box.

    The blobs sit within d_merge = 50 of the rotor, so they join its cluster
    and widen the candidate box; only refinement can cut them away.
    """
    duration = 20_000
    rng = np.random.default_rng(seed)
    radius = int(rng.integers(30, 61))
    reach = radius + 46 + max(blob_radii)
    cx = int(rng.integers(reach, VGA.width - reach))
    cy = int(rng.integers(reach, VGA.height - reach))
    prop = PropellerSpec(center=(cx, cy), radius=radius, phase=float(rng.uniform(0, 2 * math.pi)))
    t, x, y, p, gt = generate_propeller_events(prop, duration, seed, VGA)
    background = BackgroundSpec(edge_count=2, speed=2.0, noise_rate=10.0)
    columns = [(t, x, y, p), generate_background_events(background, duration, seed + 1, VGA)]
    for _ in range(3):
        blob_radius = int(rng.integers(blob_radii[0], blob_radii[1] + 1))
        gap = int(rng.integers(10, 46))
        along = int(rng.integers(-radius, radius + 1))
        center = [
            (gt.x - gap, cy + along),
            (gt.right - 1 + gap, cy + along),
            (cx + along, gt.y - gap),
            (cx + along, gt.bottom - 1 + gap),
        ][int(rng.integers(4))]
        columns.append(flicker_blob_events(rng, center, blob_radius, duration))
    t, x, y, p = (np.concatenate([c[i] for c in columns]) for i in range(4))
    order = np.argsort(t, kind="stable")
    period = EventPeriod(
        t[order], x[order], y[order], p[order], t_start=0, duration=duration, sensor=VGA
    )
    return period, gt


class TestRefinementScenes:
    def test_fragmented_small_rotor_is_kept_whole(self):
        # At 50k events the rotor has radius 15 and breaks into dozens of
        # member regions; all of them belong to the one rotor.
        for seed in range(60):
            period, annotation = benchmark_period(50_000, seed=seed)
            boxes = [d.bbox for d in detect_period(period)]
            result = match_detections(boxes, [b.bbox for b in annotation.boxes], 0.4)
            assert (result.fn, result.fp) == (0, 0), seed

    @pytest.mark.parametrize("blob_radii", [(1, 3), (4, 7)])
    def test_merged_clutter_is_cut_from_the_rotor(self, blob_radii):
        for seed in range(60):
            period, gt = merged_clutter_scene(seed, blob_radii)
            boxes = [d.bbox for d in detect_period(period)]
            assert match_detections(boxes, [gt], 0.4).fn == 0, seed


def default_scene(seed=0, edges=2, noise=0.0, props=None):
    if props is None:
        props = (PropellerSpec(center=(320, 240), radius=50),)
    return SynthScene(
        sensor=VGA,
        duration=20_000,
        propellers=props,
        background=BackgroundSpec(edge_count=edges, speed=2.0, noise_rate=noise),
        seed=seed,
    )


class TestEndToEnd:
    def test_empty_period_yields_no_detections(self):
        assert detect_period(make_period([], sensor=VGA, duration=20_000)) == []

    def test_single_propeller_is_found_with_good_overlap(self):
        period, annotation = generate_scene(default_scene())
        detections = detect_period(period)
        assert len(detections) == 1
        gt = annotation.boxes[0].bbox
        assert iou(detections[0].bbox, gt) >= 0.5
        assert detections[0].s_p >= 3

    def test_detection_box_stays_within_candidate(self):
        period, _ = generate_scene(default_scene())
        result = run_pipeline(period)
        assert len(result.candidates) == 1
        cand = result.candidates[0].bbox
        det = result.detections[0].bbox
        assert cand.x <= det.x and cand.y <= det.y
        assert det.right <= cand.right and det.bottom <= cand.bottom

    def test_background_only_scene_is_quiet(self):
        scene = default_scene(seed=5, edges=3, noise=20.0, props=())
        period, annotation = generate_scene(scene)
        assert annotation.boxes == ()
        assert detect_period(period) == []

    def test_two_close_rotors_merge_into_one_candidate(self):
        props = (
            PropellerSpec(center=(200, 240), radius=40),
            PropellerSpec(center=(310, 240), radius=40),
        )
        period, annotation = generate_scene(default_scene(props=props))
        assert len(annotation.boxes) == 2
        # the ground-truth boxes sit 30 px apart, inside the 50 px merge reach
        gap = rect_gap(annotation.boxes[0].bbox.as_tuple(), annotation.boxes[1].bbox.as_tuple())
        assert gap == 30.0
        result = run_pipeline(period)
        assert len(result.candidates) == 1
        assert len(result.detections) == 1
        union = bbox_union(annotation.boxes[0].bbox, annotation.boxes[1].bbox)
        assert iou(result.detections[0].bbox, union) >= 0.5

    def test_detection_is_deterministic(self):
        period, _ = generate_scene(default_scene(seed=3, noise=15.0))
        first = detect_period(period)
        second = detect_period(period)
        assert len(first) == len(second)
        for a, b in zip(first, second):
            assert a.bbox == b.bbox
            assert (a.s_p, a.s_s) == (b.s_p, b.s_s)
            assert np.array_equal(a.pixels, b.pixels)

    def test_pipeline_intermediates_are_consistent(self):
        period, _ = generate_scene(default_scene())
        result = run_pipeline(period)
        salient = {tuple(p) for r in result.regions for p in r.pixels.tolist()}
        ys, xs = np.nonzero(threshold_mask(result.saliency, 50))
        assert salient == set(zip(xs.tolist(), ys.tolist()))
        assert sum(len(c.members) for c in result.clusters) == len(result.regions)
        assert len(result.candidate_features) == len(result.candidates)
        ranks = [(-d.s_p, -d.s_s) for d in result.detections]
        assert ranks == sorted(ranks)


@st.composite
def scenes_and_configs(draw):
    """A small synthetic scene, 0-3 rotors among 0-7 moving edges and noise, and a random config."""
    sensor = SensorGeometry(draw(st.integers(40, 119)), draw(st.integers(30, 89)))
    rotor = st.builds(
        PropellerSpec,
        center=st.tuples(st.integers(0, sensor.width - 1), st.integers(0, sensor.height - 1)),
        radius=st.integers(5, 19),
        phase=st.floats(0.0, 2 * math.pi),
    )
    scene = SynthScene(
        sensor=sensor,
        duration=draw(st.integers(4, 30)) * 1000,
        propellers=tuple(draw(rotor) for _ in range(draw(st.integers(0, 3)))),
        background=BackgroundSpec(
            edge_count=draw(st.integers(0, 7)),
            speed=draw(st.floats(0.5, 8.0)),
            noise_rate=draw(st.floats(0.0, 20.0)),
        ),
        seed=draw(st.integers(0, 2**31 - 1)),
    )
    config = DetectorConfig(
        # Set slice counts too: few feature slices shrink the smoothing window.
        n_slices=draw(st.none() | st.integers(2, 40)),
        m_slices=draw(st.none() | st.integers(4, 60)),
        tau_s=draw(st.integers(0, 119)),
        tau_p=draw(st.integers(0, 6)),
        k_top=draw(st.integers(1, 8)),
        d_merge=draw(st.sampled_from([0.0, 3.0, 10.0, 50.0])),
        smooth_window=draw(st.sampled_from([1, 3, 5])),
        region_margin=draw(st.integers(0, 4)),
    )
    return scene, config


# Two rotors among seven edges: six candidates, whose ranking the reference spells out.
CROWDED_SCENE = (
    SynthScene(
        sensor=SensorGeometry(106, 40),
        duration=27_000,
        propellers=(
            PropellerSpec(center=(104, 4), radius=12, phase=1.4109427390874338),
            PropellerSpec(center=(57, 30), radius=9, phase=3.848916039605072),
        ),
        background=BackgroundSpec(edge_count=7, speed=3.191179600462952, noise_rate=10.434825774066372),
        seed=550041937,
    ),
    DetectorConfig(tau_s=9, tau_p=1, k_top=7, d_merge=10.0, smooth_window=1, region_margin=4),
)


class TestReferencePipeline:
    @settings(max_examples=200, deadline=None)
    @example(CROWDED_SCENE)
    @given(scenes_and_configs())
    def test_pipeline_matches_the_reference(self, scene_and_config):
        scene, config = scene_and_config
        period, _ = generate_scene(scene)
        result = run_pipeline(period, config)
        detections, clusters = reference_pipeline(period, config)
        assert [(c.bbox.as_tuple(), c.scores.s_s, c.scores.s_p) for c in result.clusters] == [
            (box, s_s, s_p) for box, s_s, s_p, _ in clusters
        ]
        assert [(d.bbox.as_tuple(), d.s_p, d.s_s) for d in result.detections] == [
            (box, s_p, s_s) for box, s_p, s_s, _ in detections
        ]
        for detection, (*_, pixels) in zip(result.detections, detections):
            assert np.array_equal(detection.pixels, pixels)
        # The six flags of each scored cluster's window, row by row.
        scored = [(BBox(*box), flags) for box, _, s_p, flags in clusters if s_p is not None]
        _, m = config.slicing_for(period)
        windows = _window_features(period, [box for box, _ in scored], m, config.region_margin)
        rows = _periodicity_flags(windows, config.smooth_window)
        assert rows.dtype == bool and rows.shape == (len(scored), 6)
        assert [tuple(row) for row in rows.tolist()] == [flags for _, flags in scored]

    def test_tied_clusters_fall_to_the_box_order(self):
        # A rotor and its copy 90 px to its right tie on s_s and s_p, so the
        # left one, first in box order, ranks first in the top K and as a candidate.
        sensor = SensorGeometry(160, 64)
        spec = PropellerSpec(center=(30, 32), radius=20)
        t, x, y, p, _ = generate_propeller_events(spec, 20_000, 3, sensor)
        period = EventPeriod(np.tile(t, 2), np.concatenate([x, x + 90]), np.tile(y, 2),
                             np.tile(p, 2), t_start=0, duration=20_000, sensor=sensor)
        left, right = (11, 17, 39, 32), (101, 17, 39, 32)
        for config, boxes in ((DetectorConfig(), [left, right]), (DetectorConfig(k_top=1), [left])):
            result = run_pipeline(period, config)
            detections, clusters = reference_pipeline(period, config)
            assert [(d.bbox.as_tuple(), d.s_p, d.s_s) for d in result.detections] == [
                (box, 6, 66911) for box in boxes
            ]
            assert [(box, s_p, s_s) for box, s_p, s_s, _ in detections] == [
                (box, 6, 66911) for box in boxes
            ]
            assert [c.scores.s_p for c in result.clusters] == [s_p for *_, s_p, _ in clusters]
