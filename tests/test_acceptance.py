"""Acceptance suite: one test per shipping criterion, each printing a verdict.

Every test ends by printing "[ACCEPT] <criterion>: PASS" or "FAIL" through
the capture-disabled stream so the verdicts always reach the console.
"""

import math
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from evrotor import (
    BBox,
    BackgroundSpec,
    PropellerSpec,
    Region,
    SensorGeometry,
    SynthScene,
    benchmark_period,
    cluster_regions,
    detect_period,
    generate_scene,
    load_events,
    match_detections,
    run_pipeline,
    saliency_map,
    load_annotations,
    AnnotationRecord,
    BoxRecord,
)
from evrotor.events import EventPeriod
from evrotor.features import principal_direction
from evrotor.metrics import average_precision, evaluate_records, iou, precision_recall_f1

from oracles import dense_counts, greedy_union_clusters

VGA = SensorGeometry(640, 480)


@contextmanager
def criterion(name, capsys):
    try:
        yield
    except AssertionError:
        with capsys.disabled():
            print(f"\n[ACCEPT] {name}: FAIL")
        raise
    with capsys.disabled():
        print(f"\n[ACCEPT] {name}: PASS")


def positive_scene(index):
    rng = np.random.default_rng(index)
    radius = int(rng.integers(30, 81))
    rpm = float(rng.uniform(8_000, 12_000))
    cx = int(rng.integers(radius, VGA.width - radius))
    cy = int(rng.integers(radius, VGA.height - radius))
    prop = PropellerSpec(
        center=(cx, cy),
        radius=radius,
        rpm=rpm,
        phase=float(rng.uniform(0.0, 2.0 * math.pi)),
    )
    return SynthScene(
        sensor=VGA,
        duration=20_000,
        propellers=(prop,),
        background=BackgroundSpec(edge_count=3, speed=2.0, noise_rate=20.0),
        seed=index,
    )


def test_positive_suite_precision_and_recall(capsys):
    with criterion("synthetic positive suite (P>=0.90, R>=0.90, <2 min)", capsys):
        started = time.perf_counter()
        tp = fp = fn = 0
        for index in range(200):
            period, annotation = generate_scene(positive_scene(index))
            detections = detect_period(period)
            result = match_detections(
                [d.bbox for d in detections],
                [b.bbox for b in annotation.boxes],
                iou_thr=0.4,
            )
            tp += result.tp
            fp += result.fp
            fn += result.fn
        elapsed = time.perf_counter() - started
        precision = tp / max(tp + fp, 1)
        recall = tp / max(tp + fn, 1)
        with capsys.disabled():
            print(
                f"\n[ACCEPT]   positive suite detail: P={precision:.3f} "
                f"R={recall:.3f} tp={tp} fp={fp} fn={fn} in {elapsed:.1f}s"
            )
        assert precision >= 0.90
        assert recall >= 0.90
        assert elapsed < 120.0


def test_negative_control_stays_silent(capsys):
    with criterion("negative control (>=95/100 silent periods)", capsys):
        silent = 0
        for index in range(100):
            rng = np.random.default_rng(10_000 + index)
            scene = SynthScene(
                sensor=VGA,
                duration=20_000,
                propellers=(),
                background=BackgroundSpec(
                    edge_count=3, speed=2.0, noise_rate=float(rng.uniform(30.0, 50.0))
                ),
                seed=10_000 + index,
            )
            period, _ = generate_scene(scene)
            if not detect_period(period):
                silent += 1
        with capsys.disabled():
            print(f"\n[ACCEPT]   negative control detail: {silent}/100 silent")
        assert silent >= 95


def random_period(rng, sensor, max_x, max_y, duration=1_000):
    count = int(rng.integers(0, 41))
    t = rng.integers(0, duration, size=count)
    x = rng.integers(0, max_x + 1, size=count)
    y = rng.integers(0, max_y + 1, size=count)
    p = rng.integers(0, 2, size=count)
    return t, x, y, p


def test_saliency_invariants_hold_exactly(capsys):
    with criterion("saliency invariants on 1000 random periods (exact)", capsys):
        sensor = SensorGeometry(32, 24)
        rng = np.random.default_rng(123)
        for _ in range(1000):
            t, x, y, p = random_period(rng, sensor, max_x=23, max_y=17)
            n = int(rng.integers(2, 7))
            period = EventPeriod(t, x, y, p, t_start=0, duration=1_000, sensor=sensor)
            counts = dense_counts(saliency_map(period, n))

            mono = EventPeriod(
                t, x, y, np.ones_like(p), t_start=0, duration=1_000, sensor=sensor
            )
            assert not dense_counts(saliency_map(mono, n)).any()

            swapped = EventPeriod(
                t, x, y, 1 - p, t_start=0, duration=1_000, sensor=sensor
            )
            assert np.array_equal(dense_counts(saliency_map(swapped, n)), counts)

            extra = random_period(rng, sensor, max_x=23, max_y=17)
            grown = EventPeriod(
                np.concatenate([t, extra[0]]),
                np.concatenate([x, extra[1]]),
                np.concatenate([y, extra[2]]),
                np.concatenate([p, extra[3]]),
                t_start=0,
                duration=1_000,
                sensor=sensor,
            )
            assert np.all(dense_counts(saliency_map(grown, n)) >= counts)

            dx = int(rng.integers(0, 9))
            dy = int(rng.integers(0, 7))
            shifted = EventPeriod(
                t, x + dx, y + dy, p, t_start=0, duration=1_000, sensor=sensor
            )
            assert np.array_equal(
                dense_counts(saliency_map(shifted, n)), np.roll(counts, (dy, dx), (0, 1))
            )


def test_principal_direction_matches_angle_sweep(capsys):
    with criterion("eigen vs 3600-angle variance sweep (<=1 deg, 1000 sets)", capsys):
        rng = np.random.default_rng(2024)
        angles = np.linspace(0.0, math.pi, 3600, endpoint=False)
        dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        worst = 0.0
        for _ in range(1000):
            sigma_major = rng.uniform(2.0, 5.0)
            sigma_minor = rng.uniform(0.3, 1.0)
            theta = rng.uniform(0.0, math.pi)
            base = rng.normal(size=(50, 2)) * (sigma_major, sigma_minor)
            rot = np.array(
                [[math.cos(theta), -math.sin(theta)],
                 [math.sin(theta), math.cos(theta)]]
            )
            points = base @ rot.T + rng.uniform(0.0, 100.0, size=2)
            direction = principal_direction(points)
            assert not direction.isotropic
            got = math.atan2(direction.vector[1], direction.vector[0]) % math.pi

            centered = points - points.mean(axis=0)
            variances = ((centered @ dirs.T) ** 2).mean(axis=0)
            want = angles[int(np.argmax(variances))]

            diff = abs(got - want)
            diff = min(diff, math.pi - diff)
            worst = max(worst, diff)
        with capsys.disabled():
            print(f"\n[ACCEPT]   eigen detail: worst deviation {math.degrees(worst):.4f} deg")
        assert worst <= math.radians(1.0)


def rect_region(x, y, w, h):
    return Region(np.array([(xx, yy) for yy in range(y, y + h) for xx in range(x, x + w)]))


def test_clustering_matches_brute_force(capsys):
    with criterion("clustering vs brute-force single linkage (500 sets, exact)", capsys):
        rng = np.random.default_rng(777)
        reaches = [0.0, 10.0, 30.0, 60.0]
        for index in range(500):
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
            d_merge = reaches[index % len(reaches)]
            got = cluster_regions([rect_region(*r) for r in rects], d_merge)
            got_sig = sorted(
                (tuple(sorted(m.bbox.as_tuple() for m in c.members)), c.bbox.as_tuple())
                for c in got
            )
            want_sig = sorted(
                (tuple(sorted(rects[i] for i in members)), rect)
                for members, rect in greedy_union_clusters(rects, d_merge)
            )
            assert got_sig == want_sig


def test_metric_oracles(capsys):
    with criterion("metric oracles (iou exact, f1 5e-4, AP 1e-9)", capsys):
        assert iou(BBox(0, 0, 10, 10), BBox(0, 0, 10, 10)) == 1.0
        assert iou(BBox(0, 0, 10, 10), BBox(30, 0, 10, 10)) == 0.0
        assert iou(BBox(0, 0, 10, 10), BBox(5, 0, 10, 10)) == 50 / 150

        precision, recall, f1 = precision_recall_f1(13_529, 2_771, 3_071)
        assert abs(precision - 0.830) <= 5e-4
        assert abs(recall - 0.815) <= 5e-4
        assert abs(f1 - 0.822) <= 5e-4

        assert abs(average_precision([True, False, True], 2) - 5 / 6) <= 1e-9


def test_determinism_of_generation_and_detection(capsys):
    with criterion("bitwise determinism of synth and detect", capsys):
        scene = positive_scene(42)
        period_a, annotation_a = generate_scene(scene)
        period_b, annotation_b = generate_scene(scene)
        assert np.array_equal(period_a.t, period_b.t)
        assert np.array_equal(period_a.x, period_b.x)
        assert np.array_equal(period_a.y, period_b.y)
        assert np.array_equal(period_a.p, period_b.p)
        assert annotation_a.boxes == annotation_b.boxes

        first = detect_period(period_a)
        second = detect_period(period_b)
        assert len(first) == len(second)
        for a, b in zip(first, second):
            assert a.bbox == b.bbox
            assert (a.s_p, a.s_s) == (b.s_p, b.s_s)
            assert np.array_equal(a.pixels, b.pixels)


def test_latency_on_the_benchmark_scene(capsys):
    with criterion("latency median <= 50 ms at 200k events", capsys):
        period, _ = benchmark_period(200_000, seed=0)
        run_pipeline(period)  # warmup, untimed
        times_ms = []
        for _ in range(30):
            start = time.perf_counter()
            run_pipeline(period)
            times_ms.append((time.perf_counter() - start) * 1000.0)
        median = float(np.median(times_ms))
        with capsys.disabled():
            print(f"\n[ACCEPT]   latency detail: median {median:.1f} ms over 30 reps")
        assert median <= 50.0


def test_recorded_dataset_transfer(capsys):
    """Precision/recall transfer on real recordings, when a copy is available.

    Point EVENTMAV_DIR at a directory holding events/<name>.(csv|evd|bin) and
    gt/<name>.json pairs. Without it this criterion is reported as SKIP: the
    synthetic positive suite stands in for it.
    """
    root = os.environ.get("EVENTMAV_DIR")
    if not root:
        with capsys.disabled():
            print("\n[ACCEPT] recorded-dataset transfer: SKIP (EVENTMAV_DIR not set)")
        pytest.skip("EVENTMAV_DIR not set; no recorded dataset available")
    root = Path(root)
    event_files = sorted(
        p for p in (root / "events").iterdir()
        if p.suffix.lower() in (".csv", ".evd", ".bin")
    )
    assert event_files, f"no event files under {root / 'events'}"
    with criterion("recorded-dataset transfer (P 83+/-5, R 81.5+/-5)", capsys):
        pairs = []
        for event_path in event_files:
            gt_record = load_annotations(root / "gt" / f"{event_path.stem}.json")
            sensor = SensorGeometry(gt_record.width, gt_record.height)
            period = load_events(event_path, sensor)
            detections = detect_period(period)
            pred = AnnotationRecord(
                file=event_path.stem,
                width=sensor.width,
                height=sensor.height,
                duration_us=period.duration,
                boxes=tuple(
                    BoxRecord(bbox=d.bbox, s_p=d.s_p, s_s=d.s_s) for d in detections
                ),
            )
            pairs.append((event_path.stem, pred, gt_record))
        report = evaluate_records(pairs, iou_thr=0.4)
        with capsys.disabled():
            print(
                f"\n[ACCEPT]   transfer detail: P={report.precision:.3f} "
                f"R={report.recall:.3f} over {report.periods} periods"
            )
        assert abs(report.precision - 0.830) <= 0.05
        assert abs(report.recall - 0.815) <= 0.05
