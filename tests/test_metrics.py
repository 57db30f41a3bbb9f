"""Box overlap, greedy matching, P/R/F1, and average precision."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evrotor import (
    BBox,
    BoxRecord,
    AnnotationRecord,
    ValidationError,
    evaluate_dataset,
    match_detections,
    write_annotation,
)
from evrotor.metrics import average_precision, evaluate_records, iou, precision_recall_f1

from oracles import average_precision_literal

boxes_strategy = st.lists(
    st.tuples(
        st.integers(0, 80), st.integers(0, 80), st.integers(1, 40), st.integers(1, 40)
    ).map(lambda r: BBox(*r)),
    max_size=8,
)


class TestIou:
    def test_identical_boxes(self):
        assert iou(BBox(3, 4, 10, 12), BBox(3, 4, 10, 12)) == 1.0

    def test_disjoint_boxes(self):
        assert iou(BBox(0, 0, 10, 10), BBox(50, 50, 10, 10)) == 0.0

    def test_half_offset_is_exactly_one_third(self):
        value = iou(BBox(0, 0, 10, 10), BBox(5, 0, 10, 10))
        assert value == 50 / 150
        assert value == pytest.approx(1 / 3)

    @given(boxes_strategy.filter(lambda bs: len(bs) >= 2))
    @settings(max_examples=60, deadline=None)
    def test_symmetry_and_bounds(self, boxes):
        a, b = boxes[0], boxes[1]
        v = iou(a, b)
        assert iou(b, a) == v
        assert 0.0 <= v <= 1.0


class TestMatching:
    def test_two_detections_one_truth(self):
        gt = [BBox(10, 10, 20, 20)]
        dets = [BBox(10, 10, 20, 20), BBox(12, 12, 20, 20)]
        result = match_detections(dets, gt, 0.5)
        assert (result.tp, result.fp, result.fn) == (1, 1, 0)
        assert result.matches[0].det_index == 0
        assert result.matches[0].gt_index == 0

    def test_no_detections_counts_misses(self):
        result = match_detections([], [BBox(0, 0, 5, 5), BBox(20, 20, 5, 5)], 0.5)
        assert (result.tp, result.fp, result.fn) == (0, 0, 2)

    def test_rank_order_claims_the_truth(self):
        # the first-ranked detection wins the single ground-truth box even
        # though the later one overlaps it strictly better (0.9 vs 0.82)
        gt = [BBox(0, 0, 10, 10)]
        dets = [BBox(1, 0, 10, 10), BBox(0, 0, 9, 10)]
        result = match_detections(dets, gt, 0.4)
        assert (result.tp, result.fp) == (1, 1)
        assert result.matches[0].det_index == 0

    def test_overlap_equal_to_threshold_counts(self):
        # IoU of exactly 1/3 against a 1/3 threshold is a match
        result = match_detections([BBox(5, 0, 10, 10)], [BBox(0, 0, 10, 10)], 50 / 150)
        assert result.tp == 1

    @pytest.mark.parametrize("thr", [0.0, 1.5, -0.2])
    def test_threshold_domain(self, thr):
        with pytest.raises(ValidationError):
            match_detections([], [], thr)

    @given(boxes_strategy, boxes_strategy)
    @settings(max_examples=60, deadline=None)
    def test_counts_partition_both_sides(self, dets, gts):
        result = match_detections(dets, gts, 0.5)
        assert result.tp + result.fp == len(dets)
        assert result.tp + result.fn == len(gts)
        assert [m.det_index for m in result.matches] == list(range(len(dets)))
        claimed = [m.gt_index for m in result.matches if m.gt_index is not None]
        assert len(set(claimed)) == len(claimed) == result.tp


class TestPrecisionRecallF1:
    def test_two_thirds_everywhere(self):
        p, r, f1 = precision_recall_f1(2, 1, 1)
        assert p == r == f1 == pytest.approx(2 / 3)

    def test_zero_counts(self):
        assert precision_recall_f1(0, 0, 0) == (0.0, 0.0, 0.0)
        assert precision_recall_f1(0, 5, 0) == (0.0, 0.0, 0.0)

    def test_large_count_composition(self):
        p, r, f1 = precision_recall_f1(13529, 2771, 3071)
        assert p == pytest.approx(0.830, abs=5e-4)
        assert r == pytest.approx(0.815, abs=5e-4)
        assert f1 == pytest.approx(0.822, abs=5e-4)


class TestAveragePrecision:
    def test_hit_miss_hit(self):
        assert average_precision([True, False, True], 2) == pytest.approx(5 / 6, abs=1e-9)

    def test_perfect_ranking(self):
        assert average_precision([True, True, True], 3) == 1.0

    def test_empty_outcomes(self):
        assert average_precision([], 4) == 0.0

    def test_no_ground_truth(self):
        assert average_precision([True, True], 0) == 0.0

    @given(
        st.lists(st.booleans(), max_size=12),
        st.integers(0, 6),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_literal_definition(self, outcomes, extra_gt):
        total_gt = sum(outcomes) + extra_gt
        got = average_precision(outcomes, total_gt)
        if total_gt == 0:
            assert got == 0.0
            return
        want = average_precision_literal(outcomes, total_gt)
        assert got == pytest.approx(want, abs=1e-12)

    def test_monotone_in_overlap_threshold(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            gts = [
                BBox(int(rng.integers(0, 60)), int(rng.integers(0, 60)),
                     int(rng.integers(4, 30)), int(rng.integers(4, 30)))
                for _ in range(int(rng.integers(1, 5)))
            ]
            dets = [
                BBox(int(rng.integers(0, 60)), int(rng.integers(0, 60)),
                     int(rng.integers(4, 30)), int(rng.integers(4, 30)))
                for _ in range(int(rng.integers(0, 6)))
            ]
            previous = None
            for thr in (0.2, 0.4, 0.6, 0.8):
                result = match_detections(dets, gts, thr)
                outcomes = [False] * len(dets)
                for m in result.matches:
                    outcomes[m.det_index] = True
                ap = average_precision(outcomes, len(gts))
                if previous is not None:
                    assert ap <= previous + 1e-12
                previous = ap


def record(boxes, scores=None, file="clip", width=64, height=48, duration=20_000):
    wrapped = []
    for i, box in enumerate(boxes):
        s_p, s_s = (scores[i] if scores else (None, None))
        wrapped.append(BoxRecord(bbox=BBox(*box), s_p=s_p, s_s=s_s))
    return AnnotationRecord(
        file=file, width=width, height=height, duration_us=duration, boxes=tuple(wrapped)
    )


class TestEvaluateRecords:
    def test_perfect_single_period(self):
        gt = record([(0, 0, 10, 10)])
        pred = record([(0, 0, 10, 10)], scores=[(5, 900.0)])
        report = evaluate_records([("clip", pred, gt)], iou_thr=0.5)
        assert (report.tp, report.fp, report.fn) == (1, 0, 0)
        assert report.precision == report.recall == report.f1 == 1.0
        assert report.map == 1.0
        assert report.periods == 1

    def test_scores_rank_the_pool(self):
        # the high-s_p hit in one period must outrank the miss from another,
        # giving the hit-miss-hit AP of 5/6 over two ground truths
        gt_a = record([(0, 0, 10, 10)], file="a")
        pred_a = record([(0, 0, 10, 10)], scores=[(6, 100.0)], file="a")
        gt_b = record([(30, 30, 10, 10)], file="b")
        pred_b = record(
            [(60, 0, 10, 10), (30, 30, 10, 10)],
            scores=[(5, 50.0), (4, 900.0)],
            file="b",
        )
        report = evaluate_records([("a", pred_a, gt_a), ("b", pred_b, gt_b)], iou_thr=0.5)
        assert (report.tp, report.fp, report.fn) == (2, 1, 0)
        assert report.map == pytest.approx(5 / 6, abs=1e-9)

    def test_report_serialization(self):
        gt = record([(0, 0, 10, 10)])
        pred = record([(0, 0, 10, 10)], scores=[(5, 900.0)])
        report = evaluate_records([("clip", pred, gt)], iou_thr=0.4)
        payload = report.to_dict()
        assert list(payload) == [
            "tp", "fp", "fn", "precision", "recall", "f1", "map", "iou_thr", "periods"
        ]
        assert payload["iou_thr"] == 0.4
        assert json.loads(report.to_json()) == payload
        table = report.table()
        assert "precision" in table and "mAP" in table


class TestEvaluateDataset:
    def write_pair(self, pred_dir, gt_dir, name, pred, gt):
        write_annotation(pred, pred_dir / f"{name}.json")
        write_annotation(gt, gt_dir / f"{name}.json")

    def test_perfect_directories(self, tmp_path):
        pred_dir = tmp_path / "pred"
        gt_dir = tmp_path / "gt"
        pred_dir.mkdir()
        gt_dir.mkdir()
        for name in ("p0", "p1"):
            gt = record([(5, 5, 12, 12)], file=name)
            pred = record([(5, 5, 12, 12)], scores=[(5, 800.0)], file=name)
            self.write_pair(pred_dir, gt_dir, name, pred, gt)
        report = evaluate_dataset(pred_dir, gt_dir, iou_thr=0.5)
        assert report.periods == 2
        assert report.precision == report.recall == report.map == 1.0

    def test_orphan_prediction_is_named(self, tmp_path):
        pred_dir = tmp_path / "pred"
        gt_dir = tmp_path / "gt"
        pred_dir.mkdir()
        gt_dir.mkdir()
        write_annotation(record([], file="extra"), pred_dir / "extra.json")
        with pytest.raises(ValidationError, match="extra"):
            evaluate_dataset(pred_dir, gt_dir)

    def test_ground_truth_suffix_pairs_with_the_plain_name(self, tmp_path):
        # One directory on both sides: p0.gt.json is the truth for p0.json and
        # is not itself a prediction; p0.json is not taken as its own truth.
        write_annotation(record([(5, 5, 12, 12)], file="p0"), tmp_path / "p0.gt.json")
        write_annotation(record([(30, 30, 8, 8)], scores=[(5, 800.0)], file="p0"),
                         tmp_path / "p0.json")
        report = evaluate_dataset(tmp_path, tmp_path, iou_thr=0.5)
        assert (report.periods, report.tp, report.fp, report.fn) == (1, 0, 1, 1)
        write_annotation(record([], file="p1"), tmp_path / "p1.gt.json")
        with pytest.raises(ValidationError, match=r"without predictions: p1\.gt\.json"):
            evaluate_dataset(tmp_path, tmp_path)

    def test_orphan_ground_truth_is_named(self, tmp_path):
        pred_dir = tmp_path / "pred"
        gt_dir = tmp_path / "gt"
        pred_dir.mkdir()
        gt_dir.mkdir()
        write_annotation(record([], file="lonely"), gt_dir / "lonely.json")
        with pytest.raises(ValidationError, match="lonely"):
            evaluate_dataset(pred_dir, gt_dir)
