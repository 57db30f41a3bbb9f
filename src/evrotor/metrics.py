"""Detection scoring: box overlap, greedy matching, P/R/F1, and mAP.

Detections are matched per period in rank order (descending s_p, then s_s);
each claims the unclaimed ground-truth box of highest IoU when that IoU
reaches the threshold. Average precision interpolates over all points, and
with a single class mAP equals AP.
"""

from __future__ import annotations

import errno
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ValidationError
from .events import BBox, finite_real
from .io import AnnotationRecord, load_annotations


class Match(NamedTuple):
    """Outcome of one ranked detection: matched GT index (or None) and IoU."""

    det_index: int
    gt_index: int | None
    iou: float


class MatchResult(NamedTuple):
    tp: int
    fp: int
    fn: int
    matches: list[Match]


def iou(a: BBox, b: BBox) -> float:
    """Intersection area over union area of two boxes."""
    ix = min(a.right, b.right) - max(a.x, b.x)
    iy = min(a.bottom, b.bottom) - max(a.y, b.y)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    return inter / (a.area + b.area - inter)


def _check_iou_threshold(iou_thr: float) -> None:
    if not (finite_real(iou_thr) and 0.0 < iou_thr <= 1.0):
        raise ValidationError(f"iou threshold must be in (0, 1], got {iou_thr}")


def match_detections(
    det_boxes: Sequence[BBox],
    gt_boxes: Sequence[BBox],
    iou_thr: float = 0.4,
) -> MatchResult:
    """Greedy matching of ranked detections against ground truth.

    ``det_boxes`` must already be in rank order. Each detection claims the
    unclaimed GT of highest IoU when that IoU reaches ``iou_thr``; otherwise
    it counts as a false positive. Unclaimed GT boxes are false negatives.
    """
    _check_iou_threshold(iou_thr)
    claimed = [False] * len(gt_boxes)
    matches: list[Match] = []
    tp = 0
    for det_index, det in enumerate(det_boxes):
        best_iou = 0.0
        best_gt: int | None = None
        for gt_index, gt in enumerate(gt_boxes):
            if claimed[gt_index]:
                continue
            overlap = iou(det, gt)
            if overlap > best_iou:
                best_iou = overlap
                best_gt = gt_index
        if best_gt is not None and best_iou >= iou_thr:
            claimed[best_gt] = True
            tp += 1
            matches.append(Match(det_index, best_gt, best_iou))
        else:
            matches.append(Match(det_index, None, best_iou))
    fp = len(det_boxes) - tp
    fn = len(gt_boxes) - tp
    return MatchResult(tp, fp, fn, matches)


def precision_recall_f1(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    """P, R, and F1 with the usual zero-denominator conventions."""
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def average_precision(outcomes: Sequence[bool], total_gt: int) -> float:
    """All-points interpolated AP over confidence-ranked TP/FP outcomes."""
    if total_gt <= 0:
        return 0.0
    hits = np.asarray(outcomes, dtype=bool)
    if hits.size == 0:
        return 0.0
    tp_cum = np.cumsum(hits)
    precision = tp_cum / np.arange(1, hits.size + 1)
    recall = tp_cum / total_gt
    mrec = np.concatenate([[0.0], recall, [1.0]])
    mpre = np.maximum.accumulate(np.concatenate([[0.0], precision, [0.0]])[::-1])[::-1]
    steps = np.flatnonzero(mrec[1:] != mrec[:-1]) + 1
    return float(np.sum((mrec[steps] - mrec[steps - 1]) * mpre[steps]))


@dataclass(frozen=True)
class MetricsReport:
    """Aggregate detection quality over a dataset."""

    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float
    map: float
    iou_thr: float
    periods: int

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    def table(self) -> str:
        lines = [
            f"periods   {self.periods}",
            f"iou_thr   {self.iou_thr:.2f}",
            f"tp/fp/fn  {self.tp}/{self.fp}/{self.fn}",
            f"precision {self.precision:.4f}",
            f"recall    {self.recall:.4f}",
            f"f1        {self.f1:.4f}",
            f"mAP       {self.map:.4f}",
        ]
        return "\n".join(lines)


def _rank_key(box) -> tuple[float, float]:
    s_p = box.s_p if box.s_p is not None else 0
    s_s = box.s_s if box.s_s is not None else 0.0
    return (-s_p, -s_s)


def evaluate_records(
    pairs: Sequence[tuple[str, AnnotationRecord, AnnotationRecord]],
    iou_thr: float = 0.4,
) -> MetricsReport:
    """Evaluate (name, predictions, ground truth) record pairs."""
    _check_iou_threshold(iou_thr)  # also when there is no pair to match
    total_tp = total_fp = total_fn = 0
    total_gt = 0
    pooled: list[tuple[float, float, int, int, bool]] = []
    for file_order, (_, pred, gt) in enumerate(pairs):
        ranked = sorted(pred.boxes, key=_rank_key)
        gt_bboxes = [box.bbox for box in gt.boxes]
        result = match_detections([box.bbox for box in ranked], gt_bboxes, iou_thr)
        total_tp += result.tp
        total_fp += result.fp
        total_fn += result.fn
        total_gt += len(gt_bboxes)
        for match, box in zip(result.matches, ranked):
            key = _rank_key(box)
            pooled.append((key[0], key[1], file_order, match.det_index, match.gt_index is not None))
    pooled.sort()
    ap = average_precision([entry[4] for entry in pooled], total_gt)
    precision, recall, f1 = precision_recall_f1(total_tp, total_fp, total_fn)
    return MetricsReport(
        tp=total_tp,
        fp=total_fp,
        fn=total_fn,
        precision=precision,
        recall=recall,
        f1=f1,
        map=ap,
        iou_thr=iou_thr,
        periods=len(pairs),
    )


def evaluate_dataset(
    pred_dir,
    gt_dir,
    iou_thr: float = 0.4,
) -> MetricsReport:
    """Evaluate directories of prediction and ground-truth JSON records.

    Files pair up by name; any file present on only one side is an error.
    On the ground-truth side, ``X.gt.json`` (as ``synth`` writes it) stands
    for ``X.json`` and wins over a plain ``X.json``; on the prediction side,
    ``*.gt.json`` files are skipped. So ``synth`` and ``detect`` output kept
    in one directory can be scored with that directory on both sides.
    """
    pred_dir = Path(pred_dir)
    gt_dir = Path(gt_dir)
    for directory in (pred_dir, gt_dir):
        if not directory.is_dir():  # glob would find no file and report an empty dataset
            raise NotADirectoryError(errno.ENOTDIR, "not a directory", str(directory))
    pred_files = {p.name: p for p in pred_dir.glob("*.json") if not p.name.endswith(".gt.json")}
    gt_files: dict[str, Path] = {}
    for p in gt_dir.glob("*.json"):
        if p.name.endswith(".gt.json"):
            gt_files[p.name[: -len(".gt.json")] + ".json"] = p
        else:
            gt_files.setdefault(p.name, p)
    only_pred = sorted(set(pred_files) - set(gt_files))
    only_gt = sorted(gt_files[name].name for name in set(gt_files) - set(pred_files))
    if only_pred or only_gt:
        problems = []
        if only_pred:
            problems.append(f"predictions without ground truth: {', '.join(only_pred)}")
        if only_gt:
            problems.append(f"ground truth without predictions: {', '.join(only_gt)}")
        raise ValidationError("; ".join(problems))
    pairs = [
        (name, load_annotations(pred_files[name]), load_annotations(gt_files[name]))
        for name in sorted(pred_files)
    ]
    return evaluate_records(pairs, iou_thr)
