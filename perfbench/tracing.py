"""Traced composition of the detection pipeline from its public stage calls.

``traced_pipeline`` performs the same calls as ``evrotor.run_pipeline``, in
the same order, with a span around each: saliency_map, threshold_mask,
connected_components, cluster_regions, the per-region saliency_score used
to rank clusters, then extract_local_slices / compute_features /
periodicity_score for the top K and gaussian_fine_refine for each
candidate. The benchmark checks on every input that it returns exactly the
detections ``run_pipeline`` returns, so the traced run always measures the
program that the untraced run measures.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter_ns

from evrotor import (
    DetectorConfig,
    EventPeriod,
    RegionScores,
    cluster_regions,
    compute_features,
    connected_components,
    extract_local_slices,
    gaussian_fine_refine,
    periodicity_score,
    saliency_map,
    saliency_score,
    threshold_mask,
)

STAGES = (
    "saliency.saliency_map",
    "saliency.threshold_mask",
    "saliency.connected_components",
    "detector.cluster_regions",
    "features.saliency_score",
    "features.extract_local_slices",
    "features.compute_features",
    "features.periodicity_score",
    "detector.gaussian_fine_refine",
)


class Tracer:
    """Spans of every traced operation, held in memory until ``write``.

    A span is (operation id, name, parent name, start ns, end ns). Stage
    spans have the "pipeline" span of their operation as parent; the
    pipeline and io spans have the operation itself ("op") as parent.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, str, int, int]] = []
        self.op = -1

    def begin_op(self) -> None:
        self.op += 1

    def call(self, name: str, parent: str, fn, *args, **kwargs):
        start = perf_counter_ns()
        out = fn(*args, **kwargs)
        self.spans.append((self.op, name, parent, start, perf_counter_ns()))
        return out

    def per_op_ms(self) -> dict[int, dict[str, float]]:
        """Summed span time per name for each operation, in ms."""
        totals: dict[int, dict[str, float]] = {}
        for op, name, _, start, end in self.spans:
            per = totals.setdefault(op, {})
            per[name] = per.get(name, 0.0) + (end - start) / 1e6
        return totals

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("op", "name", "parent", "start_ns", "end_ns")
        payload = dict(meta, spans=[dict(zip(fields, span)) for span in self.spans])
        path.write_text(json.dumps(payload))


def signature(detections) -> tuple:
    """What two runs must agree on: ranked boxes with their s_p and s_s."""
    return tuple((d.bbox.as_tuple(), int(d.s_p), d.s_s) for d in detections)


def _bbox_key(bbox) -> tuple[int, int, int, int]:
    return (bbox.y, bbox.x, bbox.h, bbox.w)


def traced_pipeline(tracer: Tracer, period: EventPeriod, config: DetectorConfig):
    """Detections of ``period`` plus the work counts of each layer."""
    stage = "pipeline"
    start = perf_counter_ns()
    n, m = config.slicing_for(period)
    smap = tracer.call("saliency.saliency_map", stage, saliency_map, period, n)
    mask = tracer.call("saliency.threshold_mask", stage, threshold_mask, smap, config.tau_s)
    regions = tracer.call("saliency.connected_components", stage, connected_components, mask)
    clusters = tracer.call(
        "detector.cluster_regions", stage, cluster_regions, regions, config.d_merge
    )
    for cluster in clusters:
        mass = sum(
            tracer.call("features.saliency_score", stage, saliency_score, region, smap)
            for region in cluster.members
        )
        cluster.scores = RegionScores(s_s=mass)
    ranked = sorted(clusters, key=lambda c: (-c.scores.s_s, -c.area, _bbox_key(c.bbox)))
    top = ranked[: config.k_top]
    local_cells = 0
    for cluster in top:
        local = tracer.call(
            "features.extract_local_slices", stage,
            extract_local_slices, period, cluster.bbox, m, config.region_margin,
        )
        local_cells += int(local.size)
        series = tracer.call("features.compute_features", stage, compute_features, local)
        s_p = tracer.call(
            "features.periodicity_score", stage, periodicity_score, series, config.smooth_window
        )
        cluster.scores = RegionScores(s_s=cluster.scores.s_s, s_p=s_p)
    passed = [c for c in top if c.scores.s_p >= config.tau_p]
    passed.sort(key=lambda c: (-c.scores.s_p, -c.scores.s_s, _bbox_key(c.bbox)))
    detections = [
        tracer.call("detector.gaussian_fine_refine", stage, gaussian_fine_refine, c, smap)
        for c in passed
    ]
    tracer.spans.append((tracer.op, "pipeline", "op", start, perf_counter_ns()))
    height, width = period.sensor.shape
    counts = {
        "saliency.salient_px": int(mask.sum()),
        "saliency.regions": len(regions),
        "saliency.occupancy_bytes": 2 * n * height * width,
        "detector.clusters": len(clusters),
        "features.topk": len(top),
        "features.candidates": len(passed),
        "features.local_cells": local_cells,
        # The refined box equals the candidate box when refinement fell back
        # to it, or kept every member; either way it did not tighten.
        "detector.refine_fallbacks": sum(
            d.bbox == c.bbox for d, c in zip(detections, passed)
        ),
        "detections": len(detections),
    }
    return detections, counts
