"""Digests of the detector's inputs and outputs on the benchmark workloads, to show two trees agree.

    python tools/digest.py [--seeds 1 101] [--workloads period_20ms ...]

Prints one line per workload and seed,
``<workload> seed=<seed> inputs=<sha256> decisions=<sha256> floats=<sha256>``.
Each line covers one round of the workload, as ``perfbench/workloads.py``
builds it, with ``run_pipeline`` and the default ``DetectorConfig`` run on
every input. In input order, the three digests cover:

- inputs: each period's label, start, duration, sensor and event columns;
- decisions: the saliency map's ``ids`` and ``hit_gray``, every cluster's
  box, ``s_s`` with its type, and ``s_p``, and every detection's box,
  ``s_p``, ``s_s`` and pixels;
- floats: every candidate's ``f_d``, ``f_s`` and ``f_p``.

Integer arrays are hashed by value, cast to int64, and float arrays by
their bytes. So a change of an integer array's storage dtype alone keeps
every digest, and equal digests from two trees mean equal values and
bit-identical floats on these inputs. The inputs and decisions are integers
and hold across numpy versions unless a float call they rest on moves;
``tests/golden_digests.txt`` holds their seed-1 values, and a tier-1 test
compares them. The split shows which moved: the generated inputs, or the
detector's decisions on the same inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np

from evrotor import DetectorConfig, run_pipeline
from workloads import WORKLOADS

PARTS = ("inputs", "decisions", "floats")


def _array(h, values: np.ndarray) -> None:
    if values.dtype.kind in "iu":
        values = values.astype(np.int64)  # by value, not by storage dtype
    h.update(f"{values.dtype.str}{values.shape}".encode())
    h.update(np.ascontiguousarray(values).tobytes())


def _record(h, *values) -> None:
    h.update(repr(values).encode())


def digests(workload: str, seed: int) -> dict[str, str]:
    """The hex digest of each of ``PARTS`` over one round of ``workload``."""
    inputs, decisions, floats = hashes = [hashlib.sha256() for _ in PARTS]
    config = DetectorConfig()
    for item in WORKLOADS[workload].build(seed):
        period = item.period
        _record(inputs, item.label, period.t_start, period.duration, period.sensor.shape)
        for column in (period.t, period.x, period.y, period.p):
            _array(inputs, column)
        result = run_pipeline(period, config)
        _record(decisions, item.label)
        _array(decisions, result.saliency.ids)
        _array(decisions, result.saliency.hit_gray)
        for cluster in result.clusters:
            s_s = cluster.scores.s_s
            _record(decisions, cluster.bbox.as_tuple(), type(s_s).__name__, s_s, cluster.scores.s_p)
        for detection in result.detections:
            _record(decisions, detection.bbox.as_tuple(), detection.s_p, detection.s_s)
            _array(decisions, detection.pixels)
        _record(floats, item.label)
        for series in result.candidate_features:
            for values in (series.f_d, series.f_s, series.f_p):
                _array(floats, values)
    return {part: h.hexdigest() for part, h in zip(PARTS, hashes)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 101])
    parser.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS), default=list(WORKLOADS))
    args = parser.parse_args(argv)
    for workload in args.workloads:
        for seed in args.seeds:
            parts = " ".join(f"{part}={value}" for part, value in digests(workload, seed).items())
            print(f"{workload} seed={seed} {parts}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
