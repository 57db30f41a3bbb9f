"""Digests of the detector's outputs on the benchmark workloads, to show two trees agree.

    python tools/digest.py [--seeds 1 101] [--workloads period_20ms ...]

Prints one line per workload and seed, ``<workload> seed=<seed> <sha256>``.
Each digest runs ``run_pipeline`` with the default ``DetectorConfig`` on
every input of one round of the workload, as ``perfbench/workloads.py``
builds it, and covers in input order:

- the saliency map's ``ids`` and ``hit_gray``;
- every cluster's box, ``s_s`` with its type, and ``s_p``;
- every candidate's ``f_d``, ``f_s`` and ``f_p``;
- every detection's box, ``s_p``, ``s_s`` and pixels.

Integer arrays are hashed by value, cast to int64, and float arrays by
their bytes. So a change of an integer array's storage dtype alone keeps
every digest, and equal digests from two trees mean equal values and
bit-identical floats on these inputs. Float bits may differ between numpy
versions, so compare digests made with one environment only.
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


def _array(h, values: np.ndarray) -> None:
    if values.dtype.kind in "iu":
        values = values.astype(np.int64)  # by value, not by storage dtype
    h.update(f"{values.dtype.str}{values.shape}".encode())
    h.update(np.ascontiguousarray(values).tobytes())


def _record(h, *values) -> None:
    h.update(repr(values).encode())


def digest(workload: str, seed: int) -> str:
    h = hashlib.sha256()
    config = DetectorConfig()
    for item in WORKLOADS[workload].build(seed):
        result = run_pipeline(item.period, config)
        _record(h, item.label)
        _array(h, result.saliency.ids)
        _array(h, result.saliency.hit_gray)
        for cluster in result.clusters:
            s_s = cluster.scores.s_s
            _record(h, cluster.bbox.as_tuple(), type(s_s).__name__, s_s, cluster.scores.s_p)
        for series in result.candidate_features:
            for values in (series.f_d, series.f_s, series.f_p):
                _array(h, values)
        for detection in result.detections:
            _record(h, detection.bbox.as_tuple(), detection.s_p, detection.s_s)
            _array(h, detection.pixels)
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 101])
    parser.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS), default=list(WORKLOADS))
    args = parser.parse_args(argv)
    for workload in args.workloads:
        for seed in args.seeds:
            print(f"{workload} seed={seed} {digest(workload, seed)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
