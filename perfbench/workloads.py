"""Seeded inputs and ground-truth checks for the benchmark workloads.

Every workload is built from the benchmark seed alone, before any timing.
The detector only ever sees the generated periods (or the files written from
them); the ground truth stays here and is used to check each operation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from evrotor import (
    BackgroundSpec,
    BBox,
    EventPeriod,
    PropellerSpec,
    SensorGeometry,
    SynthScene,
    benchmark_period,
    generate_background_events,
    generate_propeller_events,
    generate_scene,
    match_detections,
    write_events,
)

VGA = SensorGeometry(640, 480)
IOU = 0.4


@dataclass(frozen=True, eq=False)
class Input:
    """One distinct input: a period, its ground truth and, for the io probe, its file."""

    label: str
    cls: str
    period: EventPeriod
    gt: tuple[BBox, ...]
    path: Path | None = None


@dataclass(frozen=True)
class Workload:
    """What a workload holds and isolates; ``build`` makes one round of inputs.

    ``check`` is "exact" (every ground-truth box matched at IoU 0.4 and no
    false positive) or "recall" (every ground-truth box matched).
    """

    name: str
    isolates: str
    classes: str
    mix: str
    check: str

    def build(self, seed: int) -> list[Input]:
        return _BUILDERS[self.name](_scene_seeds(seed, self.name))


def _scene_seeds(seed: int, name: str) -> list[int]:
    # Salting with the name gives each workload its own scenes for one seed.
    return [int(s) for s in np.random.SeedSequence([seed, sum(name.encode())]).generate_state(16)]


def check(mode: str, item: Input, boxes: list[BBox]) -> str | None:
    """None when ``boxes`` (ranked detections) pass the ``mode`` check, else why not."""
    result = match_detections(boxes, list(item.gt), IOU)
    if result.fn:
        return f"{result.fn} of {len(item.gt)} ground-truth box(es) unmatched at IoU {IOU}"
    if mode == "exact" and result.fp:
        return f"{result.fp} false positive(s)"
    return None


def _boxes(annotation) -> tuple[BBox, ...]:
    return tuple(b.bbox for b in annotation.boxes)


def _period_20ms(seeds: list[int]) -> list[Input]:
    inputs = []
    for i in range(3):
        for events, label in ((50_000, "50k"), (200_000, "200k"), (1_000_000, "1M")):
            period, gt = benchmark_period(events, seed=seeds[i])
            inputs.append(Input(f"{label}#{i}", label, period, _boxes(gt)))
    return inputs


def _long_scene(seed: int, duration_ms: int, events: int) -> tuple[EventPeriod, tuple[BBox, ...]]:
    """One small rotor and two slow edges, padded with uniform noise to exactly ``events``."""
    rng = np.random.default_rng(seed)
    prop = PropellerSpec(
        center=(int(rng.integers(100, 540)), int(rng.integers(100, 380))),
        radius=22,
        phase=float(rng.uniform(0, 2 * math.pi)),
    )
    scene = SynthScene(
        sensor=VGA,
        duration=duration_ms * 1000,
        propellers=(prop,),
        background=BackgroundSpec(edge_count=2, speed=1.0),
        seed=seed,
        name=f"long_{duration_ms}ms",
    )
    period, gt = generate_scene(scene)
    deficit = events - len(period)
    t = np.concatenate([period.t, rng.integers(0, period.duration, deficit)])
    x = np.concatenate([period.x, rng.integers(0, VGA.width, deficit)])
    y = np.concatenate([period.y, rng.integers(0, VGA.height, deficit)])
    p = np.concatenate([period.p, rng.integers(0, 2, deficit)])
    order = np.argsort(t, kind="stable")
    period = EventPeriod(
        t[order], x[order], y[order], p[order], t_start=0, duration=period.duration, sensor=VGA
    )
    return period, _boxes(gt)


def _long_period(seeds: list[int]) -> list[Input]:
    # Two 100 ms periods per 250 ms period: the median falls in the 100 ms
    # class, and the tail in the 250 ms class once a run holds 30 operations.
    inputs = []
    for i, (duration_ms, events) in enumerate(((100, 1_000_000), (100, 1_000_000),
                                               (250, 2_000_000))):
        period, gt = _long_scene(seeds[i], duration_ms, events)
        inputs.append(Input(f"{duration_ms}ms#{i}", f"{duration_ms}ms", period, gt))
    return inputs


def _blob_events(rng, n_blobs: int, top: int, duration_us: int):
    """Blobs of radius 1-2 px below row ``top`` that flicker at random.

    Each burst fires a positive, then a negative event at every blob pixel
    within 200 us, so both polarities land in one 1 ms saliency slice.
    """
    parts_t, parts_x, parts_y, parts_p = [], [], [], []
    for _ in range(n_blobs):
        r = int(rng.integers(1, 3))
        cx = int(rng.integers(r, VGA.width - r))
        cy = int(rng.integers(top + r, VGA.height - r))
        disk = [(dx, dy) for dx in range(-r, r + 1) for dy in range(-r, r + 1)
                if dx * dx + dy * dy <= r * r + 1]
        px = np.array([cx + dx for dx, _ in disk])
        py = np.array([cy + dy for _, dy in disk])
        rate_per_ms = rng.uniform(0.25, 0.5)
        for t0 in rng.uniform(0, duration_us - 250, rng.poisson(rate_per_ms * duration_us / 1000)):
            parts_t += [t0 + rng.uniform(0, 100, px.size), t0 + 100 + rng.uniform(0, 100, px.size)]
            parts_x += [px, px]
            parts_y += [py, py]
            parts_p += [np.ones(px.size, np.uint8), np.zeros(px.size, np.uint8)]
    return (
        np.concatenate(parts_t).astype(np.int64),
        np.concatenate(parts_x).astype(np.int32),
        np.concatenate(parts_y).astype(np.int32),
        np.concatenate(parts_p),
    )


def _flicker_scene(seed: int, n_rotors: int) -> tuple[EventPeriod, tuple[BBox, ...]]:
    """Rotors of radius 40 in the upper band, flickering blobs in rows 240 and below.

    Union boxes only grow under clustering, so the blob clutter merges into
    clusters spanning much of its band; rotor boxes end by row 170, keeping
    those clusters beyond d_merge = 50 of every rotor.
    """
    duration = 20_000
    radius = 40
    rng = np.random.default_rng(seed)
    seeds = np.random.SeedSequence(seed).spawn(n_rotors + 1)
    cols = []
    gts = []
    for k in range(n_rotors):
        lo, hi = radius + 10, VGA.width - radius - 10
        if n_rotors == 2:  # one rotor per half, too far apart to merge
            mid = VGA.width // 2
            lo, hi = (lo, mid - radius - 30) if k == 0 else (mid + radius + 30, hi)
        center = (int(rng.integers(lo, hi)), int(rng.integers(radius + 10, 170 - radius)))
        prop = PropellerSpec(center=center, radius=radius, phase=float(rng.uniform(0, 2 * math.pi)))
        t, x, y, p, gt = generate_propeller_events(prop, duration, seeds[k], VGA)
        cols.append((t, x, y, p))
        gts.append(gt)
    background = BackgroundSpec(edge_count=2, speed=2.0, noise_rate=10.0)
    cols.append(generate_background_events(background, duration, seeds[-1], VGA))
    cols.append(_blob_events(rng, 250, 240, duration))
    t, x, y, p = (np.concatenate([c[i] for c in cols]) for i in range(4))
    order = np.argsort(t, kind="stable")
    period = EventPeriod(
        t[order], x[order], y[order], p[order], t_start=0, duration=duration, sensor=VGA
    )
    return period, tuple(gts)


def _flicker_clutter(seeds: list[int]) -> list[Input]:
    inputs = []
    for i in range(8):
        n_rotors = 1 + i % 2
        period, gt = _flicker_scene(seeds[i], n_rotors)
        inputs.append(Input(f"flicker{n_rotors}r#{i}", "flicker", period, gt))
    return inputs


def cli_inputs(seed: int, work_dir: Path) -> list[Input]:
    """200k-event benchmark_period scenes written as three .evd files and one .csv file."""
    seeds = _scene_seeds(seed, "cli_files")
    inputs = []
    for i, suffix in enumerate((".evd", ".evd", ".evd", ".csv")):
        period, gt = benchmark_period(200_000, seed=seeds[i])
        path = work_dir / f"cli_{i}{suffix}"
        write_events(period, path)
        inputs.append(Input(f"{suffix[1:]}#{i}", suffix[1:], period, _boxes(gt), path))
    return inputs


_BUILDERS = {
    "period_20ms": _period_20ms,
    "long_period": _long_period,
    "flicker_clutter": _flicker_clutter,
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="period_20ms",
            isolates="saliency and features; clustering sees at most a few regions",
            classes="VGA 20 ms benchmark_period scenes at 50k, 200k and 1M events, 3 each",
            mix="equal thirds: median in the 200k class, tail in the 1M class",
            check="exact",
        ),
        Workload(
            name="long_period",
            isolates="saliency over many sparse slices (memory), the per-slice feature loop",
            classes="VGA 100 ms / 1M-event and 250 ms / 2M-event periods, one r=22 rotor, "
                    "2 edges, uniform noise",
            mix="two 100 ms per 250 ms period: median in the 100 ms class, "
                "tail in the 250 ms class",
            check="exact",
        ),
        Workload(
            name="flicker_clutter",
            isolates="connected_components, cluster_regions, large feature windows, refinement",
            classes="VGA 20 ms periods, 1 or 2 r=40 rotors above 250 flickering blobs, 8 scenes",
            mix="one class; scenes alternate one and two rotors",
            check="recall",
        ),
    )
}
