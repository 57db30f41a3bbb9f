"""Synthetic event scenes with known rotor ground truth.

The rotor model sweeps radial blades around a center at a fixed rpm. Each
time a blade crosses a pixel, the leading edge emits positive events just
before the crossing instant and the trailing edge emits negative events just
after it, with per-edge counts drawn from a Poisson law. The blade disk is
projected with an aspect ratio below one (an out-of-plane view) and blade
emissivity depends on blade angle, so event density, slice structure, and
principal directions all modulate at the blade-pass frequency, as a real
rotor's do.

Background edges translate across the frame and give each crossed pixel one
positive event and one much later negative event, so they build no polarity
intersections. Uniform noise events are added at a configurable rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .events import BBox, EventPeriod, SensorGeometry
from .io import AnnotationRecord, BoxRecord

RPM_MIN = 5_000.0
RPM_MAX = 15_000.0

# Longest time a blade edge may take to cross one pixel, in seconds. Keeps
# hub pixels from smearing their polarity pair across slice boundaries.
_MAX_CROSSING_S = 500e-6

_EDGE_BAND_PX = (20.0, 60.0)

# Most noise events one background may draw on average. Their columns would
# fill about 36 GB; numpy's Poisson sampler only fails near 2**63.
_MAX_NOISE_EVENTS = 2**31


@dataclass(frozen=True)
class PropellerSpec:
    """Geometry and emission model of one synthetic rotor."""

    center: tuple[int, int]
    radius: int
    blades: int = 2
    rpm: float = 10_000.0
    phase: float = 0.0
    events_per_edge: float = 2.0
    aspect: float = 0.8
    tilt: float = 0.0
    gain_mod_depth: float = 0.8
    gain_mod_axis: float = 0.0

    def __post_init__(self) -> None:
        if self.radius < 5:
            raise ValidationError(f"radius must be at least 5, got {self.radius}")
        if self.blades < 2:
            raise ValidationError(f"blade count must be at least 2, got {self.blades}")
        if not RPM_MIN <= self.rpm <= RPM_MAX:
            raise ValidationError(
                f"rpm must be within {RPM_MIN:.0f}..{RPM_MAX:.0f}, got {self.rpm}"
            )
        if self.events_per_edge <= 0:
            raise ValidationError(
                f"events_per_edge must be positive, got {self.events_per_edge}"
            )
        if not 0.0 < self.aspect <= 1.0:
            raise ValidationError(f"aspect must be in (0, 1], got {self.aspect}")
        if self.gain_mod_depth < 0:
            raise ValidationError(
                f"gain_mod_depth must be non-negative, got {self.gain_mod_depth}"
            )

    @property
    def blade_pass_hz(self) -> float:
        """Blade crossings per second at a fixed point."""
        return self.rpm / 60.0 * self.blades


@dataclass(frozen=True)
class BackgroundSpec:
    """Translating background edges plus uniform noise."""

    edge_count: int = 0
    speed: float = 2.0
    noise_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.edge_count < 0:
            raise ValidationError(f"edge_count must be non-negative, got {self.edge_count}")
        if not 0 < self.speed < math.inf:  # also rejects NaN
            raise ValidationError(f"speed must be positive and finite, got {self.speed}")
        if not 0 <= self.noise_rate < math.inf:
            raise ValidationError(
                f"noise_rate must be non-negative and finite, got {self.noise_rate}"
            )


@dataclass(frozen=True)
class SynthScene:
    """Full scene description: sensor, duration, rotors, background, seed."""

    sensor: SensorGeometry
    duration: int
    propellers: tuple[PropellerSpec, ...] = ()
    background: BackgroundSpec = field(default_factory=BackgroundSpec)
    seed: int = 0
    name: str = "scene"

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValidationError(f"duration must be positive, got {self.duration}")
        if self.seed < 0:
            raise ValidationError(f"seed must be non-negative, got {self.seed}")


def _empty_columns() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    return (
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int32),
        np.empty(0, dtype=np.int32),
        np.empty(0, dtype=np.uint8),
    )


def generate_propeller_events(
    spec: PropellerSpec,
    duration_us: int,
    seed,
    sensor: SensorGeometry,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, BBox]:
    """Events of one rotor over [0, duration_us), plus its ground-truth box.

    Returns (t, x, y, p) columns sorted by timestamp. The ground truth is the
    square of side 2 * radius centered on the rotor, clamped to the sensor.
    """
    cx, cy = spec.center
    if not (0 <= cx < sensor.width and 0 <= cy < sensor.height):
        raise ValidationError(
            f"rotor center ({cx},{cy}) is outside the {sensor.width}x{sensor.height} sensor"
        )
    if duration_us <= 0:
        raise ValidationError(f"duration must be positive, got {duration_us}")
    gt = BBox(cx - spec.radius, cy - spec.radius, 2 * spec.radius, 2 * spec.radius).clamped(
        sensor
    )
    rng = np.random.default_rng(seed)
    omega = 2.0 * math.pi * spec.rpm / 60.0
    rev_s = 2.0 * math.pi / omega
    duration_s = duration_us * 1e-6
    cos_t = math.cos(spec.tilt)
    sin_t = math.sin(spec.tilt)
    # Image-plane half extents of the projected blade disk.
    half_x = spec.radius * math.hypot(cos_t, spec.aspect * sin_t)
    half_y = spec.radius * math.hypot(sin_t, spec.aspect * cos_t)
    x0 = max(int(math.floor(cx - half_x)), 0)
    x1 = min(int(math.ceil(cx + half_x)) + 1, sensor.width)
    y0 = max(int(math.floor(cy - half_y)), 0)
    y1 = min(int(math.ceil(cy + half_y)) + 1, sensor.height)
    gxs, gys = np.meshgrid(np.arange(x0, x1), np.arange(y0, y1))
    gxs = gxs.ravel()
    gys = gys.ravel()
    dx = gxs - float(cx)
    dy = gys - float(cy)
    # Undo the projection to recover blade-plane polar coordinates.
    u = dx * cos_t + dy * sin_t
    v = (-dx * sin_t + dy * cos_t) / spec.aspect
    r_plane = np.hypot(u, v)
    keep = (r_plane >= 1.0) & (r_plane <= spec.radius)
    if not keep.any():
        t, x, y, p = _empty_columns()
        return t, x, y, p, gt
    px = gxs[keep].astype(np.int32)
    py = gys[keep].astype(np.int32)
    phi = np.arctan2(v[keep], u[keep])
    r_plane = r_plane[keep]
    crossing_s = np.minimum(1.0 / (np.maximum(r_plane, 1.0) * omega), _MAX_CROSSING_S)
    gain = 1.0 + spec.gain_mod_depth * np.cos(phi - spec.gain_mod_axis) ** 2
    lam = spec.events_per_edge * gain
    parts_t: list[np.ndarray] = []
    parts_i: list[np.ndarray] = []
    parts_p: list[int] = []
    for blade in range(spec.blades):
        offset = spec.phase + 2.0 * math.pi * blade / spec.blades
        first = np.mod(phi - offset, 2.0 * math.pi) / omega
        passes = np.floor((duration_s - first) / rev_s).astype(np.int64) + 1
        passes[first >= duration_s] = 0
        total = int(passes.sum())
        if total == 0:
            continue
        pixel = np.repeat(np.arange(passes.size), passes)
        ordinal = np.arange(total) - np.repeat(np.cumsum(passes) - passes, passes)
        t_cross = first[pixel] + ordinal * rev_s
        lam_c = lam[pixel]
        width_c = crossing_s[pixel]
        n_pos = rng.poisson(lam_c)
        n_neg = rng.poisson(lam_c)
        lead = np.repeat(pixel, n_pos)
        t_lead = np.repeat(t_cross, n_pos) - rng.random(lead.size) * np.repeat(
            width_c, n_pos
        ) * 0.5
        trail = np.repeat(pixel, n_neg)
        t_trail = np.repeat(t_cross, n_neg) + rng.random(trail.size) * np.repeat(
            width_c, n_neg
        ) * 0.5
        parts_t.extend([t_lead, t_trail])
        parts_i.extend([lead, trail])
        parts_p.extend([1, 0])
    if not parts_t:
        t, x, y, p = _empty_columns()
        return t, x, y, p, gt
    t_s = np.concatenate(parts_t)
    idx = np.concatenate(parts_i)
    pol = np.concatenate(
        [np.full(a.size, code, dtype=np.uint8) for a, code in zip(parts_t, parts_p)]
    )
    t_us = np.floor(t_s * 1e6).astype(np.int64)
    inside = (t_us >= 0) & (t_us < duration_us)
    t_us = t_us[inside]
    idx = idx[inside]
    pol = pol[inside]
    order = np.argsort(t_us, kind="stable")
    return t_us[order], px[idx][order], py[idx][order], pol[order], gt


def generate_background_events(
    spec: BackgroundSpec,
    duration_us: int,
    seed,
    sensor: SensorGeometry,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Events of translating edges and uniform noise over [0, duration_us)."""
    if duration_us <= 0:
        raise ValidationError(f"duration must be positive, got {duration_us}")
    rng = np.random.default_rng(seed)
    duration_ms = duration_us / 1000.0
    parts_t: list[np.ndarray] = []
    parts_x: list[np.ndarray] = []
    parts_y: list[np.ndarray] = []
    parts_p: list[np.ndarray] = []
    if spec.edge_count:
        gxs, gys = np.meshgrid(
            np.arange(sensor.width, dtype=np.float64),
            np.arange(sensor.height, dtype=np.float64),
        )
        gxs = gxs.ravel()
        gys = gys.ravel()
        for _ in range(spec.edge_count):
            angle = rng.uniform(0.0, 2.0 * math.pi)
            ux, uy = math.cos(angle), math.sin(angle)
            proj = gxs * ux + gys * uy
            sweep = spec.speed * duration_ms
            start = rng.uniform(proj.min() - sweep, proj.max())
            band = rng.uniform(*_EDGE_BAND_PX)
            t_lead_ms = (proj - start) / spec.speed
            lead = (t_lead_ms >= 0.0) & (t_lead_ms < duration_ms)
            t_trail_ms = t_lead_ms + band / spec.speed
            trail = (t_trail_ms >= 0.0) & (t_trail_ms < duration_ms)
            for mask, times_ms, code in ((lead, t_lead_ms, 1), (trail, t_trail_ms, 0)):
                if not mask.any():
                    continue
                parts_t.append((times_ms[mask] * 1000.0).astype(np.int64))
                parts_x.append(gxs[mask].astype(np.int32))
                parts_y.append(gys[mask].astype(np.int32))
                parts_p.append(np.full(int(mask.sum()), code, dtype=np.uint8))
    if spec.noise_rate > 0:
        expected = spec.noise_rate * duration_ms
        if expected >= _MAX_NOISE_EVENTS:
            raise ValidationError(
                f"noise rate {spec.noise_rate} per ms over {duration_ms:g} ms expects "
                f"{expected:.3g} events, more than the {_MAX_NOISE_EVENTS} a scene may hold"
            )
        count = int(rng.poisson(expected))
        if count:
            parts_t.append(rng.integers(0, duration_us, count, dtype=np.int64))
            parts_x.append(rng.integers(0, sensor.width, count, dtype=np.int64).astype(np.int32))
            parts_y.append(rng.integers(0, sensor.height, count, dtype=np.int64).astype(np.int32))
            parts_p.append(rng.integers(0, 2, count, dtype=np.int64).astype(np.uint8))
    if not parts_t:
        return _empty_columns()
    t = np.concatenate(parts_t)
    x = np.concatenate(parts_x)
    y = np.concatenate(parts_y)
    p = np.concatenate(parts_p)
    order = np.argsort(t, kind="stable")
    return t[order], x[order], y[order], p[order]


def generate_scene(scene: SynthScene) -> tuple[EventPeriod, AnnotationRecord]:
    """Generate a full scene: merged, time-sorted events plus ground truth."""
    seeds = np.random.SeedSequence(scene.seed).spawn(len(scene.propellers) + 1)
    parts: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
    boxes: list[BoxRecord] = []
    for prop, seed in zip(scene.propellers, seeds):
        t, x, y, p, gt = generate_propeller_events(prop, scene.duration, seed, scene.sensor)
        parts.append((t, x, y, p))
        boxes.append(BoxRecord(bbox=gt))
    parts.append(
        generate_background_events(scene.background, scene.duration, seeds[-1], scene.sensor)
    )
    t = np.concatenate([part[0] for part in parts])
    x = np.concatenate([part[1] for part in parts])
    y = np.concatenate([part[2] for part in parts])
    p = np.concatenate([part[3] for part in parts])
    order = np.argsort(t, kind="stable")
    period = EventPeriod(
        t[order],
        x[order],
        y[order],
        p[order],
        t_start=0,
        duration=scene.duration,
        sensor=scene.sensor,
    )
    annotation = AnnotationRecord(
        file=scene.name,
        width=scene.sensor.width,
        height=scene.sensor.height,
        duration_us=scene.duration,
        boxes=tuple(boxes),
    )
    return period, annotation


def benchmark_period(
    event_target: int,
    seed: int = 0,
    sensor: SensorGeometry = SensorGeometry(640, 480),
    duration_us: int = 20_000,
) -> tuple[EventPeriod, AnnotationRecord]:
    """A standard scene padded or thinned to exactly ``event_target`` events.

    The rotor radius is sized so the rotor supplies roughly half the target;
    uniform noise makes up the difference. Thinning, when needed, drops a
    uniform random subset.
    """
    if event_target < 0:
        raise ValidationError(f"event target must be non-negative, got {event_target}")
    # Size the rotor from the default emission model so it supplies roughly
    # half the requested events.
    passes = duration_us * 1e-6 * PropellerSpec.rpm / 60.0 * PropellerSpec.blades
    per_pixel = (
        passes * 2.0 * PropellerSpec.events_per_edge * (1.0 + PropellerSpec.gain_mod_depth / 2.0)
    )
    radius = math.sqrt(max(event_target, 1) * 0.55 / (math.pi * PropellerSpec.aspect * per_pixel))
    radius = int(min(max(radius, 15), 100))
    prop = PropellerSpec(
        center=(sensor.width // 2, sensor.height // 2),
        radius=radius,
    )
    scene = SynthScene(
        sensor=sensor,
        duration=duration_us,
        propellers=(prop,),
        background=BackgroundSpec(edge_count=3, speed=2.0, noise_rate=10.0),
        seed=seed,
        name=f"bench_{event_target}",
    )
    period, annotation = generate_scene(scene)
    rng = np.random.default_rng(np.random.SeedSequence((seed, event_target)))
    deficit = event_target - len(period)
    if deficit > 0:
        t = np.concatenate([period.t, rng.integers(0, duration_us, deficit, dtype=np.int64)])
        x = np.concatenate(
            [period.x, rng.integers(0, sensor.width, deficit, dtype=np.int64).astype(np.int32)]
        )
        y = np.concatenate(
            [period.y, rng.integers(0, sensor.height, deficit, dtype=np.int64).astype(np.int32)]
        )
        p = np.concatenate(
            [period.p, rng.integers(0, 2, deficit, dtype=np.int64).astype(np.uint8)]
        )
        order = np.argsort(t, kind="stable")
        period = EventPeriod(
            t[order], x[order], y[order], p[order],
            t_start=0, duration=duration_us, sensor=sensor,
        )
    elif deficit < 0:
        keep = np.sort(rng.choice(len(period), size=event_target, replace=False))
        period = EventPeriod(
            period.t[keep], period.x[keep], period.y[keep], period.p[keep],
            t_start=0, duration=duration_us, sensor=sensor,
        )
    return period, annotation
