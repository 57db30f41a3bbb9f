"""Synthetic event scenes with known rotor ground truth.

The rotor model sweeps radial blades around a center at a fixed rpm. Each
time a blade crosses a pixel, the leading edge emits positive events just
before the crossing instant and the trailing edge emits negative events just
after it, with per-edge counts drawn from a Poisson law. The blade disk is
projected with an aspect ratio below one (an out-of-plane view) and blade
emissivity depends on blade angle, so event density, slice structure, and
principal directions all modulate at the blade-pass frequency, as a real
rotor's do. The emission model is fixed: each edge emits
``_EVENTS_PER_EDGE * (1 + _GAIN_MOD_DEPTH * cos(phi)**2)`` events on average
at blade-plane angle phi, so blades aligned with the disk's major axis (the
image x axis) shine brightest.

Background edges translate across the frame and give each crossed pixel one
positive event and one much later negative event, so they build no polarity
intersections. Uniform noise events are added at a configurable rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .events import BBox, EventPeriod, SensorGeometry, whole_fields, whole_numbers
from .io import AnnotationRecord, BoxRecord

RPM_MIN = 5_000.0
RPM_MAX = 15_000.0

# Longest time a blade edge may take to cross one pixel, in seconds. Keeps
# hub pixels from smearing their polarity pair across slice boundaries.
_MAX_CROSSING_S = 500e-6

_EDGE_BAND_PX = (20.0, 60.0)

# Mean events per blade edge crossing, and the depth of their modulation
# with blade angle.
_EVENTS_PER_EDGE = 2.0
_GAIN_MOD_DEPTH = 0.8

# Most events one part of a scene (a rotor, the edges, the noise or the
# benchmark pad) may ask for. Their columns would fill about 36 GB; numpy's
# Poisson sampler only fails near 2**63.
_MAX_EVENTS = 2**31


@dataclass(frozen=True)
class PropellerSpec:
    """Geometry of one synthetic rotor.

    The blade disk's major axis lies along the image x axis. Emission follows
    the module constants ``_EVENTS_PER_EDGE`` and ``_GAIN_MOD_DEPTH``.
    """

    center: tuple[int, int]
    radius: int
    blades: int = 2
    rpm: float = 10_000.0
    phase: float = 0.0
    aspect: float = 0.8

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", whole_numbers(self.center, "rotor center"))
        whole_fields(self, ("radius", "blades"))
        if self.radius < 5:
            raise ValidationError(f"radius must be at least 5, got {self.radius}")
        if self.blades < 2:
            raise ValidationError(f"blade count must be at least 2, got {self.blades}")
        if not RPM_MIN <= self.rpm <= RPM_MAX:
            raise ValidationError(
                f"rpm must be within {RPM_MIN:.0f}..{RPM_MAX:.0f}, got {self.rpm}"
            )
        if not 0.0 < self.aspect <= 1.0:
            raise ValidationError(f"aspect must be in (0, 1], got {self.aspect}")


@dataclass(frozen=True)
class BackgroundSpec:
    """Translating background edges plus uniform noise."""

    edge_count: int = 0
    speed: float = 2.0
    noise_rate: float = 0.0

    def __post_init__(self) -> None:
        whole_fields(self, ("edge_count",))
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
        whole_fields(self, ("duration", "seed"))
        if not 0 < self.duration < 2**63:  # timestamps are int64
            raise ValidationError(f"duration must be within 1..2**63-1 us, got {self.duration}")
        if self.seed < 0:
            raise ValidationError(f"seed must be non-negative, got {self.seed}")


def _empty_columns() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    return (
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int32),
        np.empty(0, dtype=np.int32),
        np.empty(0, dtype=np.uint8),
    )


def _check_event_count(expected: float, what: str) -> None:
    if not expected < _MAX_EVENTS:
        raise ValidationError(
            f"{what} expects {expected:.3g} events, more than the {_MAX_EVENTS} a scene may hold"
        )


def _uniform_events(rng, count: int, duration_us: int, sensor: SensorGeometry):
    """``count`` events uniform over [0, duration_us), the sensor and both polarities."""
    return (
        rng.integers(0, duration_us, count, dtype=np.int64),
        rng.integers(0, sensor.width, count, dtype=np.int64).astype(np.int32),
        rng.integers(0, sensor.height, count, dtype=np.int64).astype(np.int32),
        rng.integers(0, 2, count, dtype=np.int64).astype(np.uint8),
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
    # Image-plane half extents of the projected blade disk.
    half_x = spec.radius
    half_y = spec.radius * spec.aspect
    x0 = max(int(math.floor(cx - half_x)), 0)
    x1 = min(int(math.ceil(cx + half_x)) + 1, sensor.width)
    y0 = max(int(math.floor(cy - half_y)), 0)
    y1 = min(int(math.ceil(cy + half_y)) + 1, sensor.height)
    # A bound: each pixel of the box sees at most duration / rev + 1 passes of
    # each blade, and a pass emits 2 * _EVENTS_PER_EDGE * gain events on average.
    _check_event_count(
        (x1 - x0) * (y1 - y0) * spec.blades * (duration_s / rev_s + 1.0)
        * 2.0 * _EVENTS_PER_EDGE * (1.0 + _GAIN_MOD_DEPTH),
        f"a rotor over {duration_us / 1000.0:g} ms",
    )
    gxs, gys = np.meshgrid(np.arange(x0, x1), np.arange(y0, y1))
    gxs = gxs.ravel()
    gys = gys.ravel()
    dx = gxs - float(cx)
    dy = gys - float(cy)
    # Undo the projection to recover blade-plane polar coordinates.
    u = dx
    v = dy / spec.aspect
    r_plane = np.hypot(u, v)
    keep = (r_plane >= 1.0) & (r_plane <= spec.radius)
    px = gxs[keep].astype(np.int32)
    py = gys[keep].astype(np.int32)
    phi = np.arctan2(v[keep], u[keep])
    r_plane = r_plane[keep]
    crossing_s = np.minimum(1.0 / (np.maximum(r_plane, 1.0) * omega), _MAX_CROSSING_S)
    lam = _EVENTS_PER_EDGE * (1.0 + _GAIN_MOD_DEPTH * np.cos(phi) ** 2)
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
    parts: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
    if spec.edge_count:
        # Each edge gives a pixel at most one event of each polarity.
        _check_event_count(
            2.0 * spec.edge_count * sensor.width * sensor.height,
            f"{spec.edge_count} edge(s) over a {sensor.width}x{sensor.height} sensor",
        )
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
                parts.append((
                    (times_ms[mask] * 1000.0).astype(np.int64),
                    gxs[mask].astype(np.int32),
                    gys[mask].astype(np.int32),
                    np.full(int(mask.sum()), code, dtype=np.uint8),
                ))
    if spec.noise_rate > 0:
        expected = spec.noise_rate * duration_ms
        _check_event_count(
            expected, f"noise rate {spec.noise_rate} per ms over {duration_ms:g} ms"
        )
        parts.append(_uniform_events(rng, int(rng.poisson(expected)), duration_us, sensor))
    if not parts:
        return _empty_columns()
    t, x, y, p = (np.concatenate(cols) for cols in zip(*parts))
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
    # EventPeriod merges the time-sorted parts with one stable sort.
    period = EventPeriod(
        *(np.concatenate(cols) for cols in zip(*parts)),
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


def benchmark_period(event_target: int, seed: int = 0) -> tuple[EventPeriod, AnnotationRecord]:
    """A standard 640x480, 20 ms scene padded or thinned to exactly ``event_target`` events.

    The rotor radius is sized from ``_EVENTS_PER_EDGE`` and ``_GAIN_MOD_DEPTH``
    so the rotor supplies roughly half the target; uniform noise makes up the
    difference. Thinning, when needed, drops a uniform random subset.
    """
    event_target, seed = whole_numbers((event_target, seed), "event target and seed")
    if not 0 <= event_target < _MAX_EVENTS:
        raise ValidationError(
            f"event target must be within 0..{_MAX_EVENTS - 1}, got {event_target}"
        )
    sensor = SensorGeometry(640, 480)
    duration_us = 20_000
    # Size the rotor from the default emission model so it supplies roughly
    # half the requested events.
    passes = duration_us * 1e-6 * PropellerSpec.rpm / 60.0 * PropellerSpec.blades
    per_pixel = passes * 2.0 * _EVENTS_PER_EDGE * (1.0 + _GAIN_MOD_DEPTH / 2.0)
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
        pad = _uniform_events(rng, deficit, duration_us, sensor)
        period = EventPeriod(
            *(np.concatenate([col, extra]) for col, extra in zip(
                (period.t, period.x, period.y, period.p), pad
            )),
            t_start=0, duration=duration_us, sensor=sensor,
        )
    elif deficit < 0:
        keep = np.sort(rng.choice(len(period), size=event_target, replace=False))
        period = EventPeriod(
            period.t[keep], period.x[keep], period.y[keep], period.p[keep],
            t_start=0, duration=duration_us, sensor=sensor,
        )
    return period, annotation
