"""Synthetic rotor scenes: spec validation, determinism, and statistics."""

import math

import numpy as np
import pytest

from evrotor import (
    BBox,
    BackgroundSpec,
    PropellerSpec,
    SynthScene,
    ValidationError,
    benchmark_period,
    detect_period,
    generate_background_events,
    generate_propeller_events,
    generate_scene,
    saliency_map,
)

from conftest import SMALL, VGA


def spec_at(center=(320, 240), **kwargs):
    kwargs.setdefault("radius", 50)
    return PropellerSpec(center=center, **kwargs)


class TestSpecs:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"radius": 4},
            {"blades": 1},
            {"rpm": 4_000},
            {"rpm": 16_000},
            {"aspect": 0.0},
            {"aspect": 1.2},
        ],
    )
    def test_bad_propeller_parameters(self, kwargs):
        with pytest.raises(ValidationError):
            spec_at(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [{"edge_count": -1}, {"speed": 0.0}, {"noise_rate": -2.0}],
    )
    def test_bad_background_parameters(self, kwargs):
        with pytest.raises(ValidationError):
            BackgroundSpec(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [{"speed": math.nan}, {"speed": math.inf}, {"noise_rate": math.nan},
         {"noise_rate": math.inf}],
    )
    def test_non_finite_background_parameters_are_rejected(self, kwargs):
        with pytest.raises(ValidationError, match="finite"):
            BackgroundSpec(**kwargs)

    def test_noise_beyond_what_a_scene_holds_is_rejected(self):
        # 1e300 events per ms is finite, but no Poisson draw or host takes it
        with pytest.raises(ValidationError, match="expects"):
            generate_background_events(BackgroundSpec(noise_rate=1e300), 20_000, 0, VGA)
        with pytest.raises(ValidationError, match="expects"):
            generate_background_events(BackgroundSpec(noise_rate=2**31 / 20), 20_000, 0, VGA)

    def test_scene_seed_must_be_non_negative(self):
        with pytest.raises(ValidationError, match="seed"):
            SynthScene(sensor=VGA, duration=1_000, seed=-1)
        SynthScene(sensor=VGA, duration=1_000, seed=0)

    def test_scene_duration_must_be_positive(self):
        with pytest.raises(ValidationError):
            SynthScene(sensor=VGA, duration=0, propellers=(), background=BackgroundSpec())

    @pytest.mark.parametrize(
        "make",
        [
            lambda: spec_at(center=(320.5, 240)),
            lambda: spec_at(radius=50.5),
            lambda: spec_at(blades=2.5),
            lambda: BackgroundSpec(edge_count=1.5),
            lambda: SynthScene(sensor=VGA, duration=20_000.5),
            lambda: SynthScene(sensor=VGA, duration=20_000, seed=1.5),
            lambda: SynthScene(sensor=VGA, duration=math.nan),
            lambda: benchmark_period(1000.5),
            lambda: benchmark_period(1000, seed=1.5),
            lambda: SynthScene(sensor=VGA, duration=None),
            lambda: spec_at(radius="50"),
        ],
    )
    def test_fractional_counts_are_refused(self, make):
        # Several of these used to end in a bare TypeError deep in generation.
        with pytest.raises(ValidationError, match="must be integers"):
            make()

    def test_integral_float_counts_load_as_python_ints(self):
        spec = spec_at(center=(320.0, np.int64(240)), radius=50.0, blades=3.0)
        assert (spec.center, spec.radius, spec.blades) == ((320, 240), 50, 3)
        scene = SynthScene(sensor=SMALL, duration=10_000.0, propellers=(),
                           background=BackgroundSpec(edge_count=2.0), seed=np.int64(4))
        values = (*spec.center, spec.radius, spec.blades, scene.duration, scene.seed,
                  scene.background.edge_count)
        assert all(type(v) is int for v in values)
        a, _ = generate_scene(scene)
        b, _ = generate_scene(SynthScene(sensor=SMALL, duration=10_000, propellers=(),
                                         background=BackgroundSpec(edge_count=2), seed=4))
        assert np.array_equal(a.t, b.t) and np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y) and np.array_equal(a.p, b.p)
        c, _ = benchmark_period(3000.0, seed=2.0)
        d, _ = benchmark_period(3000, seed=2)
        assert np.array_equal(c.t, d.t) and np.array_equal(c.x, d.x)

    def test_center_must_sit_on_the_sensor(self):
        scene = SynthScene(
            sensor=SMALL,
            duration=10_000,
            propellers=(PropellerSpec(center=(100, 10), radius=10),),
            background=BackgroundSpec(),
        )
        with pytest.raises(ValidationError):
            generate_scene(scene)

    @pytest.mark.parametrize("center", [(1, 2, 3), (1,), ()])
    def test_center_must_be_an_x_y_pair(self, center):
        # A three-number center used to construct and end in a bare ValueError in generation.
        with pytest.raises(ValidationError, match="rotor center must be an \\(x, y\\) pair"):
            PropellerSpec(center=center, radius=10)


class TestPropellerEvents:
    def test_events_are_sorted_in_bounds_and_binary(self):
        t, x, y, p = generate_propeller_events(spec_at(), 20_000, 7, VGA)[:4]
        assert len(t) > 0
        assert np.all(np.diff(t) >= 0)
        assert t.min() >= 0 and t.max() < 20_000
        assert x.min() >= 0 and x.max() < VGA.width
        assert y.min() >= 0 and y.max() < VGA.height
        assert set(np.unique(p)) <= {0, 1}

    def test_ground_truth_is_a_square_of_twice_the_radius(self):
        gt = generate_propeller_events(spec_at(center=(320, 240)), 20_000, 7, VGA)[4]
        assert gt == BBox(270, 190, 100, 100)

    def test_ground_truth_clamps_at_the_sensor_border(self):
        spec = PropellerSpec(center=(10, 10), radius=30)
        gt = generate_propeller_events(spec, 20_000, 7, VGA)[4]
        assert gt == BBox(0, 0, 40, 40)

    def test_same_seed_reproduces_every_array(self):
        first = generate_propeller_events(spec_at(), 20_000, 123, VGA)
        second = generate_propeller_events(spec_at(), 20_000, 123, VGA)
        for a, b in zip(first[:4], second[:4]):
            assert np.array_equal(a, b)
        assert first[4] == second[4]

    def test_different_seeds_differ(self):
        a = generate_propeller_events(spec_at(), 20_000, 1, VGA)[0]
        b = generate_propeller_events(spec_at(), 20_000, 2, VGA)[0]
        assert len(a) != len(b) or not np.array_equal(a, b)

    def test_polarities_stay_balanced(self):
        _, _, _, p, _ = generate_propeller_events(spec_at(), 20_000, 11, VGA)
        share = p.mean()
        assert abs(share - 0.5) < 0.05

    def test_events_cluster_inside_the_ground_truth_box(self):
        t, x, y, p, gt = generate_propeller_events(spec_at(), 20_000, 3, VGA)
        inside = (
            (x >= gt.x) & (x < gt.right) & (y >= gt.y) & (y < gt.bottom)
        ).mean()
        assert inside > 0.99


class TestBackgroundEvents:
    def test_translating_edges_cross_each_pixel_at_most_once_per_slice(self):
        # an edge sweeping at a few px/ms revisits no pixel within one slice,
        # so per-slice occupancy alone cannot push intersections high
        for seed in range(5):
            spec = BackgroundSpec(edge_count=1, speed=2.0)
            t, x, y, p = generate_background_events(spec, 20_000, seed, VGA)
            if len(t) == 0:
                continue
            n = 20
            slices = (t.astype(np.int64) * n) // 20_000
            for pol in (0, 1):
                keep = p == pol
                cells = set(zip(slices[keep].tolist(), x[keep].tolist(), y[keep].tolist()))
                assert len(cells) == int(keep.sum())

    def test_noise_alone_stays_under_the_saliency_threshold(self):
        hits = 0
        for seed in range(20):
            scene = SynthScene(
                sensor=VGA,
                duration=20_000,
                propellers=(),
                background=BackgroundSpec(noise_rate=50.0),
                seed=seed,
            )
            period, _ = generate_scene(scene)
            smap = saliency_map(period, 20)
            if smap.gray.max() < 50:
                hits += 1
        assert hits >= 19

    def test_zero_background_is_silent(self):
        t, x, y, p = generate_background_events(BackgroundSpec(), 20_000, 0, VGA)
        assert len(t) == len(x) == len(y) == len(p) == 0


class TestSceneAssembly:
    def test_empty_scene(self):
        scene = SynthScene(sensor=SMALL, duration=5_000, propellers=(), background=BackgroundSpec())
        period, annotation = generate_scene(scene)
        assert len(period) == 0
        assert annotation.boxes == ()
        assert annotation.width == SMALL.width
        assert annotation.duration_us == 5_000

    def test_one_propeller_one_box(self):
        scene = SynthScene(
            sensor=VGA,
            duration=20_000,
            propellers=(spec_at(),),
            background=BackgroundSpec(edge_count=2, noise_rate=10.0),
            seed=4,
            name="hover",
        )
        period, annotation = generate_scene(scene)
        assert annotation.file == "hover"
        assert len(annotation.boxes) == 1
        assert annotation.boxes[0].bbox == BBox(270, 190, 100, 100)
        assert len(period) > 0
        assert period.t_start == 0 and period.duration == 20_000

    def test_two_propellers_two_boxes(self):
        scene = SynthScene(
            sensor=VGA,
            duration=20_000,
            propellers=(
                PropellerSpec(center=(150, 150), radius=40),
                PropellerSpec(center=(450, 350), radius=60, rpm=12_000),
            ),
            background=BackgroundSpec(),
            seed=9,
        )
        _, annotation = generate_scene(scene)
        assert [b.bbox.as_tuple() for b in annotation.boxes] == [
            (110, 110, 80, 80),
            (390, 290, 120, 120),
        ]

    def test_scene_generation_is_bitwise_deterministic(self):
        scene = SynthScene(
            sensor=VGA,
            duration=20_000,
            propellers=(spec_at(),),
            background=BackgroundSpec(edge_count=3, noise_rate=25.0),
            seed=21,
        )
        first, _ = generate_scene(scene)
        second, _ = generate_scene(scene)
        assert np.array_equal(first.t, second.t)
        assert np.array_equal(first.x, second.x)
        assert np.array_equal(first.y, second.y)
        assert np.array_equal(first.p, second.p)

    def test_seed_changes_the_stream(self):
        base = dict(
            sensor=VGA,
            duration=20_000,
            propellers=(spec_at(),),
            background=BackgroundSpec(noise_rate=5.0),
        )
        a, _ = generate_scene(SynthScene(seed=1, **base))
        b, _ = generate_scene(SynthScene(seed=2, **base))
        assert len(a) != len(b) or not np.array_equal(a.t, b.t)


class TestBenchmarkPeriod:
    def test_hits_the_event_target_exactly(self):
        for target in (5_000, 200_000):
            period, annotation = benchmark_period(target, seed=0)
            assert len(period) == target
            assert len(annotation.boxes) == 1

    def test_is_deterministic(self):
        a, _ = benchmark_period(30_000, seed=8)
        b, _ = benchmark_period(30_000, seed=8)
        assert np.array_equal(a.t, b.t) and np.array_equal(a.x, b.x)

    def test_benchmark_scene_is_detectable(self):
        period, annotation = benchmark_period(150_000, seed=0)
        detections = detect_period(period)
        assert len(detections) >= 1
