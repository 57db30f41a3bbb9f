"""Command line interface: detect, synth, eval, and bench subcommands."""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, fields
from functools import partial
from pathlib import Path

import numpy as np

from .detector import Detection, run_pipeline
from .errors import ConfigurationError, EvrotorError
from .events import DetectorConfig, SensorGeometry
from .io import load_events, write_annotation, write_detections, write_events, write_pgm

_EXIT_OK = 0
_EXIT_INVALID = 1
_EXIT_IO = 2


class _DefaultsFormatter(argparse.ArgumentDefaultsHelpFormatter):
    """Shows each flag's default once: help that names its own default, or a
    flag that is unset by default (None), gets no "(default: ...)" appended."""

    def _get_help_string(self, action: argparse.Action) -> str | None:
        if action.default is None or "(default:" in (action.help or ""):
            return action.help
        return super()._get_help_string(action)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n-slices", type=int,
                        help="saliency slices per period (default: one per ms)")
    parser.add_argument("--m-slices", type=int,
                        help="feature slices per period (default: two per ms)")
    parser.add_argument("--tau-s", type=int,
                        help="gray threshold for salient pixels, 0..255")
    parser.add_argument("--tau-p", type=int,
                        help="periodicity score threshold, 0..6")
    parser.add_argument("--k", type=int, dest="k_top", metavar="K",
                        help="clusters kept by saliency rank in the coarse stage")
    parser.add_argument("--d-merge", type=float,
                        help="max bbox distance merged into one cluster, px")
    parser.add_argument("--smooth-window", type=int,
                        help="odd moving-average window for feature series")
    parser.add_argument("--margin", type=int, dest="region_margin", metavar="MARGIN",
                        help="bbox dilation around candidates, px")
    parser.set_defaults(**asdict(DetectorConfig()))


def _config_from(args: argparse.Namespace) -> DetectorConfig:
    # Each config flag stores into the field of its name and defaults to the field's default.
    return DetectorConfig(**{f.name: getattr(args, f.name) for f in fields(DetectorConfig)})


class _CommandParser(argparse.ArgumentParser):
    """A command's parser that adds its flags (``add_flags``) when it first
    parses, so that building the CLI's parser loads no module that only
    those flags read: ``detect`` never imports the scene generator."""

    def __init__(self, *args, add_flags=None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._add_flags = add_flags

    def parse_known_args(self, args=None, namespace=None):
        if self._add_flags is not None:
            self._add_flags(self)
            self._add_flags = None
        return super().parse_known_args(args, namespace)


def _add_scene_flags(synth: argparse.ArgumentParser) -> None:
    # The scene flags default to the scene specs' own defaults.
    from .synth import BackgroundSpec, PropellerSpec, SynthScene

    synth.add_argument("--out-events", required=True,
                       help="event output path; .evd or .bin selects binary, else CSV")
    synth.add_argument("--out-gt", default=None,
                       help="ground-truth JSON path (default: <out-events>.gt.json)")
    synth.add_argument("--width", type=int, default=640, help="sensor width, px")
    synth.add_argument("--height", type=int, default=480, help="sensor height, px")
    synth.add_argument("--duration-ms", type=int, default=20, help="period length, ms")
    synth.add_argument("--rpm", type=float, default=PropellerSpec.rpm,
                       help="rotor speed, revolutions per minute")
    synth.add_argument("--blades", type=int, default=PropellerSpec.blades,
                       help="blades per rotor")
    synth.add_argument("--radius", type=int, default=50, help="rotor radius, px")
    synth.add_argument("--center", default=None, metavar="X,Y",
                       help="rotor center (default: frame center)")
    synth.add_argument("--aspect", type=float, default=PropellerSpec.aspect,
                       help="projected minor/major axis ratio of the blade disk")
    synth.add_argument("--background-only", action="store_true",
                       help="omit the rotor")
    synth.add_argument("--edges", type=int, default=BackgroundSpec.edge_count,
                       help="translating background edges")
    synth.add_argument("--speed", type=float, default=BackgroundSpec.speed,
                       help="background edge speed, px per ms")
    synth.add_argument("--noise-rate", type=float, default=BackgroundSpec.noise_rate,
                       help="uniform noise events per ms over the frame")
    synth.add_argument("--seed", type=int, default=SynthScene.seed,
                       help="random seed; one seed always writes the same bytes")
    synth.set_defaults(func=cmd_synth)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evrotor",
        description="Training-free rotor detection in event-camera streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

    detect = sub.add_parser(
        "detect",
        help="detect rotors in event files",
        formatter_class=_DefaultsFormatter,
    )
    detect.add_argument("--input", nargs="+", required=True,
                        help="event file(s), CSV or binary")
    detect.add_argument("--width", type=int, default=None,
                        help="sensor width, required for CSV input")
    detect.add_argument("--height", type=int, default=None,
                        help="sensor height, required for CSV input")
    _add_config_flags(detect)
    detect.add_argument("--output", default=None,
                        help="detections JSON path, or a directory for several inputs or one "
                             "ending in a path separator (default: alongside each input)")
    detect.add_argument("--jobs", type=int, default=1,
                        help="worker processes for several inputs")
    detect.add_argument("--dump-saliency", default=None, metavar="PGM",
                        help="write the saliency map as binary PGM (single input only)")
    detect.add_argument("--dump-features", default=None, metavar="CSV",
                        help="write candidate feature series as CSV (single input only)")
    detect.set_defaults(func=cmd_detect)

    sub.add_parser(
        "synth",
        help="generate a synthetic scene with ground truth",
        formatter_class=_DefaultsFormatter,
        add_flags=_add_scene_flags,
    )

    evaluate = sub.add_parser(
        "eval",
        help="score detections against ground truth",
        formatter_class=_DefaultsFormatter,
    )
    evaluate.add_argument("--pred", required=True, help="directory of detection JSON files")
    evaluate.add_argument("--gt", required=True, help="directory of ground-truth JSON files")
    evaluate.add_argument("--iou", type=float, default=0.4, help="matching IoU threshold")
    evaluate.add_argument("--json", default=None, metavar="PATH",
                          help="also write the report as JSON")
    evaluate.set_defaults(func=cmd_eval)

    bench = sub.add_parser(
        "bench",
        help="measure detection latency on a standard scene",
        formatter_class=_DefaultsFormatter,
    )
    bench.add_argument("--events", type=int, default=200_000,
                       help="events in the generated 640x480, 20 ms scene")
    bench.add_argument("--reps", type=int, default=50, help="timed repetitions")
    bench.add_argument("--seed", type=int, default=0, help="scene seed")
    bench.set_defaults(func=cmd_bench)

    return parser


def _dump_features_csv(features, path) -> None:
    with open(path, "w", encoding="ascii") as handle:
        handle.write("candidate,slice,f_d,f_s,f_p\n")
        for index, series in enumerate(features):
            for j in range(series.f_d.size):
                f_s = f"{series.f_s[j]:.6f}" if j < series.f_s.size else ""
                f_p = f"{series.f_p[j]:.6f}" if j < series.f_p.size else ""
                handle.write(f"{index},{j},{series.f_d[j]:.1f},{f_s},{f_p}\n")


def _detect_one(
    path: Path,
    *,
    sensor: SensorGeometry | None,
    config: DetectorConfig,
    dump_saliency: str | None,
    dump_features: str | None,
) -> tuple[list[Detection], SensorGeometry, int]:
    """Detect rotors in one input file; returns what its JSON record needs."""
    period = load_events(path, sensor)
    try:
        result = run_pipeline(period, config)
    except EvrotorError as err:
        raise type(err)(f"{path}: {err}") from None
    if dump_saliency:
        write_pgm(result.saliency.gray, dump_saliency)
    if dump_features:
        _dump_features_csv(result.candidate_features, dump_features)
    return result.detections, period.sensor, period.duration


def cmd_detect(args: argparse.Namespace) -> int:
    config = _config_from(args)
    inputs = [Path(p) for p in args.input]
    if len(inputs) > 1 and (args.dump_saliency or args.dump_features):
        raise ConfigurationError("feature and saliency dumps need a single input")
    if args.jobs < 1:
        raise ConfigurationError(f"jobs must be at least 1, got {args.jobs}")
    if (args.width is None) != (args.height is None):
        raise ConfigurationError("--width and --height must be given together")

    out_arg = None if args.output is None else Path(args.output)
    # Path drops a trailing separator, which names a directory.
    if out_arg is not None and (len(inputs) > 1 or args.output[-1:] in (os.sep, os.altsep)):
        out_arg.mkdir(parents=True, exist_ok=True)
    out_paths = [
        p.with_suffix(".json") if out_arg is None
        else out_arg / (p.stem + ".json") if out_arg.is_dir()
        else out_arg
        for p in inputs
    ]
    sensor = None
    if args.width is not None:
        sensor = SensorGeometry(args.width, args.height)
    worker = partial(
        _detect_one,
        sensor=sensor,
        config=config,
        dump_saliency=args.dump_saliency,
        dump_features=args.dump_features,
    )
    # The pool starts all its workers up front, so start no more than can work.
    workers = min(args.jobs, len(inputs), os.cpu_count() or 1)
    if workers > 1:
        # Imported here, so that a run with one worker never loads the pool's modules.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(worker, inputs))
    else:
        results = map(worker, inputs)
    # Records are written here, in input order, so inputs sharing a stem
    # resolve the same way with or without worker processes.
    for path, out_path, (detections, geometry, duration_us) in zip(inputs, out_paths, results):
        write_detections(
            detections, out_path, source=path.name, sensor=geometry, duration_us=duration_us
        )
        print(f"{path.name}: {len(detections)} detection(s) -> {out_path}")
    return _EXIT_OK


def _parse_center(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigurationError(f"center must be X,Y, got {text!r}")
    try:
        return (int(parts[0]), int(parts[1]))
    except ValueError:
        raise ConfigurationError(f"center must be two integers, got {text!r}") from None


def cmd_synth(args: argparse.Namespace) -> int:
    from .synth import BackgroundSpec, PropellerSpec, SynthScene, generate_scene

    sensor = SensorGeometry(args.width, args.height)
    propellers: tuple[PropellerSpec, ...] = ()
    if not args.background_only:
        center = (
            _parse_center(args.center)
            if args.center is not None
            else (sensor.width // 2, sensor.height // 2)
        )
        propellers = (
            PropellerSpec(
                center=center,
                radius=args.radius,
                blades=args.blades,
                rpm=args.rpm,
                aspect=args.aspect,
            ),
        )
    out_events = Path(args.out_events)
    scene = SynthScene(
        sensor=sensor,
        duration=args.duration_ms * 1000,
        propellers=propellers,
        background=BackgroundSpec(
            edge_count=args.edges, speed=args.speed, noise_rate=args.noise_rate
        ),
        seed=args.seed,
        name=out_events.name,
    )
    period, annotation = generate_scene(scene)
    write_events(period, out_events)
    gt_path = Path(args.out_gt) if args.out_gt else out_events.with_suffix(".gt.json")
    write_annotation(annotation, gt_path)
    print(f"{len(period)} events -> {out_events}; {len(annotation.boxes)} box(es) -> {gt_path}")
    return _EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    from .metrics import evaluate_dataset

    report = evaluate_dataset(args.pred, args.gt, args.iou)
    print(report.table())
    if args.json:
        with open(args.json, "w", encoding="ascii") as handle:
            handle.write(report.to_json())
            handle.write("\n")
    return _EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    from .synth import benchmark_period

    if args.reps < 1:
        raise ConfigurationError(f"reps must be at least 1, got {args.reps}")
    period, _ = benchmark_period(args.events, seed=args.seed)
    config = DetectorConfig()
    detections = run_pipeline(period, config).detections  # warmup, untimed
    times_ms = []
    for _ in range(args.reps):
        start = time.perf_counter()
        detections = run_pipeline(period, config).detections
        times_ms.append((time.perf_counter() - start) * 1000.0)
    payload = {
        "events": len(period),
        "reps": args.reps,
        "median_ms": float(np.median(times_ms)),
        "p95_ms": float(np.percentile(times_ms, 95)),
        "detections": len(detections),
    }
    print(json.dumps(payload))
    return _EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EvrotorError as err:
        print(f"error: {err}", file=sys.stderr)
        return _EXIT_INVALID
    except OSError as err:
        print(f"io error: {err}", file=sys.stderr)
        return _EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
