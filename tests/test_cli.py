"""End-to-end command line behavior for detect, synth, eval, and bench."""

import contextlib
import io
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from evrotor import (
    BackgroundSpec,
    DetectorConfig,
    EventPeriod,
    PropellerSpec,
    SensorGeometry,
    SynthScene,
    write_events,
)
from evrotor import cli
from evrotor.cli import build_parser, main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    """One small synthetic scene in CSV and binary form, with ground truth."""
    root = tmp_path_factory.mktemp("scenes")
    for name in ("clip.csv", "clip.evd"):
        code = main(
            [
                "synth",
                "--out-events", str(root / name),
                "--width", "160",
                "--height", "120",
                "--duration-ms", "10",
                "--radius", "20",
                "--edges", "1",
                "--seed", "3",
            ]
        )
        assert code == 0
    return root


def loaded_by_detect(scene_dir, tmp_path, modules):
    """Whether each of ``modules`` is loaded after one detect run in a fresh interpreter."""
    script = f"""
import json, sys
from evrotor import cli
assert cli.main(["detect", "--input", {str(scene_dir / "clip.evd")!r},
                 "--output", {str(tmp_path / "d.json")!r}]) == 0
print(json.dumps([name in sys.modules for name in {modules!r}]))
"""
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestDetect:
    def test_csv_input_writes_detection_json(self, scene_dir, tmp_path, capsys):
        out = tmp_path / "dets.json"
        code, stdout, _ = run_cli(
            [
                "detect",
                "--input", str(scene_dir / "clip.csv"),
                "--width", "160",
                "--height", "120",
                "--output", str(out),
            ],
            capsys,
        )
        assert code == 0
        assert "detection(s)" in stdout
        record = json.loads(out.read_text())
        assert record["file"] == "clip.csv"
        assert record["width"] == 160 and record["height"] == 120
        assert record["duration_us"] == 10_000
        for box in record["boxes"]:
            assert set(box) == {"x", "y", "w", "h", "s_p", "s_s"}

    def test_binary_input_needs_no_geometry_flags(self, scene_dir, tmp_path, capsys):
        out = tmp_path / "dets.json"
        code, _, _ = run_cli(
            ["detect", "--input", str(scene_dir / "clip.evd"), "--output", str(out)],
            capsys,
        )
        assert code == 0
        assert json.loads(out.read_text())["width"] == 160

    def test_csv_without_geometry_fails(self, scene_dir, tmp_path, capsys):
        code, _, err = run_cli(
            ["detect", "--input", str(scene_dir / "clip.csv"),
             "--output", str(tmp_path / "d.json")],
            capsys,
        )
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("name", ["clip.evd", "clip.csv"])
    @pytest.mark.parametrize("side", [["--width", "999"], ["--height", "120"]])
    def test_one_geometry_flag_without_the_other_fails(self, scene_dir, tmp_path, name, side, capsys):
        out = tmp_path / "d.json"
        code, _, err = run_cli(
            ["detect", "--input", str(scene_dir / name), *side, "--output", str(out)], capsys
        )
        assert code == 1
        assert err == "error: --width and --height must be given together\n"
        assert not out.exists()

    def test_bad_threshold_is_reported(self, scene_dir, tmp_path, capsys):
        code, _, err = run_cli(
            ["detect", "--input", str(scene_dir / "clip.evd"),
             "--tau-s", "300", "--output", str(tmp_path / "d.json")],
            capsys,
        )
        assert code == 1
        assert "0..255" in err

    def test_missing_input_is_an_io_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["detect", "--input", str(tmp_path / "nope.evd"),
             "--output", str(tmp_path / "d.json")],
            capsys,
        )
        assert code == 2
        assert "io error:" in err

    def test_overflowing_period_is_reported(self, tmp_path, capsys):
        # 2**40 us at one slice per ms: (t - t_start) * n would wrap in int64
        path = tmp_path / "long.csv"
        path.write_text(f"0,1,1,1\n{2**40},2,2,0\n", encoding="ascii")
        code, _, err = run_cli(
            ["detect", "--input", str(path), "--width", "8", "--height", "8",
             "--output", str(tmp_path / "d.json")],
            capsys,
        )
        assert code == 1
        assert err.count("\n") == 1 and err.startswith("error:")
        assert "overflows" in err

    def test_overflowing_binary_period_start_is_reported(self, tmp_path, capsys):
        # An empty .evd whose header starts the period at 2**63 us.
        path = tmp_path / "late.evd"
        path.write_bytes(struct.pack("<4sHHQQ", b"EVD1", 8, 8, 2**63, 1000))
        code, _, err = run_cli(
            ["detect", "--input", str(path), "--output", str(tmp_path / "d.json")], capsys
        )
        assert code == 1
        assert err.count("\n") == 1 and err.startswith("error:")

    @pytest.mark.parametrize(
        "duration, message",
        [(2**64 - 1, "event 0 at t=9223372036854775813 is past the last time, 2**63-1 us"),
         (1000, "event 0 at t=9223372036854775813 is outside the period [0, 1000)")],
    )
    def test_binary_time_past_int64_is_reported(self, tmp_path, capsys, duration, message):
        # EventPeriod checks the file's uint64 times before its int64 cast could wrap them.
        path = tmp_path / "late.evd"
        path.write_bytes(evd_bytes((b"EVD1", 8, 8, 0, duration), [(2**63 + 5, 1, 1, 1)]))
        code, _, err = run_cli(
            ["detect", "--input", str(path), "--output", str(tmp_path / "d.json")], capsys
        )
        assert code == 1
        assert err == f"error: {path}: {message}\n"

    def test_loader_errors_name_the_file(self, scene_dir, tmp_path, capsys):
        good, late = tmp_path / "good.csv", tmp_path / "late.csv"
        good.write_text("0,1,1,1\n5,1,1,0\n", encoding="ascii")
        late.write_text("0,100,1,1\n", encoding="ascii")
        code, _, err = run_cli(
            ["detect", "--input", str(good), str(late), "--width", "8", "--height", "8",
             "--output", str(tmp_path / "d")],
            capsys,
        )
        assert code == 1
        assert err.count("\n") == 1 and err.startswith("error:")
        assert err.count(str(late)) == 1 and "outside the 8x8 sensor" in err
        assert str(good) not in err
        # the header check of a binary file, and a CSV period that is empty
        empty = tmp_path / "empty.csv"
        empty.write_text("# t_start_us=0\n", encoding="ascii")
        for path, what in ((scene_dir / "clip.evd", "disagrees"), (empty, "duration")):
            code, _, err = run_cli(
                ["detect", "--input", str(path), "--width", "8", "--height", "8",
                 "--output", str(tmp_path / "e.json")],
                capsys,
            )
            assert code == 1
            assert err.startswith(f"error: {path}: ") and what in err
            assert err.count(str(path)) == 1

    def test_detection_errors_name_the_file_and_the_default_slicing(self, tmp_path, capsys):
        # Three events over 3 us: the default 4 feature slices need 4 us.
        good, short = tmp_path / "good.csv", tmp_path / "short.csv"
        good.write_text("0,1,1,1\n9,1,1,0\n", encoding="ascii")
        short.write_text("0,1,1,1\n1,2,2,0\n2,3,3,1\n", encoding="ascii")
        code, _, err = run_cli(
            ["detect", "--input", str(good), str(short), "--width", "8", "--height", "8",
             "--output", str(tmp_path / "d")],
            capsys,
        )
        assert code == 1
        assert err.count("\n") == 1 and err.startswith(f"error: {short}: ")
        assert "period of 3 us is shorter than the 4 us that default slicing needs" in err
        assert str(good) not in err
        # A slice count the user set keeps its own message, with the file in front.
        code, _, err = run_cli(
            ["detect", "--input", str(short), "--width", "8", "--height", "8",
             "--n-slices", "2", "--m-slices", "5", "--output", str(tmp_path / "e.json")],
            capsys,
        )
        assert code == 1
        assert err == f"error: {short}: m_slices 5 exceeds the period duration of 3 us\n"

    def test_oversized_csv_sensor_is_reported_before_any_grid(self, tmp_path, capsys):
        """A 10**6 x 10**6 sensor would need terabytes of saliency grid."""
        path = tmp_path / "two_events.csv"
        path.write_text("0,1,1,1\n5,1,1,0\n", encoding="ascii")
        tracemalloc.start()
        try:
            code, _, err = run_cli(
                ["detect", "--input", str(path), "--width", "1000000", "--height", "1000000",
                 "--output", str(tmp_path / "d.json")],
                capsys,
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert err.count("\n") == 1 and err.startswith(f"error: {path}: ")
        assert "exceeds 65535 pixels per side" in err
        assert peak < 1_000_000

    def test_long_declared_period_needs_no_slice_volume(self, tmp_path, capsys):
        """2**33 us is 8.6 million slices: a per-slice 8x8 volume would take gigabytes."""
        sensor = SensorGeometry(8, 8)
        last = 2**33 - 1
        period = EventPeriod(
            t=[0, 0, 5_000, last, last], x=[1, 1, 3, 7, 7], y=[2, 2, 4, 7, 7],
            p=[1, 0, 1, 1, 0], t_start=0, duration=2**33, sensor=sensor,
        )
        path = tmp_path / "long.evd"
        write_events(period, path)
        out = tmp_path / "d.json"
        code, _, err = run_cli(["detect", "--input", str(path), "--output", str(out)], capsys)
        assert code == 0, err
        record = json.loads(out.read_text())
        assert record["duration_us"] == 2**33
        assert record["boxes"] == []

    def test_unknown_flag_exits_with_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["detect", "--input", "x.evd", "--frobnicate"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_several_inputs_fan_out_to_a_directory(self, scene_dir, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code, stdout, _ = run_cli(
            [
                "detect",
                "--input", str(scene_dir / "clip.csv"), str(scene_dir / "clip.evd"),
                "--width", "160",
                "--height", "120",
                "--output", str(out_dir),
                "--jobs", "2",
            ],
            capsys,
        )
        assert code == 0
        assert (out_dir / "clip.json").exists()
        assert stdout.count("detection(s)") == 2

    def test_single_and_batch_runs_write_identical_json(self, scene_dir, tmp_path, capsys):
        clip = scene_dir / "clip.evd"
        other = tmp_path / "other.evd"
        other.write_bytes(clip.read_bytes())
        single = tmp_path / "single.json"
        code, _, _ = run_cli(["detect", "--input", str(clip), "--output", str(single)], capsys)
        assert code == 0
        assert json.loads(single.read_text())["boxes"]
        for jobs in ("1", "2"):
            out_dir = tmp_path / f"jobs{jobs}"
            code, _, _ = run_cli(
                ["detect", "--input", str(clip), str(other),
                 "--output", str(out_dir), "--jobs", jobs],
                capsys,
            )
            assert code == 0
            assert (out_dir / "clip.json").read_bytes() == single.read_bytes()

    def test_workers_never_outnumber_inputs(self, scene_dir, tmp_path, capsys, monkeypatch):
        started = []

        class InProcessPool:
            """Stands in for ProcessPoolExecutor; records the worker count it was given."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable):
                return map(fn, iterable)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
        code, _, _ = run_cli(
            ["detect", "--input", str(scene_dir / "clip.evd"), str(scene_dir / "clip.evd"),
             "--output", str(tmp_path / "out"), "--jobs", "1000000"],
            capsys,
        )
        assert code == 0
        assert started == [2]

    def test_dumps_require_a_single_input(self, scene_dir, tmp_path, capsys):
        code, _, err = run_cli(
            [
                "detect",
                "--input", str(scene_dir / "clip.csv"), str(scene_dir / "clip.evd"),
                "--width", "160", "--height", "120",
                "--output", str(tmp_path / "out"),
                "--dump-saliency", str(tmp_path / "s.pgm"),
            ],
            capsys,
        )
        assert code == 1
        assert "single input" in err

    def test_saliency_dump_is_a_valid_pgm(self, scene_dir, tmp_path, capsys):
        pgm = tmp_path / "map.pgm"
        code, _, _ = run_cli(
            [
                "detect",
                "--input", str(scene_dir / "clip.evd"),
                "--output", str(tmp_path / "d.json"),
                "--dump-saliency", str(pgm),
            ],
            capsys,
        )
        assert code == 0
        payload = pgm.read_bytes()
        header = b"P5\n160 120\n255\n"
        assert payload.startswith(header)
        assert len(payload) == len(header) + 160 * 120

    def test_feature_dump_has_the_expected_columns(self, scene_dir, tmp_path, capsys):
        csv_path = tmp_path / "features.csv"
        code, _, _ = run_cli(
            [
                "detect",
                "--input", str(scene_dir / "clip.evd"),
                "--output", str(tmp_path / "d.json"),
                "--dump-features", str(csv_path),
            ],
            capsys,
        )
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "candidate,slice,f_d,f_s,f_p"
        if len(lines) > 1:
            assert lines[1].startswith("0,0,")

    def test_detect_defaults_match_the_library_config(self):
        # detect with no config flags builds exactly the library default
        args = build_parser().parse_args(["detect", "--input", "x.evd"])
        assert cli._config_from(args) == DetectorConfig()

    def test_every_config_field_is_set_by_its_flag(self):
        flags = {
            "n_slices": ("--n-slices", "7"),
            "m_slices": ("--m-slices", "9"),
            "tau_s": ("--tau-s", "60"),
            "tau_p": ("--tau-p", "4"),
            "k_top": ("--k", "2"),
            "d_merge": ("--d-merge", "12.5"),
            "smooth_window": ("--smooth-window", "5"),
            "region_margin": ("--margin", "3"),
        }
        assert set(flags) == {f.name for f in fields(DetectorConfig)}
        defaults = DetectorConfig()
        for name, (flag, value) in flags.items():
            args = build_parser().parse_args(["detect", "--input", "x.evd", flag, value])
            config = cli._config_from(args)
            assert getattr(config, name) == float(value) != getattr(defaults, name), name
            assert replace(config, **{name: getattr(defaults, name)}) == defaults, name

    def test_one_worker_loads_no_process_pool(self, scene_dir, tmp_path):
        assert loaded_by_detect(scene_dir, tmp_path, ["concurrent.futures"]) == [False]

    def test_detect_loads_no_generator_or_metrics(self, scene_dir, tmp_path):
        modules = ["evrotor.synth", "evrotor.metrics"]
        assert loaded_by_detect(scene_dir, tmp_path, modules) == [False, False]

    def test_help_lists_the_thresholds(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["detect", "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert "--tau-s" in text and "default: 50" in text
        assert "--d-merge" in text and "default: 50.0" in text


def help_entries(command, capsys):
    """The --help text of a command, one whitespace-normalized entry per flag."""
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    entries = []
    for line in capsys.readouterr().out.splitlines():
        if line.startswith("  -"):
            entries.append(line)
        elif entries and line.startswith("    "):
            entries[-1] += line  # help wrapped onto the next line
    return {entry.split()[0].rstrip(","): " ".join(entry.split()) for entry in entries}


class TestHelp:
    @pytest.mark.parametrize("command", ["detect", "synth", "eval", "bench"])
    def test_each_default_shows_once(self, command, capsys):
        entries = help_entries(command, capsys)
        assert entries
        for entry in entries.values():
            assert entry.count("(default:") <= 1, entry
            assert "(default: None)" not in entry, entry

    def test_synth_scene_flags_show_their_defaults(self, capsys):
        entries = help_entries("synth", capsys)
        args = build_parser().parse_args(["synth", "--out-events", "x.evd"])
        for dest in ("width", "height", "duration_ms", "rpm", "blades", "radius", "seed"):
            flag = "--" + dest.replace("_", "-")
            assert f"(default: {getattr(args, dest)})" in entries[flag], entries[flag]


class TestSynth:
    def test_same_seed_writes_identical_bytes(self, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code, _, _ = run_cli(
                [
                    "synth",
                    "--out-events", str(path),
                    "--width", "160", "--height", "120",
                    "--duration-ms", "10", "--radius", "20",
                    "--noise-rate", "5", "--seed", "7",
                ],
                capsys,
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_ground_truth_lands_next_to_the_events(self, tmp_path, capsys):
        out = tmp_path / "scene.csv"
        code, stdout, _ = run_cli(
            ["synth", "--out-events", str(out), "--width", "160", "--height", "120",
             "--duration-ms", "10", "--radius", "20"],
            capsys,
        )
        assert code == 0
        gt = json.loads((tmp_path / "scene.gt.json").read_text())
        assert gt["file"] == "scene.csv"
        assert len(gt["boxes"]) == 1
        assert gt["boxes"][0] == {"x": 60, "y": 40, "w": 40, "h": 40}
        assert "box(es)" in stdout

    def test_background_only_scene_has_no_boxes(self, tmp_path, capsys):
        out = tmp_path / "bg.csv"
        code, _, _ = run_cli(
            ["synth", "--out-events", str(out), "--width", "160", "--height", "120",
             "--duration-ms", "10", "--background-only", "--edges", "2"],
            capsys,
        )
        assert code == 0
        assert json.loads((tmp_path / "bg.gt.json").read_text())["boxes"] == []

    def test_bad_rotor_parameters_are_reported(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["synth", "--out-events", str(tmp_path / "x.csv"), "--radius", "2"],
            capsys,
        )
        assert code == 1
        assert "radius" in err

    def test_malformed_center_is_reported(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["synth", "--out-events", str(tmp_path / "x.csv"), "--center", "40;40"],
            capsys,
        )
        assert code == 1
        assert "center" in err

    @pytest.mark.parametrize("duration_ms", ["0", "-5"])
    def test_duration_under_1_ms_is_refused_by_the_scene(self, tmp_path, capsys, duration_ms):
        # synth leaves the duration to SynthScene's one rule.
        out = tmp_path / "x.evd"
        code, _, err = run_cli(
            ["synth", "--out-events", str(out), "--duration-ms", duration_ms], capsys
        )
        assert code == 1
        us = int(duration_ms) * 1000
        assert err == f"error: duration must be within 1..2**63-1 us, got {us}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, reason",
        [
            # 1000 s of rotor passes, or edges over 10**12 pixels, would need
            # terabytes of columns
            (["--duration-ms", "1000000000"], "rotor"),
            (["--width", "1000000", "--height", "1000000", "--radius", "400000"], "rotor"),
            (["--width", "1000000", "--height", "1000000", "--edges", "1",
              "--background-only"], "edge"),
            # int64 timestamps, and the .evd header, end near 2**63 us
            (["--duration-ms", str(10**17), "--background-only"], "duration"),
            (["--duration-ms", str(10**400)], "duration"),
        ],
    )
    def test_scene_beyond_what_it_may_hold_is_reported(self, tmp_path, capsys, flags, reason):
        out = tmp_path / "x.evd"
        code, _, err = run_cli(["synth", "--out-events", str(out), *flags], capsys)
        assert code == 1
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert reason in err
        assert not out.exists()

    def test_synth_defaults_match_the_library_specs(self):
        # synth with no rotor, background or seed flags builds the spec defaults
        args = build_parser().parse_args(["synth", "--out-events", "x.evd"])
        prop = PropellerSpec(center=(0, 0), radius=args.radius)
        assert (args.rpm, args.blades, args.aspect) == (prop.rpm, prop.blades, prop.aspect)
        assert BackgroundSpec(args.edges, args.speed, args.noise_rate) == BackgroundSpec()
        assert args.seed == SynthScene(sensor=SensorGeometry(1, 1), duration=1).seed


class TestEval:
    def make_dirs(self, tmp_path, perfect=True):
        pred_dir = tmp_path / "pred"
        gt_dir = tmp_path / "gt"
        pred_dir.mkdir()
        gt_dir.mkdir()
        box = {"x": 10, "y": 10, "w": 20, "h": 20}
        gt = {"file": "p0", "width": 64, "height": 48, "duration_us": 20000,
              "boxes": [box]}
        pred_box = dict(box, s_p=5, s_s=700.0) if perfect else dict(
            {"x": 40, "y": 40, "w": 5, "h": 5}, s_p=5, s_s=700.0
        )
        pred = dict(gt, boxes=[pred_box])
        (gt_dir / "p0.json").write_text(json.dumps(gt))
        (pred_dir / "p0.json").write_text(json.dumps(pred))
        return pred_dir, gt_dir

    def test_perfect_predictions_print_a_clean_table(self, tmp_path, capsys):
        pred_dir, gt_dir = self.make_dirs(tmp_path)
        code, stdout, _ = run_cli(
            ["eval", "--pred", str(pred_dir), "--gt", str(gt_dir)], capsys
        )
        assert code == 0
        assert "precision 1.0000" in stdout
        assert "recall    1.0000" in stdout
        assert "mAP       1.0000" in stdout

    def test_json_report_is_written(self, tmp_path, capsys):
        pred_dir, gt_dir = self.make_dirs(tmp_path)
        report_path = tmp_path / "report.json"
        code, _, _ = run_cli(
            ["eval", "--pred", str(pred_dir), "--gt", str(gt_dir),
             "--iou", "0.5", "--json", str(report_path)],
            capsys,
        )
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert payload["tp"] == 1 and payload["iou_thr"] == 0.5

    def test_synth_and_detect_output_in_one_directory_is_scored(self, tmp_path, capsys):
        # synth writes clip.gt.json next to clip.evd, detect writes clip.json
        events = tmp_path / "clip.evd"
        assert main(["synth", "--out-events", str(events), "--width", "160", "--height", "120",
                     "--duration-ms", "10", "--radius", "20", "--seed", "3"]) == 0
        assert main(["detect", "--input", str(events)]) == 0
        report_path = tmp_path / "report.json"
        code, _, err = run_cli(
            ["eval", "--pred", str(tmp_path), "--gt", str(tmp_path), "--json", str(report_path)],
            capsys,
        )
        assert code == 0, err
        payload = json.loads(report_path.read_text())
        assert payload["periods"] == 1 and payload["recall"] == 1.0

    def test_mismatched_directories_are_reported(self, tmp_path, capsys):
        pred_dir, gt_dir = self.make_dirs(tmp_path)
        (pred_dir / "orphan.json").write_text(
            (pred_dir / "p0.json").read_text().replace('"p0"', '"orphan"')
        )
        code, _, err = run_cli(
            ["eval", "--pred", str(pred_dir), "--gt", str(gt_dir)], capsys
        )
        assert code == 1
        assert "orphan" in err


class TestBench:
    def test_reports_latency_statistics(self, capsys):
        code, stdout, _ = run_cli(["bench", "--events", "3000", "--reps", "2"], capsys)
        assert code == 0
        payload = json.loads(stdout)
        assert payload["events"] == 3000
        assert payload["reps"] == 2
        assert payload["median_ms"] > 0.0
        assert payload["p95_ms"] >= payload["median_ms"]
        assert payload["detections"] >= 0

    def test_rejects_zero_reps(self, capsys):
        code, _, err = run_cli(["bench", "--reps", "0"], capsys)
        assert code == 1
        assert "reps" in err

    def test_event_target_beyond_a_scene_is_reported(self, capsys):
        # the uniform pad alone would need terabytes of columns
        code, _, err = run_cli(["bench", "--events", "1000000000000", "--reps", "1"], capsys)
        assert code == 1
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "event target" in err


# Each drawn call is valid except for exactly one poisoned value or file, and
# every size stays small: sensors up to 48 px, periods up to 20 ms, at most 60
# events, noise up to 20 events per ms, bench scenes that fail before they
# are generated.
SYNTH_POISON = {
    "out-events": st.just("{root}/missing/a.evd"),
    "width": st.integers(-5, 0),
    "height": st.integers(-5, 0),
    "duration-ms": st.integers(-5, 0),
    "radius": st.integers(-3, 4),
    "blades": st.integers(-3, 1),
    "rpm": st.sampled_from(["nan", "inf", "-inf", "0", "4999", "15001"]),
    "aspect": st.sampled_from(["nan", "inf", "0", "-0.5", "1.01"]),
    "center": st.sampled_from(["", "1", "a,b", "1,2,3", "-1,3", "3,-1", "9999,1", "1,9999"]),
    "edges": st.integers(-5, -1),
    "speed": st.sampled_from(["nan", "inf", "-inf", "0", "-1.5"]),
    "noise-rate": st.sampled_from(["nan", "inf", "-inf", "-1", "1e300"]),
    "seed": st.integers(-(2**40), -1),
}

DETECT_FLAG_POISON = {
    "tau-s": st.sampled_from([-1, 256]),
    "tau-p": st.sampled_from([-1, 7]),
    "k": st.integers(-3, 0),
    "d-merge": st.sampled_from(["nan", "-1", "-inf"]),
    "smooth-window": st.sampled_from([-1, 0, 2, 4]),
    "margin": st.integers(-3, -1),
    "n-slices": st.sampled_from([-1, 0, 1, 10**12]),
    "m-slices": st.sampled_from([-1, 0, 3, 10**12]),
    "jobs": st.integers(-3, 0),
    "output": st.just("{root}/missing/d.json"),
    "dump-saliency": st.just("{root}/missing/s.pgm"),
}

CSV_BAD_LINES = [
    b"1,2,3", b"1,2,3,4,5", b"a,1,1,1", b"1,1.5,1,1", b"1,1,1,2", b"1,1,1,-1",
    b"1,99999999999,1,1", b"99999999999999999999999,1,1,1", b"1,1,\xff,1", b"1,100,1,1",
]


def evd_bytes(header, events):
    """An .evd file from its (magic, width, height, t_start, duration) header and events."""
    return struct.pack("<4sHHQQ", *header) + b"".join(
        struct.pack("<QHHB3x", *event) for event in events
    )


def csv_lines(t_start, duration, events):
    lines = [f"# t_start_us={t_start}", f"# duration_us={duration}", "t_us,x,y,p"]
    return [line.encode() for line in lines + [f"{t},{x},{y},{p}" for t, x, y, p in events]]


@st.composite
def synth_calls(draw):
    flags = {
        "out-events": "{root}/" + draw(st.sampled_from(["a.evd", "a.csv"])),
        "width": draw(st.integers(16, 48)),
        "height": draw(st.integers(16, 48)),
        "duration-ms": draw(st.integers(1, 4)),
        "radius": draw(st.integers(5, 7)),
        "edges": draw(st.integers(0, 2)),
        "speed": draw(st.floats(0.5, 20.0)),
        "noise-rate": draw(st.floats(0.0, 20.0)),
        "seed": draw(st.integers(0, 2**32)),
    }
    poison = draw(st.sampled_from(sorted(SYNTH_POISON)))
    flags[poison] = draw(SYNTH_POISON[poison])
    return ["synth"] + [f"--{name}={value}" for name, value in flags.items()], {}


@st.composite
def detect_calls(draw):
    width, height = draw(st.integers(8, 32)), draw(st.integers(8, 32))
    t_start = draw(st.integers(0, 10**6))
    duration = draw(st.integers(1_000, 20_000))
    events = draw(st.lists(
        st.tuples(st.integers(t_start, t_start + duration - 1), st.integers(0, width - 1),
                  st.integers(0, height - 1), st.integers(0, 1)),
        max_size=60,
    ))
    events.sort()
    binary = draw(st.booleans())
    name = "clip.evd" if binary else "clip.csv"
    argv = ["detect", "--input={root}/" + name]
    geometry = [f"--width={width}", f"--height={height}"]
    header = [b"EVD1", width, height, t_start, duration]
    lines = csv_lines(t_start, duration, events)
    poison = draw(st.sampled_from(["file", "flag", "geometry", "missing", "directory"]))
    if poison == "file" and binary:
        defect = draw(st.sampled_from(["short-header", "ragged", "magic", "zero-sensor",
                                       "zero-duration", "outside", "late", "polarity"]))
        if defect == "magic":
            header[0] = draw(st.binary(min_size=4, max_size=4).filter(lambda b: b != b"EVD1"))
        elif defect == "zero-sensor":
            header[draw(st.sampled_from([1, 2]))] = 0
        elif defect == "zero-duration":
            header[4] = 0
        elif defect == "outside":
            events.append((t_start, *draw(st.sampled_from([(width, 0), (0, height)])), 1))
        elif defect == "late":
            events.append((draw(st.sampled_from([t_start + duration, 2**64 - 1])), 0, 0, 1))
        elif defect == "polarity":
            events.append((t_start, 0, 0, draw(st.integers(2, 255))))
    elif poison == "file":
        lines.insert(draw(st.integers(3, len(lines))), draw(st.sampled_from(CSV_BAD_LINES)))
    elif poison == "geometry":
        # CSV input lacks it, binary input contradicts its header, or either gets one side only.
        geometry = draw(st.sampled_from([
            [f"--width={width + 1}", f"--height={height}"] if binary else [],
            [f"--width={width}"],
            [f"--height={height}"],
        ]))
    elif poison == "missing":
        argv[1] = "--input={root}/absent.evd"
    elif poison == "directory":
        argv[1] = "--input={root}"
    if not binary or poison == "geometry":
        argv += geometry
    argv.append("--output={root}/d.json")
    if poison == "flag":  # last, so that a poisoned --output overrides the one above
        flag = draw(st.sampled_from(sorted(DETECT_FLAG_POISON)))
        argv.append(f"--{flag}={draw(DETECT_FLAG_POISON[flag])}")
    if not binary:
        content = b"\n".join(lines) + b"\n"
    elif poison == "file" and defect == "short-header":
        content = evd_bytes(header, [])[:draw(st.integers(0, 23))]
    elif poison == "file" and defect == "ragged":
        content = evd_bytes(header, events) + bytes(draw(st.integers(1, 15)))
    else:
        content = evd_bytes(header, events)
    return argv, {name: content}


EVAL_GT = {"file": "p0", "width": 64, "height": 48, "duration_us": 20000,
           "boxes": [{"x": 10, "y": 10, "w": 20, "h": 20}]}
EVAL_PRED = dict(EVAL_GT, boxes=[{"x": 12, "y": 9, "w": 20, "h": 20, "s_p": 5, "s_s": 700.0}])
EVAL_ARGV = ["eval", "--pred={root}/pred", "--gt={root}/gt"]


def eval_files(pred=EVAL_PRED, gt=EVAL_GT):
    return {"pred/p0.json": json.dumps(pred).encode(), "gt/p0.json": json.dumps(gt).encode()}


@st.composite
def eval_calls(draw):
    gt, pred, files, argv = EVAL_GT, EVAL_PRED, eval_files(), list(EVAL_ARGV)
    poison = draw(st.sampled_from(["json", "field", "box", "orphan", "iou", "missing"]))
    target = draw(st.sampled_from(["pred/p0.json", "gt/p0.json"]))
    if poison == "json":
        files[target] = draw(st.sampled_from([b"", b"{", b"[1,", b"nul", b"{\"a\": \xff}"]))
    elif poison == "field":  # a record field goes missing or holds no integer
        record = dict(pred if target.startswith("pred") else gt)
        key = draw(st.sampled_from(["file", "width", "height", "duration_us", "boxes"]))
        if key == "file" or draw(st.booleans()):
            del record[key]
        else:
            record[key] = draw(st.sampled_from([64.5, "48", True, 20000.5]))
        files[target] = json.dumps(record).encode()
    elif poison == "box":
        record = pred if target.startswith("pred") else gt
        bad = draw(st.sampled_from(['"a"', "1e400", "[1]", "null", "1.5", '"12"', "true"]))
        files[target] = json.dumps(record).replace('"x": ', f'"x": {bad}, "ignored": ', 1).encode()
    elif poison == "orphan":
        files[target.replace("p0", "p1")] = files[target]
    elif poison == "iou":
        argv.append(f"--iou={draw(st.sampled_from(['nan', 'inf', '0', '-1', '1.5']))}")
    else:
        side = draw(st.sampled_from(["pred", "gt"]))
        argv[1 if side == "pred" else 2] = f"--{side}={{root}}/absent"
    return argv, files


@st.composite
def bench_calls(draw):
    flags = {"events": draw(st.integers(0, 3000)), "reps": draw(st.integers(1, 2)),
             "seed": draw(st.integers(0, 2**32))}
    poison = draw(st.sampled_from(["events", "reps", "seed"]))
    flags[poison] = draw(st.integers(-(2**40), -1 if poison != "reps" else 0))
    return ["bench"] + [f"--{name}={value}" for name, value in flags.items()], {}


SYNTH_A = ["synth", "--out-events", "{root}/a.evd"]


class TestErrorContract:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(synth_calls(), detect_calls(), eval_calls(), bench_calls()))
    @example((SYNTH_A + ["--edges", "3", "--speed", "nan"], {}))
    @example((SYNTH_A + ["--edges", "3", "--speed", "inf"], {}))
    @example((SYNTH_A + ["--edges", "3", "--noise-rate", "inf"], {}))
    @example((SYNTH_A + ["--edges", "3", "--noise-rate", "1e300"], {}))
    @example((SYNTH_A + ["--edges", "3", "--noise-rate", "nan"], {}))
    @example((SYNTH_A + ["--seed", "-1"], {}))
    @example((["detect", "--input={root}/two_events.csv", "--width=1000000",
               "--height=1000000", "--output={root}/d.json"],
              {"two_events.csv": b"0,1,1,1\n5,1,1,0\n"}))
    @example((["detect", "--input={root}/short.csv", "--width=8", "--height=8",
               "--output={root}/d.json"],
              {"short.csv": b"0,1,1,1\n1,2,2,0\n2,3,3,1\n"}))
    @example((["bench", "--events", "0", "--seed", "-1"], {}))
    @example((["eval", "--pred", "{root}/absent", "--gt", "{root}/absent"], {}))
    @example((["eval", "--pred", "{root}", "--gt", "{root}", "--iou", "nan"], {}))
    @example((EVAL_ARGV, eval_files(dict(EVAL_PRED, duration_us=20000.5))))
    @example((EVAL_ARGV, eval_files(gt=dict(EVAL_GT, boxes=[dict(x=1.5, y=10, w=20.9, h=True)]))))
    @example((EVAL_ARGV, eval_files(dict(EVAL_PRED, boxes=[dict(EVAL_PRED["boxes"][0], s_s=math.nan)]))))
    def test_bad_calls_end_in_one_error_line(self, call):
        """A bad value or file ends in exit 1 or 2 and one error line, never a traceback."""
        argv, files = call
        with tempfile.TemporaryDirectory() as root:
            for name, content in files.items():
                path = Path(root, name)
                path.parent.mkdir(exist_ok=True)
                path.write_bytes(content)
            stderr = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                code = main([arg.replace("{root}", root) for arg in argv])
        lines = stderr.getvalue().splitlines()
        assert code in (1, 2), lines
        assert len(lines) == 1 and lines[0].startswith(("error:", "io error:")), lines
        assert lines[0].startswith("io error:") == (code == 2)


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "evrotor.cli", "bench", "--events", "2000", "--reps", "1"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["events"] == 2000
