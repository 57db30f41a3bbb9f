"""The names ``evrotor`` exports, and the ones the benchmark harness needs."""

import ast
import importlib.util
import json
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import evrotor
from evrotor import BBox, ValidationError
from evrotor.metrics import iou

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

EXPORTED = [
    "AnnotationRecord",
    "BBox",
    "BackgroundSpec",
    "BoxRecord",
    "Cluster",
    "ConfigurationError",
    "DegenerateInputError",
    "Detection",
    "DetectorConfig",
    "EventFormatError",
    "EventPeriod",
    "EvrotorError",
    "FeatureSeries",
    "LocalSlices",
    "MetricsReport",
    "PipelineResult",
    "PropellerSpec",
    "Region",
    "RegionScores",
    "SaliencyMap",
    "SensorGeometry",
    "SynthScene",
    "ValidationError",
    "benchmark_period",
    "cluster_regions",
    "compute_features",
    "connected_components",
    "detect_period",
    "evaluate_dataset",
    "extract_local_slices",
    "gaussian_fine_refine",
    "generate_background_events",
    "generate_propeller_events",
    "generate_scene",
    "load_annotations",
    "load_events",
    "match_detections",
    "periodicity_score",
    "run_pipeline",
    "saliency_map",
    "saliency_score",
    "threshold_mask",
    "write_annotation",
    "write_detections",
    "write_events",
]


def test_all_lists_exactly_the_public_names():
    assert sorted(evrotor.__all__) == EXPORTED
    for name in evrotor.__all__:
        assert getattr(evrotor, name) is not None


def evrotor_imports(script):
    """(module, name) of every ``from evrotor[.module] import name`` in a script, nested too."""
    tree = ast.parse(script.read_text(), filename=str(script))
    return {
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "evrotor"
        for alias in node.names
    }


def benchmark_imports():
    """Names the perfbench scripts take from the top-level package."""
    names = set()
    for script in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(script.read_text(), filename=str(script))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "evrotor":
                names.update(alias.name for alias in node.names)
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "evrotor"
                and not node.attr.startswith("__")
            ):
                names.add(node.attr)
    return {
        name for name in names
        if not isinstance(getattr(evrotor, name, None), types.ModuleType)
    }


def test_benchmark_harness_imports_only_exported_names():
    needed = benchmark_imports()
    assert needed, "found no evrotor imports under perfbench/"
    assert needed <= set(evrotor.__all__), sorted(needed - set(evrotor.__all__))


@pytest.mark.parametrize("script", ["tracing.py", "workloads.py"])
def test_benchmark_modules_import_only_names_that_exist(script):
    # Read, not run: a name dropped from src/ fails here, not in the benchmark.
    imports = evrotor_imports(PERFBENCH / script)
    assert imports, f"found no evrotor imports in perfbench/{script}"
    missing = [f"{module}.{name}" for module, name in sorted(imports)
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []


def test_only_frozen_view_freezes_arrays():
    # Records hold read-only views by one rule, so no other code in the
    # package turns an array's writes off.
    outside, inside = [], 0
    for module in sorted(Path(evrotor.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(module.read_text(), filename=str(module))
        allowed = {
            id(node)
            for function in tree.body
            if module.name == "events.py"
            and isinstance(function, ast.FunctionDef)
            and function.name == "frozen_view"
            for node in ast.walk(function)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "setflags":
                if id(node) in allowed:
                    inside += 1
                else:
                    outside.append(f"{module.name}:{node.lineno}")
    assert outside == []
    assert inside == 1


def _is_strictly_increasing_test(node) -> bool:
    """Whether ``node`` is ``a[1:] > a[:-1]``, or ``a[:-1] < a[1:]``, for one array ``a``."""
    if not (isinstance(node, ast.Compare) and len(node.ops) == 1):
        return False
    later, earlier = ast.unparse(node.left), ast.unparse(node.comparators[0])
    if isinstance(node.ops[0], ast.Lt):
        later, earlier = earlier, later
    elif not isinstance(node.ops[0], ast.Gt):
        return False
    return later.endswith("[1:]") and earlier == later[:-4] + "[:-1]"


def test_one_rule_tests_ids_for_strictly_increasing():
    # Sorted unique ids are checked once, by events.id_count_views, for
    # every sparse record of ids and counts.
    found = [
        f"{module.name}:{node.lineno}"
        for module in sorted(Path(evrotor.__file__).resolve().parent.glob("*.py"))
        for node in ast.walk(ast.parse(module.read_text(), filename=str(module)))
        if _is_strictly_increasing_test(node)
    ]
    assert len(found) == 1 and found[0].startswith("events.py:"), found


@pytest.mark.parametrize(
    "message",
    ["tau_s must be within 0..255", "d_merge must be non-negative",
     "smooth_window must be an odd integer >= 1", "must be an odd integer >= 1",
     "region_margin must be non-negative"],
)
def test_each_parameter_rule_is_written_once(message):
    # DetectorConfig holds the rule; the stage functions check raw values through it.
    sources = [m.read_text() for m in Path(evrotor.__file__).resolve().parent.glob("*.py")]
    assert sum(source.count(message) for source in sources) == 1


def _spec(**fields):
    return evrotor.PropellerSpec(**{"center": (32, 24), "radius": 10, **fields})


_SENSOR = evrotor.SensorGeometry(64, 48)


def _period(t, x, y, p, sensor=_SENSOR):
    return evrotor.EventPeriod(t, x, y, p, t_start=0, duration=1000, sensor=sensor)

# Each value raised a bare TypeError or ValueError, or built a record that
# failed later. New cases go at the end.
_MALFORMED = {
    "PropellerSpec-rpm-None": lambda: _spec(rpm=None),
    "PropellerSpec-aspect-None": lambda: _spec(aspect=None),
    "PropellerSpec-aspect-str": lambda: _spec(aspect="0.5"),
    "PropellerSpec-center-None": lambda: _spec(center=None),
    "PropellerSpec-phase-None": lambda: _spec(phase=None),
    "PropellerSpec-phase-nan": lambda: _spec(phase=math.nan),
    "PropellerSpec-phase-inf": lambda: _spec(phase=math.inf),
    "BackgroundSpec-speed-None": lambda: evrotor.BackgroundSpec(speed=None),
    "BackgroundSpec-noise_rate-str": lambda: evrotor.BackgroundSpec(noise_rate="1"),
    "SynthScene-propellers-None": lambda: evrotor.SynthScene(_SENSOR, 2000, propellers=None),
    "SynthScene-background-None": lambda: evrotor.SynthScene(_SENSOR, 2000, background=None),
    "SynthScene-sensor-None": lambda: evrotor.SynthScene(None, 2000),
    "RegionScores-s_s-None": lambda: evrotor.RegionScores(s_s=None),
    "RegionScores-s_s-str": lambda: evrotor.RegionScores(s_s="1"),
    "RegionScores-s_p-str": lambda: evrotor.RegionScores(1.0, s_p="3"),
    "Detection-s_s-None": lambda: evrotor.Detection(3, None, np.array([[0, 0]])),
    "Region-pixels-None": lambda: evrotor.Region(None),
    "Region-pixels-str": lambda: evrotor.Region("ab"),
    "FeatureSeries-f_d-str": lambda: evrotor.FeatureSeries(f_d="abc", f_s=[], f_p=[]),
    "match_detections-iou_thr-None": lambda: evrotor.match_detections([], [], None),
    "Region-pixels-ragged": lambda: evrotor.Region([[1, 2], [3]]),
    "Detection-pixels-ragged": lambda: evrotor.Detection(1, 1.0, [[1, 2], [3]]),
    "FeatureSeries-f_d-ragged": lambda: evrotor.FeatureSeries([[1, 2], [3]], [], []),
    "SaliencyMap-ids-ragged": lambda: evrotor.SaliencyMap((2, 2), [[0], [1, 2]], [1, 1], 2),
    "LocalSlices-cells-ragged": lambda: evrotor.LocalSlices((4, 1, 1), [[0], [1, 2]], [1, 1]),
    "EventPeriod-t-ragged": lambda: _period([[0], [1, 2]], [0, 0], [0, 0], [1, 1]),
    "EventPeriod-x-str": lambda: _period([0], ["a"], [0], [1]),
    "SaliencyMap-shape-None": lambda: evrotor.SaliencyMap(None, [0], [1], 2),
    "SaliencyMap-shape-3": lambda: evrotor.SaliencyMap((2, 2, 2), [0], [1], 2),
    "LocalSlices-shape-None": lambda: evrotor.LocalSlices(None, [0], [1]),
    "EventPeriod-sensor-None": lambda: _period([0], [0], [0], [1], sensor=None),
}


@pytest.mark.parametrize("case", list(_MALFORMED))
def test_records_refuse_malformed_values(case):
    # A library error, never another exception, when the record is built.
    with pytest.raises(ValidationError):
        _MALFORMED[case]()


def package_env():
    src = str(Path(evrotor.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency: scipy serves the tests as an oracle.
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, evrotor; print(sorted(sys.modules))"],
        capture_output=True, text=True, env=package_env(), timeout=120, check=True,
    )
    modules = ast.literal_eval(proc.stdout)
    assert [m for m in modules if m == "scipy" or m.startswith("scipy.")] == []
    assert "evrotor.features" in modules


def test_synth_and_detect_run_without_scipy(tmp_path):
    # A None entry in sys.modules makes every scipy import fail.
    script = f"""
import sys
sys.modules["scipy"] = None
from evrotor import cli
events, out = {str(tmp_path / "clip.evd")!r}, {str(tmp_path / "dets.json")!r}
assert cli.main(["synth", "--out-events", events, "--width", "160", "--height", "120",
                 "--duration-ms", "10", "--radius", "20", "--seed", "3"]) == 0
assert cli.main(["detect", "--input", events, "--output", out]) == 0
"""
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=package_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    (box,) = json.loads((tmp_path / "dets.json").read_text())["boxes"]
    (truth,) = json.loads((tmp_path / "clip.gt.json").read_text())["boxes"]
    assert iou(BBox(box["x"], box["y"], box["w"], box["h"]), BBox(**truth)) >= 0.4


TOOLS = Path(__file__).resolve().parents[1] / "tools"


def test_loc_prints_each_module_then_the_total():
    proc = subprocess.run(
        [sys.executable, str(TOOLS / "loc.py")], capture_output=True, text=True, timeout=120, check=True
    )
    rows = [line.split(" ") for line in proc.stdout.splitlines()]
    modules = sorted(m.stem for m in (TOOLS.parent / "src" / "evrotor").glob("*.py"))
    assert [row[0] for row in rows] == [*modules, "total"]
    counts = [int(row[1]) for row in rows]
    assert min(counts) > 0 and counts[-1] == sum(counts[:-1])


def test_loc_counts_code_lines_only():
    spec = importlib.util.spec_from_file_location("loc", TOOLS / "loc.py")
    loc = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(loc)
    source = (
        '"""Module doc."""\n\n# a comment\nx = (\n    1,  # trailing\n)\n\n\n'
        'class A:\n    """Class doc,\n    two lines."""\n\n    def f(self):\n'
        '        """Doc."""\n        return """not a\n        docstring"""\n'
    )
    # x = (, 1,, ), class A:, def f(self):, and the two lines of the returned string
    assert loc.code_lines(source) == 7
