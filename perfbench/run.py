#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the evrotor detector.

Run from the repository root:

    python3 perfbench/run.py --workload period_20ms --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: latency of
one operation (median and tail), throughput, memory and the cold-import
set-up time. ``--trace 1`` makes the separate traced run that gives the
per-layer metrics: the same operations, each also run through a traced
composition of the public stage calls, plus ``-X importtime`` and a probe of
the io functions and the ``detect`` command on 200k-event .evd and .csv
files. Load comes from one client in a closed loop that runs one period
through ``run_pipeline`` at a time. Operations run in whole rounds, each
round holding every input of the workload once, so the input mix is exact.
Native thread pools (BLAS, OpenMP) are held to one thread here and in every
child, so on a small shared host the load stays one thread and the figures
measure the program rather than the scheduler.

Every operation's detections are checked against the generated ground
truth. ``attempted`` counts the distinct inputs of the run and ``failed``
those with an operation that raised or missed the check, so both depend on
the seed only.
``correct`` is false when the measured program is not one program: when
detections or per-layer counts differ between repeats of one input, or the
traced composition disagrees with ``run_pipeline``.

Lines before the last describe the workload and print every metric by name
with its unit. The last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Spans of the traced run are
written to ``perfbench/_results/``. The benchmark reads and writes only
inside the repository and exits 2 when the package source is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is first imported
WORKLOAD_NAMES = ("period_20ms", "long_period", "flicker_clutter")
SETUP_PROCESSES = 3  # before and again after the timed loop
IMPORTTIME_PROCESSES = 3
IO_ROUNDS = 2
CHILD_TIMEOUT_S = 120
COUNTS = (
    "saliency.salient_px", "saliency.regions", "saliency.occupancy_bytes", "detector.clusters",
    "features.topk", "features.candidates", "features.local_cells", "detector.refine_fallbacks",
)


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def p50(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values) -> tuple[float, str]:
    """Highest percentile with at least 10 samples beyond it, and its label.

    Below 20 samples that percentile would sit at or under the median, so
    the maximum is reported instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return float(ordered[-1]), f"max of {n} samples"
    rank = n - 10
    return float(ordered[rank - 1]), f"p{100.0 * rank / n:.1f} of {n} samples (10 beyond)"


def elapsed_ms(start_ns: int) -> float:
    return (time.perf_counter_ns() - start_ns) / 1e6


class Outcome:
    """Attempted and failed inputs, and problems that make a run incorrect.

    Every operation is checked, but ``attempted`` and ``failed`` count
    distinct inputs: an input fails when any of its operations raised or
    missed the check. The counts then follow from the seed alone, not from
    how many operations fitted into the run.
    """

    def __init__(self) -> None:
        self.operations = 0
        self.results: dict[str, str | None] = {}
        self.problems: list[str] = []

    def record(self, label: str, failure: str | None) -> None:
        self.operations += 1
        if self.results.get(label) is None:
            self.results[label] = failure

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failures(self) -> dict[str, str]:
        return {label: f for label, f in self.results.items() if f is not None}

    @property
    def failed(self) -> int:
        return len(self.failures)


def rounds(inputs, seconds: float):
    """Yield the inputs in whole rounds until ``seconds`` have passed at a round's end."""
    deadline = time.perf_counter_ns() + int(seconds * 1e9)
    while True:
        yield from inputs
        if time.perf_counter_ns() >= deadline:
            return


# ---------------------------------------------------------------- set-up and import


def setup_seconds() -> list[float]:
    """Wall time from launching a fresh interpreter until ``import evrotor`` returns."""
    times = []
    code = "import time, evrotor; print(time.time_ns())"
    for _ in range(SETUP_PROCESSES):
        launched = time.time_ns()
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
        )
        times.append((int(out.stdout.strip()) - launched) / 1e9)
    return times


def import_ms(report: str, package: str) -> float:
    """Cumulative ``-X importtime`` cost of ``package``, in ms.

    Sums the cumulative times of the outermost lines naming the package or
    one of its submodules: the package line itself when it is printed, else
    each submodule whose importer lies outside the package.
    """
    rows = []  # (depth, name, cumulative us); importtime prints children first
    for line in report.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            name = parts[2].rstrip()
            rows.append((len(name) - len(name.lstrip()), name.strip(), int(parts[1])))

    def inside(name):
        return name == package or name.startswith(package + ".")

    total = 0
    for i, (depth, name, cumulative) in enumerate(rows):
        parent = next((r[1] for r in rows[i + 1:] if r[0] < depth), "")
        if inside(name) and not inside(parent):
            total += cumulative
    return total / 1000.0


def import_metrics() -> dict[str, float]:
    """p50 over fresh interpreters of the import cost of evrotor and two scipy packages."""
    packages = {"import.total_ms": "evrotor", "import.scipy_signal_ms": "scipy.signal",
                "import.scipy_ndimage_ms": "scipy.ndimage"}
    samples: dict[str, list[float]] = {metric: [] for metric in packages}
    for _ in range(IMPORTTIME_PROCESSES):
        out = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import evrotor"], cwd=ROOT,
            env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
        )
        for metric, package in packages.items():
            samples[metric].append(import_ms(out.stderr, package))
    return {metric: p50(values) for metric, values in samples.items()}


# ---------------------------------------------------------------- untraced run


def run_in_process(workload, inputs, seconds, config, outcome):
    """Closed loop of run_pipeline over whole rounds of the inputs.

    Returns the latencies, throughput, peak RSS and the distinct detections
    seen per input, which must be exactly one each.
    """
    from evrotor import run_pipeline
    from tracing import signature
    from workloads import check

    with contextlib.suppress(Exception):  # warm-up; the timed loop counts any failure
        run_pipeline(inputs[0].period, config)
    seen: dict[str, set] = {item.label: set() for item in inputs}
    verdict = {}
    latencies: list[float] = []
    events = 0
    gc.collect()
    start = time.perf_counter_ns()
    for item in rounds(inputs, seconds):
        t0 = time.perf_counter_ns()
        try:
            detections = run_pipeline(item.period, config).detections
        except Exception as err:  # a failed operation is counted, never fatal
            latencies.append(elapsed_ms(t0))
            outcome.record(item.label, f"raised {type(err).__name__}: {err}")
            continue
        latencies.append(elapsed_ms(t0))
        events += len(item.period)
        sig = signature(detections)
        seen[item.label].add(sig)
        if sig not in verdict:
            verdict[sig] = check(workload.check, item, [d.bbox for d in detections])
        outcome.record(item.label, verdict[sig])
    meps = events / elapsed_ms(start) / 1e3
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    return latencies, meps, rss_mb, seen


def peak_alloc_mb(inputs, op) -> tuple[float, list]:
    """Largest tracemalloc peak of one operation over an untimed pass of every input.

    Also returns what ``op`` returned for each input (None where it raised).
    """
    peaks = []
    results = []
    gc.collect()
    tracemalloc.start()
    try:
        for item in inputs:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                results.append(op(item))
            except Exception:  # the timed loop counts the failure
                results.append(None)
            peaks.append((tracemalloc.get_traced_memory()[1] - base) / 1e6)
    finally:
        tracemalloc.stop()
    return max(peaks), results


def by_class(inputs, latencies) -> str:
    """p50 per input class, given latencies in round order."""
    classes: dict[str, list[float]] = {}
    for i, ms in enumerate(latencies):
        classes.setdefault(inputs[i % len(inputs)].cls, []).append(ms)
    return ", ".join(f"{cls} p50 {p50(v):.4g} ms (n={len(v)})" for cls, v in classes.items())


def measure_end_to_end(workload, inputs, seconds, config, outcome):
    """The end-to-end metrics, tracing off, plus a note on how some were taken."""
    from evrotor import run_pipeline
    from tracing import signature

    setup = setup_seconds()
    latencies, meps, rss, seen = run_in_process(workload, inputs, seconds, config, outcome)
    setup += setup_seconds()  # spread over the run, so one slow moment moves the median less
    peak, reference = peak_alloc_mb(
        inputs, lambda item: signature(run_pipeline(item.period, config).detections)
    )
    for item, sig in zip(inputs, reference):
        if seen[item.label] - {sig}:
            outcome.problems.append(f"{item.label}: detections differ between repeats")
    tail_ms, tail_label = tail(latencies)
    metrics = {
        "latency_p50_ms": p50(latencies),
        "latency_tail_ms": tail_ms,
        "throughput_meps": meps,
        "peak_alloc_mb": peak,
        "peak_rss_mb": rss,
        "setup_s": p50(setup),
    }
    notes = {
        "latency_p50_ms": f"median of {len(latencies)} operations; {by_class(inputs, latencies)}",
        "latency_tail_ms": tail_label,
        "peak_rss_mb": "this process, holding its inputs",
        "setup_s": f"median of {len(setup)} fresh interpreters",
    }
    return metrics, notes


# ---------------------------------------------------------------- traced run


def run_traced(workload, inputs, seconds, config, outcome, tracer):
    """Interleave an untraced and a traced operation on every input, in whole rounds."""
    from evrotor import run_pipeline
    from tracing import signature, traced_pipeline
    from workloads import check

    with contextlib.suppress(Exception):  # warm-up; the timed loop counts any failure
        run_pipeline(inputs[0].period, config)
    untraced_ms: list[float] = []
    per_op_counts: list[dict] = []
    first_counts: dict[str, dict] = {}
    verdict = {}
    for item in rounds(inputs, seconds):
        try:
            t0 = time.perf_counter_ns()
            untraced = run_pipeline(item.period, config).detections
            untraced_ms.append(elapsed_ms(t0))
            tracer.begin_op()
            detections, counts = traced_pipeline(tracer, item.period, config)
        except Exception as err:  # a failed operation is counted, never fatal
            outcome.record(item.label, f"raised {type(err).__name__}: {err}")
            continue
        sig = signature(untraced)
        if signature(detections) != sig:
            outcome.problems.append(f"{item.label}: traced detections differ from run_pipeline")
        if first_counts.setdefault(item.label, counts) != counts:
            outcome.problems.append(f"{item.label}: per-layer counts differ between repeats")
        if sig not in verdict:
            verdict[sig] = check(workload.check, item, [d.bbox for d in untraced])
        outcome.record(item.label, verdict[sig])
        per_op_counts.append(counts)
    return untraced_ms, per_op_counts


def io_probe(tracer, seed, config, work_dir, outcome) -> dict[str, float]:
    """p50 per call of the io functions and of ``evrotor detect`` on 200k-event files.

    Each file is loaded, detected and written through the library calls, then
    run through ``evrotor.cli.main`` in this process; the detections that
    command writes are checked like any operation's.
    """
    from evrotor import BBox, load_events, run_pipeline, write_detections
    from evrotor.cli import main as cli_main
    from workloads import check, cli_inputs

    out_path = work_dir / "probe.json"
    inputs = cli_inputs(seed, work_dir)
    for _ in range(IO_ROUNDS):
        for item in inputs:
            label = f"detect {item.label}"
            tracer.begin_op()
            csv = item.path.suffix == ".csv"
            sensor = item.period.sensor
            argv = ["detect", "--input", str(item.path), "--output", str(out_path)]
            if csv:
                argv += ["--width", str(sensor.width), "--height", str(sensor.height)]
            try:
                period = tracer.call("io.load_csv" if csv else "io.load_evd", "op",
                                     load_events, item.path, sensor if csv else None)
                detections = run_pipeline(period, config).detections
                tracer.call("io.write_detections", "op", write_detections, detections, out_path,
                            source=item.path.name, sensor=sensor, duration_us=period.duration)
                with contextlib.redirect_stdout(io.StringIO()):
                    code = tracer.call("cli.detect", "op", cli_main, argv)
                if code != 0:
                    outcome.record(label, f"evrotor detect returned {code}")
                    continue
                record = json.loads(out_path.read_text())
                boxes = [BBox(b["x"], b["y"], b["w"], b["h"]) for b in record["boxes"]]
            except Exception as err:  # a failed operation is counted, never fatal
                outcome.record(label, f"raised {type(err).__name__}: {err}")
                continue
            outcome.record(label, check("exact", item, boxes))
    per_op = tracer.per_op_ms().values()
    return {
        f"{name}_ms": p50([ms[name] for ms in per_op if name in ms])
        for name in ("io.load_evd", "io.load_csv", "io.write_detections", "cli.detect")
    }


def stage_metrics(tracer, per_op_counts, untraced_ms) -> dict[str, float]:
    """Per-stage p50 times, glue and overhead, work counts and ratios of the traced run."""
    from tracing import STAGES

    per_op = [ms for ms in tracer.per_op_ms().values() if "pipeline" in ms]
    metrics = {f"{name}_ms": p50([ms.get(name, 0.0) for ms in per_op]) for name in STAGES}
    metrics["pipeline.glue_ms"] = p50(
        [ms["pipeline"] - sum(ms.get(name, 0.0) for name in STAGES) for ms in per_op]
    )
    untraced = p50(untraced_ms)
    traced = p50([ms["pipeline"] for ms in per_op])
    metrics["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced
    for name in COUNTS:
        metrics[name] = p50([c[name] for c in per_op_counts])

    def ratio(num, den):
        den_total = sum(c[den] for c in per_op_counts)
        return sum(c[num] for c in per_op_counts) / den_total if den_total else 0.0

    metrics["features.candidates_per_topk"] = ratio("features.candidates", "features.topk")
    metrics["detector.detections_per_candidate"] = ratio("detections", "features.candidates")
    return metrics


def measure_layers(workload, inputs, seed, seconds, config, work_dir, outcome):
    """The per-layer metrics from the traced run, plus a note on how some were taken."""
    from tracing import Tracer

    tracer = Tracer()
    untraced_ms, counts = run_traced(workload, inputs, seconds, config, outcome, tracer)
    metrics = stage_metrics(tracer, counts, untraced_ms)
    metrics.update(io_probe(tracer, seed, config, work_dir, outcome))
    metrics.update(import_metrics())
    metrics["error_rate"] = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    tracer.write(HERE / "_results" / f"spans-{workload.name}-seed{seed}.json",
                 {"workload": workload.name, "seed": seed})
    notes = {
        "saliency.occupancy_bytes": "computed as 2*n*H*W, not measured",
        "trace.overhead_pct": f"traced vs untraced p50 over {len(untraced_ms)} pairs",
        "error_rate": f"{outcome.failed} of {outcome.attempted} inputs failed, "
                      f"io-probe files included; {outcome.operations} operations",
    }
    return metrics, notes


# ---------------------------------------------------------------- main


def describe(workload, why: str, seed: int, inputs) -> None:
    print(f"workload {workload.name} seed {seed}")
    print(f"  why: {why}")
    print(f"  isolates: {workload.isolates}")
    print(f"  classes: {workload.classes}")
    print(f"  mix: {workload.mix}")
    sizes = ", ".join(
        f"{item.label}={len(item.period)} ev/{item.period.duration // 1000} ms" for item in inputs
    )
    print(f"  inputs per round ({len(inputs)}): {sizes}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "evrotor" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: run from a checkout holding src/evrotor and BENCHMARK.json; "
              f"not found under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import evrotor

    if Path(evrotor.__file__).resolve().parent != SRC / "evrotor":
        print(f"error: imported evrotor from {evrotor.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = {m["name"]: m for m in spec["per_layer" if args.trace else "end_to_end"]}
    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    workload = WORKLOADS[args.workload]
    config = evrotor.DetectorConfig()
    work_dir = HERE / "_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    outcome = Outcome()
    try:
        inputs = workload.build(args.seed)
        describe(workload, why, args.seed, inputs)
        if args.trace:
            metrics, notes = measure_layers(
                workload, inputs, args.seed, args.seconds, config, work_dir, outcome
            )
        else:
            metrics, notes = measure_end_to_end(workload, inputs, args.seconds, config, outcome)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_dir.parent.rmdir()

    for label, failure in outcome.failures.items():
        print(f"  failed: {label}: {failure}")
    for problem in dict.fromkeys(outcome.problems):
        print(f"  PROBLEM: {problem}")
    print(f"  error_rate: {outcome.failed}/{outcome.attempted} inputs failed "
          f"({outcome.operations} operations)")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name} = {value:.6g} {table[name]['unit']}{note}")
    result = {
        "correct": outcome.attempted > 0 and not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": entry["unit"]} for name, entry in table.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
