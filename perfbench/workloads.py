"""The benchmark's workloads, their accuracy accounting and their metrics.

Each workload is a closed loop with one client: a pass starts when the
previous one has returned, and passes repeat until the run's seconds are up
(at least one pass). Why each workload exists:

- ``catalog``: all built-in scenarios through the CLI's simulate -> JCV1
  write -> read -> process -> report chain. It is the accuracy oracle and the
  only workload that covers every condition; ``channel`` and ``receiver`` do
  most of its work.
- ``sweep``: one three-person capture, simulated in set-up, reprocessed at
  eight subcarrier counts. The receiver runs eight times on the same frames
  while ``channel`` and ``capture_io`` are bypassed, so receive-chain reuse
  shows here and must leave ``catalog`` flat.
- ``long_record``: one seated person for ten minutes at 12.5 Hz, a capture
  larger than the last-level cache. Streaming or narrower dtypes show in
  ``peak_rss_mb`` here, and per-scenario overhead is negligible.
"""
from __future__ import annotations

import copy
import json
import os
import resource
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

from jcvitals import capture_io, channel, config, pipeline, report, scenarios, waveform
from tracing import Tracer

SEED_STRIDE = 1000  # --seed n adds n * SEED_STRIDE to every scenario's own seed
SETUP_REPEATS = 9
SWEEP_SCENARIO = "three_persons"
SWEEP_COUNTS = [10, 20, 40, 80, 160, 320, 640, 1024]
LONG_BASE_SCENARIO = "sitting_still_2m"
LONG_DURATION_S = 600.0
LONG_FRAME_RATE_HZ = 12.5
BANDS = ("br_bpm", "hr_bpm")
MIB = float(1 << 20)

LAYERS = ("config", "physio", "waveform", "channel", "capture_io", "receiver", "ranging",
          "vitals", "pipeline", "report")
TIMED_SPANS = ("config.get_scenario", "config.build_scene", "waveform.build_waveform",
               "channel.simulate_capture", "capture_io.write_capture", "capture_io.read_capture",
               "receiver.estimate_channel", "ranging.to_range_profiles", "ranging.detect_targets",
               "vitals.phase_track", "vitals.estimate_vitals", "pipeline.process_capture",
               "pipeline.process_with_subcarriers", "report.compare_records")
ALLOC_SPANS = ("config.build_scene", "channel.simulate_capture", "capture_io.write_capture",
               "capture_io.read_capture", "receiver.estimate_channel", "ranging.to_range_profiles",
               "ranging.detect_targets", "vitals.phase_track", "vitals.estimate_vitals",
               "pipeline.process_capture", "pipeline.process_with_subcarriers")


@dataclass
class Accuracy:
    """Fixed-denominator accounting of vitals against ground truth.

    Every vital present in the truth lands in exactly one of ``ok``,
    ``wrong`` and ``missed``, so ``ok + wrong + missed == truth`` whatever the
    program reports, and a fix can only move counts towards ``ok``. A vital
    absent from the truth is ``absent_ok`` or ``spurious``; so is every vital
    of an estimate record that has no truth row. When ``compare_records``
    raises, the capture's truth vitals count as missed.
    """

    truth: int = 0
    ok: int = 0
    wrong: int = 0
    missed: int = 0
    absent: int = 0
    absent_ok: int = 0
    spurious: int = 0
    report_errors: int = 0

    def judge(self, truths: list, records: list) -> bool:
        """Account one capture at the report defaults; False if the report failed."""
        self.truth += sum(t[b] is not None for t in truths for b in BANDS)
        self.absent += sum(t[b] is None for t in truths for b in BANDS)
        try:
            rows = report.compare_records(records, truths)
        except ValueError:
            self.report_errors += 1
            unmatched = {(r["scenario_id"], r["target_id"]): r for r in records}
            for t in truths:
                est = unmatched.pop((t["scenario_id"], t["target_id"]), {})
                for b in BANDS:
                    if t[b] is not None:
                        self.missed += 1
                    elif est.get(b) is None:
                        self.absent_ok += 1
                    else:
                        self.spurious += 1
            self.spurious += sum(r[b] is not None for r in unmatched.values() for b in BANDS)
            return False
        for row in rows:
            for true, status in ((row.br_true, row.br_status), (row.hr_true, row.hr_status)):
                if true is None:
                    if status == report.OK:
                        self.absent_ok += 1
                    else:
                        self.spurious += 1
                elif status == report.OK:
                    self.ok += 1
                elif status == report.FAIL:
                    self.wrong += 1
                else:
                    self.missed += 1
        return True


@dataclass
class PassLog:
    """What one pass did: its operations, outputs and per-item rates."""

    mode: str  # "untraced", "spans" (timed spans) or "alloc" (spans under tracemalloc)
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    captures: int = 0
    records: list = field(default_factory=list)
    accuracy: Accuracy = field(default_factory=Accuracy)
    simulate_rates: list = field(default_factory=list)
    process_rates: list = field(default_factory=list)


class Run:
    """State of one benchmark run shared by the workload code."""

    def __init__(self, seed: int, workdir):
        self.seed_offset = seed * SEED_STRIDE
        self.capture_path = os.path.join(workdir, f"capture-{os.getpid()}.jcv")
        self.tracer: Tracer | None = None
        self.setup_simulate_rates: list = []

    def reseed(self, scenario: config.Scenario) -> config.Scenario:
        scenario.raw["seed"] = scenario.seed + self.seed_offset
        return scenario

    def label(self, trace_id: str) -> None:
        if self.tracer is not None:
            self.tracer.trace_id = trace_id


def run_chain(scenario: config.Scenario, run: Run, log: PassLog) -> None:
    """simulate -> JCV1 write -> read -> process -> report, as the CLI runs it."""
    spec = scenario.waveform_spec()
    symbol = waveform.build_waveform(spec)
    processing = scenario.processing_config()
    start = time.perf_counter()
    scene = scenario.build_scene()
    capture = channel.simulate_capture(scene, symbol, spec, n_frames=scenario.n_frames,
                                       rng_seed=scenario.seed, frame_rate_hz=scenario.frame_rate_hz)
    capture_io.write_capture(run.capture_path, capture, seed=scenario.seed)
    simulated = time.perf_counter()
    n_frames = capture.n_frames
    del scene, capture  # the CLI simulates and processes in separate processes
    capture, _ = capture_io.read_capture(run.capture_path)
    result = pipeline.process_capture(capture, config=processing)
    processed = time.perf_counter()
    os.remove(run.capture_path)
    records = [t.to_record(scenario.scenario_id) for t in result.targets]
    del capture, result
    log.attempted += 1
    log.captures += 1
    log.records.extend(records)
    if not log.accuracy.judge(scenario.ground_truth(), records):
        log.failed += 1
    log.simulate_rates.append(n_frames / (simulated - start))
    log.process_rates.append(n_frames / (processed - simulated))


class Catalog:
    name = "catalog"
    op = "one scenario through simulate, write, read, process and report"
    trace_masks = False

    def setup(self, run: Run):
        return scenarios.scenario_ids()

    def run_pass(self, run: Run, ids: list, log: PassLog) -> None:
        for sid in ids:
            run.label(sid)
            run_chain(run.reseed(scenarios.get_scenario(sid)), run, log)

    def check(self, run: Run, ids: list, accuracy: Accuracy) -> list:
        if accuracy.wrong:
            return [f"{accuracy.wrong} reported vital(s) outside report tolerance"]
        return []


@dataclass
class SweepInput:
    scenario: config.Scenario
    symbol: object
    capture: object
    processing: object
    full_band: object = None  # last pass's result at the full subcarrier count


class Sweep:
    name = "sweep"
    op = "one subcarrier count of process_with_subcarriers"
    trace_masks = True

    def setup(self, run: Run) -> SweepInput:
        scenario = run.reseed(scenarios.get_scenario(SWEEP_SCENARIO))
        spec = scenario.waveform_spec()
        symbol = waveform.build_waveform(spec)
        start = time.perf_counter()
        capture = channel.simulate_capture(scenario.build_scene(), symbol, spec,
                                           n_frames=scenario.n_frames, rng_seed=scenario.seed,
                                           frame_rate_hz=scenario.frame_rate_hz)
        run.setup_simulate_rates.append(capture.n_frames / (time.perf_counter() - start))
        return SweepInput(scenario, symbol, capture, scenario.processing_config())

    def run_pass(self, run: Run, inp: SweepInput, log: PassLog) -> None:
        inp.full_band = None
        run.label(inp.scenario.scenario_id)
        start = time.perf_counter()
        results = pipeline.process_with_subcarriers(inp.capture, SWEEP_COUNTS, symbol=inp.symbol,
                                                    config=inp.processing)
        log.process_rates.append(
            inp.capture.n_frames * len(SWEEP_COUNTS) / (time.perf_counter() - start))
        log.attempted += len(SWEEP_COUNTS)
        log.captures += 1
        for count in SWEEP_COUNTS:
            log.records.extend(t.to_record(_mask_id(inp.scenario, count))
                               for t in results[count].targets)
        inp.full_band = results[SWEEP_COUNTS[-1]]

    def account(self, inp: SweepInput, records: list) -> Accuracy:
        """The sweep runs no report step; its outputs are judged untimed, per mask."""
        accuracy = Accuracy()
        for count in SWEEP_COUNTS:
            sid = _mask_id(inp.scenario, count)
            truths = [{**t, "scenario_id": sid} for t in inp.scenario.ground_truth()]
            accuracy.judge(truths, [r for r in records if r["scenario_id"] == sid])
        return accuracy

    def check(self, run: Run, inp: SweepInput, accuracy: Accuracy) -> list:
        reference = pipeline.process_capture(inp.capture, symbol=inp.symbol, config=inp.processing)
        if not same_result(inp.full_band, reference):
            return [f"sweep at {SWEEP_COUNTS[-1]} subcarriers differs from process_capture"]
        return []


def _mask_id(scenario: config.Scenario, count: int) -> str:
    return f"{scenario.scenario_id}@{count}"


class LongRecord:
    name = "long_record"
    op = "one pass of the ten-minute record through the catalog's chain"
    trace_masks = False

    def setup(self, run: Run) -> config.Scenario:
        raw = copy.deepcopy(scenarios.get_scenario(LONG_BASE_SCENARIO).raw)
        raw.update(scenario_id="long_record", duration_s=LONG_DURATION_S,
                   frame_rate_hz=LONG_FRAME_RATE_HZ,
                   description="One seated person at 2 m for ten minutes")
        return run.reseed(config.validate_scenario(raw))

    def run_pass(self, run: Run, scenario: config.Scenario, log: PassLog) -> None:
        run.label(scenario.scenario_id)
        run_chain(scenario, run, log)

    def check(self, run: Run, scenario: config.Scenario, accuracy: Accuracy) -> list:
        if accuracy.ok != accuracy.truth or accuracy.spurious or accuracy.report_errors:
            return [f"long_record vitals not all within report tolerance: {accuracy}"]
        return []


WORKLOADS = {w.name: w for w in (Catalog, Sweep, LongRecord)}


def same_result(a: pipeline.ProcessResult, b: pipeline.ProcessResult) -> bool:
    """Bit-identical detections, phase tracks and estimates."""
    if a is None or len(a.targets) != len(b.targets) or a.detections != b.detections:
        return False
    for ta, tb in zip(a.targets, b.targets):
        ea, eb = ta.estimate, tb.estimate
        if not np.array_equal(ta.track.unwrapped_phase, tb.track.unwrapped_phase):
            return False
        if ea.to_record() != eb.to_record() or (ea.br_bpm, ea.hr_bpm) != (eb.br_bpm, eb.hr_bpm):
            return False
        for band in ("br_spectrum", "hr_spectrum"):
            if not all(np.array_equal(x, y) for x, y in zip(getattr(ea, band), getattr(eb, band))):
                return False
    return True


# -- tracing -----------------------------------------------------------------


def _count_simulate(t: Tracer, capture, scene, symbol, spec, **_):
    n, p = capture.frames.shape
    t.counters["channel.bytes_out"] += capture.frames.nbytes
    t.counters["channel.noise_samples"] += n * p
    t.counters["channel.noise_samples_unread"] += n * (p - spec.active_count)


def _count_file(t: Tracer, _result, path, *_, **__):
    t.counters["capture_io.bytes"] += os.path.getsize(path)


def _count_estimate(t: Tracer, series, *_, **__):
    t.counters["receiver.calls"] += 1
    t.counters["receiver.bytes_out"] += series.transfer.nbytes + series.impulse.nbytes
    t.counters["receiver.impulse_columns"] += series.impulse.shape[1]


def _count_profiles(t: Tracer, profiles, *_, **__):
    t.counters["ranging.bytes_out"] += profiles.profiles.nbytes


def _count_detections(t: Tracer, detections, *_, **__):
    t.counters["ranging.detections"] += len(detections)


def _count_column(t: Tracer, *_, **__):
    t.counters["ranging.impulse_columns_used"] += 1


def _count_track(t: Tracer, *_, **__):
    t.counters["vitals.tracks"] += 1


def install_tracer(tracer: Tracer, trace_masks: bool) -> None:
    """Wrap each layer's public functions where the benchmark and
    ``jcvitals.pipeline`` look them up."""
    w = tracer.wrap
    w(scenarios, "get_scenario", "config.get_scenario", "config")
    w(config.Scenario, "build_scene", "config.build_scene", "config")
    w(config, "synthesize_displacement", "physio.synthesize_displacement", "physio")
    w(config, "walking_trajectory", "physio.walking_trajectory", "physio")
    w(waveform, "build_waveform", "waveform.build_waveform", "waveform")
    w(pipeline, "build_waveform", "waveform.build_waveform", "waveform")
    w(pipeline, "select_subcarriers", "waveform.select_subcarriers", "waveform")
    w(channel, "simulate_capture", "channel.simulate_capture", "channel", _count_simulate)
    w(capture_io, "write_capture", "capture_io.write_capture", "capture_io", _count_file)
    w(capture_io, "read_capture", "capture_io.read_capture", "capture_io", _count_file)
    mask_id = (lambda capture, *_, **__: f"{tracer.trace_id}@{capture.spec.active_count}")
    w(pipeline, "process_capture", "pipeline.process_capture", "pipeline",
      trace_id=mask_id if trace_masks else None)
    w(pipeline, "process_with_subcarriers", "pipeline.process_with_subcarriers", "pipeline")
    w(pipeline, "average_slow_time", "receiver.average_slow_time", "receiver")
    w(pipeline, "estimate_channel", "receiver.estimate_channel", "receiver", _count_estimate)
    w(pipeline, "to_range_profiles", "ranging.to_range_profiles", "ranging", _count_profiles)
    w(pipeline, "detect_targets", "ranging.detect_targets", "ranging", _count_detections)
    w(pipeline, "extract_bin_series", "ranging.extract_bin_series", "ranging", _count_column)
    w(pipeline, "phase_track", "vitals.phase_track", "vitals", _count_track)
    w(pipeline, "estimate_vitals", "vitals.estimate_vitals", "vitals")
    w(report, "compare_records", "report.compare_records", "report")


# -- a run -------------------------------------------------------------------


def _passes(workload, run: Run, state, seconds: float, mode: str) -> list:
    logs = []
    start = time.perf_counter()
    while not logs or time.perf_counter() - start < seconds:
        log = PassLog(mode)
        root = None
        if run.tracer is not None:
            run.label(f"{workload.name}#{len(logs)}")
            root = run.tracer.begin("bench.pass", "bench")
        began = time.perf_counter()
        workload.run_pass(run, state, log)
        log.wall_s = time.perf_counter() - began
        if root is not None:
            run.tracer.end(root)
        logs.append(log)
    return logs


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _layer_metrics(tracer: Tracer, logs: list, peaks: dict, untraced_wall_s: float,
                   accuracy: Accuracy) -> dict:
    n = len(logs)
    c = tracer.counters
    roots = [s for s in tracer.spans if s.layer == "bench"]
    inclusive = tracer.inclusive_times()
    self_times = tracer.self_times()
    captures = sum(log.captures for log in logs)
    m = {f"{name}_s": (inclusive.get(name, 0.0) / n, "s") for name in TIMED_SPANS}
    m.update({f"{name}.peak_alloc_mb": (peaks.get(name, 0) / MIB, "MiB") for name in ALLOC_SPANS})
    m.update({f"{layer}.self_s": (self_times.get(layer, 0.0) / n, "s") for layer in LAYERS})
    wall = sum(s.duration for s in roots) / n
    m["bench.unattributed_s"] = (self_times.get("bench", 0.0) / n, "s")
    m["trace.wall_s"] = (wall, "s")
    m["trace.overhead_s"] = (wall - untraced_wall_s, "s")
    m["channel.noise_unread_ratio"] = (
        _ratio(c["channel.noise_samples_unread"], c["channel.noise_samples"]), "ratio")
    m["channel.bytes_out"] = (c["channel.bytes_out"] / n, "B")
    m["capture_io.bytes"] = (c["capture_io.bytes"] / n, "B")
    m["receiver.calls"] = (_ratio(c["receiver.calls"], captures), "calls/capture")
    m["receiver.bytes_out"] = (c["receiver.bytes_out"] / n, "B")
    m["receiver.impulse_columns_used_ratio"] = (
        _ratio(c["ranging.impulse_columns_used"], c["receiver.impulse_columns"]), "ratio")
    m["ranging.bytes_out"] = (c["ranging.bytes_out"] / n, "B")
    m["ranging.detections"] = (c["ranging.detections"] / n, "count")
    m["vitals.tracks"] = (c["vitals.tracks"] / n, "count")
    m["report.errors"] = (accuracy.report_errors, "count")
    for key in ("ok", "wrong", "missed", "spurious"):
        m[f"report.vitals_{key}"] = (getattr(accuracy, key), "count")
    return m


def execute(name: str, seed: int, seconds: float, trace: bool, import_samples: list,
            workdir, span_path) -> dict:
    """Set up, measure and check one workload; return metrics and details."""
    workload = WORKLOADS[name]()
    run = Run(seed, workdir)
    setup_samples = []
    state = None
    for _ in range(SETUP_REPEATS):
        state = None  # release the previous input before building the next
        began = time.perf_counter()
        state = workload.setup(run)
        setup_samples.append(time.perf_counter() - began)

    untraced = _passes(workload, run, state, seconds, "untraced")
    logs = list(untraced)
    tracers = {}
    if trace:
        # Times come from spans alone. Peak allocations come from one more
        # pass under tracemalloc, whose bookkeeping slows Python-heavy layers.
        for mode, mode_seconds in (("spans", seconds), ("alloc", 0.0)):
            run.tracer = tracers[mode] = Tracer()
            install_tracer(run.tracer, workload.trace_masks)
            if mode == "alloc":
                tracemalloc.start()
            try:
                logs += _passes(workload, run, state, mode_seconds, mode)
            finally:
                tracemalloc.stop()
                run.tracer.restore()
        run.tracer = None
        with open(span_path, "w") as fh:
            json.dump({mode: t.as_dict() for mode, t in tracers.items()}, fh)

    if isinstance(workload, Sweep):
        accuracies = [workload.account(state, log.records) for log in logs]
    else:
        accuracies = [log.accuracy for log in logs]
    accuracy = accuracies[0]
    problems = workload.check(run, state, accuracy)
    if accuracy.ok + accuracy.wrong + accuracy.missed != accuracy.truth:
        problems.append(f"accounting does not cover every truth vital: {accuracy}")
    if any(log.records != logs[0].records for log in logs) or any(a != accuracy for a in accuracies):
        problems.append("passes over the same inputs gave different outputs")

    wall_s = statistics.median(log.wall_s for log in untraced)
    simulate_rates = run.setup_simulate_rates or [r for log in untraced for r in log.simulate_rates]
    end_to_end = {
        "setup_s": (statistics.median(import_samples) + statistics.median(setup_samples), "s"),
        "wall_s": (wall_s, "s"),
        "simulate_frames_per_s": (statistics.median(simulate_rates), "frames/s"),
        "process_frames_per_s": (
            statistics.median(r for log in untraced for r in log.process_rates), "frames/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "vitals_ok": (accuracy.ok, "count"),
    }
    per_layer = {}
    if trace:
        per_layer = _layer_metrics(tracers["spans"], [log for log in logs if log.mode == "spans"],
                                   tracers["alloc"].peak_alloc(), wall_s, accuracy)
        attributed = sum(per_layer[f"{layer}.self_s"][0] for layer in LAYERS)
        attributed += per_layer["bench.unattributed_s"][0]
        if abs(attributed - per_layer["trace.wall_s"][0]) > 1e-6:
            problems.append("layer self times do not add up to the traced wall time")

    attempted = sum(log.attempted for log in logs)
    failed = sum(log.failed for log in logs)
    return {
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "details": {
            "passes": {mode: sum(log.mode == mode for log in logs)
                       for mode in ("untraced", "spans", "alloc")},
            "pass_wall_s": [log.wall_s for log in logs],
            "setup_samples_s": {"import": import_samples, "inputs": setup_samples},
            "samples": {"simulate_frames_per_s": len(simulate_rates),
                        "process_frames_per_s": sum(len(log.process_rates) for log in untraced)},
            "accuracy_per_pass": vars(accuracy),
            "op_failure_ratio": {"value": _ratio(failed, attempted), "failed": failed,
                                 "base": attempted, "op": workload.op},
        },
    }

