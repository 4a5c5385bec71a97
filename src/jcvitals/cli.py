"""Command-line interface.

Subcommands: simulate, process, sweep, report, list-scenarios.
Exit codes: 0 success, 1 usage/config error, 2 data error.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .capture_io import CaptureFormatError, read_capture, write_capture
from .channel import simulate_capture
from .config import ConfigError, Scenario, config_digest, load_scenario, validate_scenario
from .pipeline import process_capture, process_with_subcarriers
from .report import _is_record, compare_records, render_table
from .scenarios import describe_scenarios, get_scenario
from .vitals import MIN_DURATION_S, phase_to_displacement, spectral_correlation
from .waveform import build_waveform

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        raise _UsageError(message)


def _load_scenario_arg(args) -> Scenario:
    if getattr(args, "config", None):
        scenario = load_scenario(args.config)
        if getattr(args, "seed", None) is not None:
            return validate_scenario({**scenario.raw, "seed": args.seed})
        return scenario
    if getattr(args, "scenario", None):
        return get_scenario(args.scenario, seed=getattr(args, "seed", None))
    raise _UsageError("either --scenario or --config is required")


def _write_manifest(path: Path, scenario: Scenario | None, command: str, extra: dict | None = None):
    manifest = {
        "command": command,
        "jcvitals_version": __version__,
        "numpy_version": np.__version__,
    }
    if scenario is not None:
        manifest["scenario_id"] = scenario.scenario_id
        manifest["seed"] = scenario.seed
        manifest["config_sha256"] = config_digest(scenario.raw)
    if extra:
        manifest.update(extra)
    path.write_text(json.dumps(manifest, indent=2) + "\n")


def _simulate(scenario: Scenario, counts: tuple | list = ()):
    """The scenario's capture and scene. A scenario that passes the schema but
    that the waveform, scene or simulator rejects is still a config error, as
    is a subcarrier count outside the active band the reference symbol is built
    from, found before simulating."""
    try:
        spec = scenario.waveform_spec()
        for count in counts:
            if not 1 <= count <= spec.active_count:
                raise ConfigError(f"subcarrier count {count} outside [1, {spec.active_count}]")
        symbol = build_waveform(spec)
        scene = scenario.build_scene()
        capture = simulate_capture(
            scene,
            symbol,
            spec,
            n_frames=scenario.n_frames,
            rng_seed=scenario.seed,
            frame_rate_hz=scenario.frame_rate_hz,
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{scenario.scenario_id}: {exc}") from exc
    return capture, scene


def cmd_simulate(args) -> int:
    scenario = _load_scenario_arg(args)
    capture, scene = _simulate(scenario)
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_capture(out, capture, averaging_factor=1, seed=scenario.seed)
    _write_manifest(out.with_suffix(out.suffix + ".manifest.json"), scenario, "simulate",
                    {"output": str(out), "n_frames": capture.n_frames})
    summary = {
        "scenario_id": scenario.scenario_id,
        "seed": scenario.seed,
        "duration_s": scenario.duration_s,
        "frame_rate_hz": scenario.frame_rate_hz,
        "n_frames": capture.n_frames,
        "snr_db": scene.snr_db,
        "output": str(out),
        "targets": scenario.ground_truth(),
    }
    print(json.dumps(summary, indent=2))
    return EXIT_OK


EXPORT_KINDS = ("range-profile", "phase", "displacement", "spectra")


def _write_csv(path, header: str, row_format: str, *columns) -> None:
    """Write ``header``, then one ``row_format.format(*row)`` line per row of
    the equal-length ``columns``."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(row_format.format(*row) + "\n" for row in zip(*columns))


def _write_profile(path, profiles) -> None:
    """The slow-time-averaged range profile as (range_m, power_db)."""
    _write_csv(path, "range_m,power_db", "{:.4f},{:.3f}",
               profiles.range_axis_m, profiles.mean_power_db())


def _export_results(result, scenario_id, export_dir: Path, spec, kinds=None):
    kinds = set(kinds or EXPORT_KINDS)
    export_dir.mkdir(parents=True, exist_ok=True)
    if "range-profile" in kinds:
        _write_profile(export_dir / f"{scenario_id}_range_profile.csv", result.profiles)
    wavelength = spec.effective_wavelength_m
    for tr in result.targets:
        stem = f"{scenario_id}_target{tr.target_id}"
        t = np.arange(len(tr.track.unwrapped_phase)) / tr.track.sample_rate_hz
        if "phase" in kinds:
            _write_csv(export_dir / f"{stem}_phase.csv", "time_s,phase_rad", "{:.6f},{:.9e}",
                       t, tr.track.unwrapped_phase)
        if "displacement" in kinds:
            _write_csv(export_dir / f"{stem}_displacement.csv", "time_s,displacement_m",
                       "{:.6f},{:.9e}", t, phase_to_displacement(tr.track, wavelength))
        if "spectra" in kinds:
            for band in ("br", "hr"):
                _write_csv(export_dir / f"{stem}_{band}_spectrum.csv",
                           "frequency_hz,normalized_magnitude", "{:.6f},{:.6e}",
                           *getattr(tr.estimate, f"{band}_spectrum"))


def cmd_process(args) -> int:
    capture, meta = read_capture(args.capture)
    scenario = _load_scenario_arg(args) if args.config or args.scenario else None
    scenario_id = scenario.scenario_id if scenario else Path(args.capture).stem

    result = process_capture(capture, config=scenario.processing_config() if scenario else None)
    records = [tr.to_record(scenario_id) for tr in result.targets]
    lines = "\n".join(json.dumps(r) for r in records)
    if args.estimates_out:
        Path(args.estimates_out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.estimates_out).write_text(lines + ("\n" if lines else ""))
    if lines:
        print(lines)
    print(f"# {len(records)} target(s) detected", file=sys.stderr)

    if args.export_dir:
        export_dir = Path(args.export_dir)
        _export_results(result, scenario_id, export_dir, capture.spec, kinds=args.export)
        _write_manifest(export_dir / f"{scenario_id}_process.manifest.json", scenario,
                        "process", {"capture": str(args.capture), "capture_seed": meta.seed,
                                    "capture_averaging_factor": meta.averaging_factor})
    return EXIT_OK


def _counts(text: str) -> list:
    """``--counts``: a malformed or repeating list is a usage error, raised by argparse."""
    try:
        counts = [int(c) for c in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated list of integers: {text!r}") from None
    if len(set(counts)) < len(counts):
        raise argparse.ArgumentTypeError(f"a subcarrier count is repeated: {text!r}")
    return counts


def cmd_sweep(args) -> int:
    scenario = _load_scenario_arg(args)
    counts = args.counts
    config = scenario.processing_config()
    # the record's length, checked before simulating
    duration_s = scenario.n_frames / scenario.frame_rate_hz
    if duration_s < MIN_DURATION_S:
        raise ConfigError(f"{scenario.scenario_id}: the record of {duration_s:g} s is "
                          f"shorter than the {MIN_DURATION_S:g} s the vitals need")
    capture, _ = _simulate(scenario, counts)
    spec = capture.spec
    results = process_with_subcarriers(capture, counts, config=config)

    per_count = {}
    for count, result in results.items():
        per_count[str(count)] = {
            "occupied_bandwidth_hz": count * spec.subcarrier_spacing_hz,
            "range_resolution_m": result.profiles.range_resolution_m,
            "n_detections": len(result.detections),
            "estimates": [tr.to_record(scenario.scenario_id) for tr in result.targets],
        }

    correlations = {}
    ref_count = max(counts)
    ref = results[ref_count]
    for count in counts:
        if count == ref_count or not ref.targets:
            continue
        pairs = []  # each target with the reference target nearest to it in range
        for t in results[count].targets:
            nearest = min(ref.targets, key=lambda r: abs(r.detection.range_m - t.detection.range_m))
            pairs.append((t.estimate, nearest.estimate))
        for band in ("br", "hr"):
            vals = [
                spectral_correlation(getattr(a, f"{band}_spectrum"), getattr(b, f"{band}_spectrum"))
                for a, b in pairs
            ]
            if vals:
                correlations[f"{band}_{count}_vs_{ref_count}"] = round(float(np.mean(vals)), 4)

    report = {
        "scenario_id": scenario.scenario_id,
        "counts": counts,
        "per_count": per_count,
        "spectral_correlations": correlations,
    }
    print(json.dumps(report, indent=2))
    if args.output_dir:
        out = Path(args.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{scenario.scenario_id}_sweep.json").write_text(json.dumps(report, indent=2) + "\n")
        for count, result in results.items():
            _write_profile(out / f"{scenario.scenario_id}_profile_{count}sc.csv", result.profiles)
        _write_manifest(out / f"{scenario.scenario_id}_sweep.manifest.json", scenario, "sweep")
    return EXIT_OK


def _read_records(path) -> list:
    """One JSON object per non-blank line, each of the form ``compare_records`` accepts."""
    records = []
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    records.append(json.loads(line))
    except (OSError, json.JSONDecodeError) as exc:
        raise CaptureFormatError(f"{path}: {exc}") from exc
    for number, record in enumerate(records, start=1):
        if not _is_record(record):
            raise CaptureFormatError(
                f"{path}: record {number} is not a JSON object with a string scenario_id, an "
                "integer target_id, and a br_bpm and hr_bpm each absent, null or a finite number")
    return records


def _tolerance(text: str) -> float:
    """``--br-tolerance`` and ``--hr-tolerance``: one that is not a number, not finite or
    negative is a usage error, raised by argparse."""
    tolerance = float(text)  # argparse reports a ValueError as an invalid value
    if not 0.0 <= tolerance < math.inf:
        raise argparse.ArgumentTypeError(f"not a finite tolerance >= 0: {text!r}")
    return tolerance


def cmd_report(args) -> int:
    estimates = _read_records(args.estimates)
    truths = _read_records(args.truth)
    rows = compare_records(estimates, truths, args.br_tolerance, args.hr_tolerance)
    table = render_table(rows)
    print(table)
    if args.output:
        Path(args.output).parent.mkdir(parents=True, exist_ok=True)
        Path(args.output).write_text(table + "\n")
    return EXIT_OK


def cmd_list_scenarios(_args) -> int:
    for item in describe_scenarios():
        print(f"{item['scenario_id']:<28} {item['description']}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="jcvitals", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="synthesize a capture file from a scenario")
    p.add_argument("--scenario", help="built-in scenario id")
    p.add_argument("--config", help="scenario config JSON path")
    p.add_argument("--seed", type=int, help="override the scenario seed")
    p.add_argument("--output", required=True, help="capture file to write")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("process", help="run the receive pipeline on a capture")
    p.add_argument("--capture", required=True)
    p.add_argument("--scenario", help="built-in scenario id for analysis settings")
    p.add_argument("--config", help="scenario config JSON for analysis settings")
    p.add_argument("--estimates-out", help="write estimate records (JSON lines) here")
    p.add_argument("--export-dir", help="export analysis products here as CSV")
    p.add_argument("--export", action="append", choices=EXPORT_KINDS,
                   help="which products to export (repeatable; default: all)")
    p.set_defaults(func=cmd_process)

    p = sub.add_parser("sweep", help="process one scene at several subcarrier counts")
    p.add_argument("--scenario", help="built-in scenario id")
    p.add_argument("--config", help="scenario config JSON path")
    p.add_argument("--seed", type=int, help="override the scenario seed")
    p.add_argument("--counts", type=_counts, default=[10, 40, 1024],
                   help="comma-separated subcarrier counts (default: 10,40,1024)")
    p.add_argument("--output-dir", help="write the sweep report and profiles here")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="accuracy table of estimates vs ground truth")
    p.add_argument("--estimates", required=True, help="estimate records (JSON lines)")
    p.add_argument("--truth", required=True, help="ground-truth records (JSON lines)")
    p.add_argument("--br-tolerance", type=_tolerance, default=1.0)
    p.add_argument("--hr-tolerance", type=_tolerance, default=2.0)
    p.add_argument("--output", help="also write the table to this file")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("list-scenarios", help="list built-in scenarios")
    p.set_defaults(func=cmd_list_scenarios)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
