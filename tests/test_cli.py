import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import jcvitals
from jcvitals.capture_io import _HEADER_FMT, CaptureFormatError, read_capture, write_capture
from jcvitals.cli import main
from jcvitals.config import ConfigError, load_scenario, validate_scenario
from jcvitals.pipeline import process_capture, process_with_subcarriers
from jcvitals.scenarios import get_scenario
from jcvitals.vitals import phase_to_displacement


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, name="scn.json", **overrides):
    cfg = {
        "scenario_id": "cli_test",
        "seed": 3,
        "duration_s": 16.0,
        "frame_rate_hz": 50.0,
        "scene": {
            "snr_db": 20.0,
            "targets": [
                {
                    "rest_range_m": 2.0,
                    "vitals": {
                        "breathing_rate_hz": 16 / 60,
                        "breathing_amplitude_m": 6e-3,
                        "breathing_harmonic_weights": [],
                        "heart_rate_hz": 73 / 60,
                        "heart_amplitude_m": 0.35e-3,
                    },
                }
            ],
        },
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class _Simulated(Exception):
    pass


@pytest.fixture
def unsimulated(monkeypatch):
    """The CLI's ``simulate_capture`` raises ``_Simulated``: what a test expects to be
    refused is refused before the capture is simulated."""
    def simulate(*_args, **_kwargs):
        raise _Simulated("the capture was simulated before the config was checked")

    monkeypatch.setattr("jcvitals.cli.simulate_capture", simulate)


def check_csv(path, header, precisions, *columns):
    """``path`` holds ``header`` and one row per element of ``columns``, each
    value equal to its column's at the written precision: ``n`` decimals
    (fixed) or ``"ne"`` (n mantissa decimals)."""
    rows = Path(path).read_text().splitlines()
    assert rows[0] == header
    assert len(rows) == len(columns[0]) + 1
    parsed = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
    for written, column, precision in zip(parsed.T, columns, precisions):
        if isinstance(precision, int):
            np.testing.assert_allclose(written, column, rtol=0, atol=0.51 * 10.0**-precision)
        else:
            np.testing.assert_allclose(written, column, rtol=0.51 * 10.0**-int(precision[:-1]),
                                       atol=0)


def test_importing_the_cli_leaves_scipy_unloaded():
    src = str(Path(jcvitals.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    probe = ("import sys, jcvitals.cli; "
             "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_importing_the_program_leaves_jsonschema_unloaded():
    # only a config's validation imports it: not the CLI, nor perfbench's program modules
    src = str(Path(jcvitals.__file__).resolve().parent.parent)
    perfbench = str(Path(__file__).resolve().parent.parent / "perfbench")
    env = dict(os.environ, PYTHONPATH=src)
    probe = ("import importlib, sys; sys.path.insert(0, sys.argv[1]); import run, jcvitals.cli; "
             "[importlib.import_module(m) for m in run.PROGRAM_MODULES]; "
             "print(len(run.PROGRAM_MODULES), 'jsonschema' in sys.modules)")
    out = subprocess.run([sys.executable, "-B", "-c", probe, perfbench], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.split() == ["5", "False"]


# runs CLI commands in a fresh interpreter in which any scipy import raises ImportError
_WITHOUT_SCIPY = """
import json, sys
sys.modules["scipy"] = None
from jcvitals.cli import main
for argv in json.loads(sys.argv[1]):
    code = main(argv)
    if code:
        sys.exit(code)
"""


def test_simulate_process_and_report_run_without_scipy(tmp_path):
    # the Hann-tapered range profile, breath holds, detrending and the
    # target picker, and with harmonic_confusion the alternative-peak picker too
    commands = []
    for scenario_id in ("intermittent_breathing", "harmonic_confusion"):
        scenario = get_scenario(scenario_id)
        raw = scenario.raw
        config, truth, cap, est = (
            tmp_path / f"{scenario_id}{suffix}"
            for suffix in (".json", "_truth.jsonl", ".jcv", "_est.jsonl"))
        config.write_text(json.dumps(raw))
        truth.write_text("".join(json.dumps(r) + "\n" for r in scenario.ground_truth()))
        commands += [
            ["simulate", "--config", str(config), "--output", str(cap)],
            ["process", "--capture", str(cap), "--config", str(config),
             "--estimates-out", str(est), "--export-dir", str(tmp_path / "export")],
            ["report", "--estimates", str(est), "--truth", str(truth)],
        ]
    env = dict(os.environ, PYTHONPATH=str(Path(jcvitals.__file__).resolve().parent.parent))
    out = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, json.dumps(commands)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    held, harmonic = ([json.loads(line) for line in
                       (tmp_path / f"{s}_est.jsonl").read_text().splitlines()]
                      for s in ("intermittent_breathing", "harmonic_confusion"))
    assert [r["range_m"] for r in held] == [pytest.approx(1.5, abs=0.05)]
    assert [r["harmonic_flag"] for r in harmonic] == [True]
    assert (tmp_path / "export" / "harmonic_confusion_target0_hr_spectrum.csv").exists()
    # each report's one-row table ends the stdout of its scenario's three commands
    first, second, _ = out.stdout.split("\n1 rows: ")
    assert any(line.startswith("intermittent_breathing ") for line in first.splitlines())
    assert any(line.startswith("harmonic_confusion ") for line in second.splitlines())


# the same, with jsonschema in place of scipy
_WITHOUT_JSONSCHEMA = _WITHOUT_SCIPY.replace('"scipy"', '"jsonschema"')


def test_commands_that_read_no_config_run_without_jsonschema(tmp_path, capsys):
    # a capture alone, records and the built-in list need no schema
    cap, est, truth = (tmp_path / name for name in ("sitting_still_2m.jcv", "est.jsonl",
                                                     "truth.jsonl"))
    code = run_cli(capsys, "simulate", "--scenario", "sitting_still_2m", "--output", str(cap))[0]
    assert code == 0
    truth.write_text("".join(json.dumps(r) + "\n"
                             for r in get_scenario("sitting_still_2m").ground_truth()))
    commands = [["process", "--capture", str(cap), "--estimates-out", str(est)],
                ["report", "--estimates", str(est), "--truth", str(truth)],
                ["list-scenarios"]]
    env = dict(os.environ, PYTHONPATH=str(Path(jcvitals.__file__).resolve().parent.parent))
    out = subprocess.run([sys.executable, "-c", _WITHOUT_JSONSCHEMA, json.dumps(commands)],
                         env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    table, listing = out.stdout.split("\n1 rows: ")
    assert any(line.startswith("sitting_still_2m ") for line in table.splitlines())
    assert "two_persons" in listing


@pytest.mark.parametrize("retired", [
    ["--export", "phase"], ["--export=phase"],
    ["--br-tolerance", "0.5"], ["--br-tolerance=0.5"], ["--hr-tolerance", "0.5"],
    ["--output", "table.txt"],
], ids=["export", "export=", "br-tolerance", "br-tolerance=", "hr-tolerance", "output"])
def test_retired_option_is_usage_error(tmp_path, capsys, monkeypatch, retired):
    # exports are always the four layouts, and the table is judged at fixed tolerances
    # and printed to stdout only; --export is not read as an abbreviated --export-dir
    monkeypatch.chdir(tmp_path)
    command = (["process", "--capture", "cap.jcv"] if retired[0].startswith("--export")
               else ["report", "--estimates", "est.jsonl", "--truth", "truth.jsonl"])
    code, stdout, stderr = run_cli(capsys, *command, *retired)
    assert code == 1
    assert f"usage error: unrecognized arguments: {' '.join(retired)}" in stderr
    assert stdout == "" and not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, refusal", [
    (["simulate", "--scenario", "sitting_still_2m", "--conf", "scn.json", "--output", "cap.jcv"],
     "unrecognized arguments: --conf scn.json"),
    (["process", "--capture", "cap.jcv", "--estimates", "est.jsonl"],
     "unrecognized arguments: --estimates est.jsonl"),
    (["sweep", "--config", "scn.json", "--output", "sweep"],
     "unrecognized arguments: --output sweep"),
    (["report", "--est", "est.jsonl", "--truth", "truth.jsonl"],
     "the following arguments are required: --estimates"),
], ids=["simulate", "process", "sweep", "report"])
def test_abbreviated_option_is_usage_error(tmp_path, capsys, monkeypatch, argv, refusal):
    # every subcommand takes its options only in full, so no prefix stands for one
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path)
    code, stdout, stderr = run_cli(capsys, *argv)
    assert code == 1
    assert f"usage error: {refusal}" in stderr
    assert stdout == "" and [p.name for p in tmp_path.iterdir()] == ["scn.json"]


@pytest.mark.parametrize("argv", [
    ["simulate", "--output", "cap.jcv"],
    ["process", "--capture", "cap.jcv", "--estimates-out", "est.jsonl"],
    ["sweep", "--counts", "40,1024"],
], ids=["simulate", "process", "sweep"])
def test_scenario_and_config_together_is_usage_error(tmp_path, capsys, monkeypatch, argv):
    # one source for the scenario: neither flag is silently dropped for the other
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path)
    code, stdout, stderr = run_cli(capsys, *argv, "--scenario", "sitting_still_2m",
                                   "--config", "scn.json")
    assert code == 1
    assert "usage error: argument --config: not allowed with argument --scenario" in stderr
    assert stdout == "" and [p.name for p in tmp_path.iterdir()] == ["scn.json"]


class TestSimulate:
    def test_simulate_writes_capture_manifest_and_summary(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "cap.jcv"
        code, stdout, _ = run_cli(capsys, "simulate", "--config", str(config),
                                  "--output", str(out))
        assert code == 0
        assert out.exists()
        manifest = json.loads((tmp_path / "cap.jcv.manifest.json").read_text())
        assert manifest["scenario_id"] == "cli_test"
        assert "config_sha256" in manifest
        summary = json.loads(stdout)
        assert summary["targets"][0]["br_bpm"] == pytest.approx(16.0)

    def test_same_seed_byte_identical(self, tmp_path, capsys):
        config = write_config(tmp_path)
        a, b = tmp_path / "a.jcv", tmp_path / "b.jcv"
        assert run_cli(capsys, "simulate", "--config", str(config), "--output", str(a))[0] == 0
        assert run_cli(capsys, "simulate", "--config", str(config), "--output", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_zero_duration_config_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path, duration_s=0.0)
        out = tmp_path / "x.jcv"
        code, _, stderr = run_cli(capsys, "simulate", "--config", str(config),
                                  "--output", str(out))
        assert code == 1
        assert "duration_s" in stderr

    @pytest.mark.parametrize("overrides", [
        {"scene": {"snr_db": float("nan"), "targets": [{"rest_range_m": 2.0}]}},
        {"scene": {"snr_db": -float("inf"), "targets": [{"rest_range_m": 2.0}]}},
        {"duration_s": float("inf")},
    ], ids=["snr_nan", "snr_minus_infinity", "duration_infinity"])
    def test_non_finite_number_is_config_error(self, tmp_path, capsys, overrides):
        # json.dumps writes NaN and Infinity, which JSON itself does not allow
        config = write_config(tmp_path, **overrides)
        out = tmp_path / "x.jcv"
        code, stdout, stderr = run_cli(capsys, "simulate", "--config", str(config),
                                       "--output", str(out))
        assert code == 1
        assert f"config error: {config}: " in stderr and "is not a finite number" in stderr
        assert stdout == ""
        assert not out.exists()

    def test_static_clutter_removal_key_is_config_error(self, tmp_path, capsys):
        config = write_config(tmp_path, analysis={"remove_static_clutter": True})
        out = tmp_path / "x.jcv"
        code, stdout, stderr = run_cli(capsys, "simulate", "--config", str(config),
                                       "--output", str(out))
        assert code == 1
        assert "config error: at analysis: " in stderr and "'remove_static_clutter'" in stderr
        assert stdout == ""
        assert not out.exists()

    def test_missing_scenario_and_config_is_usage_error(self, tmp_path, capsys):
        code, _, stderr = run_cli(capsys, "simulate", "--output", str(tmp_path / "x.jcv"))
        assert code == 1

    def test_unknown_scenario_is_config_error(self, tmp_path, capsys):
        code, _, stderr = run_cli(capsys, "simulate", "--scenario", "does_not_exist",
                                  "--output", str(tmp_path / "x.jcv"))
        assert code == 1
        assert "config error" in stderr

    def test_key_error_inside_a_command_propagates(self, tmp_path, monkeypatch):
        # a KeyError is a programming bug, not a user's config error
        def broken(*_args, **_kwargs):
            raise KeyError("bug")

        monkeypatch.setattr("jcvitals.cli.simulate_capture", broken)
        with pytest.raises(KeyError, match="bug"):
            main(["simulate", "--scenario", "sitting_still_2m",
                  "--output", str(tmp_path / "x.jcv")])

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_config_the_simulator_rejects_is_config_error(self, tmp_path, capsys, command):
        # each passes the schema; the waveform, the scene or the channel refuses it
        far = {"snr_db": 20.0, "targets": [{"rest_range_m": 200.0}]}  # beyond 149.9 m
        configs = {
            "spacing": write_config(tmp_path, "spacing.json",
                                    waveform={"subcarrier_spacing_hz": 1.5e6}),
            "rate": write_config(tmp_path, "rate.json", frame_rate_hz=5.0),
            "range": write_config(tmp_path, "range.json", scene=far),
            # the lowest of 1,024 subcarriers 1 MHz apart sits 512 MHz below the carrier
            "carrier": write_config(tmp_path, "carrier.json",
                                    waveform={"carrier_frequency_hz": 5e5}),
        }
        for name, config in configs.items():
            out = tmp_path / f"{name}.jcv"
            args = ["--output", str(out)] if command == "simulate" else ["--counts", "10,1024"]
            code, _, stderr = run_cli(capsys, command, "--config", str(config), *args)
            assert code == 1, name
            assert "config error: cli_test: " in stderr, name
            assert not out.exists(), name

    @pytest.mark.parametrize("snr_db, code", [(-4000.0, 1), (4000.0, 0)])
    def test_snr_beyond_the_float_range(self, tmp_path, capsys, snr_db, code):
        # the noise power ratio leaves the float range: a noise too loud for
        # the capture is a config error, a negligible noise simulates
        scene = {"snr_db": snr_db, "targets": [{"rest_range_m": 2.0}]}
        config = write_config(tmp_path, duration_s=2.0, scene=scene)
        out = tmp_path / "x.jcv"
        got, _, stderr = run_cli(capsys, "simulate", "--config", str(config), "--output", str(out))
        assert got == code
        if code:
            assert "config error: cli_test: " in stderr and "Traceback" not in stderr
            assert not out.exists()
        else:
            assert out.exists()

    def test_builtin_scenario_seed_override(self, tmp_path, capsys):
        out = tmp_path / "s.jcv"
        code, stdout, _ = run_cli(capsys, "simulate", "--scenario", "holding_breath",
                                  "--seed", "77", "--output", str(out))
        assert code == 0
        assert json.loads(stdout)["seed"] == 77

    def test_config_seed_override_is_validated(self, tmp_path, capsys):
        # the overriding seed meets the schema, as it does for a built-in scenario
        config = write_config(tmp_path)
        for source in (("--config", str(config)), ("--scenario", "holding_breath")):
            code, _, stderr = run_cli(capsys, "simulate", *source, "--seed", "-1",
                                      "--output", str(tmp_path / "x.jcv"))
            assert code == 1, source
            assert "config error: at seed" in stderr
        assert not (tmp_path / "x.jcv").exists()

    def test_seed_beyond_the_header_is_config_error(self, tmp_path, capsys, unsimulated):
        # a JCV1 header stores the seed as a signed 64-bit integer
        config = write_config(tmp_path)
        out = tmp_path / "x.jcv"
        for source in (("--config", str(config)), ("--scenario", "sitting_still_2m")):
            code, _, stderr = run_cli(capsys, "simulate", *source, "--seed",
                                      "99999999999999999999", "--output", str(out))
            assert code == 1, source
            assert "config error: at seed" in stderr and "Traceback" not in stderr
        assert not out.exists()


class TestProcess:
    def test_process_single_target(self, tmp_path, capsys):
        config = write_config(tmp_path)
        cap = tmp_path / "cap.jcv"
        run_cli(capsys, "simulate", "--config", str(config), "--output", str(cap))
        est = tmp_path / "est.jsonl"
        code, stdout, _ = run_cli(capsys, "process", "--capture", str(cap),
                                  "--config", str(config), "--estimates-out", str(est))
        assert code == 0
        records = [json.loads(line) for line in est.read_text().splitlines()]
        assert len(records) == 1
        assert records[0]["br_bpm"] == pytest.approx(16.0, abs=1.0)
        assert records[0]["hr_bpm"] == pytest.approx(73.0, abs=2.0)

    @pytest.mark.parametrize("analysis, path", [
        # the range taper, spectral padding, harmonic tolerance, detection limits and shortest
        # record are fixed: unknown keys
        ({"window": "hann"}, "analysis"),
        ({"zero_pad_factor": 8}, "analysis"),
        ({"harmonic_tolerance_hz": 0.04}, "analysis"),
        ({"min_prominence_db": 8.0}, "analysis"),
        ({"max_below_peak_db": 12.0}, "analysis"),
        ({"min_duration_s": 10.0}, "analysis"),
        ({"br_band_hz": [0.5, 0.15]}, "analysis/br_band_hz"),  # reversed
        ({"br_band_hz": [0.0, 0.5]}, "analysis/br_band_hz"),  # a non-positive edge
        ({"hr_band_hz": [0.8, 25.0]}, "analysis/hr_band_hz"),  # at the 50 Hz frame rate's Nyquist
    ], ids=["window", "zero_pad_factor", "harmonic_tolerance_hz", "min_prominence_db",
            "max_below_peak_db", "min_duration_s", "reversed", "zero-edge", "nyquist"])
    def test_analysis_the_chain_rejects_is_config_error(self, tmp_path, capsys, analysis, path):
        cap = tmp_path / "cap.jcv"
        run_cli(capsys, "simulate", "--config", str(write_config(tmp_path)), "--output", str(cap))
        config = write_config(tmp_path, "bad.json", analysis=analysis)
        code, stdout, stderr = run_cli(capsys, "process", "--capture", str(cap),
                                       "--config", str(config))
        assert code == 1
        assert f"config error: at {path}:" in stderr
        assert stdout == ""

    def test_truncated_capture_is_data_error(self, tmp_path, capsys):
        config = write_config(tmp_path)
        cap = tmp_path / "cap.jcv"
        run_cli(capsys, "simulate", "--config", str(config), "--output", str(cap))
        raw = cap.read_bytes()
        cap.write_bytes(raw[:-7])
        code, _, stderr = run_cli(capsys, "process", "--capture", str(cap))
        assert code == 2
        assert "byte offset" in stderr

    def test_header_with_an_infinite_spacing_is_data_error(self, tmp_path, capsys):
        cap = tmp_path / "cap.jcv"
        run_cli(capsys, "simulate", "--config", str(write_config(tmp_path)), "--output", str(cap))
        raw = bytearray(cap.read_bytes())
        header = list(struct.unpack_from(_HEADER_FMT, raw))
        header[9] = math.inf  # subcarrier spacing
        struct.pack_into(_HEADER_FMT, raw, 0, *header)
        cap.write_bytes(bytes(raw))
        code, stdout, stderr = run_cli(capsys, "process", "--capture", str(cap))
        assert code == 2
        assert "data error: invalid capture: subcarrier_spacing_hz must be positive and finite" in stderr
        assert stdout == ""

    @pytest.mark.parametrize("carrier_hz", [5e5, 1.0])
    def test_header_with_a_carrier_below_the_band_is_data_error(self, tmp_path, capsys,
                                                                 carrier_hz):
        # a subcarrier at or below 0 Hz: the band's wavelength would be infinite or negative
        cap = tmp_path / "cap.jcv"
        run_cli(capsys, "simulate", "--config", str(write_config(tmp_path)), "--output", str(cap))
        raw = bytearray(cap.read_bytes())
        header = list(struct.unpack_from(_HEADER_FMT, raw))
        header[2] = carrier_hz
        struct.pack_into(_HEADER_FMT, raw, 0, *header)
        cap.write_bytes(bytes(raw))
        with pytest.raises(CaptureFormatError, match="carrier_frequency_hz must exceed 5.12e"):
            read_capture(cap)
        code, stdout, stderr = run_cli(capsys, "process", "--capture", str(cap),
                                       "--export-dir", str(tmp_path / "exports"))
        assert code == 2
        assert "data error: invalid capture: carrier_frequency_hz must exceed" in stderr
        assert stdout == ""

    def test_exports_written(self, tmp_path, capsys):
        def person(range_m, br_bpm):
            return {"rest_range_m": range_m,
                    "vitals": {"breathing_rate_hz": br_bpm / 60, "breathing_amplitude_m": 6e-3,
                               "breathing_harmonic_weights": []}}
        config = write_config(tmp_path, scene={"snr_db": 20.0,
                                               "targets": [person(1.6, 13), person(3.4, 21)]})
        cap = tmp_path / "cap.jcv"
        run_cli(capsys, "simulate", "--config", str(config), "--output", str(cap))
        export = tmp_path / "exports"
        code, stdout, _ = run_cli(capsys, "process", "--capture", str(cap),
                                  "--config", str(config), "--export-dir", str(export))
        assert code == 0
        assert len(stdout.splitlines()) == 2
        expected = ["cli_test_range_profile.csv"]
        for target in ("target0", "target1"):
            expected += [f"cli_test_{target}_{layout}.csv" for layout in
                         ("phase", "displacement", "br_spectrum", "hr_spectrum")]
        expected.append("cli_test_process.manifest.json")
        assert sorted(p.name for p in export.iterdir()) == sorted(expected)

    def test_export_layouts_hold_the_pipeline_arrays(self, tmp_path, capsys):
        config = write_config(tmp_path)
        cap = tmp_path / "cap.jcv"
        run_cli(capsys, "simulate", "--config", str(config), "--output", str(cap))
        export = tmp_path / "exports"
        code, _, _ = run_cli(capsys, "process", "--capture", str(cap),
                             "--config", str(config), "--export-dir", str(export))
        assert code == 0
        capture, _ = read_capture(cap)
        result = process_capture(capture, config=load_scenario(config).processing_config())
        assert result.targets
        check_csv(export / "cli_test_range_profile.csv", "range_m,power_db", (4, 3),
                  result.profiles.range_axis_m, result.profiles.mean_power_db())
        for tr in result.targets:
            stem = export / f"cli_test_target{tr.target_id}"
            t = np.arange(len(tr.track.unwrapped_phase)) / tr.track.sample_rate_hz
            check_csv(f"{stem}_phase.csv", "time_s,phase_rad", (6, "9e"),
                      t, tr.track.unwrapped_phase)
            check_csv(f"{stem}_displacement.csv", "time_s,displacement_m", (6, "9e"),
                      t, phase_to_displacement(tr.track, capture.spec.effective_wavelength_m))
            for band in ("br", "hr"):
                check_csv(f"{stem}_{band}_spectrum.csv", "frequency_hz,normalized_magnitude",
                          (6, "6e"), *getattr(tr.estimate, f"{band}_spectrum"))

    def test_process_manifest_records_the_capture_averaging_factor(self, tmp_path, capsys):
        """The JCV1 averaging factor is recorded, not applied: process never averages."""
        config = write_config(tmp_path)
        cap, tagged = tmp_path / "cap.jcv", tmp_path / "tagged.jcv"
        run_cli(capsys, "simulate", "--config", str(config), "--output", str(cap))
        capture, meta = read_capture(cap)
        assert meta.averaging_factor == 1  # what simulate writes
        write_capture(tagged, capture, averaging_factor=4, seed=meta.seed)
        records = {}
        for path in (cap, tagged):
            export = tmp_path / f"{path.stem}_exports"
            code, stdout, _ = run_cli(capsys, "process", "--capture", str(path),
                                      "--config", str(config), "--export-dir", str(export))
            assert code == 0
            manifest = json.loads((export / "cli_test_process.manifest.json").read_text())
            assert manifest["capture_seed"] == 3
            records[manifest["capture_averaging_factor"]] = stdout
        assert list(records) == [1, 4]
        assert records[1] == records[4]


class TestSweep:
    def test_sweep_counts_agree_for_single_target(self, tmp_path, capsys):
        config = write_config(tmp_path)
        code, stdout, _ = run_cli(capsys, "sweep", "--config", str(config),
                                  "--counts", "10,40,1024")
        assert code == 0
        report = json.loads(stdout)
        brs = {c: report["per_count"][c]["estimates"][0]["br_bpm"]
               for c in ("10", "40", "1024")}
        assert max(brs.values()) - min(brs.values()) <= 0.25
        assert report["spectral_correlations"]["br_10_vs_1024"] >= 0.95

    def test_correlations_pair_targets_by_range(self, tmp_path, capsys):
        # at 10 subcarriers the two people merge into one detection near the
        # stronger, farther one; it is compared with that person, not the first
        def person(range_m, br_bpm, loss_db):
            return {"rest_range_m": range_m, "nlos_attenuation_db": loss_db,
                    "vitals": {"breathing_rate_hz": br_bpm / 60, "breathing_amplitude_m": 6e-3,
                               "breathing_harmonic_weights": []}}
        scene = {"snr_db": 20.0, "targets": [person(1.6, 13, 6.0), person(3.4, 21, 0.0)]}
        config = write_config(tmp_path, scene=scene)
        code, stdout, _ = run_cli(capsys, "sweep", "--config", str(config),
                                  "--counts", "10,1024")
        assert code == 0
        report = json.loads(stdout)
        narrow, wide = (report["per_count"][c]["estimates"] for c in ("10", "1024"))
        assert len(narrow) == 1 and len(wide) == 2
        assert abs(narrow[0]["range_m"] - 3.4) < abs(narrow[0]["range_m"] - 1.6)
        assert report["spectral_correlations"]["br_10_vs_1024"] >= 0.95

    def test_single_count_degenerates_to_process(self, tmp_path, capsys):
        config = write_config(tmp_path)
        code, stdout, _ = run_cli(capsys, "sweep", "--config", str(config),
                                  "--counts", "1024")
        assert code == 0
        report = json.loads(stdout)
        assert list(report["per_count"]) == ["1024"]
        assert report["spectral_correlations"] == {}

    def test_profile_layout_holds_the_pipeline_arrays(self, tmp_path, capsys):
        config = write_config(tmp_path)
        cap, out = tmp_path / "cap.jcv", tmp_path / "sweep"
        run_cli(capsys, "simulate", "--config", str(config), "--output", str(cap))
        code, _, _ = run_cli(capsys, "sweep", "--config", str(config), "--counts", "10,40,1024",
                             "--output-dir", str(out))
        assert code == 0
        capture, _ = read_capture(cap)  # the capture the sweep simulated
        processing = load_scenario(config).processing_config()
        results = process_with_subcarriers(capture, [10, 40], config=processing)
        results[1024] = process_capture(capture, config=processing)
        for count, result in results.items():
            check_csv(out / f"cli_test_profile_{count}sc.csv", "range_m,power_db", (4, 3),
                      result.profiles.range_axis_m, result.profiles.mean_power_db())

    @pytest.mark.parametrize("band", [
        [0.5, 0.15],  # reversed
        [0.8, 26.0],  # above the Nyquist of the 50 Hz frames
    ])
    def test_band_the_chain_rejects_is_config_error(self, tmp_path, capsys, unsimulated, band):
        config = write_config(tmp_path, analysis={"hr_band_hz": band})
        code, stdout, stderr = run_cli(capsys, "sweep", "--config", str(config),
                                       "--counts", "10,1024")
        assert code == 1
        assert "config error: at analysis/hr_band_hz" in stderr
        assert stdout == ""

    @pytest.mark.parametrize("overrides, path", [
        ({"seed": 3.0}, "seed"),
        ({"waveform": {"samples_per_pulse": 2500.0}}, "waveform/samples_per_pulse"),
    ], ids=["seed", "samples_per_pulse"])
    def test_float_in_an_integer_key_is_config_error(self, tmp_path, capsys, unsimulated,
                                                     overrides, path):
        # JSON Schema counts 3.0 as an integer; numpy's seeding, shapes and indexing do not
        config = write_config(tmp_path, **overrides)
        code, stdout, stderr = run_cli(capsys, "sweep", "--config", str(config))
        assert code == 1
        assert f"config error: at {path}: " in stderr and "is not of type 'integer'" in stderr
        assert "Traceback" not in stderr
        assert stdout == ""

    def test_short_record_is_refused_before_simulating(self, tmp_path, capsys, unsimulated):
        config = write_config(tmp_path, duration_s=5.0)
        code, stdout, stderr = run_cli(capsys, "sweep", "--config", str(config),
                                       "--counts", "10,1024")
        assert code == 1
        assert ("config error: cli_test: the record of 5 s is shorter than "
                "the 15 s the vitals need") in stderr
        assert stdout == ""

    def test_record_of_the_minimum_is_simulated(self, tmp_path, unsimulated):
        config = write_config(tmp_path, duration_s=15.0)
        with pytest.raises(_Simulated):
            main(["sweep", "--config", str(config), "--counts", "10,1024"])

    def test_counts_default_to_10_40_1024(self, tmp_path, capsys):
        code, stdout, _ = run_cli(capsys, "sweep", "--config", str(write_config(tmp_path)))
        assert code == 0
        report = json.loads(stdout)
        assert report["counts"] == [10, 40, 1024]
        assert list(report["per_count"]) == ["10", "40", "1024"]

    @pytest.mark.parametrize("key, value", [
        ("confidence_threshold", 0.05),
        ("max_targets", 2),
        ("subcarrier_counts", [10, 40, 1024]),
    ])
    def test_retired_analysis_key_is_config_error(self, tmp_path, capsys, unsimulated, key,
                                                  value):
        # the chain's defaults stand: VitalsConfig's threshold, ProcessingConfig's
        # target limit and the counts of --counts
        config = write_config(tmp_path, analysis={key: value})
        message = f"at analysis: Additional properties are not allowed ('{key}' was unexpected)"
        with pytest.raises(ConfigError) as refused:
            validate_scenario(json.loads(config.read_text()))
        assert str(refused.value) == message
        code, stdout, stderr = run_cli(capsys, "sweep", "--config", str(config))
        assert code == 1
        assert f"config error: {message}" in stderr
        assert stdout == ""

    def test_count_beyond_the_active_band_is_refused_before_simulating(self, tmp_path, capsys,
                                                                       unsimulated):
        # the reference symbol is built from the config's 40-subcarrier band
        config = write_config(tmp_path, waveform={"active_subcarriers": 40})
        code, stdout, stderr = run_cli(capsys, "sweep", "--config", str(config),
                                       "--counts", "10,1024")
        assert code == 1
        assert "config error: subcarrier count 1024 outside [1, 40]" in stderr
        assert stdout == ""

    @pytest.mark.parametrize("counts", ["10,abc", "10,,40", "1.5"])
    def test_malformed_counts_is_usage_error(self, capsys, counts):
        code, stdout, stderr = run_cli(capsys, "sweep", "--scenario", "sitting_still_2m",
                                       "--counts", counts)
        assert code == 1
        assert "usage error: argument --counts: not a comma-separated list of integers" in stderr
        assert stdout == ""

    def test_repeated_count_is_refused_before_simulating(self, capsys, unsimulated):
        code, stdout, stderr = run_cli(capsys, "sweep", "--scenario", "three_persons",
                                       "--counts", "40,40,1024")
        assert code == 1
        assert "usage error: argument --counts: a subcarrier count is repeated" in stderr
        assert stdout == ""

    def test_count_out_of_range_is_config_error(self, tmp_path, capsys):
        config = write_config(tmp_path)
        code, _, stderr = run_cli(capsys, "sweep", "--config", str(config),
                                  "--counts", "2048")
        assert code == 1
        assert "2048" in stderr

    @pytest.mark.parametrize("counts", ["0", "10,2000"])
    def test_count_out_of_range_is_refused_before_simulating(self, tmp_path, capsys,
                                                            unsimulated, counts):
        code, stdout, stderr = run_cli(capsys, "sweep", "--scenario", "three_persons",
                                       "--counts", counts)
        assert code == 1
        assert f"config error: subcarrier count {counts.split(',')[-1]} outside [1, 1024]" in stderr
        assert stdout == ""


class TestReport:
    def test_perfect_report(self, tmp_path, capsys):
        truth = tmp_path / "truth.jsonl"
        est = tmp_path / "est.jsonl"
        rec = {"scenario_id": "a", "target_id": 0, "br_bpm": 16.0, "hr_bpm": 73.0}
        truth.write_text(json.dumps(rec) + "\n")
        est.write_text(json.dumps(rec) + "\n")
        code, stdout, _ = run_cli(capsys, "report", "--estimates", str(est),
                                  "--truth", str(truth))
        assert code == 0
        assert "0 failed tolerance" in stdout

    def test_missed_vital_row(self, tmp_path, capsys):
        truth = tmp_path / "truth.jsonl"
        est = tmp_path / "est.jsonl"
        truth.write_text(json.dumps(
            {"scenario_id": "a", "target_id": 0, "br_bpm": 16.0, "hr_bpm": 73.0}) + "\n")
        est.write_text(json.dumps(
            {"scenario_id": "a", "target_id": 0, "br_bpm": 16.0, "hr_bpm": None}) + "\n")
        code, stdout, _ = run_cli(capsys, "report", "--estimates", str(est),
                                  "--truth", str(truth))
        assert code == 0
        assert "missed" in stdout

    def test_malformed_record_is_data_error(self, tmp_path, capsys):
        truth = tmp_path / "truth.jsonl"
        truth.write_text(json.dumps(
            {"scenario_id": "a", "target_id": 0, "br_bpm": 16.0, "hr_bpm": 73.0}) + "\n")
        for name, line in (("no_target_id", '{"scenario_id": "a"}'), ("array", "[1, 2]")):
            est = tmp_path / f"{name}.jsonl"
            est.write_text(line + "\n")
            code, _, stderr = run_cli(capsys, "report", "--estimates", str(est),
                                      "--truth", str(truth))
            assert code == 2, name
            assert "data error" in stderr, name

    @pytest.mark.parametrize("field, value", [
        ("scenario_id", 1), ("scenario_id", None), ("target_id", [0]), ("target_id", True),
        ("target_id", 0.0), ("target_id", "0"), ("br_bpm", "16"), ("br_bpm", True),
        ("br_bpm", [16.0]), ("br_bpm", float("nan")), ("hr_bpm", float("inf")),
        ("hr_bpm", -float("inf")), ("hr_bpm", {"bpm": 73.0}), ("hr_bpm", 10**400),
    ])
    @pytest.mark.parametrize("bad", ["estimates", "truth"])
    def test_field_of_the_wrong_type_is_data_error(self, tmp_path, capsys, field, value, bad):
        files = {}
        for name in ("estimates", "truth"):
            rec = {"scenario_id": "a", "target_id": 1, "br_bpm": 16.0, "hr_bpm": 73.0}
            if name == bad:
                rec[field] = value
            files[name] = tmp_path / f"{name}.jsonl"
            files[name].write_text(json.dumps(rec) + "\n")
        code, stdout, stderr = run_cli(capsys, "report", "--estimates", str(files["estimates"]),
                                       "--truth", str(files["truth"]))
        assert code == 2
        assert f"data error: {files[bad]}: record 1 is not a JSON object with" in stderr
        assert stdout == ""

    def test_integer_and_absent_rates_are_read(self, tmp_path, capsys):
        truth = tmp_path / "truth.jsonl"
        est = tmp_path / "est.jsonl"
        truth.write_text(json.dumps({"scenario_id": "a", "target_id": 0, "br_bpm": 16}) + "\n")
        est.write_text(json.dumps({"scenario_id": "a", "target_id": 0, "br_bpm": 16.0}) + "\n")
        code, stdout, _ = run_cli(capsys, "report", "--estimates", str(est),
                                  "--truth", str(truth))
        assert code == 0
        assert "0 failed tolerance" in stdout

    def test_id_mismatch_is_data_error(self, tmp_path, capsys):
        truth = tmp_path / "truth.jsonl"
        est = tmp_path / "est.jsonl"
        truth.write_text(json.dumps(
            {"scenario_id": "a", "target_id": 0, "br_bpm": 16.0, "hr_bpm": 73.0}) + "\n")
        est.write_text("")
        code, _, stderr = run_cli(capsys, "report", "--estimates", str(est),
                                  "--truth", str(truth))
        assert code == 2

    @pytest.mark.parametrize("repeated", ["estimates", "truth"])
    def test_duplicate_key_is_data_error(self, tmp_path, capsys, repeated):
        line = json.dumps({"scenario_id": "a", "target_id": 0, "br_bpm": 16.0, "hr_bpm": 73.0})
        files = {}
        for name in ("estimates", "truth"):
            files[name] = tmp_path / f"{name}.jsonl"
            files[name].write_text((line + "\n") * (2 if name == repeated else 1))
        code, stdout, stderr = run_cli(capsys, "report", "--estimates", str(files["estimates"]),
                                       "--truth", str(files["truth"]))
        assert code == 2
        kind = "estimate" if repeated == "estimates" else "truth"
        assert f"data error: duplicate {kind} record for scenario/target ('a', 0)" in stderr
        assert stdout == ""


class TestListScenarios:
    def test_lists_builtins(self, capsys):
        code, stdout, _ = run_cli(capsys, "list-scenarios")
        assert code == 0
        assert "two_persons" in stdout
        assert "nlos" in stdout
