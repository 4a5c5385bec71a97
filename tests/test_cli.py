import json

import pytest

from jcvitals.capture_io import read_capture, write_capture
from jcvitals.cli import main


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
        "analysis": {"min_duration_s": 15.0},
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


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

    def test_builtin_scenario_seed_override(self, tmp_path, capsys):
        out = tmp_path / "s.jcv"
        code, stdout, _ = run_cli(capsys, "simulate", "--scenario", "holding_breath",
                                  "--seed", "77", "--output", str(out))
        assert code == 0
        assert json.loads(stdout)["seed"] == 77


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

    def test_truncated_capture_is_data_error(self, tmp_path, capsys):
        config = write_config(tmp_path)
        cap = tmp_path / "cap.jcv"
        run_cli(capsys, "simulate", "--config", str(config), "--output", str(cap))
        raw = cap.read_bytes()
        cap.write_bytes(raw[:-7])
        code, _, stderr = run_cli(capsys, "process", "--capture", str(cap))
        assert code == 2
        assert "byte offset" in stderr

    def test_exports_written(self, tmp_path, capsys):
        config = write_config(tmp_path)
        cap = tmp_path / "cap.jcv"
        run_cli(capsys, "simulate", "--config", str(config), "--output", str(cap))
        export = tmp_path / "exports"
        code, _, _ = run_cli(capsys, "process", "--capture", str(cap),
                             "--config", str(config), "--export-dir", str(export))
        assert code == 0
        names = {p.name for p in export.iterdir()}
        assert "cli_test_range_profile.csv" in names
        assert "cli_test_target0_phase.csv" in names
        assert "cli_test_target0_br_spectrum.csv" in names
        assert "cli_test_process.manifest.json" in names

    def test_process_manifest_records_the_capture_averaging_factor(self, tmp_path, capsys):
        """The JCV1 averaging factor is recorded, not applied: the config's decides."""
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

    def test_export_toggles(self, tmp_path, capsys):
        config = write_config(tmp_path)
        cap = tmp_path / "cap.jcv"
        run_cli(capsys, "simulate", "--config", str(config), "--output", str(cap))
        export = tmp_path / "only_phase"
        code, _, _ = run_cli(capsys, "process", "--capture", str(cap),
                             "--config", str(config), "--export-dir", str(export),
                             "--export", "phase")
        assert code == 0
        names = {p.name for p in export.iterdir()}
        assert "cli_test_target0_phase.csv" in names
        assert "cli_test_range_profile.csv" not in names
        assert not any("spectrum" in n for n in names)


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

    def test_single_count_degenerates_to_process(self, tmp_path, capsys):
        config = write_config(tmp_path)
        code, stdout, _ = run_cli(capsys, "sweep", "--config", str(config),
                                  "--counts", "1024")
        assert code == 0
        report = json.loads(stdout)
        assert list(report["per_count"]) == ["1024"]
        assert report["spectral_correlations"] == {}

    def test_count_out_of_range_is_config_error(self, tmp_path, capsys):
        config = write_config(tmp_path)
        code, _, stderr = run_cli(capsys, "sweep", "--config", str(config),
                                  "--counts", "2048")
        assert code == 1
        assert "2048" in stderr


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

    def test_id_mismatch_is_data_error(self, tmp_path, capsys):
        truth = tmp_path / "truth.jsonl"
        est = tmp_path / "est.jsonl"
        truth.write_text(json.dumps(
            {"scenario_id": "a", "target_id": 0, "br_bpm": 16.0, "hr_bpm": 73.0}) + "\n")
        est.write_text("")
        code, _, stderr = run_cli(capsys, "report", "--estimates", str(est),
                                  "--truth", str(truth))
        assert code == 2


class TestListScenarios:
    def test_lists_builtins(self, capsys):
        code, stdout, _ = run_cli(capsys, "list-scenarios")
        assert code == 0
        assert "two_persons" in stdout
        assert "nlos" in stdout
