import json

import pytest

from jcvitals.channel import simulate_capture
from jcvitals.cli import main
from jcvitals.pipeline import process_capture
from jcvitals.report import OK, compare_records
from jcvitals.scenarios import get_scenario
from jcvitals.waveform import build_waveform


def simulate_scenario(scenario_id, seed=None):
    scenario = get_scenario(scenario_id, seed=seed)
    spec = scenario.waveform_spec()
    symbol = build_waveform(spec)
    capture = simulate_capture(
        scenario.build_scene(), symbol, spec,
        n_frames=scenario.n_frames, rng_seed=scenario.seed,
        frame_rate_hz=scenario.frame_rate_hz,
    )
    return scenario, capture, symbol


class TestTwoPersons:
    def test_two_records_at_both_ranges(self):
        scenario, capture, symbol = simulate_scenario("two_persons")
        result = process_capture(capture, symbol=symbol,
                                 config=scenario.processing_config())
        assert len(result.targets) == 2
        ranges = [tr.detection.range_m for tr in result.targets]
        assert ranges[0] == pytest.approx(1.6, abs=0.08)
        assert ranges[1] == pytest.approx(3.44, abs=0.08)


class TestMultiPerson:
    @pytest.mark.parametrize("scenario_id", ["two_persons", "three_persons"])
    def test_every_vital_within_tolerance(self, scenario_id):
        # the Hann range taper keeps each neighbour's breathing out of a
        # person's bin; with a rectangular taper every HR here was missed
        scenario, capture, symbol = simulate_scenario(scenario_id)
        result = process_capture(capture, symbol=symbol, config=scenario.processing_config())
        records = [tr.to_record(scenario_id) for tr in result.targets]
        rows = compare_records(records, scenario.ground_truth())
        assert len(rows) == len(scenario.ground_truth())
        assert [(row.br_status, row.hr_status) for row in rows] == [(OK, OK)] * len(rows)


class TestNlos:
    def test_br_present_hr_absent(self):
        scenario, capture, symbol = simulate_scenario("nlos")
        result = process_capture(capture, symbol=symbol,
                                 config=scenario.processing_config())
        est = result.targets[0].estimate
        assert est.br_bpm == pytest.approx(17.0, abs=1.0)
        assert est.hr_bpm is None


class TestWalking:
    def test_walking_simulates_and_processes(self):
        # fixed-bin analysis degrades on a walking subject by design;
        # the pipeline must still run and detect the presence of motion
        scenario, capture, symbol = simulate_scenario("walking_fast")
        result = process_capture(capture, symbol=symbol,
                                 config=scenario.processing_config())
        assert result.targets
        assert all(t.track.unwrapped_phase.size == scenario.n_frames for t in result.targets)


class TestSittingStill:
    def test_cli_simulate_process_meets_table_row(self, tmp_path, capsys):
        cap = tmp_path / "sitting.jcv"
        est = tmp_path / "est.jsonl"
        assert main(["simulate", "--scenario", "sitting_still_2m",
                     "--output", str(cap)]) == 0
        assert main(["process", "--capture", str(cap), "--scenario", "sitting_still_2m",
                     "--estimates-out", str(est)]) == 0
        capsys.readouterr()
        record = json.loads(est.read_text().splitlines()[0])
        assert record["br_bpm"] == pytest.approx(16.0, abs=1.0)
        assert record["hr_bpm"] == pytest.approx(73.0, abs=2.0)
