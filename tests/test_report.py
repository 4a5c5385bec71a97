import math

import pytest

from jcvitals.report import (
    BR_TOLERANCE_BPM,
    FAIL,
    HR_TOLERANCE_BPM,
    MISSED,
    OK,
    compare_records,
    render_table,
)


def rec(sid, tid, br, hr):
    return {"scenario_id": sid, "target_id": tid, "br_bpm": br, "hr_bpm": hr}


class TestCompare:
    def test_perfect_estimates_zero_error(self):
        truth = [rec("a", 0, 16.0, 73.0)]
        est = [rec("a", 0, 16.0, 73.0)]
        rows = compare_records(est, truth)
        assert rows[0].br_error == 0.0
        assert rows[0].hr_error == 0.0
        assert rows[0].br_status == OK and rows[0].hr_status == OK

    def test_absent_estimate_marked_missed(self):
        truth = [rec("a", 0, 16.0, 73.0)]
        est = [rec("a", 0, 16.0, None)]
        rows = compare_records(est, truth)
        assert rows[0].hr_status == MISSED
        assert rows[0].hr_error is None

    def test_absent_truth_and_estimate_ok(self):
        truth = [rec("hold", 0, None, 74.0)]
        est = [rec("hold", 0, None, 74.5)]
        rows = compare_records(est, truth)
        assert rows[0].br_status == OK
        assert rows[0].hr_status == OK

    def test_tolerance_violation_fails(self):
        truth = [rec("a", 0, 16.0, 73.0)]
        est = [rec("a", 0, 18.0, 73.0)]
        rows = compare_records(est, truth)
        assert rows[0].br_status == FAIL

    @pytest.mark.parametrize("band, tolerance", [("br", BR_TOLERANCE_BPM),
                                                 ("hr", HR_TOLERANCE_BPM)])
    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["above", "below"])
    def test_an_error_at_the_tolerance_is_ok_and_above_it_fails(self, band, tolerance, sign):
        # a zero reference keeps each error exact: the estimate is the error, on either side
        assert (BR_TOLERANCE_BPM, HR_TOLERANCE_BPM) == (1.0, 2.0)
        truth = [rec("a", 0, 0.0, 0.0)]
        for error, status in ((tolerance, OK), (math.nextafter(tolerance, math.inf), FAIL)):
            [row] = compare_records([{**truth[0], f"{band}_bpm": sign * error}], truth)
            assert (getattr(row, f"{band}_error"), getattr(row, f"{band}_status")) == (error, status)

    @pytest.mark.parametrize("keyword", ["br_tolerance_bpm", "hr_tolerance_bpm"])
    def test_tolerance_is_not_a_keyword(self, keyword):
        records = [rec("a", 0, 16.0, 73.0)]
        with pytest.raises(TypeError, match=keyword):
            compare_records(records, records, **{keyword: 5.0})

    def test_id_mismatch_rejected(self):
        with pytest.raises(ValueError, match="no estimate"):
            compare_records([], [rec("a", 0, 16.0, 73.0)])
        with pytest.raises(ValueError, match="without ground truth"):
            compare_records([rec("a", 0, 16.0, 73.0), rec("b", 0, 1.0, 2.0)],
                            [rec("a", 0, 16.0, 73.0)])

    def test_duplicate_estimate_rejected(self):
        # a second estimate for the key used to replace the first, a wrong 10 bpm
        truth = [rec("a", 0, 16.0, 73.0)]
        est = [rec("a", 0, 10.0, 73.0), rec("a", 0, 16.0, 73.0)]
        with pytest.raises(ValueError, match=r"duplicate estimate record .*\('a', 0\)"):
            compare_records(est, truth)

    def test_duplicate_truth_rejected(self):
        # the second truth row used to be reported as having no estimate record
        truth = [rec("a", 0, 16.0, 73.0), rec("a", 0, 16.0, 73.0)]
        with pytest.raises(ValueError, match=r"duplicate truth record .*\('a', 0\)"):
            compare_records([rec("a", 0, 16.0, 73.0)], truth)

    def test_multi_scenario_matching(self):
        truth = [rec("a", 0, 16.0, 73.0), rec("b", 0, 19.0, 87.0), rec("b", 1, 14.0, 60.0)]
        est = [rec("b", 1, 14.2, 61.0), rec("a", 0, 16.0, 72.5), rec("b", 0, 19.5, 88.0)]
        rows = compare_records(est, truth)
        assert len(rows) == 3
        assert all(r.br_status == OK for r in rows)

    @pytest.mark.parametrize("field, value", [
        ("target_id", True),  # used to match truth id 1 silently
        ("br_bpm", "16.0"),  # used to raise a TypeError
        ("hr_bpm", float("nan")),  # used to give a fail row with a NaN error
        ("scenario_id", None),  # absent: used to raise a KeyError
    ])
    @pytest.mark.parametrize("side", ["estimate", "truth"])
    def test_malformed_record_rejected(self, side, field, value):
        good = [rec("a", 0, 16.0, 73.0), rec("a", 1, 16.0, 73.0)]
        bad = [good[0], {**good[1], field: value}]
        if value is None:
            del bad[1][field]
        records = (bad, good) if side == "estimate" else (good, bad)
        with pytest.raises(ValueError, match=rf"^{side}s\[1\] is not a dict with a string"):
            compare_records(*records)


class TestRenderTable:
    def test_layout_matches_radar_vs_reference(self):
        truth = [rec("sitting_still_2m", 0, 16.0, 73.0), rec("holding_breath", 0, None, 74.0)]
        est = [rec("sitting_still_2m", 0, 16.2, 73.4), rec("holding_breath", 0, None, 74.8)]
        table = render_table(compare_records(est, truth))
        lines = table.splitlines()
        assert "Radar BR" in lines[0] and "Ref BR" in lines[0]
        assert "Radar HR" in lines[0] and "Ref HR" in lines[0]
        assert any("sitting_still_2m" in line for line in lines)
        assert any("--" in line for line in lines)  # blank cells for absent vitals
        assert lines[-1].endswith("missed vitals")
