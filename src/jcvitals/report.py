"""Accuracy tables: estimated vs ground-truth rates per scenario/target, each
rate judged at a fixed tolerance (BR ±1 bpm, HR ±2 bpm)."""
from __future__ import annotations

import sys
from dataclasses import dataclass

OK = "ok"
FAIL = "fail"
MISSED = "missed"
SPURIOUS = "spurious"
BLANK = "--"

BR_TOLERANCE_BPM = 1.0
HR_TOLERANCE_BPM = 2.0


@dataclass
class ReportRow:
    scenario_id: str
    target_id: int
    br_true: float | None
    br_est: float | None
    br_error: float | None
    br_status: str
    hr_true: float | None
    hr_est: float | None
    hr_error: float | None
    hr_status: str


def _judge(true_bpm, est_bpm, tol_bpm):
    if true_bpm is None and est_bpm is None:
        return None, OK
    if true_bpm is None:
        return None, SPURIOUS
    if est_bpm is None:
        return None, MISSED
    err = abs(est_bpm - true_bpm)
    return err, OK if err <= tol_bpm else FAIL


def compare_records(estimates: list, truths: list) -> list:
    """Match estimate and truth records on (scenario_id, target_id) and judge
    each rate at ``BR_TOLERANCE_BPM`` or ``HR_TOLERANCE_BPM``: an error at most
    the tolerance is ``ok``, a larger one ``fail``.

    A key repeated among the estimates or among the truths is an error, and so
    is a truth row without an estimate (id mismatch); an estimate whose vital
    is absent where the truth has one is marked ``missed``. A record that ``_is_record``
    refuses is an error, named by its list and index.
    """
    est_by_key = _by_key(estimates, "estimate")
    rows = []
    for key, truth in _by_key(truths, "truth").items():
        if key not in est_by_key:
            raise ValueError(f"no estimate record for scenario/target {key}")
        est = est_by_key.pop(key)
        judged = {}
        for band, tolerance in (("br", BR_TOLERANCE_BPM), ("hr", HR_TOLERANCE_BPM)):
            true, estimated = truth.get(f"{band}_bpm"), est.get(f"{band}_bpm")
            error, status = _judge(true, estimated, tolerance)
            judged.update({f"{band}_true": true, f"{band}_est": estimated,
                           f"{band}_error": error, f"{band}_status": status})
        rows.append(ReportRow(scenario_id=truth["scenario_id"], target_id=truth["target_id"],
                              **judged))
    if est_by_key:
        raise ValueError(f"estimate records without ground truth: {sorted(est_by_key)}")
    return rows


def _is_record(record) -> bool:
    """Whether ``record`` is a dict with a string scenario_id, an int target_id, and a br_bpm
    and hr_bpm each absent, None or an int or float (numpy's float64 is one) finite as a float."""
    def number(value, kind):  # a bool is an int, but neither a target id nor a rate
        return isinstance(value, kind) and not isinstance(value, bool)

    return (isinstance(record, dict) and isinstance(record.get("scenario_id"), str)
            and number(record.get("target_id"), int)
            and all(rate is None or number(rate, (int, float)) and abs(rate) <= sys.float_info.max
                    for rate in (record.get("br_bpm"), record.get("hr_bpm"))))


def _by_key(records: list, kind: str) -> dict:
    """``records`` keyed on (scenario_id, target_id), in their order."""
    by_key = {}
    for i, record in enumerate(records):
        if not _is_record(record):
            raise ValueError(f"{kind}s[{i}] is not a dict with a string scenario_id, an integer "
                             f"target_id and finite or absent rates: {record!r}")
        key = (record["scenario_id"], record["target_id"])
        if key in by_key:
            raise ValueError(f"duplicate {kind} record for scenario/target {key}")
        by_key[key] = record
    return by_key


def _fmt(value, width=9):
    if value is None:
        return BLANK.rjust(width)
    return f"{value:{width}.1f}"


def render_table(rows: list) -> str:
    """Fixed-width table in the radar-vs-reference layout."""
    header = (
        f"{'Scenario':<28}{'Tgt':>4}{'Radar BR':>10}{'Ref BR':>9}{'BR err':>8}"
        f"{'BR':>8}{'Radar HR':>10}{'Ref HR':>9}{'HR err':>8}{'HR':>9}"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.scenario_id:<28}{r.target_id:>4}"
            f"{_fmt(r.br_est, 10)}{_fmt(r.br_true)}{_fmt(r.br_error, 8)}{r.br_status:>8}"
            f"{_fmt(r.hr_est, 10)}{_fmt(r.hr_true)}{_fmt(r.hr_error, 8)}{r.hr_status:>9}"
        )
    n_fail = sum(r.br_status == FAIL or r.hr_status == FAIL for r in rows)
    n_missed = sum(r.br_status == MISSED or r.hr_status == MISSED for r in rows)
    lines.append("-" * len(header))
    lines.append(f"{len(rows)} rows: {n_fail} failed tolerance, {n_missed} with missed vitals")
    return "\n".join(lines)
