"""Accuracy tables: estimated vs ground-truth rates per scenario/target."""
from __future__ import annotations

import math
from dataclasses import dataclass

OK = "ok"
FAIL = "fail"
MISSED = "missed"
SPURIOUS = "spurious"
BLANK = "--"


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


def compare_records(
    estimates: list,
    truths: list,
    br_tolerance_bpm: float = 1.0,
    hr_tolerance_bpm: float = 2.0,
) -> list:
    """Match estimate and truth records on (scenario_id, target_id).

    A key repeated among the estimates or among the truths is an error, and so
    is a truth row without an estimate (id mismatch); an estimate whose vital
    is absent where the truth has one is marked ``missed``. A tolerance must be
    a finite number >= 0.
    """
    for name, tolerance in (("br", br_tolerance_bpm), ("hr", hr_tolerance_bpm)):
        if not 0.0 <= tolerance < math.inf:
            raise ValueError(f"{name}_tolerance_bpm must be a finite number >= 0, not {tolerance}")
    est_by_key = _by_key(estimates, "estimate")
    rows = []
    for key, truth in _by_key(truths, "truth").items():
        if key not in est_by_key:
            raise ValueError(f"no estimate record for scenario/target {key}")
        est = est_by_key.pop(key)
        br_err, br_status = _judge(truth.get("br_bpm"), est.get("br_bpm"), br_tolerance_bpm)
        hr_err, hr_status = _judge(truth.get("hr_bpm"), est.get("hr_bpm"), hr_tolerance_bpm)
        rows.append(
            ReportRow(
                scenario_id=truth["scenario_id"],
                target_id=truth["target_id"],
                br_true=truth.get("br_bpm"),
                br_est=est.get("br_bpm"),
                br_error=br_err,
                br_status=br_status,
                hr_true=truth.get("hr_bpm"),
                hr_est=est.get("hr_bpm"),
                hr_error=hr_err,
                hr_status=hr_status,
            )
        )
    if est_by_key:
        raise ValueError(f"estimate records without ground truth: {sorted(est_by_key)}")
    return rows


def _by_key(records: list, kind: str) -> dict:
    """``records`` keyed on (scenario_id, target_id), in their order."""
    by_key = {}
    for record in records:
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
