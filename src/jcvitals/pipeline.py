"""End-to-end processing of a capture: channel estimation, target detection,
per-target phase tracking and vital-sign estimation.

The chain never averages: callers compose ``process_capture(average_slow_time(capture, k))``.
Besides the capture, no N x A or N x P array is made: range power and the
per-target bin series are each one pass over its frames in blocks."""
from __future__ import annotations

from dataclasses import dataclass, field

from .channel import SlowFastMatrix
# to_range_profiles and extract_bin_series, the one-band and one-bin cases of the two passes,
# and average_slow_time, which callers compose before the chain, stay importable here for
# callers (perfbench's tracer) that look the chain's steps up here
from .ranging import (RangeProfileSeries, TargetDetection, detect_targets, extract_bin_series,  # noqa: F401
                      range_profiles, to_range_profiles)
from .receiver import average_slow_time, estimate_channel, series_at_bins  # noqa: F401
from .vitals import PhaseTrack, VitalsConfig, VitalsEstimate, estimate_vitals, phase_track
from .waveform import BasebandSymbol, build_waveform, select_subcarriers


@dataclass
class ProcessingConfig:
    """Everything the receive chain needs besides the capture itself."""

    cable_offset_m: float = 0.0
    max_targets: int = 4
    vitals: VitalsConfig = field(default_factory=VitalsConfig)


@dataclass
class TargetResult:
    target_id: int
    detection: TargetDetection
    track: PhaseTrack
    estimate: VitalsEstimate

    def to_record(self, scenario_id: str | None = None) -> dict:
        record = {
            "target_id": self.target_id,
            "range_m": round(self.detection.range_m, 4),
            "bin_index": self.detection.bin_index,
            "mean_power_db": round(self.detection.mean_power_db, 2),
        }
        if scenario_id is not None:
            record = {"scenario_id": scenario_id, **record}
        record.update(self.estimate.to_record())
        return record


@dataclass
class ProcessResult:
    """One receive-chain run: arrays and numbers, holding neither the capture nor its frames."""

    profiles: RangeProfileSeries
    detections: list
    targets: list  # TargetResult, ordered by increasing range


def process_capture(
    capture: SlowFastMatrix,
    symbol: BasebandSymbol | None = None,
    config: ProcessingConfig | None = None,
) -> ProcessResult:
    """Run the full receive chain on one capture.

    Targets are numbered by increasing range (nearest person first), each one
    analyzed at its single strongest range bin for the whole record. This is
    ``process_with_subcarriers`` at the capture's own band.
    """
    count = capture.spec.active_count
    return process_with_subcarriers(capture, [count], symbol, config)[count]


def process_with_subcarriers(
    capture: SlowFastMatrix,
    counts: list,
    symbol: BasebandSymbol | None = None,
    config: ProcessingConfig | None = None,
) -> dict:
    """Reprocess one capture with narrowed active-subcarrier bands.

    The same recorded frames (same noise realization) are analyzed per count,
    which isolates the effect of occupied bandwidth, keeping the central
    frequency fixed. The capture's channel is estimated once, at its own band,
    and the capture is not averaged; centred bands are nested, so each count
    reads a column sub-range of that estimate, and a count wider than the
    capture's band is a ``ValueError``, whatever the symbol, raised before any
    frame is read. The frames are read twice:
    once for every count's range power, once for every target's bin series.
    No result keeps the estimate or its frames. Each result is bit-identical
    to ``process_capture`` on the capture relabelled with that count's band.
    """
    config = config or ProcessingConfig()
    if symbol is None:
        symbol = build_waveform(capture.spec)
    specs = {count: select_subcarriers(capture.spec, count) for count in counts}
    if not specs:
        return {}
    series = estimate_channel(capture, symbol)
    # pass 1: every count's range power, each frame transformed once
    profiles = range_profiles(series, list(specs.values()), config.cable_offset_m)
    detections = [detect_targets(band, config.max_targets) for band in profiles]
    # targets numbered by increasing range (nearest person first)
    nearest = [sorted(found, key=lambda d: d.range_m) for found in detections]
    # pass 2: every target's bin series at every count, each frame read once
    bands = [series.narrowed(spec) for spec in specs.values()]
    columns = iter(series_at_bins(series.frames, [
        band.bin_weights(det.bin_index) for band, near in zip(bands, nearest) for det in near
    ]))
    results = {}
    for count, band, found, near in zip(specs, profiles, detections, nearest):
        targets = []
        for i, det in enumerate(near):
            track = phase_track(next(columns), series.frame_rate_hz)
            estimate = estimate_vitals(track, config.vitals)
            targets.append(TargetResult(target_id=i, detection=det, track=track, estimate=estimate))
        results[count] = ProcessResult(profiles=band, detections=found, targets=targets)
    return results
