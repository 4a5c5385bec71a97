"""End-to-end processing of a capture: channel estimation, target detection,
per-target phase tracking and vital-sign estimation."""
from __future__ import annotations

from dataclasses import dataclass, field

from .channel import SlowFastMatrix
from .ranging import RangeProfileSeries, TargetDetection, detect_targets, extract_bin_series, to_range_profiles
from .receiver import ChannelFrameSeries, average_slow_time, estimate_channel
from .vitals import PhaseTrack, VitalsConfig, VitalsEstimate, estimate_vitals, phase_track
from .waveform import BasebandSymbol, build_waveform, select_subcarriers


@dataclass
class ProcessingConfig:
    """Everything the receive chain needs besides the capture itself."""

    cable_offset_m: float = 0.0
    averaging_factor: int = 1
    window: str | None = None
    remove_static_clutter: bool = False
    max_targets: int = 4
    min_prominence_db: float = 10.0
    max_below_peak_db: float = 10.0
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
    series: ChannelFrameSeries
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


def _analyze(series: ChannelFrameSeries, config: ProcessingConfig) -> ProcessResult:
    """Detection, phase tracking and vitals from one channel estimate."""
    profiles = to_range_profiles(
        series, cable_offset_m=config.cable_offset_m, remove_static=config.remove_static_clutter
    )
    detections = detect_targets(
        profiles,
        max_targets=config.max_targets,
        min_prominence_db=config.min_prominence_db,
        max_below_peak_db=config.max_below_peak_db,
    )

    targets = []
    for i, det in enumerate(sorted(detections, key=lambda d: d.range_m)):
        series_at_bin = extract_bin_series(series, det)
        track = phase_track(series_at_bin, series.frame_rate_hz)
        estimate = estimate_vitals(track, config.vitals)
        targets.append(TargetResult(target_id=i, detection=det, track=track, estimate=estimate))
    return ProcessResult(series=series, profiles=profiles, detections=detections, targets=targets)


def process_with_subcarriers(
    capture: SlowFastMatrix,
    counts: list,
    symbol: BasebandSymbol | None = None,
    config: ProcessingConfig | None = None,
) -> dict:
    """Reprocess one capture with narrowed active-subcarrier bands.

    The same recorded frames (same noise realization) are analyzed per count,
    which isolates the effect of occupied bandwidth, keeping the central
    frequency fixed. The capture is averaged and its channel estimated once,
    at the widest count; centred bands are nested, so each count reads a
    column sub-range of that transfer. Each result is bit-identical to
    ``process_capture`` on the capture relabelled with that count's band.
    """
    config = config or ProcessingConfig()
    if symbol is None:
        symbol = build_waveform(capture.spec)
    specs = {count: select_subcarriers(capture.spec, count) for count in counts}
    if not specs:
        return {}
    capture = average_slow_time(capture, config.averaging_factor)
    widest = max(specs.values(), key=lambda spec: spec.active_count)
    series = estimate_channel(capture._relabelled(spec=widest), symbol, window=config.window)
    return {count: _analyze(series.narrowed(spec), config) for count, spec in specs.items()}
