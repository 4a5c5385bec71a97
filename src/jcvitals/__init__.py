"""OFDM joint-communication-and-sensing radar simulator and vital-signs
extraction pipeline: waveform synthesis, scene propagation, channel
estimation, ranging, and phase-based breathing/heart-rate estimation."""

__version__ = "0.1.0"

from .channel import ClutterPoint, Scene, SceneTarget, SlowFastMatrix, max_unambiguous_range, simulate_capture
from .physio import DisplacementTrace, Segment, VitalParams, synthesize_displacement, walking_trajectory
from .pipeline import ProcessingConfig, ProcessResult, process_capture, process_with_subcarriers
from .ranging import RangeProfileSeries, TargetDetection, detect_targets
from .receiver import ChannelFrameSeries, average_slow_time, estimate_channel
from .vitals import (
    PhaseTrack,
    VitalsConfig,
    VitalsEstimate,
    bandpass,
    estimate_vitals,
    phase_to_displacement,
    phase_track,
    spectral_correlation,
)
from .waveform import BasebandSymbol, WaveformSpec, build_waveform, papr_db, select_subcarriers

__all__ = [
    "BasebandSymbol",
    "ChannelFrameSeries",
    "ClutterPoint",
    "DisplacementTrace",
    "PhaseTrack",
    "ProcessResult",
    "ProcessingConfig",
    "RangeProfileSeries",
    "Scene",
    "SceneTarget",
    "Segment",
    "SlowFastMatrix",
    "TargetDetection",
    "VitalParams",
    "VitalsConfig",
    "VitalsEstimate",
    "WaveformSpec",
    "average_slow_time",
    "bandpass",
    "build_waveform",
    "detect_targets",
    "estimate_channel",
    "estimate_vitals",
    "max_unambiguous_range",
    "papr_db",
    "phase_to_displacement",
    "phase_track",
    "process_capture",
    "process_with_subcarriers",
    "select_subcarriers",
    "simulate_capture",
    "spectral_correlation",
    "synthesize_displacement",
    "walking_trajectory",
]
