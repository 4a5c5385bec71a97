"""Ground-truth body-surface displacement generators.

Breathing is a sinusoid plus optional 2nd/3rd harmonics, normalized so the
configured amplitude is the actual peak excursion. Heartbeats are a
raised-cosine pulse train (pulse-like arterial displacement, not a sinusoid).
Both are projected onto the radar boresight via the projection angle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

NORMAL = "normal"
BREATH_HOLD = "breath_hold"
MOVING = "moving"
_LABELS = (NORMAL, BREATH_HOLD, MOVING)

# sanity caps for seated/lying subjects
_MAX_SEATED_DISPLACEMENT_M = 0.2
_HEART_PULSE_DUTY = 0.3
_SWAY_BAND_HZ = 0.1


@dataclass
class Segment:
    start: int
    end: int  # exclusive
    label: str

    def __post_init__(self):
        if self.label not in _LABELS:
            raise ValueError(f"unknown segment label {self.label!r}")
        if self.end <= self.start or self.start < 0:
            raise ValueError("segment must satisfy 0 <= start < end")


@dataclass
class VitalParams:
    """Physiological motion parameters for one person."""

    breathing_rate_hz: float = 16.0 / 60.0
    breathing_amplitude_m: float = 6e-3
    breathing_harmonic_weights: tuple = (0.3, 0.15)
    heart_rate_hz: float = 73.0 / 60.0
    heart_amplitude_m: float = 0.35e-3
    projection_angle_deg: float = 0.0
    sway_rms_m: float = 0.0

    def __post_init__(self):
        if not 0.1 <= self.breathing_rate_hz <= 0.7:
            raise ValueError("breathing_rate_hz outside supported 0.1-0.7 Hz")
        if not 0.7 <= self.heart_rate_hz <= 3.0:
            raise ValueError("heart_rate_hz outside supported 0.7-3.0 Hz")
        if not 0.0 <= self.breathing_amplitude_m <= 0.05:
            raise ValueError("breathing_amplitude_m must be in [0, 0.05] m")
        if not 0.0 <= self.heart_amplitude_m <= 0.002:
            raise ValueError("heart_amplitude_m must be in [0, 0.002] m")
        if self.sway_rms_m < 0:
            raise ValueError("sway_rms_m must be >= 0")
        if any(abs(w) > 1 for w in self.breathing_harmonic_weights):
            raise ValueError("harmonic weights must have |w| <= 1")

    @property
    def radial_factor(self) -> float:
        """cos(projection angle), clamped to 0 for |angle| >= 90 degrees."""
        if abs(self.projection_angle_deg) >= 90.0:
            return 0.0
        return math.cos(math.radians(self.projection_angle_deg))


@dataclass
class DisplacementTrace:
    """Radial displacement relative to the rest range, over slow time."""

    sample_rate_hz: float
    samples: np.ndarray
    segments: list = field(default_factory=list)

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("displacement trace contains non-finite values")
        if not self.segments:
            self.segments = [Segment(0, len(self.samples), NORMAL)]
        stationary = all(seg.label != MOVING for seg in self.segments)
        if stationary and self.samples.size and np.abs(self.samples).max() > _MAX_SEATED_DISPLACEMENT_M:
            raise ValueError("stationary trace exceeds 0.2 m displacement")


def _breathing_waveform(params: VitalParams, t: np.ndarray) -> np.ndarray:
    if params.breathing_amplitude_m == 0:
        return np.zeros_like(t)
    u = np.sin(2 * np.pi * params.breathing_rate_hz * t)
    for order, w in enumerate(params.breathing_harmonic_weights, start=2):
        if w:
            u = u + w * np.sin(2 * np.pi * order * params.breathing_rate_hz * t)
    peak = np.abs(u).max()
    if peak == 0:
        return np.zeros_like(t)
    # normalize so the configured amplitude is the true peak excursion
    return params.breathing_amplitude_m * u / peak


def _heart_waveform(params: VitalParams, t: np.ndarray) -> np.ndarray:
    if params.heart_amplitude_m == 0:
        return np.zeros_like(t)
    frac = (t * params.heart_rate_hz) % 1.0
    pulse = np.where(
        frac < _HEART_PULSE_DUTY,
        0.5 * (1.0 - np.cos(2 * np.pi * frac / _HEART_PULSE_DUTY)),
        0.0,
    )
    return params.heart_amplitude_m * pulse


def _breath_gate(hold_mask: np.ndarray, ramp_samples: int) -> np.ndarray:
    """1 where breathing is active, exactly 0 inside holds, with a smooth
    ramp on the active side of each boundary (a chest does not step).
    ``hold_mask`` must mark at least one sample."""
    i = np.arange(hold_mask.size)
    holds = np.concatenate(([-i.size], np.flatnonzero(hold_mask), [2 * i.size]))  # + end sentinels
    after = np.searchsorted(holds, i)  # the first hold at or after each sample
    distance = np.minimum(holds[after] - i, i - holds[after - 1])  # samples to the nearest hold
    gate = np.clip(distance / max(ramp_samples, 1), 0.0, 1.0)
    return 0.5 * (1.0 - np.cos(np.pi * gate))


def _sway_noise(rms: float, n: int, sample_rate: float, rng: np.random.Generator) -> np.ndarray:
    if rms == 0 or n < 4:
        return np.zeros(n)
    white = rng.standard_normal(n)
    spec = np.fft.rfft(white)
    f = np.fft.rfftfreq(n, 1.0 / sample_rate)
    shape = np.zeros_like(f)
    band = (f > 0) & (f <= _SWAY_BAND_HZ)
    shape[band] = 1.0 / np.sqrt(f[band])  # 1/f power rolloff
    sway = np.fft.irfft(spec * shape, n)
    measured = sway.std()
    if measured == 0:
        return np.zeros(n)
    return sway * (rms / measured)


def synthesize_displacement(
    params: VitalParams,
    duration_s: float,
    frame_rate_hz: float,
    schedule: list | None = None,
    rng_seed: int = 0,
) -> DisplacementTrace:
    """Generate a displacement trace over ``duration_s`` at ``frame_rate_hz``.

    ``schedule`` is a list of Segments over sample indices; breathing is
    forced to exactly zero inside breath_hold segments. Deterministic for a
    given seed (randomness enters only through the optional sway noise).
    """
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    if frame_rate_hz < 10.0 * params.heart_rate_hz:
        raise ValueError(
            f"frame_rate_hz={frame_rate_hz} below Nyquist margin "
            f"(need >= 10x heart rate = {10 * params.heart_rate_hz:.1f} Hz)"
        )
    n = int(round(duration_s * frame_rate_hz))
    t = np.arange(n) / frame_rate_hz
    segments = list(schedule) if schedule else [Segment(0, n, NORMAL)]

    breathing = _breathing_waveform(params, t)
    hold_mask = np.zeros(n, dtype=bool)
    for seg in segments:
        if seg.label == BREATH_HOLD:
            hold_mask[seg.start : min(seg.end, n)] = True
    if hold_mask.any():
        # ~3 s resume/suspend ramp keeps restart splatter out of the heart band
        breathing = breathing * _breath_gate(hold_mask, int(round(3.0 * frame_rate_hz)))
    heart = _heart_waveform(params, t)
    sway = _sway_noise(params.sway_rms_m, n, frame_rate_hz, np.random.default_rng(rng_seed))

    samples = (breathing + heart + sway) * params.radial_factor
    return DisplacementTrace(sample_rate_hz=frame_rate_hz, samples=samples, segments=segments)


def walking_trajectory(
    speed_m_s: float,
    duration_s: float,
    frame_rate_hz: float,
    params: VitalParams | None = None,
    rng_seed: int = 0,
) -> DisplacementTrace:
    """Back-and-forth walk: triangle-wave bulk range with vitals superimposed.

    One full out-and-back cycle spans the record, so the range excursion per
    half-period is speed * duration / 2. Displacement is reported relative to
    where the walk starts; all samples are labeled ``moving``.
    """
    if speed_m_s < 0:
        raise ValueError("speed_m_s must be >= 0")
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    n = int(round(duration_s * frame_rate_hz))
    t = np.arange(n) / frame_rate_hz
    half = duration_s / 2.0
    bulk = np.where(t < half, speed_m_s * t, speed_m_s * (duration_s - t))

    segments = [Segment(0, n, MOVING)]
    if params is not None:
        bulk = bulk + synthesize_displacement(params, duration_s, frame_rate_hz,
                                              rng_seed=rng_seed).samples
    return DisplacementTrace(sample_rate_hz=frame_rate_hz, samples=bulk, segments=segments)
