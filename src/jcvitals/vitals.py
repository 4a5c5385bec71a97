"""Phase-based vital-sign extraction: unwrapping, band filtering, spectral
peak estimation of breathing/heart rates, harmonic-collision detection, and
displacement reconstruction.

The spectral estimator is a Hann-tapered DFT with 4x zero padding and
quadratic peak interpolation; a vital is reported absent when its band peak
does not stand out of the band total (confidence below threshold), mirroring
blank entries in measurement campaigns rather than guessing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .waveform import hann

# a heart-band peak is checked against these breathing harmonics, within this
# tolerance (or one spectral bin, if wider), and flagged when a second
# heart-band peak reaches this fraction of the band maximum
_HARMONIC_ORDERS = (2, 3, 4, 5)
_HARMONIC_TOLERANCE_HZ = 0.05
_ALTERNATIVE_PEAK_RATIO = 0.5
# spectral zero padding, fixed: a band's confidence (peak over band sum)
# scales as 1/padding, so the 0.1 presence threshold holds only at 4x
_ZERO_PAD = 4
# the shortest track whose vitals are estimated, fixed: the presence test is
# calibrated on records of fixed lengths (the built-ins' 20 s and 40 s, 10 min)
MIN_DURATION_S = 15.0


@dataclass(eq=False)
class PhaseTrack:
    sample_rate_hz: float
    unwrapped_phase: np.ndarray
    zero_sample_count: int = 0

    @property
    def duration_s(self) -> float:
        return len(self.unwrapped_phase) / self.sample_rate_hz


@dataclass
class VitalsConfig:
    """Band edges and decision thresholds."""

    br_band_hz: tuple = (0.15, 0.5)
    hr_band_hz: tuple = (0.8, 2.0)
    # calibrated: clean in-band lines score ~0.12, noise-only bands and
    # obstructed heart lines stay below ~0.07 (see vitals threshold tests)
    confidence_threshold: float = 0.1


@dataclass(eq=False)
class VitalsEstimate:
    """Breathing/heart rate estimates with spectra and quality flags.

    Rates are None when the band shows no credible peak; spectra are
    (frequency_hz, normalized_magnitude) pairs restricted to each band.
    """

    br_bpm: float | None
    hr_bpm: float | None
    br_peak_hz: float
    hr_peak_hz: float
    br_confidence: float
    hr_confidence: float
    br_spectrum: tuple
    hr_spectrum: tuple
    harmonic_flag: bool = False
    harmonic_order: int | None = None
    hr_alternative_hz: float | None = None

    def to_record(self) -> dict:
        return {
            "br_bpm": None if self.br_bpm is None else round(self.br_bpm, 2),
            "hr_bpm": None if self.hr_bpm is None else round(self.hr_bpm, 2),
            "br_peak_hz": round(self.br_peak_hz, 5),
            "hr_peak_hz": round(self.hr_peak_hz, 5),
            "br_confidence": round(self.br_confidence, 4),
            "hr_confidence": round(self.hr_confidence, 4),
            "harmonic_flag": self.harmonic_flag,
            "harmonic_order": self.harmonic_order,
            "hr_alternative_hz": None
            if self.hr_alternative_hz is None
            else round(self.hr_alternative_hz, 5),
        }


def phase_track(bin_series: np.ndarray, sample_rate_hz: float) -> PhaseTrack:
    """Unwrapped argument of the slow-time series at one range bin.

    Zero-magnitude samples carry no phase; they inherit the previous sample's
    phase and are counted in ``zero_sample_count``.
    """
    z = np.asarray(bin_series)
    if z.size < 2:
        raise ValueError("need at least two samples to track phase")
    raw = np.angle(z)
    zero = np.abs(z) == 0
    count = int(zero.sum())
    if count:
        idx = np.arange(z.size)
        filled = np.where(zero, -1, idx)
        np.maximum.accumulate(filled, out=filled)
        raw = np.where(filled >= 0, raw[np.maximum(filled, 0)], 0.0)
    return PhaseTrack(
        sample_rate_hz=sample_rate_hz,
        unwrapped_phase=np.unwrap(raw),
        zero_sample_count=count,
    )


def phase_to_displacement(track: PhaseTrack, wavelength_m: float) -> np.ndarray:
    """Radial displacement from the phase deviation, relative to the mean.

    A longer round trip retards the received phase, so displacement is the
    negated, scaled phase deviation: d = -(phi - mean(phi)) * lambda / (4*pi).
    """
    if wavelength_m <= 0:
        raise ValueError("wavelength_m must be positive")
    phi = track.unwrapped_phase
    return -(phi - phi.mean()) * wavelength_m / (4.0 * math.pi)


def bandpass(track: PhaseTrack, low_hz: float, high_hz: float) -> PhaseTrack:
    """Zero-phase band limitation of the phase track.

    Implemented as a spectral mask: unity over [low, high], raised-cosine
    transitions reaching zero at low/2 and at 1.5*high. Passband ripple is
    exactly zero and rejection at the stated stopband edges is total, at the
    cost of mild circular edge effects on very short records.
    """
    fs = track.sample_rate_hz
    if not 0 < low_hz < high_hz < fs / 2.0:
        raise ValueError("need 0 < low < high < sample_rate/2")
    x = track.unwrapped_phase
    n = x.size
    spec = np.fft.rfft(x)
    f = np.fft.rfftfreq(n, 1.0 / fs)

    mask = np.zeros_like(f)
    mask[(f >= low_hz) & (f <= high_hz)] = 1.0
    rise = (f > low_hz / 2.0) & (f < low_hz)
    mask[rise] = 0.5 * (1.0 - np.cos(np.pi * (f[rise] - low_hz / 2.0) / (low_hz / 2.0)))
    fall = (f > high_hz) & (f < 1.5 * high_hz)
    mask[fall] = 0.5 * (1.0 + np.cos(np.pi * (f[fall] - high_hz) / (0.5 * high_hz)))

    y = np.fft.irfft(spec * mask, n)
    return PhaseTrack(
        sample_rate_hz=fs,
        unwrapped_phase=y,
        zero_sample_count=track.zero_sample_count,
    )


def _quadratic_peak(mags: np.ndarray, i: int) -> float:
    """Sub-bin offset of the vertex of a parabola through bins i-1, i, i+1."""
    if i <= 0 or i >= mags.size - 1:
        return 0.0
    ym1, y0, yp1 = mags[i - 1], mags[i], mags[i + 1]
    denom = 2.0 * (2.0 * y0 - ym1 - yp1)
    if denom == 0:
        return 0.0
    return float((yp1 - ym1) / denom)


@dataclass
class _BandPeak:
    peak_hz: float
    confidence: float
    freqs: np.ndarray
    mags: np.ndarray  # raw magnitudes over the band


def _band_spectrum(x: np.ndarray, fs: float, band: tuple) -> _BandPeak:
    n = x.size
    w = hann(n)
    nfft = _ZERO_PAD * n
    mags = np.abs(np.fft.rfft(x * w, nfft)) * 2.0 / w.sum()
    freqs = np.fft.rfftfreq(nfft, 1.0 / fs)
    sel = (freqs >= band[0]) & (freqs <= band[1])
    if not np.any(sel):
        raise ValueError(f"band {band} contains no spectral bins")
    band_mags = mags[sel]
    band_freqs = freqs[sel]
    i_local = int(np.argmax(band_mags))
    i_global = int(np.flatnonzero(sel)[i_local])
    delta = _quadratic_peak(mags, i_global)
    peak_hz = freqs[i_global] + delta * (fs / nfft)
    total = float(band_mags.sum())
    confidence = float(band_mags[i_local] / total) if total > 0 else 0.0
    return _BandPeak(
        peak_hz=float(peak_hz),
        confidence=confidence,
        freqs=band_freqs,
        mags=band_mags,
    )


def _normalized(freqs: np.ndarray, mags: np.ndarray) -> tuple:
    top = mags.max()
    return (freqs.copy(), mags / top if top > 0 else mags.copy())


def _alternative_peak(bp: _BandPeak, tol_hz: float) -> tuple[float, float] | None:
    """Strongest band peak away from the top one, as (freq, magnitude)."""
    # pad so lines sitting exactly on a band edge still count as local maxima
    padded = np.concatenate(([-np.inf], bp.mags, [-np.inf]))
    peaks = np.flatnonzero((bp.mags > padded[:-2]) & (bp.mags > padded[2:]))
    away = peaks[np.abs(bp.freqs[peaks] - bp.peak_hz) > tol_hz]
    if away.size == 0:
        return None
    best = away[np.argmax(bp.mags[away])]
    return float(bp.freqs[best]), float(bp.mags[best])


def _detrended(x: np.ndarray) -> np.ndarray:
    """``x`` minus its least-squares line, fitted on centred sample times."""
    t = np.arange(x.size) - (x.size - 1) / 2.0
    return x - x.mean() - t * ((t * x).sum() / ((t * t).sum() or 1.0))


def estimate_vitals(track: PhaseTrack, config: VitalsConfig | None = None) -> VitalsEstimate:
    """Breathing and heart rate from a phase track.

    The track's least-squares line is removed first. Each band is then
    zero-phase filtered, Hann-tapered, zero-padded 4x and searched
    for its strongest interpolated peak. The harmonic flag fires when the HR
    peak sits within 0.05 Hz (or one spectral bin, if wider) of an integer
    multiple (2..5) of the BR peak and a competing HR-band peak of at least
    half its magnitude exists (that competitor is reported as the alternative
    HR candidate).
    """
    config = config or VitalsConfig()
    if track.duration_s < MIN_DURATION_S:
        raise ValueError(
            f"record of {track.duration_s:.1f} s is shorter than the "
            f"{MIN_DURATION_S:.0f} s minimum"
        )
    fs = track.sample_rate_hz
    x = _detrended(track.unwrapped_phase)
    base = PhaseTrack(sample_rate_hz=fs, unwrapped_phase=x)

    br_x = bandpass(base, *config.br_band_hz).unwrapped_phase
    hr_x = bandpass(base, *config.hr_band_hz).unwrapped_phase
    br = _band_spectrum(br_x, fs, config.br_band_hz)
    hr = _band_spectrum(hr_x, fs, config.hr_band_hz)

    br_present = br.confidence >= config.confidence_threshold
    hr_present = hr.confidence >= config.confidence_threshold

    tol = max(_HARMONIC_TOLERANCE_HZ, fs / (_ZERO_PAD * x.size))  # at least one bin
    harmonic_flag = False
    harmonic_order = None
    alternative_hz = None
    # the collision check runs on the band peak itself: a strong breathing
    # harmonic can top the heart band even when no heart rate is credible
    if br_present and br.peak_hz > 0:
        orders = np.array(_HARMONIC_ORDERS)
        errs = np.abs(hr.peak_hz - orders * br.peak_hz)
        k = int(orders[np.argmin(errs)])
        if errs.min() <= tol:
            alt = _alternative_peak(hr, tol)
            if alt is not None and alt[1] >= _ALTERNATIVE_PEAK_RATIO * hr.mags.max():
                harmonic_flag = True
                harmonic_order = k
                alternative_hz = alt[0]

    return VitalsEstimate(
        br_bpm=60.0 * br.peak_hz if br_present else None,
        hr_bpm=60.0 * hr.peak_hz if hr_present else None,
        br_peak_hz=br.peak_hz,
        hr_peak_hz=hr.peak_hz,
        br_confidence=br.confidence,
        hr_confidence=hr.confidence,
        br_spectrum=_normalized(br.freqs, br.mags),
        hr_spectrum=_normalized(hr.freqs, hr.mags),
        harmonic_flag=harmonic_flag,
        harmonic_order=harmonic_order,
        hr_alternative_hz=alternative_hz,
    )


def spectral_correlation(spectrum_a: tuple, spectrum_b: tuple) -> float:
    """Normalized inner product of two (freqs, magnitude) band spectra."""
    fa, ma = spectrum_a
    fb, mb = spectrum_b
    if len(fa) != len(fb) or not np.allclose(fa, fb):
        raise ValueError("spectra must share one frequency grid")
    na = np.linalg.norm(ma)
    nb = np.linalg.norm(mb)
    if na == 0 or nb == 0:
        return 0.0
    return float(np.dot(ma, mb) / (na * nb))
