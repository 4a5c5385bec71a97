"""Range calibration of the impulse response and per-target peak selection.

Range power is read from the frames, every band of a subcarrier sweep in one
pass; no N x A transfer or N x P impulse response is held. The pass hands
``_split_blocks`` the factory of each worker's buffers: one for a block's
spectra, at the frames' precision, and one complex128 buffer holding every
band's grid side by side, so a block allocates only its power sums once the
first has run."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import _CHUNK_FRAMES, _band_slices, _split_blocks
from .constants import SPEED_OF_LIGHT
from .receiver import ChannelFrameSeries, series_at_bins

_POWER_FLOOR = 1e-300  # keeps log10 finite on exact zeros
# a detection clears the noise floor (the profile's median dB) by this much
_MIN_PROMINENCE_DB = 10.0
# and lies within this much of the strongest detection, to reject the range
# sidelobes of strong returns. Set for the old rectangular taper: on the
# non-walking built-ins (perfbench seeds 0-2) every prominent peak that is
# not a detection lies 31.4 dB or more below the strongest, the closest
# (31.4-31.8 dB) being the Hann taper's first sidelobe
_MAX_BELOW_PEAK_DB = 10.0


@dataclass(eq=False)
class RangeProfileSeries:
    """Slow-time mean power of the impulse response on a calibrated range axis.

    ``mean_power`` (P) is mean |h|^2 per range bin over the frames (from the
    band's lags). It holds arrays and numbers only, not the estimate or its frames.
    """

    range_axis_m: np.ndarray
    mean_power: np.ndarray
    range_resolution_m: float
    bin_width_m: float

    def mean_power_db(self) -> np.ndarray:
        return 10.0 * np.log10(np.maximum(self.mean_power, _POWER_FLOOR))


@dataclass
class TargetDetection:
    bin_index: int
    range_m: float
    mean_power_db: float
    prominence_db: float


def to_range_profiles(
    series: ChannelFrameSeries,
    cable_offset_m: float = 0.0,
) -> RangeProfileSeries:
    """Mean |h|^2 per range bin of one band: ``range_profiles`` at its own band."""
    return range_profiles(series, [series.spec], cable_offset_m)[0]


def range_profiles(
    series: ChannelFrameSeries,
    specs: list,
    cable_offset_m: float = 0.0,
) -> list:
    """Mean |h|^2 per range bin of ``series`` narrowed to each band in
    ``specs``, on a fast-time axis scaled to meters, minus the cable offset,
    from each band's lag autocorrelation, not the P-grid. Every frame is
    transformed once, whatever the number of bands.

    With active bins b0 + g*a (a < A, grid step g) and z_n row n of the
    tapered transfer, Wiener-Khinchin gives
    mean_power[k] = 1/(N P^2) sum_{|d|<A} R[d] exp(2 pi i g d k / P),
    R[d] = sum_n sum_a z_n[a+d] conj(z_n[a]); b0 cancels. One FFT of each
    block's frames gives every band its bins, gathered into columns 0..A-1 of
    a zero-filled complex128 m-point grid, m the smallest 11-smooth length
    >= 2A-1. The bands' grids lie side by side in one buffer, multiplied at
    once by their weights (``_band_weights``: taps over reference), each
    inverse-transformed in place, and reduced to |.|^2 at once. Those sums,
    added in frame order, are the m-point DFT of R with the lags taken mod m:
    exact, since m >= 2A-1 puts the 2A-1 lags on distinct residues. Lag d is
    added into bin (g d) mod P, where lags collide when 2A-1 > P/g, and one
    P-point inverse DFT gives the power, clamped at 0.
    """
    if cable_offset_m < 0:
        raise ValueError("cable_offset_m must be >= 0")
    if series.n_frames == 0:  # the power is a mean over the frames
        raise ValueError("need at least one frame")
    bands = [series.narrowed(spec) for spec in specs]  # raises unless each is nested
    if not bands:
        return []
    plans = []  # per band: its grid's offset, its two slices of the spectra, width and grid length
    offset, weights = 0, []
    for band in bands:
        count = band.spec.active_count
        m = _fast_length(2 * count - 1)
        plans.append((offset, *_band_slices(band.spec), count, m))
        weights += [band._band_weights(), np.zeros(m - count)]
        offset += m
    p, width = series.spec.samples_per_pulse, offset
    # every band's weights side by side, zero on the pads, ending at the last band's count
    weights = np.concatenate(weights[:-1])

    def block(start, stop, spectra, flat):
        rows = stop - start
        spectra = np.fft.fft(series.frames[start:stop], axis=1, norm="ortho", out=spectra[:rows])
        z = flat[: rows * width].reshape(rows, width)
        for at, split, below, above, count, m in plans:
            z[:, at : at + split] = spectra[:, below]
            z[:, at + split : at + count] = spectra[:, above]
            z[:, at + count : at + m] = 0.0
        for row in z[:, : weights.size]:  # a row at a time: numpy buffers a broadcast 2-D operand
            row *= weights
        for at, *_, m in plans:
            grid = z[:, at : at + m]
            np.fft.ifft(grid, axis=1, out=grid)
        return _block_power(z)

    # each worker's buffers: a block's spectra at the frames' precision, and one complex128
    # buffer holding every band's grid side by side
    blocks = _split_blocks(series.n_frames, block,
                           lambda: (np.empty((_CHUNK_FRAMES, p), dtype=series.dtype),
                                    np.empty(_CHUNK_FRAMES * width, dtype=complex)))
    # the block sums added in frame order, as one serial pass adds them, then split by band
    total = sum(blocks)
    return [_profiles(band.spec, series.n_frames, total[at : at + m], cable_offset_m)
            for band, (at, *_, m) in zip(bands, plans)]


def _profiles(spec, n_frames: int, spectrum: np.ndarray, cable_offset_m: float) -> RangeProfileSeries:
    """The band's profiles from the m-point spectrum of its lags, summed over the frames."""
    p, count = spec.samples_per_pulse, spec.active_count
    m = spectrum.size
    d = np.arange(1 - count, count)
    grid = np.zeros(p, dtype=complex)
    np.add.at(grid, spec.grid_step * d % p, m * np.fft.fft(spectrum)[d])
    power = np.maximum(np.fft.ifft(grid).real / (n_frames * p), 0.0)
    bin_width = SPEED_OF_LIGHT / (2.0 * spec.sample_rate_hz)
    axis = np.arange(p) * bin_width - cable_offset_m
    resolution = SPEED_OF_LIGHT / (2.0 * spec.occupied_bandwidth_hz)
    return RangeProfileSeries(
        range_axis_m=axis,
        mean_power=power,
        range_resolution_m=resolution,
        bin_width_m=bin_width,
    )


def _fast_length(n: int) -> int:
    """Smallest 11-smooth integer >= n: a length pocketfft transforms fast."""
    rest = n
    for factor in (2, 3, 5, 7, 11):
        while rest % factor == 0:
            rest //= factor
    return n if rest == 1 else _fast_length(n + 1)


def _block_power(h: np.ndarray) -> np.ndarray:
    """Sum of |h|^2 over the rows of one block, per column."""
    parts = h.view(float)  # re, im interleaved
    parts *= parts
    sums = parts.sum(axis=0)
    return sums[0::2] + sums[1::2]


def detect_targets(profiles: RangeProfileSeries, max_targets: int = 4) -> list[TargetDetection]:
    """Peaks of the slow-time-averaged power profile, strongest first.

    A peak must clear the noise floor (median of the dB profile) by 10 dB,
    be at least one range resolution away from a stronger peak, and lie
    within 10 dB of the strongest detection (rejects range sidelobes of
    strong returns). An empty list is a valid result: nothing exceeded the
    threshold.
    """
    if max_targets < 1:
        raise ValueError("max_targets must be >= 1")
    power_db = profiles.mean_power_db()
    floor_db = float(np.median(power_db))
    spacing_bins = max(1, int(round(profiles.range_resolution_m / profiles.bin_width_m)))
    inner = power_db[1:-1]  # a peak is a bin above both neighbours
    peaks = 1 + np.flatnonzero((inner > power_db[:-2]) & (inner > power_db[2:])
                               & (inner >= floor_db + _MIN_PROMINENCE_DB))
    kept, blocked = [], np.zeros(power_db.size, dtype=bool)
    for b in peaks[np.argsort(power_db[peaks])[::-1]]:  # strongest first
        if len(kept) == max_targets or kept and power_db[b] < power_db[kept[0]] - _MAX_BELOW_PEAK_DB:
            break  # enough, or this peak and all after it too far below the strongest
        if not blocked[b]:
            kept.append(b)
            blocked[max(b - spacing_bins + 1, 0) : b + spacing_bins] = True
    return [
        TargetDetection(
            bin_index=int(b),
            range_m=float(profiles.range_axis_m[b]),
            mean_power_db=float(power_db[b]),
            prominence_db=float(power_db[b] - floor_db),
        )
        for b in kept
    ]


def extract_bin_series(series: ChannelFrameSeries, detection: TargetDetection) -> np.ndarray:
    """Complex impulse-response value at the detected bin, per frame."""
    if not 0 <= detection.bin_index < series.spec.samples_per_pulse:
        raise ValueError(f"bin_index {detection.bin_index} out of range")
    return series_at_bins(series.frames, [series.bin_weights(detection.bin_index)])[0]
