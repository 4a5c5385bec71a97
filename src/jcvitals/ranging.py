"""Range calibration of the impulse response and per-target peak selection."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft
from scipy.signal import find_peaks

from .channel import _split_blocks
from .constants import SPEED_OF_LIGHT
from .csv_export import write_csv
from .receiver import ChannelFrameSeries

_POWER_FLOOR = 1e-300  # keeps log10 finite on exact zeros


@dataclass(eq=False)
class RangeProfileSeries:
    """Slow-time mean power of the impulse response on a calibrated range axis.

    ``mean_power`` (P) is mean |h|^2 per range bin over the frames (from the
    band's lags, after static-clutter removal when ``remove_static``).
    ``profiles`` (N x P |h|) is built on each access; the pipeline never reads it.
    """

    range_axis_m: np.ndarray
    mean_power: np.ndarray
    range_resolution_m: float
    bin_width_m: float
    series: ChannelFrameSeries
    remove_static: bool = False

    @property
    def profiles(self) -> np.ndarray:
        h = self.series.impulse
        if self.remove_static:
            h -= h.mean(axis=0)
        return np.abs(h)

    def mean_power_db(self) -> np.ndarray:
        return 10.0 * np.log10(np.maximum(self.mean_power, _POWER_FLOOR))

    def to_csv(self, path) -> None:
        """Export the slow-time-averaged profile as (range_m, power_db)."""
        write_csv(path, "range_m,power_db", "{:.4f},{:.3f}",
                  self.range_axis_m, self.mean_power_db())


@dataclass
class TargetDetection:
    bin_index: int
    range_m: float
    mean_power_db: float
    prominence_db: float


def to_range_profiles(
    series: ChannelFrameSeries,
    cable_offset_m: float = 0.0,
    remove_static: bool = False,
) -> RangeProfileSeries:
    """Mean |h|^2 per range bin on a fast-time axis scaled to meters, minus
    the cable offset, from the band's lag autocorrelation, not the P-grid.

    With active bins b0 + g*a (a < A, grid step g) and z_n row n of the
    tapered transfer (mean-removed when ``remove_static``), Wiener-Khinchin
    gives mean_power[k] = 1/(N P^2) sum_{|d|<A} R[d] exp(2 pi i g d k / P),
    R[d] = sum_n sum_a z_n[a+d] conj(z_n[a]); b0 cancels. Each frame block
    goes into columns 0..A-1 of a zero-filled m-point grid, m =
    next_fast_len(2A-1), and is inverse-transformed. Its |.|^2, summed in
    frame order, is the m-point DFT of R with the lags taken mod m: exact,
    since m >= 2A-1 puts the 2A-1 lags on distinct residues. Lag d is added
    into bin (g d) mod P, where lags collide when 2A-1 > P/g, and one P-point
    inverse DFT gives the power, clamped at 0.

    ``remove_static`` subtracts the per-bin slow-time mean of the complex
    impulse response before taking magnitudes (static-clutter suppression,
    off by default).
    """
    if cable_offset_m < 0:
        raise ValueError("cable_offset_m must be >= 0")
    spec = series.spec
    p, count = spec.samples_per_pulse, spec.active_count
    m = scipy.fft.next_fast_len(2 * count - 1)
    taps = series._taps()
    static = series.transfer.mean(axis=0) if remove_static else 0.0  # = the mean of h, by linearity

    def block(start, stop):
        z = np.zeros((stop - start, m), dtype=complex)
        z[:, :count] = (series.transfer[start:stop] - static) * taps
        return _block_power(scipy.fft.ifft(z, axis=1, overwrite_x=True))

    # block sums added in frame order, as one serial pass adds them
    spectrum = sum(_split_blocks(series.n_frames, block))
    d = np.arange(1 - count, count)
    grid = np.zeros(p, dtype=complex)
    np.add.at(grid, spec.grid_step * d % p, m * scipy.fft.fft(spectrum)[d])
    power = np.maximum(scipy.fft.ifft(grid).real / (series.n_frames * p), 0.0)
    bin_width = SPEED_OF_LIGHT / (2.0 * spec.sample_rate_hz)
    axis = np.arange(p) * bin_width - cable_offset_m
    resolution = SPEED_OF_LIGHT / (2.0 * spec.occupied_bandwidth_hz)
    return RangeProfileSeries(
        range_axis_m=axis,
        mean_power=power,
        range_resolution_m=resolution,
        bin_width_m=bin_width,
        series=series,
        remove_static=remove_static,
    )


def _block_power(h: np.ndarray) -> np.ndarray:
    """Sum of |h|^2 over the rows of one block, per column."""
    parts = h.view(float)  # re, im interleaved
    parts *= parts
    sums = parts.sum(axis=0)
    return sums[0::2] + sums[1::2]


def detect_targets(
    profiles: RangeProfileSeries,
    max_targets: int = 4,
    min_prominence_db: float = 10.0,
    max_below_peak_db: float = 10.0,
) -> list[TargetDetection]:
    """Peaks of the slow-time-averaged power profile, strongest first.

    A peak must clear the noise floor (median of the dB profile) by
    ``min_prominence_db``, be at least one range resolution away from a
    stronger peak, and lie within ``max_below_peak_db`` of the strongest
    detection (rejects range sidelobes of strong returns). An empty list is a
    valid result: nothing exceeded the threshold.
    """
    if max_targets < 1:
        raise ValueError("max_targets must be >= 1")
    power_db = profiles.mean_power_db()
    floor_db = float(np.median(power_db))
    spacing_bins = max(1, int(round(profiles.range_resolution_m / profiles.bin_width_m)))
    peaks, _ = find_peaks(power_db, height=floor_db + min_prominence_db, distance=spacing_bins)
    if peaks.size == 0:
        return []

    order = np.argsort(power_db[peaks])[::-1]
    peaks = peaks[order]
    strongest = power_db[peaks[0]]
    peaks = [b for b in peaks if power_db[b] >= strongest - max_below_peak_db]

    return [
        TargetDetection(
            bin_index=int(b),
            range_m=float(profiles.range_axis_m[b]),
            mean_power_db=float(power_db[b]),
            prominence_db=float(power_db[b] - floor_db),
        )
        for b in peaks[:max_targets]
    ]


def extract_bin_series(series: ChannelFrameSeries, detection: TargetDetection) -> np.ndarray:
    """Complex impulse-response value at the detected bin, per frame."""
    if not 0 <= detection.bin_index < series.spec.samples_per_pulse:
        raise ValueError(f"bin_index {detection.bin_index} out of range")
    return series.bin_series(detection.bin_index)
