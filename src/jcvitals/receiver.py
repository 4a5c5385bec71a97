"""Per-frame channel transfer function and impulse response estimation,
plus coherent slow-time averaging of the raw frames."""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.signal import get_window

from .channel import SlowFastMatrix
from .waveform import BasebandSymbol, WaveformSpec

log = logging.getLogger(__name__)

_MIN_REFERENCE_MAGNITUDE = 1e-12


@dataclass(eq=False)
class ChannelFrameSeries:
    """Estimated channel per pulse.

    ``transfer``: N x A complex, one column per active subcarrier.
    ``impulse``: N x P complex, inverse DFT of each transfer row embedded at
    the active-band grid positions (zero-filled elsewhere).
    """

    transfer: np.ndarray
    impulse: np.ndarray
    frame_rate_hz: float
    spec: WaveformSpec

    @property
    def n_frames(self) -> int:
        return self.transfer.shape[0]


def estimate_channel(
    capture: SlowFastMatrix,
    symbol: BasebandSymbol,
    window: str | None = None,
) -> ChannelFrameSeries:
    """Divide each received spectrum by the transmitted one on active bins.

    The reference symbol may occupy a wider band than the capture's spec (the
    subcarrier-reduction studies reprocess a full-band capture with a narrowed
    mask); it must cover all active bins of the capture with usable magnitude.

    Optional ``window`` (e.g. "hann") tapers the frequency axis before the
    inverse transform, trading main-lobe width for lower range sidelobes.
    """
    spec = capture.spec
    ref = symbol.spec
    if (
        ref.num_subcarriers != spec.num_subcarriers
        or ref.samples_per_pulse != spec.samples_per_pulse
        or not math.isclose(ref.subcarrier_spacing_hz, spec.subcarrier_spacing_hz)
        or not math.isclose(ref.carrier_frequency_hz, spec.carrier_frequency_hz)
        or not math.isclose(ref.pulse_duration_s, spec.pulse_duration_s)
    ):
        raise ValueError("capture spec does not match the reference symbol's grid")
    if not np.all(ref.active_mask[spec.active_mask]):
        raise ValueError("reference symbol does not cover the capture's active band")

    x_active = symbol.freq_domain[spec.active_indices]
    if np.any(np.abs(x_active) < _MIN_REFERENCE_MAGNITUDE):
        raise ValueError(
            "reference symbol magnitude below 1e-12 on an active bin; "
            "waveform/spec mismatch"
        )

    spectra = np.fft.fft(capture.frames, axis=1) / math.sqrt(spec.samples_per_pulse)
    bins = spec.active_bins % spec.samples_per_pulse
    transfer = spectra[:, bins] / x_active
    grid = np.zeros((capture.n_frames, spec.samples_per_pulse), dtype=complex)
    grid[:, bins] = transfer if window is None else transfer * get_window(window, spec.active_count)
    return ChannelFrameSeries(
        transfer=transfer,
        impulse=np.fft.ifft(grid, axis=1),
        frame_rate_hz=capture.frame_rate_hz,
        spec=spec,
    )


def average_slow_time(capture: SlowFastMatrix, factor: int) -> SlowFastMatrix:
    """Coherent mean of each block of ``factor`` raw frames."""
    if factor == 1:
        return capture
    n = capture.n_frames
    if factor < 1:
        raise ValueError("averaging factor must be >= 1")
    if factor > n:
        raise ValueError(f"averaging factor {factor} exceeds frame count {n}")
    blocks, dropped = divmod(n, factor)
    if dropped:
        log.warning("slow-time averaging drops %d trailing frame(s)", dropped)
    frames = capture.frames[: blocks * factor].reshape(blocks, factor, -1).mean(axis=1)
    return replace(capture, frames=frames, frame_rate_hz=capture.frame_rate_hz / factor)
