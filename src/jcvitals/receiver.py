"""Per-frame channel transfer function estimation, the impulse response
derived from it, and coherent slow-time averaging of the raw frames.

A capture goes through one fast-time FFT, in blocks of ``_CHUNK_FRAMES``
frames and in the capture's own precision (JCV1 stores complex64). Only the
N x A transfer matrix is kept, also at the capture's precision: each block is
divided by the reference in complex128 and rounded once into it. Its readers
upcast one block at a time and accumulate in complex128. The receive chain
never builds the N x P impulse response: it reads one range bin at a time
(``bin_series``), and ``ranging.to_range_profiles`` reads range power from
the band's lags.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import SlowFastMatrix, _split_blocks
from .waveform import BasebandSymbol, WaveformSpec, hann

log = logging.getLogger(__name__)

_MIN_REFERENCE_MAGNITUDE = 1e-12


@dataclass(eq=False)
class ChannelFrameSeries:
    """Estimated channel per pulse.

    ``transfer``: N x A complex, one column per active subcarrier, at the
    capture's precision (complex64 for simulated and read captures); cast it
    with ``astype(complex)`` where complex128 is needed.
    The impulse response h (N x P) is the inverse DFT of each transfer row,
    tapered by ``window`` and embedded at the active-band grid positions
    (zero-filled elsewhere). It is computed from ``transfer`` when read:
    ``bin_series`` gives one column, and ``impulse`` builds the whole matrix
    (uncached).
    """

    transfer: np.ndarray
    frame_rate_hz: float
    spec: WaveformSpec
    window: str | None = None

    @property
    def n_frames(self) -> int:
        return self.transfer.shape[0]

    def _taps(self) -> np.ndarray | float:
        return 1.0 if self.window is None else hann(self.spec.active_count)

    @property
    def impulse(self) -> np.ndarray:
        """N x P complex impulse response, built on each access."""
        p = self.spec.samples_per_pulse
        grid = np.zeros((self.n_frames, p), dtype=complex)
        grid[:, self.spec.active_bins % p] = self.transfer * self._taps()
        return np.fft.ifft(grid, axis=1, out=grid)

    def bin_series(self, bin_index: int) -> np.ndarray:
        """``impulse[:, bin_index]`` as one length-A dot product per frame."""
        p = self.spec.samples_per_pulse
        turns = (self.spec.active_bins % p) * bin_index % p  # exact integer phase
        steering = np.exp(2j * np.pi * turns / p) / p * self._taps()
        weights = np.conj(steering)  # vecdot conjugates its first argument back
        series = np.empty(self.n_frames, dtype=complex)

        # not ``transfer @ steering``: that is a BLAS zgemv, whose OpenBLAS
        # threads keep spinning after the call and take the core the next
        # block loop needs; vecdot makes one single-threaded dot per row. The
        # block is upcast here, so no N x A complex128 copy of the transfer is made.
        def block(start, stop):
            np.vecdot(weights, self.transfer[start:stop].astype(complex, copy=False),
                      out=series[start:stop])

        _split_blocks(self.n_frames, block)
        return series

    def narrowed(self, spec: WaveformSpec) -> ChannelFrameSeries:
        """This estimate restricted to ``spec``'s band, a centred band nested
        in this one: a contiguous column sub-range of the transfer."""
        if (spec.active_count > self.spec.active_count
                or replace(self.spec, active_count=spec.active_count) != spec):
            raise ValueError("narrowed band is not nested in the estimated band on its grid")
        lo = int(spec.active_indices[0] - self.spec.active_indices[0])
        hi = lo + spec.active_count
        # contiguous, as estimate_channel returns it for this band (a view at the full width)
        return replace(self, transfer=np.ascontiguousarray(self.transfer[:, lo:hi]), spec=spec)


def estimate_channel(
    capture: SlowFastMatrix,
    symbol: BasebandSymbol,
    window: str | None = None,
) -> ChannelFrameSeries:
    """Divide each received spectrum by the transmitted one on active bins.

    The reference symbol may occupy a wider band than the capture's spec (the
    subcarrier-reduction studies reprocess a full-band capture with a narrowed
    band); it must cover all active bins of the capture with usable magnitude.

    Optional ``window`` ("hann" or None) tapers the frequency axis before the
    inverse transform, trading main-lobe width for lower range sidelobes.
    """
    if window not in (None, "hann"):
        raise ValueError(f"window must be None or 'hann', not {window!r}")
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
    if ref.active_count < spec.active_count:  # centred bands nest
        raise ValueError("reference symbol does not cover the capture's active band")

    x_active = symbol.freq_domain[spec.active_indices]
    if np.any(np.abs(x_active) < _MIN_REFERENCE_MAGNITUDE):
        raise ValueError(
            "reference symbol magnitude below 1e-12 on an active bin; "
            "waveform/spec mismatch"
        )

    bins = spec.active_bins % spec.samples_per_pulse
    precision = np.result_type(capture.frames.dtype, np.complex64)
    transfer = np.empty((capture.n_frames, spec.active_count), dtype=precision)

    def block(start, stop):
        spectra = np.fft.fft(capture.frames[start:stop], axis=1, norm="ortho")
        # x_active is complex128, so the quotient is too, rounded once into the transfer
        np.divide(spectra[:, bins], x_active, out=transfer[start:stop])

    _split_blocks(capture.n_frames, block)
    return ChannelFrameSeries(
        transfer=transfer, frame_rate_hz=capture.frame_rate_hz, spec=spec, window=window
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
    return capture._relabelled(frames=frames, frame_rate_hz=capture.frame_rate_hz / factor)
