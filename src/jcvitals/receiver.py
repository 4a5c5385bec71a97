"""Per-frame channel transfer function estimation, the impulse response
derived from it, and coherent slow-time averaging of the raw frames.

The channel estimate is a view of the capture: its frames (not copied), the
reference symbol on the band and the spec. No N x A transfer is stored.
Every quantity the receive chain reads is linear in the frames, through one
weight per subcarrier, ``_band_weights()`` = taps / reference, and is
computed from them in blocks of ``_CHUNK_FRAMES`` frames:

- range power (``ranging.range_profiles``): one FFT of a block in the
  capture's own precision (JCV1 stores complex64), each band's bins gathered
  into a complex128 grid and weighted, all bands of a sweep from one FFT.
- ``series_at_bins``: each bin's series is one complex128 dot product per
  frame, all bins of all bands in one pass over the frames, each worker
  upcasting 8 frames at a time into the buffer ``_split_blocks`` hands it.

``transfer`` and ``impulse`` build the whole N x A and N x P arrays on access;
the receive chain never reads them. The chain never averages either:
``average_slow_time`` is a step callers compose before it, writing the
averaged frames into their own mapping (``channel._frames_array``).
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import SlowFastMatrix, _band_slices, _frames_array, _split_blocks
from .waveform import BasebandSymbol, WaveformSpec, hann

log = logging.getLogger(__name__)

_MIN_REFERENCE_MAGNITUDE = 1e-12
# frames upcast to complex128 at a time for the bin-series dot products, so
# each worker's temporary is a few P-sample rows, not a whole block
_DOT_FRAMES = 8


@dataclass(eq=False)
class ChannelFrameSeries:
    """Estimated channel per pulse, as a view of the capture's ``frames``.

    ``reference`` (A) is the transmitted symbol on ``spec``'s active band.
    The transfer (N x A) is each frame's spectrum on the active band divided
    by ``reference``, at the capture's precision (complex64 for simulated and
    read captures). The impulse response h (N x P) is the inverse DFT of each
    frame's band spectrum times ``_band_weights()``, embedded at the band's
    grid positions (zero-filled elsewhere). Both are computed from the frames when
    read: ``series_at_bins`` of ``bin_weights`` gives columns of h, and ``transfer``
    and ``impulse`` build the whole matrices (uncached). A kept estimate keeps
    its frames alive: for an averaged capture, the averaged frames.
    """

    frames: np.ndarray
    reference: np.ndarray
    frame_rate_hz: float
    spec: WaveformSpec

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    def _taps(self) -> np.ndarray:
        """The range taper: Hann, centred on the band, its zeros half a
        subcarrier outside each edge, so every active subcarrier is weighted."""
        return hann(self.spec.active_count + 1)[1:]

    def _band_weights(self) -> np.ndarray:
        """taps / reference (A, complex128): the one definition of the receive
        chain's linear functional, read by range power, ``impulse`` and ``bin_weights``."""
        return self._taps() / self.reference

    @property
    def dtype(self) -> np.dtype:
        """The precision of the frames' FFT and of the transfer: complex64 for JCV1 frames."""
        return np.result_type(self.frames.dtype, np.complex64)

    def _band(self, start: int, stop: int) -> np.ndarray:
        """Rows ``start:stop`` of the frames' unitary spectra on the band, in
        complex128: one FFT at the frames' precision, gathered by two strided slices."""
        spectra = np.fft.fft(self.frames[start:stop], axis=1, norm="ortho")
        split, below, above = _band_slices(self.spec)
        band = np.empty((stop - start, self.spec.active_count), dtype=complex)
        band[:, :split] = spectra[:, below]
        band[:, split:] = spectra[:, above]
        return band

    @property
    def transfer(self) -> np.ndarray:
        """N x A transfer, built on each access: the band times the reference's
        reciprocal in complex128, rounded once to the capture's precision."""
        inverse = 1.0 / self.reference
        return np.concatenate(_split_blocks(
            self.n_frames, lambda start, stop: (self._band(start, stop) * inverse).astype(self.dtype)))

    @property
    def impulse(self) -> np.ndarray:
        """N x P complex impulse response, built on each access."""
        p = self.spec.samples_per_pulse
        grid = np.zeros((self.n_frames, p), dtype=complex)
        weights = self._band_weights()

        def block(start, stop):
            grid[start:stop, self.spec.active_bins % p] = self._band(start, stop) * weights

        _split_blocks(self.n_frames, block)
        return np.fft.ifft(grid, axis=1, out=grid)

    def bin_weights(self, bin_index: int) -> np.ndarray:
        """The P-point u with ``impulse[n, bin_index] = sum_t u[t] frames[n, t]``.

        h[n, k] = sum_a v[a] S[n, b_a], with S the unitary DFT of frame n and
        v[a] = w[a] exp(2 pi i b_a k / P) / P, w the band weights; so u is the
        unitary forward DFT of v placed at the band's grid positions.
        """
        p = self.spec.samples_per_pulse
        bins = self.spec.active_bins % p
        turns = bins * bin_index % p  # exact integer phase
        grid = np.zeros(p, dtype=complex)
        grid[bins] = np.exp(2j * np.pi * turns / p) / p * self._band_weights()
        return np.fft.fft(grid, norm="ortho")

    def narrowed(self, spec: WaveformSpec) -> ChannelFrameSeries:
        """This estimate restricted to ``spec``'s band, a centred band nested
        in this one: the same frames, a contiguous sub-range of the reference."""
        if (spec.active_count > self.spec.active_count
                or replace(self.spec, active_count=spec.active_count) != spec):
            raise ValueError(f"a {spec.active_count}-subcarrier band is not nested in the "
                             f"estimated {self.spec.active_count}-subcarrier band on its grid")
        lo = int(spec.active_indices[0] - self.spec.active_indices[0])
        return replace(self, reference=self.reference[lo : lo + spec.active_count], spec=spec)


def series_at_bins(frames: np.ndarray, weights: list) -> list:
    """``frames @ u`` for each u in ``weights`` (``bin_weights``), in one
    pass over the frames: each ``_DOT_FRAMES`` rows of a block are upcast to
    complex128 once, into the worker's one reused buffer, and dotted with
    every u. Results are contiguous, one per weight, and the same bytes
    whatever the other weights."""
    if not weights:
        return []
    n_frames = frames.shape[0]
    conjugated = np.conj(weights)  # vecdot conjugates its first argument back
    series = np.empty((n_frames, len(weights)), dtype=complex)

    # not ``block @ weights``: that is a BLAS zgemm, whose OpenBLAS threads
    # keep spinning after the call and take the core the next block loop
    # needs; vecdot makes one single-threaded dot per frame and weight
    def block(start, stop, upcast):
        for lo in range(start, stop, _DOT_FRAMES):
            hi = min(lo + _DOT_FRAMES, stop)
            rows = upcast[: hi - lo]
            rows[...] = frames[lo:hi]
            np.vecdot(conjugated, rows[:, None, :], out=series[lo:hi])

    _split_blocks(n_frames, block, lambda: (np.empty((_DOT_FRAMES, frames.shape[1]), dtype=complex),))
    return list(np.ascontiguousarray(series.T))


def estimate_channel(capture: SlowFastMatrix, symbol: BasebandSymbol) -> ChannelFrameSeries:
    """The estimate that divides each received spectrum by the transmitted
    one on active bins, as a view of ``capture``: nothing is transformed here.

    The reference symbol may occupy a wider band than the capture's spec (a
    full-band capture relabelled with a narrowed band); it must cover all
    active bins of the capture with usable magnitude.
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
    if ref.active_count < spec.active_count:  # centred bands nest
        raise ValueError("reference symbol does not cover the capture's active band")

    x_active = symbol.freq_domain[spec.active_indices]
    if np.any(np.abs(x_active) < _MIN_REFERENCE_MAGNITUDE):
        raise ValueError(
            "reference symbol magnitude below 1e-12 on an active bin; "
            "waveform/spec mismatch"
        )
    return ChannelFrameSeries(frames=capture.frames, reference=x_active,
                              frame_rate_hz=capture.frame_rate_hz, spec=spec)


def average_slow_time(capture: SlowFastMatrix, factor: int) -> SlowFastMatrix:
    """Coherent mean of each block of ``factor`` raw frames, in their own mapping."""
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
    p = capture.frames.shape[1]
    frames = _frames_array(blocks, p, np.result_type(capture.frames.dtype, 1.0))  # mean's type
    np.mean(capture.frames[: blocks * factor].reshape(blocks, factor, p), axis=1, out=frames)
    return SlowFastMatrix._checked(frames=frames, frame_rate_hz=capture.frame_rate_hz / factor,
                                   spec=capture.spec)
