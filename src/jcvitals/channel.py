"""Propagation of the OFDM pulse through a scene of moving reflectors.

The geometry is treated as monostatic (co-located antennas): every return is
delayed by the round trip 2*(range + displacement + cable offset)/c and the
carrier phase rotates by exp(-j*2*pi*f*tau). Fractional-sample delays are
applied in the frequency domain (per-subcarrier linear phase) so sub-mm
motion survives; time-domain frames are the inverse DFT of the delayed band,
which is exact for gapless periodic pulse transmission.

The simulator works in blocks of ``_CHUNK_FRAMES`` frames, each drawn into a
cache-resident frequency grid of P bins that each worker reuses. Noise is drawn into that grid as
circular complex white noise on every bin, one PCG64 stream per
``_NOISE_FRAMES``-frame noise block (block b seeded by child b of the seed's
``SeedSequence``), so any worker can draw any block. The active band's signal
(the block's rows of the transfer, times the pulse spectrum) is added to it
in two strided slices, the bins below 0 (wrapped to the top of the grid) and
the rest, and one unitary (ortho) inverse DFT gives the block's frames. A
unitary transform maps white noise to white noise of the same per-sample
variance, so the frames are white over the whole sampled band, as if the
noise had been added in the time domain. The grid and its transform are
complex128; each block is rounded once into complex64 frames, the precision
JCV1 stores, so the capture in memory is the bytes of its file and half the
size of complex128 frames. The subcarriers are evenly
spaced, so a return's transfer is a geometric progression along them, built
with one cumulative product per frame.

Every block loop, here and in the receive chain, is ``_split_blocks``: at
most ``_WORKERS`` threads, each running one contiguous range of blocks. Each
worker makes its block buffers once, from the factory the loop is given, and
hands them to each of its blocks. numpy buffers a 2-D strided
or broadcast operand of an arithmetic operation, up to 384 KiB a call, but
not of an assignment, so the loops gather strided operands by assignment and
repeat a broadcast one on each row of a block, and a block allocates nothing
of 128 KiB or more once the first has run. Frames (simulated, read or
averaged) get their own mapping from ``_frames_array``, not a block of the
malloc heap.
"""
from __future__ import annotations

import contextlib
import math
import mmap
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .constants import SPEED_OF_LIGHT
from .physio import DisplacementTrace
from .waveform import BasebandSymbol, WaveformSpec

# frames per block, here and in the receive chain: a block of P = 2500 complex
# samples and its transform (2 x 640 KiB) fit in L2
_CHUNK_FRAMES = 16
# frames per noise stream, a model constant: the noise does not depend on the blocks
_NOISE_FRAMES = 16
assert _CHUNK_FRAMES % _NOISE_FRAMES == 0, "a block must start on a noise stream"


def _worker_count() -> int:
    """Threads for the block loops: the caller and one helper, if this process may use 2 CPUs."""
    affinity = getattr(os, "sched_getaffinity", None)  # absent on macOS and Windows
    return min(2, len(affinity(0)) if affinity else os.cpu_count() or 1)


_WORKERS = _worker_count()


def _split_blocks(n_frames: int, block, make=tuple) -> list:
    """``block(start, stop, *buffers)`` once per ``_CHUNK_FRAMES`` block of ``[0, n_frames)``,
    results in frame order. Each of ``_WORKERS`` workers runs one contiguous range of blocks,
    the first on the caller's thread; the helper gets the rest, and is joined before this
    returns. ``buffers`` is the tuple ``make()`` returns, called once by each worker, so a
    worker reuses its buffers for all its blocks; with no ``make``, blocks get none. No
    frames make no blocks, and ``make`` is not called."""
    if n_frames == 0:
        return []
    per_worker = -(-n_frames // (_CHUNK_FRAMES * _WORKERS)) * _CHUNK_FRAMES

    def run(lo):
        hi = min(lo + per_worker, n_frames)
        buffers = make()
        return [block(start, min(start + _CHUNK_FRAMES, hi), *buffers)
                for start in range(lo, hi, _CHUNK_FRAMES)]

    with ThreadPoolExecutor(1) as helper:
        later = [helper.submit(run, lo) for lo in range(per_worker, n_frames, per_worker)]
        return run(0) + [r for f in later for r in f.result()]


# anonymous maps are private where mmap takes no flags (Windows)
_PRIVATE = {"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE") else {}


def _frames_array(n_frames: int, p: int, dtype=np.complex64) -> np.ndarray:
    """An uninitialised, C-contiguous, writable ``(n_frames, p)`` array in its own private
    anonymous mapping, unmapped when the array is freed.

    Not numpy's allocation: glibc serves a block below its dynamic mmap threshold (up to
    32 MiB) from the heap, and freeing a mapped block raises the threshold to that block's
    size. One freed 19 MiB capture would put the next on the heap, which keeps it after
    it is freed, and a later capture would sit on top. Private, not mmap's default shared
    map, which got no huge pages; huge pages are asked for where the platform has them,
    as a hint, so a kernel without them is no error."""
    buffer = mmap.mmap(-1, n_frames * p * np.dtype(dtype).itemsize, **_PRIVATE)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        with contextlib.suppress(OSError):
            buffer.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(buffer, dtype).reshape(n_frames, p)


def _band_slices(spec: WaveformSpec) -> tuple[int, slice, slice]:
    """The active band on the P-point grid as two strided slices, faster than one indexed
    read or add: the bins below 0, wrapped to ``P + b``, and the rest, with the count of the
    first. The bins are evenly spaced and bin 0 is always among them."""
    p = spec.samples_per_pulse
    bins = spec.active_bins
    split = int(np.searchsorted(bins, 0))
    return (split, slice(p + bins[0], p, spec.grid_step),
            slice(bins[split], bins[-1] + 1, spec.grid_step))


@dataclass
class SceneTarget:
    """One moving reflector (person)."""

    rest_range_m: float
    trace: DisplacementTrace
    reflectivity: float = 0.67  # amplitude coefficient, ~45% reflected power
    nlos_attenuation_db: float = 0.0

    def __post_init__(self):
        if self.rest_range_m <= 0:
            raise ValueError("rest_range_m must be positive")
        if not 0.0 <= self.reflectivity <= 1.0:
            raise ValueError("reflectivity must be in [0, 1]")
        if self.nlos_attenuation_db < 0:
            raise ValueError("nlos_attenuation_db must be >= 0")

    @property
    def amplitude(self) -> float:
        return self.reflectivity * 10.0 ** (-self.nlos_attenuation_db / 20.0)


@dataclass
class ClutterPoint:
    """Static reflector at a fixed range."""

    range_m: float
    amplitude: float

    def __post_init__(self):
        if self.range_m < 0:
            raise ValueError("clutter range_m must be >= 0")
        if self.amplitude < 0:
            raise ValueError("clutter amplitude must be >= 0")


@dataclass
class Scene:
    targets: list = field(default_factory=list)
    static_clutter: list = field(default_factory=list)
    cable_delay_range_m: float = 0.0
    snr_db: float | None = None  # None: noiseless; referenced to strongest target return

    def __post_init__(self):
        if self.cable_delay_range_m < 0:
            raise ValueError("cable_delay_range_m must be >= 0")
        if self.snr_db is not None and not self.snr_db > -math.inf:  # NaN or -inf
            raise ValueError(f"snr_db must be a number or +inf (noiseless), not {self.snr_db}")


@dataclass(eq=False)
class SlowFastMatrix:
    """N x P complex received samples: rows = pulses (slow time), columns =
    samples within a pulse (fast time). Simulated and read captures hold
    complex64, JCV1's precision."""

    frames: np.ndarray
    frame_rate_hz: float
    spec: WaveformSpec

    def __post_init__(self):
        self.frames = np.atleast_2d(np.asarray(self.frames))
        if self.frames.ndim != 2 or self.frames.shape[1] != self.spec.samples_per_pulse:
            raise ValueError(f"frames must be N x spec.samples_per_pulse, not {self.frames.shape}")
        _check_scalars(self.n_frames, self.frame_rate_hz)
        for start in range(0, self.n_frames, _CHUNK_FRAMES):
            _check_finite(self.frames[start : start + _CHUNK_FRAMES])

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @classmethod
    def _checked(cls, **fields) -> SlowFastMatrix:
        """One made of ``fields`` that already keep its checks true, without
        ``__post_init__``'s scan of every sample."""
        out = object.__new__(cls)
        vars(out).update(fields)
        return out


def _check_scalars(n_frames: int, frame_rate_hz: float) -> None:
    """Raise unless ``n_frames`` frames at ``frame_rate_hz`` make a capture."""
    if n_frames < 1:
        raise ValueError("need at least one frame")
    if not 0 < frame_rate_hz < math.inf:  # NaN fails too
        raise ValueError("frame_rate_hz must be positive and finite")


def _check_finite(block: np.ndarray) -> None:
    """Raise unless every sample of ``block`` (a few frames, so its mask stays
    in cache) is finite. Complex rows are checked as their float view, which
    ``isfinite`` scans in about half the time."""
    if block.dtype.kind == "c" and block.strides[-1] == block.itemsize:
        block = block.view(block.real.dtype)
    if not np.isfinite(block).all():
        raise ValueError("capture contains non-finite samples")


def max_unambiguous_range(spec: WaveformSpec) -> float:
    """One-way range beyond which a return wraps into the next pulse."""
    return SPEED_OF_LIGHT * spec.pulse_duration_s / 2.0


def simulate_capture(
    scene: Scene,
    symbol: BasebandSymbol,
    spec: WaveformSpec,
    n_frames: int,
    rng_seed: int = 0,
    frame_rate_hz: float | None = None,
) -> SlowFastMatrix:
    """Synthesize the raw slow/fast-time sample stream for ``scene``.

    Each frame is the superposition of every target's delayed, phase-rotated
    pulse plus static clutter plus (optionally) circular complex white noise
    whose power is set ``snr_db`` below the strongest target's return power.
    The noise is added per block of ``_CHUNK_FRAMES`` in the frequency grid,
    on all P bins, before the block's one unitary inverse DFT, so the frames
    are still white over the whole sampled band with the same per-sample
    variance. Each ``_NOISE_FRAMES``-frame noise block has its own stream,
    child b of ``SeedSequence(rng_seed)``, and both workers draw. The frames
    are complex64: each block is transformed in complex128 and rounded once,
    so they are the bytes ``write_capture`` stores. They are the same bytes
    for a given seed, whatever the worker count or block size.
    """
    if symbol.spec != spec:
        raise ValueError("symbol was built for a different waveform spec")

    rates = {t.trace.sample_rate_hz for t in scene.targets}
    if len(rates) > 1:
        raise ValueError("all target traces must share one frame rate")
    if rates:
        trace_rate = rates.pop()
        if frame_rate_hz is not None and not math.isclose(frame_rate_hz, trace_rate):
            raise ValueError("frame_rate_hz disagrees with target traces")
        frame_rate_hz = trace_rate
    elif frame_rate_hz is None:
        raise ValueError("frame_rate_hz is required for a scene with no targets")
    _check_scalars(n_frames, frame_rate_hz)

    transfer = _transfer(scene, spec, n_frames)  # checks trace lengths and aliased returns
    sigma = None
    if scene.snr_db is not None and scene.snr_db != math.inf:  # +inf: noiseless
        if not scene.targets:
            raise ValueError("snr_db needs at least one target as power reference")
        # flat band: every frame of a return carries the same mean power
        strongest = max(t.amplitude for t in scene.targets)
        target_power = spec.active_count * strongest**2 / spec.samples_per_pulse
        try:
            noise_power = target_power / 10.0 ** (scene.snr_db / 10.0)
        except OverflowError:  # snr_db above ~3083: noise below every sample's precision
            noise_power = 0.0
        except ZeroDivisionError:  # snr_db below ~-3233: noise beyond the float range
            raise ValueError(f"snr_db {scene.snr_db} puts the noise beyond the float range") from None
        sigma = math.sqrt(noise_power / 2.0)
    streams = np.random.SeedSequence(rng_seed).spawn(-(-n_frames // _NOISE_FRAMES))
    p = spec.samples_per_pulse
    split, below, above = _band_slices(spec)
    # the pulse on the band, on each row of a block: a same-shape operand, which numpy does
    # not buffer, and one operation a block, not one a row (each numpy call takes the GIL)
    x_active = np.tile(symbol.freq_domain[spec.active_indices], (_CHUNK_FRAMES, 1))
    frames = _frames_array(n_frames, p)

    def block(start, stop, *buffers):
        grid, band, ramp = (buffer[: stop - start] for buffer in buffers)
        if sigma is None:
            grid.fill(0.0)
        else:
            # I and Q interleaved; a short last noise block draws a prefix of its stream
            noise = grid.view(np.float64)
            for row in range(0, stop - start, _NOISE_FRAMES):
                rng = np.random.default_rng(streams[(start + row) // _NOISE_FRAMES])
                rng.standard_normal(out=noise[row : row + _NOISE_FRAMES])
            with np.errstate(over="ignore", invalid="ignore"):  # inf samples, reported below
                noise *= sigma
        band = transfer(start, stop, band, ramp)
        band *= x_active[: stop - start]
        # the grid's band columns are strided: gathered into ``ramp`` by assignment, added
        # (the same sums as noise + band) and scattered back
        ramp[:, :split] = grid[:, below]
        ramp[:, split:] = grid[:, above]
        band += ramp
        grid[:, below] = band[:, :split]
        grid[:, above] = band[:, split:]
        # rounded once from complex128: a complex64 transform would change the JCV1 bytes;
        # a sample beyond complex64's (or complex128's) range is reported below
        with np.errstate(over="ignore", invalid="ignore"):
            frames[start:stop] = np.fft.ifft(grid, axis=1, norm="ortho", out=grid)
        # checked here, while the rows are in cache, not in a second pass over the capture
        _check_finite(frames[start:stop])

    # each worker's grid (a cache-resident grid, not rows of ``frames``: faster to draw
    # into), band and ramp: ~1.4 MB made afresh per block would go back to the kernel
    # and be faulted in again, block after block
    _split_blocks(n_frames, block, lambda: tuple(np.empty((_CHUNK_FRAMES, width), dtype=complex)
                                                 for width in (p, spec.active_count, spec.active_count)))
    return SlowFastMatrix._checked(frames=frames, frame_rate_hz=frame_rate_hz, spec=spec)


def _transfer(scene: Scene, spec: WaveformSpec, n_frames: int):
    """The one propagation model: the noise-free transfer on the active band per
    frame, the sum over returns of amplitude * exp(-2j*pi*tau*f_rf), which
    ``simulate_capture`` modulates onto the pulse and a perfect estimator recovers.

    Check every trace's length and every return against the unambiguous
    range, then return ``rows(start, stop, out=None, ramp=None)``: the transfer
    of frames ``start`` to ``stop``, written into ``out`` if given, with
    ``ramp`` (the same shape) as each return's scratch."""
    if any(len(t.trace.samples) < n_frames for t in scene.targets):
        raise ValueError("target trace shorter than n_frames")
    # a clutter point's path is one frame long: its row is the same in every frame
    returns = [(c.range_m, c.amplitude, np.array([c.range_m])) for c in scene.static_clutter]
    returns += [(t.rest_range_m, t.amplitude, t.rest_range_m + t.trace.samples[:n_frames])
                for t in scene.targets]
    delays = []
    for range_m, amplitude, path in returns:
        tau = 2.0 * (path + scene.cable_delay_range_m) / SPEED_OF_LIGHT  # (N,) or (1,)
        if tau.max() > spec.pulse_duration_s:
            raise ValueError(
                f"return at {range_m} m exceeds the unambiguous "
                f"range {max_unambiguous_range(spec):.1f} m (aliased delay)"
            )
        delays.append((amplitude, tau))
    n_static = len(scene.static_clutter)
    static = np.zeros((1, spec.active_count), dtype=complex)
    for amplitude, tau in delays[:n_static]:
        static += _ramp(amplitude, tau, spec)

    def rows(start, stop, out=None, ramp=None):
        if out is None:
            out = np.empty((stop - start, spec.active_count), dtype=complex)
        out[...] = static
        for amplitude, tau in delays[n_static:]:
            out += _ramp(amplitude, tau[start:stop], spec, ramp)
        return out

    return rows


def _ramp(amplitude: float, tau: np.ndarray, spec: WaveformSpec, out=None) -> np.ndarray:
    """``amplitude * exp(-2j*pi*outer(tau, f_rf))`` over the active band.

    The active subcarriers are evenly spaced, f_k = f_0 + k*df, so each row is
    a geometric progression with ratio exp(-2j*pi*df*tau): one cumulative
    product along the subcarriers instead of one exponential per entry.
    """
    f_0 = spec.carrier_frequency_hz + spec.active_bins[0] / spec.pulse_duration_s
    df = spec.grid_step / spec.pulse_duration_s
    ramp = np.empty((tau.size, spec.active_count), dtype=complex) if out is None else out
    ramp[:, 0] = amplitude * np.exp(-2j * np.pi * f_0 * tau)
    ramp[:, 1:] = np.exp(-2j * np.pi * df * tau)[:, None]
    return np.cumprod(ramp, axis=1, out=ramp)
