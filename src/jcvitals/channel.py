"""Propagation of the OFDM pulse through a scene of moving reflectors.

The geometry is treated as monostatic (co-located antennas): every return is
delayed by the round trip 2*(range + displacement + cable offset)/c and the
carrier phase rotates by exp(-j*2*pi*f*tau). Fractional-sample delays are
applied in the frequency domain (per-subcarrier linear phase) so sub-mm
motion survives; time-domain frames are the inverse DFT of the delayed band,
which is exact for gapless periodic pulse transmission.

The simulator works in blocks of ``_CHUNK_FRAMES`` frames, each held in one
cache-resident frequency grid of P bins. Noise is drawn into that grid as
circular complex white noise on every bin, the active band's signal is added
to it, and one unitary (ortho) inverse DFT gives the block's frames. A
unitary transform maps white noise to white noise of the same per-sample
variance, so the frames are white over the whole sampled band, as if the
noise had been added in the time domain. The subcarriers are evenly spaced,
so a return's transfer is a geometric progression along them, built with
one cumulative product per frame.

The block loops, here and in the receive chain, run on at most ``_WORKERS``
threads; the simulator's helper draws the noise ahead, in stream order.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import Executor, Future, ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.fft

from .constants import SPEED_OF_LIGHT
from .physio import DisplacementTrace
from .waveform import BasebandSymbol, WaveformSpec

# frames per block, here and in the receive chain: a block of P = 2500 complex
# samples and its transform (2 x 640 KiB) fit in L2
_CHUNK_FRAMES = 16


def _worker_count() -> int:
    """Threads for the block loops: the caller and one helper, if this process may use 2 CPUs."""
    affinity = getattr(os, "sched_getaffinity", None)  # absent on macOS and Windows
    return min(2, len(affinity(0)) if affinity else os.cpu_count() or 1)


_WORKERS = _worker_count()


class _Inline(Executor):
    """The helper when there is one worker: runs each call as it is submitted."""

    def submit(self, fn, *args):
        done = Future()
        done.set_result(fn(*args))
        return done


def _split_blocks(n_frames: int, block) -> list:
    """``block(start, stop)`` once per ``_CHUNK_FRAMES`` block of ``[0, n_frames)``, results in
    frame order. Each of ``_WORKERS`` workers runs one contiguous range of blocks, the first on
    the caller's thread; the helper gets the rest, and is joined before this returns."""
    per_worker = -(-n_frames // (_CHUNK_FRAMES * _WORKERS)) * _CHUNK_FRAMES

    def run(lo):
        hi = min(lo + per_worker, n_frames)
        return [block(start, min(start + _CHUNK_FRAMES, hi))
                for start in range(lo, hi, _CHUNK_FRAMES)]

    with ThreadPoolExecutor(1) as helper:
        later = [helper.submit(run, lo) for lo in range(per_worker, n_frames, per_worker)]
        return run(0) + [r for f in later for r in f.result()]


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


@dataclass(eq=False)
class SlowFastMatrix:
    """N x P complex received samples: rows = pulses (slow time), columns =
    samples within a pulse (fast time)."""

    frames: np.ndarray
    frame_rate_hz: float
    spec: WaveformSpec

    def __post_init__(self):
        self.frames = np.atleast_2d(np.asarray(self.frames))
        if self.frames.shape[1] != self.spec.samples_per_pulse:
            raise ValueError("fast-time length must equal spec.samples_per_pulse")
        if self.frames.shape[0] < 1:
            raise ValueError("need at least one frame")
        if not self.frame_rate_hz > 0:
            raise ValueError("frame_rate_hz must be positive")
        if not np.all(np.isfinite(self.frames)):
            raise ValueError("capture contains non-finite samples")

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    def _relabelled(self, **changes) -> SlowFastMatrix:
        """A copy with ``changes`` that keep its checks true (a nested band,
        averaged frames), made without ``__post_init__``'s scan of every sample."""
        out = object.__new__(type(self))
        vars(out).update(vars(self), **changes)
        return out


def max_unambiguous_range(spec: WaveformSpec) -> float:
    """One-way range beyond which a return wraps into the next pulse."""
    return SPEED_OF_LIGHT * spec.pulse_duration_s / 2.0


def _round_trip_delays(scene: Scene, target: SceneTarget, n_frames: int) -> np.ndarray:
    path = target.rest_range_m + target.trace.samples[:n_frames] + scene.cable_delay_range_m
    return 2.0 * path / SPEED_OF_LIGHT


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
    variance. Deterministic for a given seed, whatever the block size.
    """
    if symbol.spec != spec:
        raise ValueError("symbol was built for a different waveform spec")
    if n_frames < 1:
        raise ValueError("n_frames must be >= 1")

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

    for t in scene.targets:
        if len(t.trace.samples) < n_frames:
            raise ValueError("target trace shorter than n_frames")

    blocks = _transfer_blocks(scene, spec, n_frames)  # checks for aliased returns
    sigma = None
    if scene.snr_db is not None and math.isfinite(scene.snr_db):
        if not scene.targets:
            raise ValueError("snr_db needs at least one target as power reference")
        # flat band: every frame of a return carries the same mean power
        strongest = max(t.amplitude for t in scene.targets)
        target_power = spec.active_count * strongest**2 / spec.samples_per_pulse
        noise_power = target_power / 10.0 ** (scene.snr_db / 10.0)
        sigma = math.sqrt(noise_power / 2.0)
    rng = np.random.default_rng(rng_seed)

    def draw(block):
        if sigma is None:
            block.fill(0.0)
        else:
            # I and Q interleaved: block by block, the same stream as one whole draw
            noise = block.view(np.float64)
            rng.standard_normal(out=noise)
            noise *= sigma
        return block

    # the band as two strided column ranges of the grid: the carrier bin 0 is
    # always in the band, and the bins below it wrap to the top of the grid
    bins, step, p = spec.active_bins, spec.grid_step, spec.samples_per_pulse
    below = int(np.count_nonzero(bins < 0))
    band = ((slice(p + bins[0], p, step), slice(0, below)),
            (slice(0, bins[-1] + 1, step), slice(below, None)))
    x_active = symbol.freq_domain[spec.active_indices]
    frames = np.empty((n_frames, p), dtype=complex)
    # with a helper, three grids in rotation: block i is transformed while i+1
    # and i+2 are drawn; alone, one grid, drawn just before its transform
    depth = 3 if _WORKERS > 1 else 1
    grids = np.empty((depth, min(_CHUNK_FRAMES, n_frames), p), dtype=complex)
    starts = range(0, n_frames, _CHUNK_FRAMES)
    with ThreadPoolExecutor(1) if depth > 1 else _Inline() as helper:
        drawn = []
        for i, (start, transfer) in enumerate(blocks):
            for j in range(i + len(drawn), min(i + depth, len(starts))):
                drawn.append(helper.submit(draw, grids[j % depth, : n_frames - starts[j]]))
            block = drawn.pop(0).result()
            transfer *= x_active
            for grid_columns, band_columns in band:
                block[:, grid_columns] += transfer[:, band_columns]
            frames[start : start + block.shape[0]] = scipy.fft.ifft(
                block, axis=1, norm="ortho", overwrite_x=True
            )

    return SlowFastMatrix(frames=frames, frame_rate_hz=frame_rate_hz, spec=spec)


def analytic_transfer(scene: Scene, spec: WaveformSpec, n_frames: int) -> np.ndarray:
    """Noise-free channel transfer function on the active band, per frame.

    The one propagation model: ``simulate_capture`` modulates it onto the
    pulse, and round-trip tests use it as what a perfect estimator recovers.
    It equals the sum over returns of amplitude * exp(-2j*pi*tau*f_rf).
    """
    transfer = np.empty((n_frames, spec.active_count), dtype=complex)
    for start, rows in _transfer_blocks(scene, spec, n_frames):
        transfer[start : start + rows.shape[0]] = rows
    return transfer


def _transfer_blocks(scene: Scene, spec: WaveformSpec, n_frames: int):
    """Check every return against the unambiguous range, then return an
    iterator of ``(start, rows)``: the transfer of frames ``start`` onwards,
    ``_CHUNK_FRAMES`` at a time, in one buffer that the next block overwrites.
    """
    max_delay = spec.pulse_duration_s
    delays = []
    for target in scene.targets:
        tau = _round_trip_delays(scene, target, n_frames)  # (N,)
        if tau.max() > max_delay:
            raise ValueError(
                f"target at {target.rest_range_m} m exceeds the unambiguous "
                f"range {max_unambiguous_range(spec):.1f} m (aliased delay)"
            )
        delays.append((target.amplitude, tau))
    static = np.zeros(spec.active_count, dtype=complex)
    for clutter in scene.static_clutter:
        tau_c = 2.0 * (clutter.range_m + scene.cable_delay_range_m) / SPEED_OF_LIGHT
        if tau_c > max_delay:
            raise ValueError("clutter beyond the unambiguous range")
        static += _ramp(clutter.amplitude, np.array([tau_c]), spec)[0]

    def blocks():
        buffer = np.empty((min(_CHUNK_FRAMES, n_frames), spec.active_count), dtype=complex)
        for start in range(0, n_frames, _CHUNK_FRAMES):
            rows = buffer[: min(_CHUNK_FRAMES, n_frames - start)]
            rows[:] = static
            for amplitude, tau in delays:
                rows += _ramp(amplitude, tau[start : start + rows.shape[0]], spec)
            yield start, rows

    return blocks()


def _ramp(amplitude: float, tau: np.ndarray, spec: WaveformSpec) -> np.ndarray:
    """``amplitude * exp(-2j*pi*outer(tau, f_rf))`` over the active band.

    The active subcarriers are evenly spaced, f_k = f_0 + k*df, so each row is
    a geometric progression with ratio exp(-2j*pi*df*tau): one cumulative
    product along the subcarriers instead of one exponential per entry.
    """
    f_0 = spec.carrier_frequency_hz + spec.active_bins[0] / spec.pulse_duration_s
    df = spec.grid_step / spec.pulse_duration_s
    ramp = np.empty((tau.size, spec.active_count), dtype=complex)
    ramp[:, 0] = amplitude * np.exp(-2j * np.pi * f_0 * tau)
    ramp[:, 1:] = np.exp(-2j * np.pi * df * tau)[:, None]
    return np.cumprod(ramp, axis=1, out=ramp)
