import sys

import numpy as np
import pytest

from jcvitals import channel
from jcvitals.channel import Scene, SceneTarget, simulate_capture
from jcvitals.physio import VitalParams, synthesize_displacement
from jcvitals.receiver import ChannelFrameSeries, series_at_bins
from jcvitals.waveform import WaveformSpec, build_waveform


@pytest.fixture
def mapped(monkeypatch):
    """The sizes in bytes of the frames arrays ``channel._frames_array`` maps
    while the test runs. tracemalloc does not see a mapping, so a test that
    bounds a traced peak adds these: an upper bound, as if every mapping were
    alive at the traced peak."""
    sizes = []
    original = channel._frames_array

    def recording(*args, **kwargs):
        frames = original(*args, **kwargs)
        sizes.append(frames.nbytes)
        return frames

    for name, module in list(sys.modules.items()):  # every module that imported the helper
        if name.startswith("jcvitals") and getattr(module, "_frames_array", None) is original:
            monkeypatch.setattr(module, "_frames_array", recording)
    return sizes


@pytest.fixture(scope="session")
def default_spec():
    return WaveformSpec()


@pytest.fixture(scope="session")
def default_symbol(default_spec):
    return build_waveform(default_spec)


@pytest.fixture(scope="session")
def small_spec():
    # fast grid for unit tests: 64 subcarriers on a 160-sample pulse
    return WaveformSpec(num_subcarriers=64, samples_per_pulse=160)


@pytest.fixture(scope="session")
def small_symbol(small_spec):
    return build_waveform(small_spec)


def make_target(
    rest_range_m=2.0,
    breathing_amplitude_m=6e-3,
    breathing_rate_hz=16 / 60,
    heart_amplitude_m=0.35e-3,
    heart_rate_hz=73 / 60,
    harmonic_weights=(),
    duration_s=40.0,
    frame_rate_hz=50.0,
    projection_angle_deg=0.0,
    reflectivity=0.67,
    nlos_attenuation_db=0.0,
    schedule=None,
    rng_seed=0,
):
    params = VitalParams(
        breathing_rate_hz=breathing_rate_hz,
        breathing_amplitude_m=breathing_amplitude_m,
        breathing_harmonic_weights=tuple(harmonic_weights),
        heart_rate_hz=heart_rate_hz,
        heart_amplitude_m=heart_amplitude_m,
        projection_angle_deg=projection_angle_deg,
    )
    trace = synthesize_displacement(
        params, duration_s=duration_s, frame_rate_hz=frame_rate_hz,
        schedule=schedule, rng_seed=rng_seed,
    )
    return SceneTarget(
        rest_range_m=rest_range_m,
        trace=trace,
        reflectivity=reflectivity,
        nlos_attenuation_db=nlos_attenuation_db,
    )


def capture_of(targets, spec, symbol, *, snr_db=None, duration_s=40.0, frame_rate_hz=50.0,
               clutter=(), cable=0.0, seed=1):
    scene = Scene(
        targets=list(targets),
        static_clutter=list(clutter),
        cable_delay_range_m=cable,
        snr_db=snr_db,
    )
    n_frames = int(round(duration_s * frame_rate_hz))
    return simulate_capture(
        scene, symbol, spec, n_frames=n_frames, rng_seed=seed, frame_rate_hz=frame_rate_hz
    )


def series_of(transfer, spec, frame_rate_hz=50.0) -> ChannelFrameSeries:
    """A channel estimate whose band quotient is ``transfer`` (N x A): frames
    made by modulating it onto a unit-modulus reference on the band and
    inverse-transforming each row, at the transfer's precision (complex64
    frames for a complex64 transfer, so their quotient is it to that precision)."""
    transfer = np.asarray(transfer)
    reference = np.exp(2j * np.pi * np.random.default_rng(0).random(spec.active_count))
    grid = np.zeros((transfer.shape[0], spec.samples_per_pulse), dtype=complex)
    grid[:, spec.active_bins % spec.samples_per_pulse] = transfer * reference
    frames = np.fft.ifft(grid, axis=1, norm="ortho", out=grid)
    return ChannelFrameSeries(frames=frames.astype(np.result_type(transfer, np.complex64), copy=False),
                              reference=reference, frame_rate_hz=frame_rate_hz, spec=spec)


def bin_series(series: ChannelFrameSeries, b: int) -> np.ndarray:
    """``series.impulse[:, b]`` as the receive chain reads it: the frames' dot
    products with ``series.bin_weights(b)``."""
    return series_at_bins(series.frames, [series.bin_weights(b)])[0]
