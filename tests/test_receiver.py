from dataclasses import replace

import numpy as np
import pytest

from jcvitals.channel import Scene, SlowFastMatrix, analytic_transfer, simulate_capture
from jcvitals.constants import SPEED_OF_LIGHT
from jcvitals.physio import DisplacementTrace
from jcvitals.channel import SceneTarget
from jcvitals.receiver import average_slow_time, estimate_channel
from jcvitals.waveform import WaveformSpec, build_waveform, select_subcarriers

from conftest import capture_of, make_target


def static_target(rest_range_m, n, rate=50.0, reflectivity=0.67):
    trace = DisplacementTrace(sample_rate_hz=rate, samples=np.zeros(n))
    return SceneTarget(rest_range_m=rest_range_m, trace=trace, reflectivity=reflectivity)


def identity_capture(symbol, n=3, rate=50.0):
    frames = np.tile(symbol.time_domain, (n, 1))
    return SlowFastMatrix(frames=frames, frame_rate_hz=rate, spec=symbol.spec)


class TestEstimateChannel:
    def test_identity_channel(self, small_spec, small_symbol):
        series = estimate_channel(identity_capture(small_symbol), small_symbol)
        assert np.allclose(series.transfer, 1.0, atol=1e-12)
        peak = np.abs(series.impulse[0]).argmax()
        assert peak == 0
        # all energy at delay zero: |h[0]| = sum of the taps / P = (A + 1) / (2P)
        assert np.abs(series.impulse[0, 0]) == pytest.approx(
            (small_spec.active_count + 1) / (2 * small_spec.samples_per_pulse), rel=1e-9
        )

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    def test_transfer_has_the_capture_precision(self, small_symbol, dtype):
        capture = identity_capture(small_symbol)
        capture = replace(capture, frames=capture.frames.astype(dtype))
        series = estimate_channel(capture, small_symbol)
        assert series.transfer.dtype == dtype
        assert np.allclose(series.transfer, 1.0, atol=1e-6 if dtype == np.complex64 else 1e-12)

    def test_simulated_capture_gives_a_complex64_transfer(self, small_spec, small_symbol):
        capture = capture_of([make_target(duration_s=1.0)], small_spec, small_symbol,
                             snr_db=20.0, duration_s=1.0)
        series = estimate_channel(capture, small_symbol)
        assert capture.frames.dtype == series.transfer.dtype == np.complex64
        # the same frames in complex128 give the same transfer to complex64's precision
        wide = estimate_channel(replace(capture, frames=capture.frames.astype(complex)),
                                small_symbol).transfer
        assert wide.dtype == complex
        scale = np.abs(wide).max()
        np.testing.assert_allclose(series.transfer, wide, rtol=0, atol=1e-6 * scale)

    def test_static_target_peak_bin(self, default_spec, default_symbol):
        capture = capture_of([static_target(2.0, 4)], default_spec, default_symbol,
                             duration_s=4 / 50)
        series = estimate_channel(capture, default_symbol)
        expected_bin = round(2 * 2.0 / SPEED_OF_LIGHT * default_spec.sample_rate_hz)
        assert np.abs(series.impulse).mean(axis=0).argmax() == expected_bin

    def test_equal_targets_have_equal_peaks(self, default_spec, default_symbol):
        capture = capture_of(
            [static_target(1.6, 2), static_target(3.44, 2)],
            default_spec, default_symbol, duration_s=2 / 50,
        )
        series = estimate_channel(capture, default_symbol)
        profile = np.abs(series.impulse).mean(axis=0)
        b1 = round(2 * 1.6 / SPEED_OF_LIGHT * default_spec.sample_rate_hz)
        b2 = round(2 * 3.44 / SPEED_OF_LIGHT * default_spec.sample_rate_hz)
        delta_db = 20 * np.log10(profile[b1] / profile[b2])
        assert abs(delta_db) <= 1.0  # no range loss modeled: equal within 1 dB

    def test_spec_mismatch_rejected(self, small_symbol):
        other = WaveformSpec(num_subcarriers=32, samples_per_pulse=160)
        capture = identity_capture(build_waveform(other))
        with pytest.raises(ValueError, match="grid"):
            estimate_channel(capture, small_symbol)

    def test_degenerate_reference_rejected(self, small_spec, small_symbol):
        bad = build_waveform(small_spec)
        bad.freq_domain = bad.freq_domain * 0.0
        with pytest.raises(ValueError, match="1e-12"):
            estimate_channel(identity_capture(small_symbol), bad)

    def test_narrowed_mask_uses_wide_reference(self, default_spec, default_symbol):
        # reprocessing a full-band capture with a 40-subcarrier mask
        capture = capture_of([static_target(2.0, 2)], default_spec, default_symbol,
                             duration_s=2 / 50)
        narrowed = select_subcarriers(default_spec, 40)
        sub = SlowFastMatrix(frames=capture.frames, frame_rate_hz=capture.frame_rate_hz,
                             spec=narrowed)
        series = estimate_channel(sub, default_symbol)
        assert series.transfer.shape[1] == 40
        expected = analytic_transfer(Scene(targets=[static_target(2.0, 2)]), narrowed, 2)
        assert np.allclose(series.transfer, expected, atol=1e-10)

    def test_narrow_reference_cannot_serve_wide_capture(self, default_spec, default_symbol):
        capture = capture_of([static_target(2.0, 2)], default_spec, default_symbol,
                             duration_s=2 / 50)
        narrow_symbol = build_waveform(select_subcarriers(default_spec, 40))
        with pytest.raises(ValueError, match="cover"):
            estimate_channel(capture, narrow_symbol)


class TestRoundTrip:
    def test_recovers_analytic_transfer_below_minus_60db(self, default_spec, default_symbol):
        target = make_target(duration_s=1.0)
        scene = Scene(targets=[target])
        capture = capture_of([target], default_spec, default_symbol, duration_s=1.0)
        series = estimate_channel(capture, default_symbol)
        expected = analytic_transfer(scene, default_spec, capture.n_frames)
        err = np.linalg.norm(series.transfer - expected) / np.linalg.norm(expected)
        assert 20 * np.log10(err) < -60.0

    def test_mainlobe_width_scales_inverse_bandwidth(self, default_spec, default_symbol):
        def width_bins(count):
            spec = select_subcarriers(default_spec, count)
            symbol = build_waveform(spec)
            capture = capture_of([static_target(2.0, 1)], spec, symbol, duration_s=1 / 50)
            series = estimate_channel(capture, symbol)
            mag2 = np.abs(series.impulse[0]) ** 2
            half = mag2.max() / 2
            above = np.flatnonzero(mag2 >= half)
            return above.max() - above.min() + 1

        w256, w64 = width_bins(256), width_bins(64)
        assert w64 / w256 == pytest.approx(256 / 64, rel=0.1)


class TestAveraging:
    def test_factor_one_is_identity(self, small_spec, small_symbol):
        capture = identity_capture(small_symbol, n=6)
        assert average_slow_time(capture, 1) is capture

    def test_constant_frames_average_to_same_frame(self, small_spec, small_symbol):
        capture = identity_capture(small_symbol, n=200)
        out = average_slow_time(capture, 100)
        assert out.n_frames == 2
        assert out.frame_rate_hz == pytest.approx(capture.frame_rate_hz / 100)
        assert np.allclose(out.frames[0], capture.frames[0], atol=1e-12)

    def test_factor_beyond_frames_rejected(self, small_spec, small_symbol):
        with pytest.raises(ValueError):
            average_slow_time(identity_capture(small_symbol, n=6), 7)

    def test_noise_power_drops_20db_at_factor_100(self, default_spec, default_symbol):
        n = 400
        target = static_target(2.0, n)
        clean = simulate_capture(Scene(targets=[target]), default_symbol, default_spec,
                                 n_frames=n, frame_rate_hz=50.0)
        noisy = simulate_capture(Scene(targets=[target], snr_db=10.0), default_symbol,
                                 default_spec, n_frames=n, rng_seed=9, frame_rate_hz=50.0)
        noise_before = np.mean(np.abs(noisy.frames - clean.frames) ** 2)
        avg_noisy = average_slow_time(noisy, 100)
        avg_clean = average_slow_time(clean, 100)
        noise_after = np.mean(np.abs(avg_noisy.frames - avg_clean.frames) ** 2)
        drop_db = 10 * np.log10(noise_before / noise_after)
        assert drop_db == pytest.approx(20.0, abs=0.5)

    def test_averaging_commutes_with_estimation_when_noiseless(self, default_spec, default_symbol):
        target = make_target(duration_s=2.0)
        capture = capture_of([target], default_spec, default_symbol, duration_s=2.0)
        # linearity, not precision: complex128 frames keep float32 rounding out of rtol
        capture = SlowFastMatrix(frames=capture.frames.astype(complex),
                                 frame_rate_hz=capture.frame_rate_hz, spec=capture.spec)
        a = estimate_channel(average_slow_time(capture, 10), default_symbol).transfer
        per_frame = estimate_channel(capture, default_symbol).transfer
        b = per_frame.reshape(-1, 10, default_spec.active_count).mean(axis=1)
        assert np.allclose(a, b, rtol=1e-9, atol=1e-15)

    def test_remainder_dropped(self, small_spec, small_symbol):
        capture = identity_capture(small_symbol, n=7)
        out = average_slow_time(capture, 3)
        assert out.n_frames == 2

    @pytest.mark.parametrize("dtype", [np.complex64, complex])
    def test_same_bytes_as_the_mean_of_the_reshaped_frames(self, small_spec, small_symbol, dtype):
        capture = capture_of([make_target(duration_s=2.0)], small_spec, small_symbol,
                             snr_db=10.0, duration_s=2.0)
        capture = replace(capture, frames=capture.frames.astype(dtype))
        out = average_slow_time(capture, 3)  # 100 frames: the last is dropped
        expected = capture.frames[:99].reshape(33, 3, -1).mean(axis=1)
        assert out.frames.dtype == expected.dtype and out.frames.flags.c_contiguous
        assert out.frames.tobytes() == expected.tobytes()
