import numpy as np
import pytest

from jcvitals.channel import (
    ClutterPoint,
    Scene,
    SceneTarget,
    analytic_transfer,
    max_unambiguous_range,
    simulate_capture,
)
from jcvitals.constants import SPEED_OF_LIGHT
from jcvitals.physio import DisplacementTrace
from jcvitals.waveform import WaveformSpec

from conftest import capture_of, make_target


def static_target(rest_range_m, n, rate=50.0, reflectivity=0.67):
    trace = DisplacementTrace(sample_rate_hz=rate, samples=np.zeros(n))
    return SceneTarget(rest_range_m=rest_range_m, trace=trace, reflectivity=reflectivity)


def cir_peak_bin_series(capture, spec, symbol):
    # minimal reference receiver: FFT, divide, IFFT, take the strongest bin
    spectra = np.fft.fft(capture.frames, axis=1) / np.sqrt(spec.samples_per_pulse)
    h_freq = spectra[:, spec.active_bins % spec.samples_per_pulse] / symbol.freq_domain[spec.active_indices]
    grid = np.zeros((capture.n_frames, spec.samples_per_pulse), dtype=complex)
    grid[:, spec.active_bins % spec.samples_per_pulse] = h_freq
    cir = np.fft.ifft(grid, axis=1)
    peak = np.abs(cir).mean(axis=0).argmax()
    return cir[:, peak]


class TestMaxUnambiguousRange:
    def test_one_microsecond_pulse(self, default_spec):
        assert max_unambiguous_range(default_spec) == pytest.approx(149.896, abs=0.001)

    def test_linear_in_duration(self):
        spec = WaveformSpec(pulse_duration_s=2e-6, samples_per_pulse=5000,
                            subcarrier_spacing_hz=0.5e6)
        assert max_unambiguous_range(spec) == pytest.approx(299.79, abs=0.01)

    def test_zero_duration_rejected_at_spec(self):
        with pytest.raises(ValueError):
            WaveformSpec(pulse_duration_s=0.0)


class TestSimulateCapture:
    def test_empty_scene_noiseless_is_all_zero(self, small_spec, small_symbol):
        scene = Scene(targets=[], snr_db=None)
        capture = simulate_capture(scene, small_symbol, small_spec, n_frames=8,
                                   frame_rate_hz=50.0)
        assert np.all(capture.frames == 0)

    def test_static_target_frames_identical_with_correct_delay(self, default_spec, default_symbol):
        scene = Scene(targets=[static_target(2.0, 4)])
        capture = simulate_capture(scene, default_symbol, default_spec, n_frames=4)
        assert np.allclose(capture.frames, capture.frames[0])
        # fast-time circular cross-correlation peaks at the round-trip delay
        xcorr = np.fft.ifft(
            np.fft.fft(capture.frames[0]) * np.conj(np.fft.fft(default_symbol.time_domain))
        )
        expected_delay_s = 2 * 2.0 / SPEED_OF_LIGHT
        assert expected_delay_s == pytest.approx(13.34e-9, abs=0.01e-9)
        expected_bin = round(expected_delay_s * default_spec.sample_rate_hz)
        assert np.abs(xcorr).argmax() == expected_bin

    def test_breathing_target_phase_swing_matches_trace_extremes(self, default_spec, default_symbol):
        # 3 mm amplitude -> 6 mm extreme-to-extreme -> ~6.67 rad swing
        target = make_target(breathing_amplitude_m=3e-3, heart_amplitude_m=0.0,
                             duration_s=20.0)
        capture = capture_of([target], default_spec, default_symbol, duration_s=20.0)
        series = cir_peak_bin_series(capture, default_spec, default_symbol)
        phase = np.unwrap(np.angle(series))
        lam = default_spec.effective_wavelength_m
        expected = 4 * np.pi * np.ptp(target.trace.samples) / lam
        assert expected == pytest.approx(4 * np.pi * 0.006 / 0.0113, rel=0.01)
        assert np.ptp(phase) == pytest.approx(expected, rel=1e-3)

    def test_aliased_range_rejected(self, small_spec, small_symbol):
        scene = Scene(targets=[static_target(200.0, 4)])
        with pytest.raises(ValueError, match="unambiguous"):
            simulate_capture(scene, small_symbol, small_spec, n_frames=4)

    def test_analytic_transfer_rejects_aliased_returns(self, small_spec):
        with pytest.raises(ValueError, match="unambiguous"):
            analytic_transfer(Scene(targets=[static_target(200.0, 4)]), small_spec, 4)
        with pytest.raises(ValueError, match="unambiguous"):
            analytic_transfer(Scene(static_clutter=[ClutterPoint(200.0, 0.5)]), small_spec, 4)

    def test_trace_too_short_rejected(self, small_spec, small_symbol):
        scene = Scene(targets=[static_target(2.0, 4)])
        with pytest.raises(ValueError, match="shorter"):
            simulate_capture(scene, small_symbol, small_spec, n_frames=10)

    def test_analytic_transfer_rejects_a_short_trace(self, small_spec):
        with pytest.raises(ValueError, match="shorter"):
            analytic_transfer(Scene(targets=[static_target(2.0, 4)]), small_spec, 10)

    def test_noise_needs_target_reference(self, small_spec, small_symbol):
        scene = Scene(targets=[], snr_db=20.0)
        with pytest.raises(ValueError, match="reference"):
            simulate_capture(scene, small_symbol, small_spec, n_frames=4, frame_rate_hz=50.0)

    @pytest.mark.parametrize("snr_db", [float("nan"), -float("inf")])
    def test_snr_that_is_no_noise_level_rejected(self, small_spec, small_symbol, snr_db):
        with pytest.raises(ValueError, match="snr_db"):
            Scene(targets=[static_target(2.0, 8, rate=50.0)], snr_db=snr_db)
        scene = Scene(targets=[static_target(2.0, 8, rate=50.0)], snr_db=10.0)
        scene.snr_db = snr_db  # set after the scene's check: the simulator still refuses it
        with pytest.raises(ValueError):
            simulate_capture(scene, small_symbol, small_spec, n_frames=8)

    def test_infinite_snr_is_noiseless(self, small_spec, small_symbol):
        target = static_target(2.0, 8, rate=50.0)
        inf = simulate_capture(Scene(targets=[target], snr_db=float("inf")), small_symbol,
                               small_spec, n_frames=8, rng_seed=3)
        clean = simulate_capture(Scene(targets=[target]), small_symbol, small_spec, n_frames=8)
        assert inf.frames.tobytes() == clean.frames.tobytes()

    def test_determinism(self, small_spec, small_symbol):
        scene = Scene(targets=[static_target(2.0, 8, rate=50.0)], snr_db=10.0)
        a = simulate_capture(scene, small_symbol, small_spec, n_frames=8, rng_seed=3)
        b = simulate_capture(scene, small_symbol, small_spec, n_frames=8, rng_seed=3)
        c = simulate_capture(scene, small_symbol, small_spec, n_frames=8, rng_seed=4)
        assert np.array_equal(a.frames, b.frames)
        assert not np.array_equal(a.frames, c.frames)


class TestInvariants:
    def test_phase_fidelity_end_to_end(self, default_spec, default_symbol):
        # demodulated per-frame phase at the target's bin tracks
        # -4*pi*(rest + displacement)/lambda up to a constant, to 1e-6 rad
        target = make_target(breathing_amplitude_m=6e-3, heart_amplitude_m=0.0,
                             duration_s=10.0)
        capture = capture_of([target], default_spec, default_symbol, duration_s=10.0)
        series = cir_peak_bin_series(capture, default_spec, default_symbol)
        phase = np.unwrap(np.angle(series))
        lam = default_spec.effective_wavelength_m
        expected = -4 * np.pi * (target.rest_range_m + target.trace.samples[:500]) / lam
        residual = phase - expected
        residual -= residual.mean()
        # measured modulo 2*pi: fold before comparing
        residual = np.angle(np.exp(1j * residual))
        residual -= residual.mean()
        assert np.abs(residual).max() < 1e-6

    def test_superposition_at_infinite_snr(self, small_spec, small_symbol):
        a = make_target(rest_range_m=1.6, duration_s=2.0, rng_seed=1)
        b = make_target(rest_range_m=3.44, duration_s=2.0, rng_seed=2)
        cap_a = capture_of([a], small_spec, small_symbol, duration_s=2.0)
        cap_b = capture_of([b], small_spec, small_symbol, duration_s=2.0)
        cap_ab = capture_of([a, b], small_spec, small_symbol, duration_s=2.0)
        assert np.allclose(cap_ab.frames, cap_a.frames + cap_b.frames, atol=1e-12)

    def test_snr_calibration_within_half_db(self, default_spec, default_symbol):
        n = 40
        target = static_target(2.0, n)
        noiseless = simulate_capture(Scene(targets=[target]), default_symbol,
                                     default_spec, n_frames=n, frame_rate_hz=50.0)
        noisy = simulate_capture(Scene(targets=[target], snr_db=10.0), default_symbol,
                                 default_spec, n_frames=n, rng_seed=5, frame_rate_hz=50.0)
        noise = noisy.frames - noiseless.frames
        assert noise.size >= 1e4
        signal_power = np.mean(np.abs(noiseless.frames) ** 2)
        noise_power = np.mean(np.abs(noise) ** 2)
        measured_snr_db = 10 * np.log10(signal_power / noise_power)
        assert measured_snr_db == pytest.approx(10.0, abs=0.5)

    def test_nlos_attenuation_scales_amplitude(self, small_spec, small_symbol):
        plain = make_target(duration_s=2.0)
        nlos = make_target(duration_s=2.0, nlos_attenuation_db=15.0)
        cap_plain = capture_of([plain], small_spec, small_symbol, duration_s=2.0)
        cap_nlos = capture_of([nlos], small_spec, small_symbol, duration_s=2.0)
        ratio = np.abs(cap_nlos.frames).max() / np.abs(cap_plain.frames).max()
        assert 20 * np.log10(ratio) == pytest.approx(-15.0, abs=1e-6)

    def test_clutter_and_cable_delay_shift_response(self, default_spec, default_symbol):
        scene = Scene(targets=[static_target(2.0, 2)], cable_delay_range_m=3.0)
        capture = simulate_capture(scene, default_symbol, default_spec, n_frames=2)
        xcorr = np.fft.ifft(
            np.fft.fft(capture.frames[0]) * np.conj(np.fft.fft(default_symbol.time_domain))
        )
        expected_bin = round(2 * (2.0 + 3.0) / SPEED_OF_LIGHT * default_spec.sample_rate_hz)
        assert np.abs(xcorr).argmax() == expected_bin

    def test_analytic_transfer_matches_capture_freq_domain(self, small_spec, small_symbol):
        target = make_target(duration_s=2.0)
        clutter = [ClutterPoint(range_m=1.0, amplitude=0.4)]
        scene = Scene(targets=[target], static_clutter=clutter)
        capture = capture_of([target], small_spec, small_symbol, duration_s=2.0,
                             clutter=clutter)
        spectra = np.fft.fft(capture.frames, axis=1) / np.sqrt(small_spec.samples_per_pulse)
        measured = (
            spectra[:, small_spec.active_bins % small_spec.samples_per_pulse]
            / small_symbol.freq_domain[small_spec.active_indices]
        )
        expected = analytic_transfer(scene, small_spec, capture.n_frames)
        assert np.allclose(measured, expected, atol=1e-10)
