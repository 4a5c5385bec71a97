import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jcvitals.ranging import detect_targets, extract_bin_series, to_range_profiles
from jcvitals.receiver import estimate_channel
from jcvitals.vitals import (
    PhaseTrack,
    VitalsConfig,
    bandpass,
    estimate_vitals,
    phase_to_displacement,
    phase_track,
    spectral_correlation,
)

from conftest import capture_of, make_target

FS = 50.0


def tone_track(freq_hz, amp=1.0, duration_s=40.0, fs=FS, phase0=0.0):
    t = np.arange(int(duration_s * fs)) / fs
    return PhaseTrack(fs, amp * np.sin(2 * np.pi * freq_hz * t + phase0))


def tone_gain_db(freq_hz, band):
    track = tone_track(freq_hz)
    out = bandpass(track, *band)
    in_rms = np.sqrt(np.mean(track.unwrapped_phase**2))
    out_rms = np.sqrt(np.mean(out.unwrapped_phase**2))
    if out_rms == 0:
        return -np.inf
    return 20 * np.log10(out_rms / in_rms)


def pipeline_track(target, spec, symbol, *, snr_db=None, duration_s=40.0, seed=1):
    capture = capture_of([target], spec, symbol, snr_db=snr_db, duration_s=duration_s,
                         seed=seed)
    series = estimate_channel(capture, symbol)
    det = detect_targets(to_range_profiles(series))[0]
    return phase_track(extract_bin_series(series, det), series.frame_rate_hz)


class TestPhaseTrack:
    def test_constant_input_constant_phase(self):
        track = phase_track(np.full(100, 1 + 1j), FS)
        assert np.ptp(track.unwrapped_phase) == 0.0
        assert np.var(track.unwrapped_phase) < 1e-30

    def test_unwrap_recovers_wrapped_ramp(self):
        ramp = np.linspace(0, 40 * np.pi, 500)
        wrapped = np.exp(1j * ramp)
        track = phase_track(wrapped, FS)
        diff = track.unwrapped_phase - ramp
        assert np.allclose(diff, diff[0], atol=1e-9)

    def test_zero_samples_inherit_previous_phase(self):
        z = np.exp(1j * np.linspace(0, 1, 10))
        z[4] = 0.0
        track = phase_track(z, FS)
        assert track.zero_sample_count == 1
        assert track.unwrapped_phase[4] == pytest.approx(track.unwrapped_phase[3])

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            phase_track(np.array([1 + 0j]), FS)

    def test_breathing_swing_through_pipeline(self, default_spec, default_symbol):
        target = make_target(breathing_amplitude_m=6e-3, heart_amplitude_m=0.0,
                             duration_s=20.0)
        track = pipeline_track(target, default_spec, default_symbol, duration_s=20.0)
        lam = default_spec.effective_wavelength_m
        swing = 4 * np.pi * np.ptp(target.trace.samples) / lam
        assert np.ptp(track.unwrapped_phase) == pytest.approx(swing, rel=1e-3)
        # 6 mm amplitude (12 mm extremes) at 26.5 GHz: ~13.3 rad;
        # half-amplitude breathing gives the ~6.7 rad figure
        assert swing == pytest.approx(4 * np.pi * 0.012 / 0.0113, rel=0.01)


class TestPhaseToDisplacement:
    def test_two_pi_maps_to_half_wavelength(self):
        lam = 0.0113
        track = PhaseTrack(FS, np.array([0.0, 2 * np.pi]))
        disp = phase_to_displacement(track, lam)
        assert abs(disp[1] - disp[0]) == pytest.approx(lam / 2, rel=1e-12)

    def test_zero_phase_zero_displacement(self):
        track = PhaseTrack(FS, np.zeros(16))
        assert np.all(phase_to_displacement(track, 0.0113) == 0.0)

    def test_scale_factor_one_mm(self):
        track = PhaseTrack(FS, np.array([0.0, 1.112]))
        disp = phase_to_displacement(track, 0.0113)
        assert abs(disp[1] - disp[0]) == pytest.approx(1.0e-3, rel=1e-3)

    def test_longer_path_means_negative_displacement_of_phase_rise(self):
        # phase falls as range grows: a rising phase is the chest approaching
        track = PhaseTrack(FS, np.array([0.0, 1.0]))
        disp = phase_to_displacement(track, 0.0113)
        assert disp[1] < disp[0]

    def test_invalid_wavelength(self):
        with pytest.raises(ValueError):
            phase_to_displacement(PhaseTrack(FS, np.zeros(4)), 0.0)


class TestBandpass:
    BR_BAND = (0.15, 0.5)

    def test_in_band_tone_preserved_within_half_db(self):
        assert abs(tone_gain_db(0.25, self.BR_BAND)) <= 0.5

    def test_out_of_band_tone_rejected_40db(self):
        assert tone_gain_db(1.2, self.BR_BAND) <= -40.0

    def test_stopband_edges_rejected_40db(self):
        assert tone_gain_db(0.5 * 0.15, self.BR_BAND) <= -40.0
        assert tone_gain_db(1.5 * 0.5, self.BR_BAND) <= -40.0

    def test_dc_removed(self):
        track = PhaseTrack(FS, np.full(2000, 3.0))
        out = bandpass(track, *self.BR_BAND)
        assert np.abs(out.unwrapped_phase).max() <= 3.0 * 10 ** (-40 / 20)

    def test_band_outside_nyquist_rejected(self):
        with pytest.raises(ValueError):
            bandpass(tone_track(0.25), 0.5, 30.0)
        with pytest.raises(ValueError):
            bandpass(tone_track(0.25), 0.0, 0.5)


class TestEstimateVitals:
    def test_accurate_rates_at_20db_snr(self, default_spec, default_symbol):
        target = make_target(breathing_rate_hz=0.26, heart_rate_hz=1.22,
                             heart_amplitude_m=0.35e-3)
        track = pipeline_track(target, default_spec, default_symbol, snr_db=20.0)
        est = estimate_vitals(track)
        assert est.br_bpm == pytest.approx(15.6, abs=1.0)
        assert est.hr_bpm == pytest.approx(73.2, abs=2.0)

    def test_breath_hold_br_absent_hr_present(self, default_spec, default_symbol):
        target = make_target(breathing_amplitude_m=0.0, heart_rate_hz=74 / 60)
        track = pipeline_track(target, default_spec, default_symbol, snr_db=20.0)
        est = estimate_vitals(track)
        assert est.br_bpm is None
        assert est.hr_bpm == pytest.approx(74.0, abs=2.0)

    def test_harmonic_collision_flagged_order_3(self, default_spec, default_symbol):
        target = make_target(breathing_rate_hz=0.4, harmonic_weights=(0.25, 0.3),
                             heart_rate_hz=1.2, heart_amplitude_m=0.1e-3)
        track = pipeline_track(target, default_spec, default_symbol, snr_db=20.0)
        est = estimate_vitals(track)
        assert est.harmonic_flag is True
        assert est.harmonic_order == 3
        assert est.hr_alternative_hz == pytest.approx(0.8, abs=0.05)

    def test_no_harmonic_flag_for_clean_rates(self, default_spec, default_symbol):
        target = make_target()  # 16 bpm and 73 bpm share no small-order multiple
        track = pipeline_track(target, default_spec, default_symbol, snr_db=20.0)
        assert estimate_vitals(track).harmonic_flag is False

    def test_short_record_rejected(self):
        with pytest.raises(ValueError, match="minimum"):
            estimate_vitals(tone_track(0.25, duration_s=10.0))

    def test_bpm_matches_peak_hz(self):
        track = tone_track(0.25)
        est = estimate_vitals(track)
        assert est.br_bpm == pytest.approx(60 * est.br_peak_hz)

    def test_spectra_normalized_and_banded(self):
        est = estimate_vitals(tone_track(0.25))
        freqs, mags = est.br_spectrum
        assert mags.max() == pytest.approx(1.0)
        assert freqs.min() >= 0.15 and freqs.max() <= 0.5


class TestInvariantProperties:
    def test_scale_invariance(self, default_spec, default_symbol):
        target = make_target(duration_s=20.0)
        capture = capture_of([target], default_spec, default_symbol, duration_s=20.0)
        series = estimate_channel(capture, default_symbol)
        det = detect_targets(to_range_profiles(series))[0]
        bin_series = extract_bin_series(series, det)
        config = VitalsConfig(min_duration_s=15.0)
        base = estimate_vitals(phase_track(bin_series, FS), config)
        for c in (2.0, -3.5j, 0.3 * np.exp(1.1j)):
            scaled = estimate_vitals(phase_track(c * bin_series, FS), config)
            assert scaled.br_peak_hz == pytest.approx(base.br_peak_hz, abs=1e-12)
            assert scaled.hr_peak_hz == pytest.approx(base.hr_peak_hz, abs=1e-12)
            assert scaled.br_confidence == pytest.approx(base.br_confidence, rel=1e-9)

    def test_end_to_end_displacement_reconstruction(self, default_spec, default_symbol):
        target = make_target(breathing_amplitude_m=6e-3, heart_amplitude_m=0.35e-3,
                             duration_s=20.0)
        track = pipeline_track(target, default_spec, default_symbol, duration_s=20.0)
        reconstructed = phase_to_displacement(track, default_spec.effective_wavelength_m)
        truth = target.trace.samples[: len(reconstructed)]
        truth = truth - truth.mean()
        rms_err = np.sqrt(np.mean((reconstructed - truth) ** 2))
        assert rms_err <= 0.02 * 6e-3

    @settings(max_examples=12, deadline=None)
    @given(freq=st.floats(min_value=0.16, max_value=0.49))
    def test_resolution_bound_property(self, freq):
        est = estimate_vitals(tone_track(freq))
        bin_hz = FS / (4 * int(40.0 * FS))
        assert abs(est.br_peak_hz - freq) <= bin_hz
        assert abs(est.br_bpm - 60 * freq) <= 60 * bin_hz


class TestUnwrapProperty:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31), scale=st.floats(0.1, 3.0))
    def test_unwrap_wrap_identity_for_bounded_steps(self, seed, scale):
        rng = np.random.default_rng(seed)
        steps = rng.uniform(-0.99 * np.pi, 0.99 * np.pi, size=200) * min(scale, 1.0)
        phase = np.cumsum(steps)
        track = phase_track(np.exp(1j * phase), FS)
        diff = track.unwrapped_phase - phase
        assert np.allclose(diff, diff[0], atol=1e-9)


class TestSpectralCorrelation:
    def test_identical_spectra_correlate_to_one(self):
        est = estimate_vitals(tone_track(0.3))
        assert spectral_correlation(est.br_spectrum, est.br_spectrum) == pytest.approx(1.0)

    def test_mismatched_grids_rejected(self):
        a = estimate_vitals(tone_track(0.3))
        b = estimate_vitals(tone_track(0.3, duration_s=30.0))
        with pytest.raises(ValueError):
            spectral_correlation(a.br_spectrum, b.br_spectrum)


class TestConfidenceCalibration:
    """Frozen decision boundary: clean lines sit near 0.12, empty or
    obstructed bands below 0.08, threshold 0.1 between them."""

    def test_present_cluster_above_threshold(self, default_spec, default_symbol):
        config = VitalsConfig()
        target = make_target()
        track = pipeline_track(target, default_spec, default_symbol, snr_db=20.0, seed=3)
        est = estimate_vitals(track, config)
        assert est.br_confidence > config.confidence_threshold * 1.1
        assert est.hr_confidence > config.confidence_threshold * 1.1

    def test_absent_cluster_below_threshold(self, default_spec, default_symbol):
        config = VitalsConfig()
        target = make_target(breathing_amplitude_m=0.0)
        track = pipeline_track(target, default_spec, default_symbol, snr_db=20.0, seed=4)
        est = estimate_vitals(track, config)
        assert est.br_confidence < config.confidence_threshold * 0.9
