import numpy as np
import pytest

from jcvitals.channel import SceneTarget, Scene, simulate_capture
from jcvitals.constants import SPEED_OF_LIGHT
from jcvitals.physio import DisplacementTrace
from jcvitals.ranging import detect_targets, extract_bin_series, range_profiles, to_range_profiles
from jcvitals.receiver import estimate_channel
from jcvitals.waveform import build_waveform, select_subcarriers

from conftest import capture_of, make_target


def static_target(rest_range_m, n, rate=50.0, reflectivity=0.67):
    trace = DisplacementTrace(sample_rate_hz=rate, samples=np.zeros(n))
    return SceneTarget(rest_range_m=rest_range_m, trace=trace, reflectivity=reflectivity)


def profiles_for(targets, spec, symbol, *, snr_db=None, n_frames=50, cable=0.0, seed=1):
    scene = Scene(targets=targets, cable_delay_range_m=cable, snr_db=snr_db)
    capture = simulate_capture(scene, symbol, spec, n_frames=n_frames, rng_seed=seed,
                               frame_rate_hz=50.0)
    series = estimate_channel(capture, symbol)
    return series, to_range_profiles(series, cable_offset_m=cable)


class TestToRangeProfiles:
    def test_full_band_resolution_near_15cm(self, default_spec, default_symbol):
        _, profiles = profiles_for([static_target(2.0, 1)], default_spec, default_symbol,
                                   n_frames=1)
        exact = SPEED_OF_LIGHT / (2 * default_spec.occupied_bandwidth_hz)
        assert profiles.range_resolution_m == pytest.approx(exact)
        assert profiles.range_resolution_m == pytest.approx(0.15, rel=0.03)
        assert profiles.bin_width_m <= profiles.range_resolution_m

    def test_ten_subcarriers_resolution_near_15m(self, default_spec):
        spec = select_subcarriers(default_spec, 10)
        symbol = build_waveform(spec)
        _, profiles = profiles_for([static_target(2.0, 1)], spec, symbol, n_frames=1)
        assert profiles.range_resolution_m == pytest.approx(
            SPEED_OF_LIGHT / (2 * spec.occupied_bandwidth_hz)
        )
        assert profiles.range_resolution_m == pytest.approx(15.0, rel=0.03)

    def test_zero_cable_offset_axis_starts_at_zero(self, default_spec, default_symbol):
        _, profiles = profiles_for([static_target(2.0, 1)], default_spec, default_symbol,
                                   n_frames=1)
        assert profiles.range_axis_m[0] == 0.0
        assert np.all(np.diff(profiles.range_axis_m) > 0)

    def test_negative_cable_offset_rejected(self, default_spec, default_symbol):
        series, _ = profiles_for([static_target(2.0, 1)], default_spec, default_symbol,
                                 n_frames=1)
        with pytest.raises(ValueError):
            to_range_profiles(series, cable_offset_m=-1.0)

    def test_no_bands_give_no_profiles(self, default_spec, default_symbol):
        # as series_at_bins(frames, []) gives no series
        series, _ = profiles_for([static_target(2.0, 1)], default_spec, default_symbol,
                                 n_frames=1)
        assert range_profiles(series, []) == []


class TestDetectTargets:
    def test_single_target_within_bin_width(self, default_spec, default_symbol):
        _, profiles = profiles_for([static_target(2.0, 50)], default_spec, default_symbol,
                                   snr_db=10.0)
        detections = detect_targets(profiles)
        assert len(detections) == 1
        assert abs(detections[0].range_m - 2.0) <= profiles.bin_width_m

    def test_three_targets_full_band_vs_reduced(self, default_spec):
        targets = lambda n: [static_target(1.6, n), static_target(2.5, n),
                             static_target(3.44, n)]
        # full band: all three separated
        symbol = build_waveform(default_spec)
        _, profiles = profiles_for(targets(20), default_spec, symbol, snr_db=20.0,
                                   n_frames=20)
        assert len(detect_targets(profiles, max_targets=3)) == 3
        # 40 subcarriers: resolution 3.75 m merges them
        for count in (40, 10):
            spec = select_subcarriers(default_spec, count)
            symbol = build_waveform(spec)
            _, profiles = profiles_for(targets(20), spec, symbol, snr_db=20.0, n_frames=20)
            assert len(detect_targets(profiles, max_targets=3)) < 3

    def test_empty_scene_with_noise_yields_empty(self, default_spec, default_symbol):
        # a weak target supplies the noise reference; detection must not fire
        # on noise-only bins, and the target sits below the prominence bar
        ghost = static_target(2.0, 60, reflectivity=1e-6)
        _, profiles = profiles_for([ghost], default_spec, default_symbol, snr_db=-40.0,
                                   n_frames=60)
        assert detect_targets(profiles) == []

    def test_all_zero_profile_yields_empty(self, small_spec, small_symbol):
        scene = Scene(targets=[])
        capture = simulate_capture(scene, small_symbol, small_spec, n_frames=8,
                                   frame_rate_hz=50.0)
        series = estimate_channel(capture, small_symbol)
        assert detect_targets(to_range_profiles(series)) == []

    def test_sidelobes_not_reported_as_targets(self, default_spec, default_symbol):
        _, profiles = profiles_for([static_target(2.0, 50)], default_spec, default_symbol,
                                   snr_db=20.0)
        detections = detect_targets(profiles, max_targets=4)
        assert len(detections) == 1

    def test_calibration_offset_shifts_every_range_exactly(self, default_spec, default_symbol):
        series, _ = profiles_for([static_target(2.0, 10)], default_spec,
                                 default_symbol, n_frames=10)
        base = detect_targets(to_range_profiles(series, cable_offset_m=0.0))[0]
        shifted = detect_targets(to_range_profiles(series, cable_offset_m=1.5))[0]
        assert shifted.range_m == pytest.approx(base.range_m - 1.5, abs=1e-12)
        assert shifted.bin_index == base.bin_index

    def test_scene_cable_plus_matching_calibration_recovers_range(self, default_spec, default_symbol):
        _, profiles = profiles_for([static_target(2.0, 10)], default_spec,
                                   default_symbol, n_frames=10, cable=1.5)
        det = detect_targets(profiles)[0]
        assert abs(det.range_m - 2.0) <= profiles.bin_width_m

    def test_resolved_at_2_resolutions_merged_at_1(self, default_spec, default_symbol):
        # breathing sweeps the relative carrier phase over several cycles, so
        # the slow-time-averaged power profile behaves incoherently; the Hann
        # taper's main lobe resolves two equal returns from 1.5 resolutions on
        res = SPEED_OF_LIGHT / (2 * default_spec.occupied_bandwidth_hz)
        for factor, expected in ((2.0, 2), (1.0, 1)):
            a = make_target(rest_range_m=2.0, duration_s=20.0, rng_seed=1)
            b = make_target(rest_range_m=2.0 + factor * res, duration_s=20.0,
                            rng_seed=2, breathing_rate_hz=19 / 60)
            capture = capture_of([a, b], default_spec, default_symbol, duration_s=20.0)
            series = estimate_channel(capture, default_symbol)
            profiles = to_range_profiles(series)
            assert len(detect_targets(profiles, max_targets=2)) == expected

    def test_detection_fields_consistent(self, default_spec, default_symbol):
        _, profiles = profiles_for([static_target(2.0, 20)], default_spec, default_symbol,
                                   snr_db=15.0, n_frames=20)
        det = detect_targets(profiles, min_prominence_db=10.0)[0]
        assert det.prominence_db >= 10.0
        assert profiles.range_axis_m[det.bin_index] == det.range_m

    def test_max_targets_validated(self, default_spec, default_symbol):
        _, profiles = profiles_for([static_target(2.0, 5)], default_spec, default_symbol,
                                   n_frames=5)
        with pytest.raises(ValueError):
            detect_targets(profiles, max_targets=0)


class TestExtractBinSeries:
    def test_static_target_constant_series(self, default_spec, default_symbol):
        series, profiles = profiles_for([static_target(2.0, 10)], default_spec,
                                        default_symbol, n_frames=10)
        det = detect_targets(profiles)[0]
        values = extract_bin_series(series, det)
        assert np.allclose(values, values[0], atol=1e-12)

    def test_breathing_target_phase_matches_ground_truth(self, default_spec, default_symbol):
        target = make_target(breathing_amplitude_m=4e-3, heart_amplitude_m=0.0,
                             duration_s=10.0)
        capture = capture_of([target], default_spec, default_symbol, duration_s=10.0)
        series = estimate_channel(capture, default_symbol)
        profiles = to_range_profiles(series)
        det = detect_targets(profiles)[0]
        phase = np.unwrap(np.angle(extract_bin_series(series, det)))
        lam = default_spec.effective_wavelength_m
        expected = -4 * np.pi * target.trace.samples[:500] / lam
        assert np.ptp(phase) == pytest.approx(np.ptp(expected), rel=1e-6)

    def test_out_of_range_bin_rejected(self, default_spec, default_symbol):
        series, profiles = profiles_for([static_target(2.0, 5)], default_spec,
                                        default_symbol, n_frames=5)
        det = detect_targets(profiles)[0]
        det.bin_index = default_spec.samples_per_pulse
        with pytest.raises(ValueError):
            extract_bin_series(series, det)

    def test_cross_target_leakage_below_minus_40db(self, default_spec):
        # the Hann taper over the frequency axis: sidelobes at 3 resolutions
        # are far below the raw Dirichlet's -19 dB
        res = SPEED_OF_LIGHT / (2 * default_spec.occupied_bandwidth_hz)
        symbol = build_waveform(default_spec)
        a = make_target(rest_range_m=2.0, breathing_amplitude_m=4e-3,
                        heart_amplitude_m=0.0, duration_s=4.0, rng_seed=1)
        b = make_target(rest_range_m=2.0 + 3 * res, breathing_amplitude_m=4e-3,
                        heart_amplitude_m=0.0, duration_s=4.0, rng_seed=2)
        cap_a = capture_of([a], default_spec, symbol, duration_s=4.0)
        cap_ab = capture_of([a, b], default_spec, symbol, duration_s=4.0)
        ser_a = estimate_channel(cap_a, symbol)
        ser_ab = estimate_channel(cap_ab, symbol)
        det = detect_targets(to_range_profiles(ser_a))[0]
        only_a = extract_bin_series(ser_a, det)
        with_b = extract_bin_series(ser_ab, det)
        leakage = np.abs(with_b - only_a).max() / np.abs(only_a).max()
        assert 20 * np.log10(leakage) < -40.0
