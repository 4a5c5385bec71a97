import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jcvitals.physio import (
    BREATH_HOLD,
    MOVING,
    NORMAL,
    Segment,
    VitalParams,
    _breath_gate,
    synthesize_displacement,
    walking_trajectory,
)

FULL_BAND_RES_M = 0.14638  # c / (2 * 1.024 GHz)


def dominant_line_hz(samples, rate, band):
    # brute-force oracle: Hann-windowed FFT, argmax within the band
    w = np.hanning(len(samples))
    mags = np.abs(np.fft.rfft((samples - samples.mean()) * w))
    freqs = np.fft.rfftfreq(len(samples), 1 / rate)
    sel = (freqs >= band[0]) & (freqs <= band[1])
    return freqs[sel][np.argmax(mags[sel])], mags[sel].max()


class TestVitalParams:
    def test_rejects_negative_amplitude(self):
        with pytest.raises(ValueError):
            VitalParams(breathing_amplitude_m=-1e-3)

    def test_rejects_out_of_range_rates(self):
        with pytest.raises(ValueError):
            VitalParams(breathing_rate_hz=0.05)
        with pytest.raises(ValueError):
            VitalParams(heart_rate_hz=4.0)

    def test_rejects_heavy_harmonics(self):
        with pytest.raises(ValueError):
            VitalParams(breathing_harmonic_weights=(1.5,))

    def test_radial_factor_clamps_at_90(self):
        assert VitalParams(projection_angle_deg=90.0).radial_factor == 0.0
        assert VitalParams(projection_angle_deg=-120.0).radial_factor == 0.0
        assert VitalParams(projection_angle_deg=60.0).radial_factor == pytest.approx(0.5)


class TestSynthesize:
    def test_peak_to_peak_is_twice_amplitude_with_harmonics(self):
        params = VitalParams(
            breathing_rate_hz=0.25, breathing_amplitude_m=6e-3, heart_amplitude_m=0.0
        )
        trace = synthesize_displacement(params, duration_s=40.0, frame_rate_hz=50.0)
        assert np.ptp(trace.samples) == pytest.approx(12e-3, rel=0.01)
        line, _ = dominant_line_hz(trace.samples, 50.0, (0.05, 25.0 - 1e-9))
        assert line == pytest.approx(0.25, abs=0.025)

    def test_breath_hold_leaves_pure_pulse_train(self):
        params = VitalParams(heart_amplitude_m=0.3e-3)
        n = 40 * 50
        trace = synthesize_displacement(
            params, 40.0, 50.0, schedule=[Segment(0, n, BREATH_HOLD)]
        )
        assert np.ptp(trace.samples) <= 0.6e-3
        assert trace.samples.min() >= 0.0  # raised-cosine pulses, no sinusoid

    def test_projection_90_zeroes_trace(self):
        params = VitalParams(projection_angle_deg=90.0)
        trace = synthesize_displacement(params, 20.0, 50.0)
        assert np.all(trace.samples == 0.0)

    def test_rejects_frame_rate_below_nyquist_margin(self):
        with pytest.raises(ValueError):
            synthesize_displacement(VitalParams(heart_rate_hz=1.5), 20.0, 10.0)

    def test_determinism(self):
        params = VitalParams(sway_rms_m=1e-3)
        a = synthesize_displacement(params, 20.0, 50.0, rng_seed=7)
        b = synthesize_displacement(params, 20.0, 50.0, rng_seed=7)
        c = synthesize_displacement(params, 20.0, 50.0, rng_seed=8)
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_heart_line_scales_linearly(self):
        def heart_line(amp):
            params = VitalParams(
                breathing_amplitude_m=0.0, heart_amplitude_m=amp, heart_rate_hz=1.2
            )
            trace = synthesize_displacement(params, 40.0, 50.0, rng_seed=3)
            _, mag = dominant_line_hz(trace.samples, 50.0, (0.7, 3.0))
            return mag

        assert heart_line(0.7e-3) == pytest.approx(2 * heart_line(0.35e-3), rel=0.01)

    def test_sway_rms_calibrated(self):
        params = VitalParams(
            breathing_amplitude_m=0.0, heart_amplitude_m=0.0, sway_rms_m=2e-3
        )
        trace = synthesize_displacement(params, 40.0, 50.0, rng_seed=5)
        assert trace.samples.std() == pytest.approx(2e-3, rel=1e-6)


@settings(max_examples=15, deadline=None)
@given(
    br=st.floats(min_value=0.15, max_value=0.21),
    hr=st.floats(min_value=0.9, max_value=2.4),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_spectral_ground_truth_property(br, hr, seed):
    # largest line in each physiological band sits at the configured rate;
    # br capped so the 3rd breathing harmonic (plus window leakage) stays
    # below the 0.7 Hz band edge, where it would legitimately beat the
    # sub-mm heart line
    params = VitalParams(
        breathing_rate_hz=br,
        breathing_amplitude_m=6e-3,
        heart_rate_hz=hr,
        heart_amplitude_m=0.4e-3,
    )
    trace = synthesize_displacement(params, 40.0, 50.0, rng_seed=seed)
    br_line, _ = dominant_line_hz(trace.samples, 50.0, (0.1, 0.7))
    hr_line, _ = dominant_line_hz(trace.samples, 50.0, (0.7, 3.0))
    assert br_line == pytest.approx(br, abs=0.03)
    assert hr_line == pytest.approx(hr, abs=0.03)


@settings(max_examples=200, deadline=None)
@given(
    hold=st.lists(st.booleans(), min_size=1, max_size=300).filter(any),
    ramp=st.integers(min_value=0, max_value=400),
)
def test_breath_gate_matches_brute_force_distance(hold, ramp):
    hold = np.array(hold)
    holds = np.flatnonzero(hold)
    distance = np.array([np.abs(holds - i).min() for i in range(hold.size)], dtype=float)
    gate = np.clip(distance / max(ramp, 1), 0.0, 1.0)
    expected = 0.5 * (1.0 - np.cos(np.pi * gate))
    assert np.array_equal(_breath_gate(hold, ramp), expected)


class TestWalking:
    def test_zero_speed_reduces_to_stationary(self):
        trace = walking_trajectory(0.0, 10.0, 50.0)
        assert np.all(trace.samples == 0.0)
        assert trace.segments[0].label == MOVING

    def test_excursion_matches_triangle_kinematics(self):
        trace = walking_trajectory(0.5, 10.0, 50.0)
        assert trace.samples.max() == pytest.approx(0.5 * 10.0 / 2, rel=0.01)
        assert trace.samples[0] == pytest.approx(0.0)
        assert trace.samples[-1] == pytest.approx(0.0, abs=0.5 * (1 / 50.0) * 1.01)

    def test_fast_walk_crosses_many_range_bins_per_second(self):
        trace = walking_trajectory(1.5, 10.0, 50.0)
        one_second = trace.samples[: 50]
        bins_crossed = np.ptp(one_second) / FULL_BAND_RES_M
        assert bins_crossed > 5

    def test_vitals_superimposed(self):
        params = VitalParams(breathing_amplitude_m=6e-3, heart_amplitude_m=0.0)
        still = walking_trajectory(0.0, 20.0, 50.0, params=params)
        line, _ = dominant_line_hz(still.samples, 50.0, (0.1, 0.7))
        assert line == pytest.approx(params.breathing_rate_hz, abs=0.03)

    def test_rejects_negative_speed(self):
        with pytest.raises(ValueError):
            walking_trajectory(-0.1, 10.0, 50.0)


class TestTraceInvariants:
    def test_stationary_trace_bounded(self):
        # a seated/lying trace may not exceed 0.2 m
        params = VitalParams()
        trace = synthesize_displacement(params, 20.0, 50.0)
        assert np.abs(trace.samples).max() <= 0.2

    def test_segments_default_to_normal(self):
        trace = synthesize_displacement(VitalParams(), 20.0, 50.0)
        assert [s.label for s in trace.segments] == [NORMAL]
