"""The streamed receive chain against its full-matrix definitions.

The chain keeps only the N x A transfer matrix. Range power is read from the
band's lag autocorrelation, accumulated over frame blocks of compact inverse
DFTs, the series at a bin is a dot product of the transfer, and a subcarrier
sweep estimates the channel once at its widest count. These tests pin each
shortcut to the quantity it replaces.
"""
import logging
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.fft
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import get_window

from jcvitals import pipeline
from jcvitals.channel import SlowFastMatrix
from jcvitals.pipeline import ProcessingConfig, process_capture, process_with_subcarriers
from jcvitals.ranging import to_range_profiles
from jcvitals.receiver import _CHUNK_FRAMES, ChannelFrameSeries
from jcvitals.waveform import WaveformSpec, build_waveform, select_subcarriers

from conftest import capture_of, make_target

SWEEP_COUNTS = [10, 20, 40, 80, 160, 320, 640, 1024]


def full_impulse(series: ChannelFrameSeries) -> np.ndarray:
    """h by definition: one inverse DFT of the whole zero-filled grid."""
    spec = series.spec
    taps = 1.0 if series.window is None else get_window(series.window, spec.active_count)
    grid = np.zeros((series.n_frames, spec.samples_per_pulse), dtype=complex)
    grid[:, spec.active_bins % spec.samples_per_pulse] = series.transfer * taps
    return np.fft.ifft(grid, axis=1)


class TestStreamedDefinitions:
    @settings(max_examples=40, deadline=None)
    @given(
        n_frames=st.integers(1, 3 * _CHUNK_FRAMES + 1),
        count=st.integers(1, 64),
        window=st.sampled_from([None, "hann"]),
        remove_static=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n_frames=_CHUNK_FRAMES - 1, count=64, window=None, remove_static=False, seed=0)
    @example(n_frames=_CHUNK_FRAMES, count=64, window="hann", remove_static=True, seed=1)
    @example(n_frames=2 * _CHUNK_FRAMES + 3, count=33, window="hann", remove_static=False, seed=2)
    def test_power_and_bin_series_match_full_ifft(self, small_spec, n_frames, count, window,
                                                  remove_static, seed):
        spec = select_subcarriers(small_spec, count)
        rng = np.random.default_rng(seed)
        shape = (n_frames, spec.active_count)
        static = 10.0 * (rng.standard_normal(shape[1]) + 1j * rng.standard_normal(shape[1]))
        transfer = static + rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        series = ChannelFrameSeries(transfer=transfer, frame_rate_hz=50.0, spec=spec,
                                    window=window)

        h = full_impulse(series)
        h_clean = h - h.mean(axis=0) if remove_static else h
        power = np.mean(np.abs(h_clean) ** 2, axis=0)
        # FFT rounding scales with a row's norm, not with each bin's value:
        # bins far below the peak are compared at the scale of the profile.
        scale = np.mean(np.abs(h) ** 2, axis=0).max()
        profiles = to_range_profiles(series, remove_static=remove_static)
        np.testing.assert_allclose(profiles.mean_power, power, rtol=1e-12, atol=1e-12 * scale)

        peak = np.abs(h).max()
        for b in range(spec.samples_per_pulse):
            np.testing.assert_allclose(series.bin_series(b), h[:, b], rtol=1e-12,
                                       atol=1e-12 * peak)

        np.testing.assert_allclose(series.impulse, h, rtol=1e-12, atol=1e-12 * peak)
        np.testing.assert_allclose(profiles.profiles, np.abs(h_clean), rtol=1e-12,
                                   atol=1e-12 * peak)

    @settings(max_examples=60, deadline=None)
    @given(
        step=st.integers(1, 3),
        count=st.integers(1, 12),
        wider=st.integers(0, 4),
        extra=st.integers(0, 8),
        n_frames=st.integers(1, 2 * _CHUNK_FRAMES + 1),
        window=st.sampled_from([None, "hann"]),
        remove_static=st.booleans(),
        flat=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(step=1, count=1, wider=0, extra=0, n_frames=3, window="hann", remove_static=False,
             flat=False, seed=0)
    @example(step=3, count=8, wider=0, extra=0, n_frames=_CHUNK_FRAMES + 1, window="hann",
             remove_static=True, flat=False, seed=1)
    @example(step=2, count=7, wider=2, extra=8, n_frames=5, window=None, remove_static=False,
             flat=False, seed=2)
    @example(step=1, count=5, wider=0, extra=0, n_frames=5, window=None, remove_static=False,
             flat=True, seed=3)
    def test_power_from_lags_where_lags_alias(self, step, count, wider, extra, n_frames, window,
                                              remove_static, flat, seed):
        """P runs from the subcarrier span up to 8 bins over it, so the 2A-1
        lags collide on the P-grid whenever 2A-1 > P/g. ``flat`` rows are one
        scalar times a flat band: their power has exact nulls, which rounding
        would push below zero."""
        subcarriers = count + wider
        spec = select_subcarriers(
            WaveformSpec(num_subcarriers=subcarriers, samples_per_pulse=subcarriers * step + extra,
                         subcarrier_spacing_hz=step * 1.0e6), count)
        rng = np.random.default_rng(seed)
        if flat:
            scalars = rng.standard_normal(n_frames) + 1j * rng.standard_normal(n_frames)
            transfer = scalars[:, None] * np.ones(count)
        else:
            shape = (n_frames, count)
            transfer = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        series = ChannelFrameSeries(transfer=transfer, frame_rate_hz=50.0, spec=spec,
                                    window=window)

        h = full_impulse(series)
        h_clean = h - h.mean(axis=0) if remove_static else h
        power = np.mean(np.abs(h_clean) ** 2, axis=0)
        scale = np.mean(np.abs(h) ** 2, axis=0).max()
        mean_power = to_range_profiles(series, remove_static=remove_static).mean_power
        np.testing.assert_allclose(mean_power, power, rtol=1e-12, atol=1e-12 * scale)
        assert np.all(mean_power >= 0)

    def test_narrowing_rejects_a_band_that_is_not_nested(self, small_spec):
        narrow = select_subcarriers(small_spec, 8)
        series = ChannelFrameSeries(transfer=np.ones((3, 8), dtype=complex), frame_rate_hz=50.0,
                                    spec=narrow)
        assert series.narrowed(select_subcarriers(small_spec, 4)).transfer.shape == (3, 4)
        with pytest.raises(ValueError, match="nested"):
            series.narrowed(select_subcarriers(small_spec, 16))
        other_grid = WaveformSpec(num_subcarriers=66, samples_per_pulse=160)
        with pytest.raises(ValueError, match="nested"):  # the same slots 31..34 on another grid
            series.narrowed(select_subcarriers(other_grid, 4))


def same_result(a: pipeline.ProcessResult, b: pipeline.ProcessResult) -> bool:
    """Bit-identical detections, phase tracks, records and spectra."""
    if len(a.targets) != len(b.targets) or a.detections != b.detections:
        return False
    for ta, tb in zip(a.targets, b.targets):
        ea, eb = ta.estimate, tb.estimate
        if not np.array_equal(ta.track.unwrapped_phase, tb.track.unwrapped_phase):
            return False
        if ea.to_record() != eb.to_record() or (ea.br_bpm, ea.hr_bpm) != (eb.br_bpm, eb.hr_bpm):
            return False
        for band in ("br_spectrum", "hr_spectrum"):
            if not all(np.array_equal(x, y) for x, y in zip(getattr(ea, band), getattr(eb, band))):
                return False
    return True


@pytest.fixture(scope="module")
def two_person_capture(default_spec, default_symbol):
    targets = [make_target(rest_range_m=1.6, duration_s=20.0, rng_seed=1),
               make_target(rest_range_m=3.44, breathing_rate_hz=19 / 60, heart_rate_hz=87 / 60,
                           duration_s=20.0, rng_seed=2)]
    return capture_of(targets, default_spec, default_symbol, snr_db=20.0, duration_s=20.0)


class TestSubcarrierSweep:
    @pytest.mark.parametrize("config", [
        ProcessingConfig(),
        ProcessingConfig(averaging_factor=10, window="hann"),
        ProcessingConfig(remove_static_clutter=True),
    ], ids=["default", "averaged-hann", "static-removed"])
    def test_every_count_bit_identical_to_process_capture(self, two_person_capture,
                                                          default_symbol, config):
        capture = two_person_capture
        results = process_with_subcarriers(capture, SWEEP_COUNTS, symbol=default_symbol,
                                           config=config)
        assert list(results) == SWEEP_COUNTS
        assert len(results[1024].targets) == 2
        for count in SWEEP_COUNTS:
            narrowed = replace(capture, spec=select_subcarriers(capture.spec, count))
            reference = process_capture(narrowed, symbol=default_symbol, config=config)
            assert same_result(results[count], reference), count

    def test_channel_estimated_once(self, two_person_capture, default_symbol, monkeypatch):
        calls = []
        original = pipeline.estimate_channel

        def counting(capture, *args, **kwargs):
            calls.append(capture.spec.active_count)
            return original(capture, *args, **kwargs)

        monkeypatch.setattr(pipeline, "estimate_channel", counting)
        process_with_subcarriers(two_person_capture, [40, 1024, 10], symbol=default_symbol)
        assert calls == [1024]

    @pytest.mark.parametrize("config", [ProcessingConfig(), ProcessingConfig(averaging_factor=10)],
                             ids=["default", "averaged"])
    def test_capture_not_validated_again(self, two_person_capture, default_symbol, monkeypatch,
                                         config):
        """Relabelling the checked capture with the widest band, or averaging
        it, does not scan every sample again."""
        def validate(capture):
            raise AssertionError("a SlowFastMatrix was validated inside the receive chain")

        monkeypatch.setattr(SlowFastMatrix, "__post_init__", validate)
        results = process_with_subcarriers(two_person_capture, [40, 640], symbol=default_symbol,
                                           config=config)
        assert list(results) == [40, 640]

    def test_range_power_transforms_under_a_quarter_of_the_p_grid(self, default_spec,
                                                                   monkeypatch):
        """Over the sweep, range power inverse-transforms next_fast_len(2A-1)
        points per frame and count, not P: 4,588 of 8 * 2,500 per frame."""
        n_frames = 250
        rng = np.random.default_rng(0)
        shape = (n_frames, default_spec.active_count)
        series = ChannelFrameSeries(
            transfer=rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
            frame_rate_hz=50.0, spec=default_spec)
        points = []
        original = scipy.fft.ifft

        def counting(x, *args, **kwargs):
            points.append(np.size(x))
            return original(x, *args, **kwargs)

        monkeypatch.setattr(scipy.fft, "ifft", counting)
        for count in SWEEP_COUNTS:
            to_range_profiles(series.narrowed(select_subcarriers(default_spec, count)))
        full = len(SWEEP_COUNTS) * n_frames * default_spec.samples_per_pulse
        assert sum(points) <= 0.25 * full

    def test_averaging_warning_logged_once(self, two_person_capture, default_symbol, caplog):
        config = ProcessingConfig(averaging_factor=3)  # 1000 frames: drops one
        with caplog.at_level(logging.WARNING, logger="jcvitals.receiver"):
            process_with_subcarriers(two_person_capture, SWEEP_COUNTS, symbol=default_symbol,
                                     config=config)
        drops = [r for r in caplog.records if "drops 1 trailing frame" in r.getMessage()]
        assert len(drops) == 1

    def test_no_counts_gives_no_results(self, two_person_capture, default_symbol):
        assert process_with_subcarriers(two_person_capture, [], symbol=default_symbol) == {}

    def test_count_wider_than_capture_band(self, default_spec, default_symbol):
        spec = select_subcarriers(default_spec, 320)
        symbol = build_waveform(spec)
        capture = capture_of([make_target(duration_s=20.0)], spec, symbol, snr_db=20.0,
                             duration_s=20.0)
        # the capture's own reference cannot serve the wider mask
        with pytest.raises(ValueError, match="cover"):
            process_with_subcarriers(capture, [40, 640])
        # a full-band reference can: each count is as process_capture gives it
        results = process_with_subcarriers(capture, [40, 640], symbol=default_symbol)
        for count in (40, 640):
            narrowed = replace(capture, spec=select_subcarriers(spec, count))
            assert same_result(results[count], process_capture(narrowed, symbol=default_symbol))


def test_process_capture_peak_memory_within_one_and_a_half_captures(default_spec,
                                                                      default_symbol):
    capture = capture_of([make_target()], default_spec, default_symbol, snr_db=20.0)
    capture = replace(capture, frames=capture.frames.astype(np.complex64))
    assert capture.frames.shape == (2000, 2500)
    tracemalloc.start()
    try:
        result = process_capture(capture, symbol=default_symbol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result.targets) == 1
    assert peak <= 1.5 * capture.frames.nbytes


def test_impulse_and_profiles_build_one_n_by_p_array(default_spec):
    rng = np.random.default_rng(0)
    shape = (2000, default_spec.active_count)
    series = ChannelFrameSeries(
        transfer=rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
        frame_rate_hz=50.0, spec=default_spec, window="hann")
    profiles = to_range_profiles(series, remove_static=True)
    full = series.n_frames * default_spec.samples_per_pulse * 16
    for build in (lambda: series.impulse, lambda: profiles.profiles):
        tracemalloc.start()
        try:
            build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * full
