"""The streamed receive chain against its full-matrix definitions.

The chain keeps no N x A transfer matrix: the channel estimate is a view of
the capture's frames. Range power is read from the band's lag
autocorrelation, accumulated over frame blocks of compact inverse DFTs of
the block's transfer rows, the series at a bin is a dot product of the raw
frames, and a subcarrier sweep estimates the channel once at the capture's
band and reads the frames once per pass for all counts. These tests pin
each shortcut to the quantity it replaces.
"""
import logging
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal.windows import hann

from jcvitals import channel, pipeline, ranging, receiver, scenarios
from jcvitals.channel import _CHUNK_FRAMES, Scene, SlowFastMatrix, simulate_capture
from jcvitals.pipeline import ProcessingConfig, process_capture, process_with_subcarriers
from jcvitals.ranging import range_profiles, to_range_profiles
from jcvitals.receiver import ChannelFrameSeries, estimate_channel, series_at_bins
from jcvitals.waveform import WaveformSpec, build_waveform, select_subcarriers

from conftest import bin_series, capture_of, make_target, series_of

SWEEP_COUNTS = [10, 20, 40, 80, 160, 320, 640, 1024]


def full_impulse(series: ChannelFrameSeries) -> np.ndarray:
    """h by definition: one inverse DFT of the whole zero-filled, Hann-tapered grid."""
    spec = series.spec
    taps = hann(spec.active_count + 2, sym=True)[1:-1]
    grid = np.zeros((series.n_frames, spec.samples_per_pulse), dtype=complex)
    grid[:, spec.active_bins % spec.samples_per_pulse] = series.transfer * taps
    return np.fft.ifft(grid, axis=1)


class TestStreamedDefinitions:
    @settings(max_examples=40, deadline=None)
    @given(
        n_frames=st.integers(1, 3 * _CHUNK_FRAMES + 1),
        count=st.integers(1, 64),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n_frames=_CHUNK_FRAMES - 1, count=64, seed=0)
    @example(n_frames=_CHUNK_FRAMES, count=64, seed=1)
    @example(n_frames=2 * _CHUNK_FRAMES + 3, count=33, seed=2)
    def test_power_and_bin_series_match_full_ifft(self, small_spec, n_frames, count, seed):
        spec = select_subcarriers(small_spec, count)
        rng = np.random.default_rng(seed)
        shape = (n_frames, spec.active_count)
        static = 10.0 * (rng.standard_normal(shape[1]) + 1j * rng.standard_normal(shape[1]))
        transfer = static + rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        series = series_of(transfer, spec)

        h = full_impulse(series)
        power = np.mean(np.abs(h) ** 2, axis=0)
        # FFT rounding scales with a row's norm, not with each bin's value:
        # bins far below the peak are compared at the scale of the profile.
        scale = power.max()
        profiles = to_range_profiles(series)
        np.testing.assert_allclose(profiles.mean_power, power, rtol=1e-12, atol=1e-12 * scale)

        peak = np.abs(h).max()
        for b in range(spec.samples_per_pulse):
            np.testing.assert_allclose(bin_series(series, b), h[:, b], rtol=1e-12,
                                       atol=1e-12 * peak)

        np.testing.assert_allclose(series.impulse, h, rtol=1e-12, atol=1e-12 * peak)

    @settings(max_examples=60, deadline=None)
    @given(
        step=st.integers(1, 3),
        count=st.integers(1, 12),
        wider=st.integers(0, 4),
        extra=st.integers(0, 8),
        n_frames=st.integers(1, 2 * _CHUNK_FRAMES + 1),
        flat=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(step=1, count=1, wider=0, extra=0, n_frames=3, flat=False, seed=0)
    @example(step=3, count=8, wider=0, extra=0, n_frames=_CHUNK_FRAMES + 1, flat=False, seed=1)
    @example(step=2, count=7, wider=2, extra=8, n_frames=5, flat=False, seed=2)
    @example(step=1, count=5, wider=0, extra=0, n_frames=5, flat=True, seed=3)
    def test_power_from_lags_where_lags_alias(self, step, count, wider, extra, n_frames, flat,
                                              seed):
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
        series = series_of(transfer, spec)

        h = full_impulse(series)
        power = np.mean(np.abs(h) ** 2, axis=0)
        mean_power = to_range_profiles(series).mean_power
        np.testing.assert_allclose(mean_power, power, rtol=1e-12, atol=1e-12 * power.max())
        assert np.all(mean_power >= 0)

    def test_narrowing_rejects_a_band_that_is_not_nested(self, small_spec):
        narrow = select_subcarriers(small_spec, 8)
        series = series_of(np.ones((3, 8), dtype=complex), narrow)
        assert series.narrowed(select_subcarriers(small_spec, 4)).transfer.shape == (3, 4)
        with pytest.raises(ValueError, match="nested"):
            series.narrowed(select_subcarriers(small_spec, 16))
        other_grid = WaveformSpec(num_subcarriers=66, samples_per_pulse=160)
        with pytest.raises(ValueError, match="nested"):  # the same slots 31..34 on another grid
            series.narrowed(select_subcarriers(other_grid, 4))


class TestBinSeriesFromFrames:
    """A bin's series is one dot product of each raw frame with a fixed
    P-point vector; it equals the column of the impulse response defined from
    the band quotient."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_matches_the_transfer_domain_definition(self, monkeypatch, workers):
        monkeypatch.setattr(channel, "_WORKERS", workers)
        # grid step 3: 24 of 40 subcarriers on a 130-sample pulse, then narrowed to 9
        spec = select_subcarriers(WaveformSpec(num_subcarriers=40, samples_per_pulse=130,
                                               subcarrier_spacing_hz=3.0e6), 24)
        rng = np.random.default_rng(4)
        shape = (2 * _CHUNK_FRAMES + 5, spec.active_count)
        transfer = 5.0 + rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        wide = series_of(transfer, spec)
        for series in (wide, wide.narrowed(select_subcarriers(spec, 9))):
            assert series.spec.grid_step == 3
            h = full_impulse(series)
            peak = np.abs(h).max()
            for b in range(series.spec.samples_per_pulse):
                np.testing.assert_allclose(bin_series(series, b), h[:, b], rtol=1e-12,
                                           atol=1e-12 * peak)

    def test_same_bytes_on_one_and_two_workers(self, small_spec, monkeypatch):
        rng = np.random.default_rng(5)
        shape = (4 * _CHUNK_FRAMES + 1, small_spec.active_count)
        series = series_of(rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
                           small_spec)
        narrow = series.narrowed(select_subcarriers(small_spec, 21))
        got = []
        for workers in (1, 2):
            monkeypatch.setattr(channel, "_WORKERS", workers)
            got.append([bin_series(s, b).tobytes() for s in (series, narrow) for b in (0, 7, 159)])
        assert got[0] == got[1]

    def test_no_frames_give_one_empty_series_per_weight(self, small_spec):
        series = series_of(np.zeros((0, small_spec.active_count), np.complex64), small_spec)
        got = series_at_bins(series.frames, [series.bin_weights(b) for b in (0, 7)])
        assert [column.shape for column in got] == [(0,), (0,)]


def complex64_series(spec: WaveformSpec, n_frames: int) -> ChannelFrameSeries:
    """Complex64 frames of a transfer with a static part 100 times its moving part."""
    rng = np.random.default_rng(3)
    shape = (n_frames, spec.active_count)
    static = 100.0 * np.exp(2j * np.pi * rng.random(shape[1]))
    transfer = static + rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return series_of(transfer.astype(np.complex64), spec)


class TestComplex64Transfer:
    """Complex64 frames, as simulated and read captures give, are read in
    complex128 one block at a time: the same values as their complex128 copy,
    without holding that copy."""

    def test_bin_series_equals_the_complex128_series(self, default_spec):
        series = complex64_series(default_spec, 2 * _CHUNK_FRAMES + 3)
        wide = replace(series, frames=series.frames.astype(complex))
        for b in (0, 1, 27, 1250, default_spec.samples_per_pulse - 1):
            got = bin_series(series, b)
            assert got.dtype == complex
            np.testing.assert_allclose(got, bin_series(wide, b), rtol=1e-12, atol=0)

    def test_bin_series_holds_no_complex128_copy(self, default_spec):
        series = complex64_series(default_spec, 2000)
        assert series.transfer.nbytes == 2000 * 1024 * 8
        bin_series(series, 50)  # first call: lazy imports and caches outside the measurement
        tracemalloc.start()
        try:
            bin_series(series, 51)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * series.transfer.nbytes

    def test_range_power_matches_the_complex128_path(self, default_spec):
        series = complex64_series(default_spec, 2000)
        wide = series_of(series.transfer.astype(complex), default_spec)
        expected = to_range_profiles(wide).mean_power
        got = to_range_profiles(series).mean_power
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-9 * expected.max())

    def test_transfer_is_the_complex128_quotient_rounded_once(self, default_spec):
        # the FFT in the frames' complex64, the quotient in complex128, one
        # rounding to complex64: within 1 ulp of each float32 component
        series = complex64_series(default_spec, 2 * _CHUNK_FRAMES + 3)
        spectra = np.fft.fft(series.frames, norm="ortho")
        assert spectra.dtype == np.complex64
        bins = default_spec.active_bins % default_spec.samples_per_pulse
        expected = (spectra[:, bins] / series.reference).astype(np.complex64, order="C")
        got = series.transfer
        assert got.dtype == np.complex64
        np.testing.assert_array_max_ulp(got.view(np.float32), expected.view(np.float32),
                                        maxulp=1)

    def test_narrowing_keeps_the_precision(self, default_spec):
        series = complex64_series(default_spec, 3)
        narrow = series.narrowed(select_subcarriers(default_spec, 40))
        assert narrow.transfer.dtype == np.complex64
        assert narrow.transfer.tobytes() == series.transfer[:, 492:532].tobytes()


class TestPassesAgree:
    """Range power (the first pass over the frames) and the bin series (the
    second) read one linear functional of the frames; on simulated complex64
    frames, full or narrowed bands, the mean power at each detected bin is
    the bin series' mean |.|^2."""

    @pytest.mark.parametrize("scenario_id, counts", [
        ("three_persons", [10, 40, 160, 1024]),
        ("two_persons", [1024]),
    ])
    def test_mean_power_at_each_detection_is_the_series_power(self, scenario_id, counts):
        scenario = scenarios.get_scenario(scenario_id)
        spec = scenario.waveform_spec()
        symbol = build_waveform(spec)
        capture = simulate_capture(scenario.build_scene(), symbol, spec,
                                   n_frames=scenario.n_frames, rng_seed=scenario.seed,
                                   frame_rate_hz=scenario.frame_rate_hz)
        assert capture.frames.dtype == np.complex64
        results = process_with_subcarriers(capture, counts, symbol=symbol,
                                           config=scenario.processing_config())
        estimate = estimate_channel(capture, symbol)
        for count, result in results.items():
            profiles = result.profiles
            band = estimate.narrowed(select_subcarriers(spec, count))
            assert result.detections
            assert profiles.range_resolution_m == pytest.approx(
                ranging.SPEED_OF_LIGHT / (2.0 * band.spec.occupied_bandwidth_hz))
            for detection in result.detections:
                b = detection.bin_index
                series_power = np.mean(np.abs(bin_series(band, b)) ** 2)
                np.testing.assert_allclose(profiles.mean_power[b], series_power, rtol=1e-6,
                                           err_msg=f"{count} subcarriers, bin {b}")


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
        ProcessingConfig(averaging_factor=10),
    ], ids=["default", "averaged"])
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

    @pytest.mark.parametrize("counts", [[40, 1024, 10], [40, 10]], ids=["with_1024", "narrower"])
    def test_channel_estimated_once(self, two_person_capture, default_symbol, monkeypatch,
                                    counts):
        """At the capture's band, whatever the counts."""
        calls = []
        original = pipeline.estimate_channel

        def counting(capture, *args, **kwargs):
            calls.append(capture.spec.active_count)
            return original(capture, *args, **kwargs)

        monkeypatch.setattr(pipeline, "estimate_channel", counting)
        process_with_subcarriers(two_person_capture, counts, symbol=default_symbol)
        assert calls == [1024]

    @pytest.mark.parametrize("config", [ProcessingConfig(), ProcessingConfig(averaging_factor=10)],
                             ids=["default", "averaged"])
    def test_capture_not_validated_again(self, two_person_capture, default_symbol, monkeypatch,
                                         config):
        """Estimating the checked capture's channel, or averaging it, does
        not scan every sample again."""
        def validate(capture):
            raise AssertionError("a SlowFastMatrix was validated inside the receive chain")

        monkeypatch.setattr(SlowFastMatrix, "__post_init__", validate)
        results = process_with_subcarriers(two_person_capture, [40, 640], symbol=default_symbol,
                                           config=config)
        assert list(results) == [40, 640]

    def test_range_power_transforms_under_a_quarter_of_the_p_grid(self, default_spec,
                                                                   monkeypatch):
        """Over the sweep, range power inverse-transforms the smallest
        11-smooth length >= 2A-1 per frame and count, not P: 4,588 of
        8 * 2,500 per frame."""
        n_frames = 250
        rng = np.random.default_rng(0)
        shape = (n_frames, default_spec.active_count)
        series = series_of(rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
                           default_spec)
        points = []
        original = np.fft.ifft

        def counting(x, *args, **kwargs):
            points.append(np.size(x))
            return original(x, *args, **kwargs)

        monkeypatch.setattr(np.fft, "ifft", counting)
        for count in SWEEP_COUNTS:
            to_range_profiles(series.narrowed(select_subcarriers(default_spec, count)))
        full = len(SWEEP_COUNTS) * n_frames * default_spec.samples_per_pulse
        assert points  # the patch saw the transforms
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
        # the capture never carried the wider band's bins, whatever the reference
        for reference in (None, default_symbol):
            with pytest.raises(ValueError, match="640-subcarrier band is not nested"):
                process_with_subcarriers(capture, [40, 640], symbol=reference)
        # a full-band reference serves the capture's band and narrower ones
        results = process_with_subcarriers(capture, [40, 320], symbol=default_symbol)
        for count in (40, 320):
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


def test_process_capture_holds_no_per_capture_array(default_spec, default_symbol):
    """Beside the capture, the chain holds frame blocks and per-target series:
    no N x A transfer, N x P impulse response or N x P mask."""
    capture = capture_of([make_target()], default_spec, default_symbol, snr_db=20.0)
    assert capture.frames.shape == (2000, 2500) and capture.frames.dtype == np.complex64
    process_capture(capture, symbol=default_symbol)  # lazy imports and caches outside
    tracemalloc.start()
    try:
        result = process_capture(capture, symbol=default_symbol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result.targets) == 1
    assert peak < 0.15 * capture.frames.nbytes


def test_impulse_and_profiles_build_one_n_by_p_array(default_spec):
    rng = np.random.default_rng(0)
    shape = (2000, default_spec.active_count)
    series = series_of(rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
                       default_spec)
    full = series.n_frames * default_spec.samples_per_pulse * 16
    for build in (lambda: series.impulse, lambda: np.abs(series.impulse)):
        tracemalloc.start()
        try:
            build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * full


def test_blocks_allocate_under_128_kib_after_the_first(default_spec, default_symbol, monkeypatch):
    """Each worker makes its block buffers once, and no block gives a numpy
    arithmetic operation a 2-D strided or broadcast operand, which numpy
    buffers (up to 384 KiB a call). So
    once a worker's first block has run, no block allocates 128 KiB, glibc's
    default mmap threshold, or more: not the simulator's, not range power's
    over the 8 sweep bands, and not the bin series'."""
    peaks = []

    def probing(n_frames, block, make):  # serial, one traced peak per block
        results, buffers = [], make()
        for start in range(0, n_frames, _CHUNK_FRAMES):
            current = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            results.append(block(start, min(start + _CHUNK_FRAMES, n_frames), *buffers))
            peaks.append(tracemalloc.get_traced_memory()[1] - current)
        return results

    for module in (channel, receiver, ranging):
        monkeypatch.setattr(module, "_split_blocks", probing)
    scene = Scene(targets=[make_target(duration_s=2.0)], snr_db=10.0)
    specs = [select_subcarriers(default_spec, count) for count in SWEEP_COUNTS]
    after_first = {}
    tracemalloc.start()
    try:
        capture = simulate_capture(scene, default_symbol, default_spec,
                                   n_frames=4 * _CHUNK_FRAMES + 1, rng_seed=3)
        after_first["simulate"], peaks[:] = peaks[1:], []
        series = estimate_channel(capture, default_symbol)
        range_profiles(series, specs)
        after_first["range power"], peaks[:] = peaks[1:], []
        series_at_bins(capture.frames, [series.bin_weights(b) for b in (0, 27, 1250)])
        after_first["bin series"] = peaks[1:]
    finally:
        tracemalloc.stop()
    assert all(len(blocks) >= 4 for blocks in after_first.values())
    assert {loop: max(blocks) for loop, blocks in after_first.items()
            if max(blocks) >= 128 * 1024} == {}
