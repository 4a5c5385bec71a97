"""The blocked simulator against its definitions.

``_transfer`` builds each return's subcarrier ramp by recurrence and
``simulate_capture`` draws its noise in the frequency grid, block by block;
these tests hold both to the direct formulas: the complex exponential of
every frame and subcarrier, and one noise draw per 16-frame noise block
followed by one inverse DFT of the whole grid.
"""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jcvitals import channel
from jcvitals.capture_io import read_capture, write_capture
from jcvitals.channel import (
    _CHUNK_FRAMES,
    ClutterPoint,
    Scene,
    SceneTarget,
    SlowFastMatrix,
    _transfer,
    max_unambiguous_range,
    simulate_capture,
)
from jcvitals.constants import SPEED_OF_LIGHT
from jcvitals.physio import DisplacementTrace
from jcvitals.pipeline import process_capture
from jcvitals.report import OK, compare_records
from jcvitals.scenarios import get_scenario
from jcvitals.waveform import WaveformSpec, build_waveform

from conftest import make_target

SEEDS = range(5)


def transfer_by_definition(scene: Scene, spec: WaveformSpec, n_frames: int) -> np.ndarray:
    """Sum over returns of amplitude * exp(-2j*pi*outer(tau, f_rf))."""
    f_rf = spec.carrier_frequency_hz + spec.baseband_frequencies_hz()
    transfer = np.zeros((n_frames, spec.active_count), dtype=complex)
    for t in scene.targets:
        tau = 2.0 * (t.rest_range_m + t.trace.samples[:n_frames]
                     + scene.cable_delay_range_m) / SPEED_OF_LIGHT
        transfer += t.amplitude * np.exp(-2j * np.pi * np.outer(tau, f_rf))
    for c in scene.static_clutter:
        tau = 2.0 * (c.range_m + scene.cable_delay_range_m) / SPEED_OF_LIGHT
        transfer += c.amplitude * np.exp(-2j * np.pi * tau * f_rf)
    return transfer


def noise_sigma(scene: Scene, spec: WaveformSpec) -> float:
    """Per-component noise deviation: ``snr_db`` below the strongest return."""
    strongest = max(t.amplitude for t in scene.targets)
    signal_power = spec.active_count * strongest**2 / spec.samples_per_pulse
    return math.sqrt(signal_power / 10.0 ** (scene.snr_db / 10.0) / 2.0)


def capture_by_definition(scene, symbol, spec, n_frames, seed) -> np.ndarray:
    """Per 16-frame noise block b, one (16, 2P) float64 draw from child b of
    the seed viewed as complex, plus the embedded band, then one ortho inverse
    DFT of the whole grid."""
    p = spec.samples_per_pulse
    grid = np.zeros((n_frames, p), dtype=complex)
    if scene.snr_db is not None:
        children = np.random.SeedSequence(seed).spawn(-(-n_frames // 16))
        noise = np.concatenate([np.random.default_rng(child).standard_normal((16, 2 * p))
                                for child in children])[:n_frames].view(complex)
        grid += noise_sigma(scene, spec) * noise
    grid[:, spec.active_bins % p] += (symbol.freq_domain[spec.active_indices]
                                      * transfer_by_definition(scene, spec, n_frames))
    return np.fft.ifft(grid, axis=1, norm="ortho")


def static_target(rest_range_m, n, samples=None, reflectivity=0.67):
    samples = np.zeros(n) if samples is None else samples
    return SceneTarget(rest_range_m=rest_range_m, reflectivity=reflectivity,
                       trace=DisplacementTrace(sample_rate_hz=50.0, samples=samples))


class TestTransferRecurrence:
    @settings(max_examples=60, deadline=None)
    @given(
        num_subcarriers=st.integers(1, 1024),
        grid_step=st.integers(1, 4),
        spare_samples=st.integers(0, 16),
        active_fraction=st.floats(0.0, 1.0),
        carrier_hz=st.floats(20e9, 30e9),
        n_frames=st.integers(1, 2 * _CHUNK_FRAMES + 3),
        range_fractions=st.lists(st.floats(0.0, 1.0), max_size=3),
        clutter_fractions=st.lists(st.floats(0.0, 1.0), max_size=3),
        cable_m=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(num_subcarriers=1024, grid_step=1, spare_samples=0, active_fraction=1.0,
             carrier_hz=26.5e9, n_frames=_CHUNK_FRAMES, range_fractions=[1.0, 0.0],
             clutter_fractions=[1.0], cable_m=1.0, seed=0)
    @example(num_subcarriers=1, grid_step=3, spare_samples=0, active_fraction=0.0,
             carrier_hz=26.5e9, n_frames=1, range_fractions=[0.5], clutter_fractions=[],
             cable_m=0.0, seed=1)
    def test_matches_the_exponential_definition(self, num_subcarriers, grid_step, spare_samples,
                                                active_fraction, carrier_hz, n_frames,
                                                range_fractions, clutter_fractions, cable_m,
                                                seed):
        pulse_s = 1e-6
        spec = WaveformSpec(
            carrier_frequency_hz=carrier_hz,
            num_subcarriers=num_subcarriers,
            subcarrier_spacing_hz=grid_step / pulse_s,
            samples_per_pulse=num_subcarriers * grid_step + spare_samples,
            pulse_duration_s=pulse_s,
            active_count=max(1, round(active_fraction * num_subcarriers)),
        )
        rng = np.random.default_rng(seed)
        # delays up to the unambiguous range (1 mm short of it, against rounding):
        # rest range, cable and up to 5 mm of motion included
        reach = max_unambiguous_range(spec) - cable_m - 6e-3
        targets = [static_target(0.01 + f * (reach - 0.01), n_frames,
                                 samples=np.clip(2e-3 * rng.standard_normal(n_frames),
                                                 -5e-3, 5e-3),
                                 reflectivity=rng.uniform(0.0, 1.0))
                   for f in range_fractions]
        clutter = [ClutterPoint(range_m=f * reach, amplitude=rng.uniform(0.0, 1.0))
                   for f in clutter_fractions]
        scene = Scene(targets=targets, static_clutter=clutter, cable_delay_range_m=cable_m)

        got = _transfer(scene, spec, n_frames)(0, n_frames)
        expected = transfer_by_definition(scene, spec, n_frames)
        scale = sum(t.amplitude for t in targets) + sum(c.amplitude for c in clutter)
        assert got.shape == (n_frames, spec.active_count)
        assert np.abs(got - expected).max() <= 1e-10 * scale


REFERENCE_SPECS = pytest.mark.parametrize("spec", [
    WaveformSpec(num_subcarriers=64, samples_per_pulse=160),
    WaveformSpec(num_subcarriers=64, samples_per_pulse=160, active_count=33),
    WaveformSpec(num_subcarriers=40, samples_per_pulse=130, subcarrier_spacing_hz=3e6,
                 active_count=1),
    WaveformSpec(num_subcarriers=40, samples_per_pulse=130, subcarrier_spacing_hz=3e6,
                 active_count=24),
], ids=["full", "odd-band", "one-bin-step-3", "even-band-step-3"])


def reference_scene(snr_db) -> Scene:
    targets = [make_target(rest_range_m=1.6, duration_s=2.0, rng_seed=1),
               make_target(rest_range_m=3.44, reflectivity=0.4, duration_s=2.0, rng_seed=2)]
    return Scene(targets=targets, static_clutter=[ClutterPoint(1.0, 0.3)],
                 cable_delay_range_m=0.5, snr_db=snr_db)


class TestSimulatorMatchesWholeArrayReference:
    @pytest.mark.parametrize("n_frames", [1, _CHUNK_FRAMES - 1, _CHUNK_FRAMES,
                                          3 * _CHUNK_FRAMES, 2 * _CHUNK_FRAMES + 5])
    @pytest.mark.parametrize("snr_db", [None, 10.0])
    @REFERENCE_SPECS
    def test_frames_equal_the_definition(self, spec, snr_db, n_frames):
        symbol = build_waveform(spec)
        scene = reference_scene(snr_db)
        capture = simulate_capture(scene, symbol, spec, n_frames=n_frames, rng_seed=7)
        expected = capture_by_definition(scene, symbol, spec, n_frames, seed=7)
        assert capture.frames.dtype == np.complex64
        # the complex128 frames, rounded once: I and Q each within float32's unit roundoff
        # 2**-24 of themselves, so each sample within sqrt(2) of that, on top of the float64
        # path's 1e-12 of the peak. A transform run in complex64 errs by roundoffs of the
        # peak, not of the sample, and fails this.
        np.testing.assert_allclose(capture.frames, expected,
                                   rtol=math.sqrt(2) * 2.0**-24 + 1e-12,
                                   atol=1e-12 * np.abs(expected).max())

    @pytest.mark.parametrize("n_frames", [1, _CHUNK_FRAMES - 1, 2 * _CHUNK_FRAMES + 5])
    @pytest.mark.parametrize("snr_db", [None, 10.0])
    @REFERENCE_SPECS
    def test_frames_are_the_file_bytes(self, spec, snr_db, n_frames, tmp_path):
        capture = simulate_capture(reference_scene(snr_db), build_waveform(spec), spec,
                                   n_frames=n_frames, rng_seed=7)
        write_capture(tmp_path / "c.jcv", capture)
        stored, _ = read_capture(tmp_path / "c.jcv")
        assert capture.frames.dtype == np.complex64
        assert capture.frames.tobytes() == stored.frames.tobytes()


class TestNoiseStatistics:
    def test_noise_power_flat_over_every_bin(self, small_spec, small_symbol):
        # noise alone, through an ortho DFT: the same power 2 sigma^2 on active
        # and inactive bins, as time-domain white noise would have
        n = 400
        scene = Scene(targets=[static_target(2.0, n)], snr_db=10.0)
        clean = simulate_capture(Scene(targets=scene.targets), small_symbol, small_spec,
                                 n_frames=n).frames
        power = np.zeros(small_spec.samples_per_pulse)
        for seed in SEEDS:
            noisy = simulate_capture(scene, small_symbol, small_spec, n_frames=n, rng_seed=seed)
            spectra = np.fft.fft(noisy.frames - clean, axis=1, norm="ortho")
            power += np.mean(np.abs(spectra) ** 2, axis=0) / len(SEEDS)
        expected = 2 * noise_sigma(scene, small_spec) ** 2
        ratio_db = 10 * np.log10(power / expected)
        assert np.abs(ratio_db).max() <= 0.5

        active = np.zeros(small_spec.samples_per_pulse, dtype=bool)
        active[small_spec.active_bins % small_spec.samples_per_pulse] = True
        assert 0 < active.sum() < active.size
        band_db = 10 * np.log10(power[active].mean() / power[~active].mean())
        assert abs(band_db) <= 0.1

    def test_sitting_still_rates_within_report_tolerances(self):
        scenario = get_scenario("sitting_still_2m")
        spec = scenario.waveform_spec()
        symbol = build_waveform(spec)
        scene = scenario.build_scene()
        for seed in SEEDS:
            capture = simulate_capture(scene, symbol, spec, n_frames=scenario.n_frames,
                                       rng_seed=scenario.seed + 1000 * seed)
            result = process_capture(capture, config=scenario.processing_config())
            records = [t.to_record(scenario.scenario_id) for t in result.targets]
            rows = compare_records(records, scenario.ground_truth())
            assert [(r.br_status, r.hr_status) for r in rows] == [(OK, OK)], seed


def test_simulate_peak_memory_within_1_6_captures(mapped):
    scenario = get_scenario("sitting_still_2m")
    spec = scenario.waveform_spec()
    symbol = build_waveform(spec)
    scene = scenario.build_scene()
    assert (scenario.n_frames, spec.samples_per_pulse) == (2000, 2500)
    tracemalloc.start()
    try:
        capture = simulate_capture(scene, symbol, spec, n_frames=scenario.n_frames,
                                   rng_seed=scenario.seed)
        peak = tracemalloc.get_traced_memory()[1] + sum(mapped)
    finally:
        tracemalloc.stop()
    assert mapped == [capture.frames.nbytes]
    assert peak <= 1.6 * capture.frames.nbytes


class TestFiniteFrames:
    """The simulator checks each block's frames as it writes them, not the
    whole capture again on return."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_overflow_of_complex64_is_rejected(self, small_spec, small_symbol, monkeypatch,
                                               workers):
        monkeypatch.setattr(channel, "_WORKERS", workers)
        # noise 800 dB over the return: finite in complex128, beyond complex64's range
        scene = Scene(targets=[make_target(duration_s=2.0)], snr_db=-800.0)
        with pytest.raises(ValueError, match="capture contains non-finite samples"):
            simulate_capture(scene, small_symbol, small_spec, n_frames=4 * _CHUNK_FRAMES + 1)

    def test_capture_not_scanned_again(self, small_spec, small_symbol, monkeypatch):
        def validate(capture):
            raise AssertionError("the simulated capture was scanned again")

        scene = Scene(targets=[make_target(duration_s=2.0)], snr_db=10.0)
        expected = simulate_capture(scene, small_symbol, small_spec, n_frames=99, rng_seed=7)
        monkeypatch.setattr(SlowFastMatrix, "__post_init__", validate)
        capture = simulate_capture(scene, small_symbol, small_spec, n_frames=99, rng_seed=7)
        assert type(capture) is SlowFastMatrix
        assert capture.frames.tobytes() == expected.frames.tobytes()
        assert (capture.frame_rate_hz, capture.spec) == (expected.frame_rate_hz, small_spec)

    def test_noise_far_below_the_return_simulates(self, small_spec, small_symbol):
        """At +4000 dB the power ratio overflows a float; the noise is ~1e-200."""
        target = make_target(duration_s=2.0)
        quiet = simulate_capture(Scene(targets=[target], snr_db=4000.0), small_symbol,
                                 small_spec, n_frames=20)
        clean = simulate_capture(Scene(targets=[target]), small_symbol, small_spec, n_frames=20)
        np.testing.assert_array_equal(quiet.frames, clean.frames)

    @pytest.mark.parametrize("snr_db", [-4000.0, -1e308])
    def test_noise_beyond_the_float_range_is_rejected(self, small_spec, small_symbol, snr_db):
        """At -4000 dB the power ratio underflows to 0; the frames would not be finite."""
        scene = Scene(targets=[make_target(duration_s=2.0)], snr_db=snr_db)
        with pytest.raises(ValueError):
            simulate_capture(scene, small_symbol, small_spec, n_frames=20)

    @pytest.mark.parametrize("rate", [0.0, -50.0, math.nan])
    def test_frame_rate_checked_before_simulating(self, small_spec, small_symbol, rate):
        with pytest.raises(ValueError, match="frame_rate_hz must be positive"):
            simulate_capture(Scene(), small_symbol, small_spec, n_frames=4, frame_rate_hz=rate)

    def test_no_frames_rejected(self, small_spec, small_symbol):
        scene = Scene(targets=[make_target(duration_s=2.0)])
        with pytest.raises(ValueError, match="at least one frame"):
            simulate_capture(scene, small_symbol, small_spec, n_frames=0)
