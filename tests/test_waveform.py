import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jcvitals.waveform import WaveformSpec, build_waveform, papr_db, select_subcarriers


def brute_force_papr_db(time_domain):
    # independent oracle: explicit scan over samples
    peak = 0.0
    total = 0.0
    for sample in time_domain:
        p = abs(sample) ** 2
        peak = max(peak, p)
        total += p
    return 10 * np.log10(peak / (total / len(time_domain)))


class TestSpecValidation:
    def test_defaults_are_consistent(self, default_spec):
        assert default_spec.sample_rate_hz == pytest.approx(2.5e9)
        assert default_spec.active_count == 1024
        assert default_spec.occupied_bandwidth_hz == pytest.approx(1.024e9)
        # paper-level rounding: "1 GHz bandwidth"
        assert default_spec.occupied_bandwidth_hz == pytest.approx(1e9, rel=0.03)

    def test_rejects_more_subcarriers_than_samples(self):
        with pytest.raises(ValueError):
            WaveformSpec(num_subcarriers=64, samples_per_pulse=32)

    def test_rejects_zero_pulse_duration(self):
        with pytest.raises(ValueError):
            WaveformSpec(pulse_duration_s=0.0)

    def test_rejects_off_grid_spacing(self):
        with pytest.raises(ValueError):
            WaveformSpec(subcarrier_spacing_hz=1.3e6)

    def test_rejects_zero_active(self):
        with pytest.raises(ValueError):
            WaveformSpec(num_subcarriers=64, samples_per_pulse=160, active_count=0)

    def test_effective_carrier_sits_half_spacing_low_for_even_counts(self, default_spec):
        offset = default_spec.effective_carrier_hz - default_spec.carrier_frequency_hz
        assert offset == pytest.approx(-default_spec.subcarrier_spacing_hz / 2)


class TestBuildWaveform:
    def test_single_tone_has_zero_papr(self):
        spec = select_subcarriers(WaveformSpec(num_subcarriers=64, samples_per_pulse=160), 1)
        symbol = build_waveform(spec)
        assert papr_db(symbol) == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(np.abs(symbol.time_domain), np.abs(symbol.time_domain[0]))

    def test_flat_phases_give_coherent_peak(self, default_spec):
        # zero-phase reference built directly, bypassing the phase profile
        grid = np.zeros(default_spec.samples_per_pulse, dtype=complex)
        grid[default_spec.active_bins % default_spec.samples_per_pulse] = 1.0
        time = np.fft.ifft(grid) * np.sqrt(default_spec.samples_per_pulse)
        power = np.abs(time) ** 2
        assert 10 * np.log10(power.max() / power.mean()) >= 20.0

    def test_quadratic_profile_keeps_papr_low(self, default_symbol):
        assert papr_db(default_symbol) <= 6.0

    def test_active_subcarriers_unit_magnitude_inactive_zero(self, default_spec):
        spec = select_subcarriers(default_spec, 40)
        symbol = build_waveform(spec)
        active = np.zeros(spec.num_subcarriers, dtype=bool)
        active[spec.active_indices] = True
        assert np.allclose(np.abs(symbol.freq_domain[active]), 1.0)
        assert np.all(symbol.freq_domain[~active] == 0)

    def test_parseval_energy_match(self, default_symbol):
        freq_energy = np.sum(np.abs(default_symbol.freq_domain) ** 2)
        time_energy = np.sum(np.abs(default_symbol.time_domain) ** 2)
        assert time_energy == pytest.approx(freq_energy, rel=1e-9)

    def test_deterministic_bit_identical(self, default_spec):
        a = build_waveform(default_spec)
        b = build_waveform(WaveformSpec())
        assert np.array_equal(a.time_domain, b.time_domain)
        assert np.array_equal(a.freq_domain, b.freq_domain)


class TestPaprDb:
    def test_constant_envelope_tone(self):
        spec = select_subcarriers(WaveformSpec(num_subcarriers=16, samples_per_pulse=64), 1)
        assert papr_db(build_waveform(spec)) == pytest.approx(0.0, abs=1e-9)

    def test_two_equal_tones(self):
        # closed form: max |1 + e^{j theta}|^2 / mean = 4/2
        spec = select_subcarriers(WaveformSpec(num_subcarriers=16, samples_per_pulse=64), 2)
        symbol = build_waveform(spec)
        assert papr_db(symbol) == pytest.approx(10 * np.log10(2.0), abs=1e-6)

    def test_matches_brute_force_scan(self, default_symbol):
        assert papr_db(default_symbol) == pytest.approx(
            brute_force_papr_db(default_symbol.time_domain), abs=1e-12
        )

    def test_rejects_all_zero(self, default_spec):
        symbol = build_waveform(default_spec)
        symbol.time_domain = np.zeros_like(symbol.time_domain)
        with pytest.raises(ValueError):
            papr_db(symbol)


class TestSelectSubcarriers:
    def test_full_band_occupies_nominal_1ghz(self, default_spec):
        spec = select_subcarriers(default_spec, 1024)
        assert spec.occupied_bandwidth_hz == pytest.approx(1e9, rel=0.03)

    def test_ten_subcarriers_occupy_10mhz(self, default_spec):
        spec = select_subcarriers(default_spec, 10)
        assert spec.occupied_bandwidth_hz == pytest.approx(10e6, rel=0.03)
        assert spec.occupied_bandwidth_hz == 10 * spec.subcarrier_spacing_hz

    def test_count_out_of_range_rejected(self, default_spec):
        with pytest.raises(ValueError):
            select_subcarriers(default_spec, default_spec.num_subcarriers + 1)
        with pytest.raises(ValueError):
            select_subcarriers(default_spec, 0)

    def test_idempotent_at_full_count(self, default_spec):
        spec = select_subcarriers(default_spec, default_spec.num_subcarriers)
        assert spec == default_spec

    def test_bandwidth_strictly_monotone_in_count(self, default_spec):
        widths = [
            select_subcarriers(default_spec, c).occupied_bandwidth_hz
            for c in (1, 10, 40, 256, 1024)
        ]
        assert all(a < b for a, b in zip(widths, widths[1:]))

    def test_band_center_stays_fixed(self, default_spec):
        # even counts share one band center: the sweep keeps the carrier fixed
        centers = {
            select_subcarriers(default_spec, c).effective_carrier_hz
            for c in (10, 40, 1024)
        }
        assert len(centers) == 1


@settings(max_examples=25, deadline=None)
@given(
    count=st.integers(min_value=1, max_value=64),
    samples=st.integers(min_value=64, max_value=241),
)
def test_parseval_property(count, samples):
    spec = select_subcarriers(
        WaveformSpec(num_subcarriers=64, samples_per_pulse=samples), count
    )
    symbol = build_waveform(spec)
    assert np.sum(np.abs(symbol.time_domain) ** 2) == pytest.approx(
        np.sum(np.abs(symbol.freq_domain) ** 2), rel=1e-9
    )


def mask_active_indices(n: int, count: int) -> np.ndarray:
    # reference: the centred band written as a boolean mask
    mask = np.zeros(n, dtype=bool)
    start = n // 2 - count // 2
    mask[start : start + count] = True
    return np.flatnonzero(mask)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(min_value=1, max_value=128))
def test_centred_bands_nest(data, n):
    # narrowed() and estimate_channel() compare counts only: this is why that suffices
    c1 = data.draw(st.integers(min_value=1, max_value=n))
    c2 = data.draw(st.integers(min_value=c1, max_value=n))
    base = WaveformSpec(num_subcarriers=n, samples_per_pulse=n)
    narrow, wide = (select_subcarriers(base, c) for c in (c1, c2))
    assert np.array_equal(narrow.active_indices, mask_active_indices(n, c1))
    assert np.array_equal(wide.active_indices, mask_active_indices(n, c2))
    lo = narrow.active_indices[0] - wide.active_indices[0]
    assert 0 <= lo <= c2 - c1
    assert np.array_equal(wide.active_indices[lo : lo + c1], narrow.active_indices)
    assert narrow == WaveformSpec(num_subcarriers=n, samples_per_pulse=n, active_count=c1)
    for bad in (0, n + 1):
        with pytest.raises(ValueError):
            WaveformSpec(num_subcarriers=n, samples_per_pulse=n, active_count=bad)
        with pytest.raises(ValueError):
            select_subcarriers(base, bad)
