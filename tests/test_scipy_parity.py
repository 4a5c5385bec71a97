"""The numpy routines of the package against the scipy routines they stand for.

The package runs on numpy alone; scipy is a test dependency, used here as the
reference each local routine must reproduce: the Hann window and the range
taper built from it, the fast FFT length, the linear detrend, both peak
pickers and the breath-hold distance.
"""
import numpy as np
import pytest
from scipy.fft import next_fast_len
from scipy.ndimage import distance_transform_edt
from scipy.signal import detrend, find_peaks, get_window
from scipy.signal.windows import hann as scipy_hann

from jcvitals.physio import _breath_gate
from jcvitals.ranging import RangeProfileSeries, _fast_length, detect_targets
from jcvitals.receiver import ChannelFrameSeries
from jcvitals.vitals import _alternative_peak, _BandPeak, _detrended
from jcvitals.waveform import WaveformSpec, hann, select_subcarriers


def test_hann_is_scipy_periodic_hann_bit_for_bit():
    for n in range(1, 4097):
        assert hann(n).tobytes() == get_window("hann", n).tobytes(), n
    assert hann(1).tolist() == [1.0]


@pytest.mark.parametrize("count", [1, 2, 10, 1024])
def test_range_taper_is_scipy_symmetric_hann_bit_for_bit_without_its_zero_ends(count):
    series = ChannelFrameSeries(frames=None, reference=None, frame_rate_hz=50.0,
                                spec=select_subcarriers(WaveformSpec(), count))
    assert series._taps().tobytes() == scipy_hann(count + 2, sym=True)[1:-1].tobytes()


def test_fast_length_is_next_fast_len():
    assert [_fast_length(n) for n in range(1, 5000)] == [next_fast_len(n) for n in range(1, 5000)]


@pytest.mark.parametrize("n", [1, 2, 3, 10, 1000, 2001])
def test_detrend_matches_linear_detrend(n):
    rng = np.random.default_rng(n)
    x = 3.0 - 0.02 * np.arange(n) + rng.standard_normal(n)
    np.testing.assert_allclose(_detrended(x), detrend(x, type="linear"), rtol=0, atol=1e-12)


def profiles_of(power_db: np.ndarray, spacing_bins: int) -> RangeProfileSeries:
    # detect_targets reads the dB profile and the resolution in bins only
    return RangeProfileSeries(range_axis_m=np.arange(power_db.size) * 0.1,
                              mean_power=10.0 ** (power_db / 10.0),
                              range_resolution_m=0.1 * spacing_bins, bin_width_m=0.1, series=None)


@pytest.mark.parametrize("spacing_bins", [1, 2, 5, 30])
@pytest.mark.parametrize("prominence_db", [-np.inf, 0.0, 3.0])
def test_target_picker_matches_find_peaks(spacing_bins, prominence_db):
    rng = np.random.default_rng(spacing_bins)
    for size in (3, 4, 50, 400):
        profiles = profiles_of(rng.normal(-40.0, 5.0, size), spacing_bins)
        power_db = profiles.mean_power_db()
        height = float(np.median(power_db)) + prominence_db
        peaks, _ = find_peaks(power_db, height=height, distance=spacing_bins)
        expected = peaks[np.argsort(power_db[peaks])[::-1]].tolist()
        found = detect_targets(profiles, max_targets=size, min_prominence_db=prominence_db,
                               max_below_peak_db=np.inf)
        assert [d.bin_index for d in found] == expected
        # the sidelobe and count limits keep a prefix of that order
        if expected:
            strongest = power_db[expected[0]]
            within = [b for b in expected if power_db[b] >= strongest - 6.0][:3]
            found = detect_targets(profiles, max_targets=3, min_prominence_db=prominence_db,
                                   max_below_peak_db=6.0)
            assert [d.bin_index for d in found] == within


def test_alternative_peak_picker_matches_find_peaks():
    rng = np.random.default_rng(0)
    for _ in range(300):
        size = int(rng.integers(1, 40))
        mags = rng.random(size)
        freqs = 0.8 + 0.01 * np.arange(size)
        top = int(np.argmax(mags))
        tol = float(rng.uniform(0.0, 0.2))
        band = _BandPeak(peak_hz=float(freqs[top]), confidence=0.0, freqs=freqs, mags=mags)
        peaks, _ = find_peaks(np.concatenate(([-np.inf], mags, [-np.inf])))
        away = peaks[np.abs(freqs[peaks - 1] - freqs[top]) > tol] - 1
        expected = None
        if away.size:
            best = away[np.argmax(mags[away])]
            expected = (float(freqs[best]), float(mags[best]))
        assert _alternative_peak(band, tol) == expected


def test_breath_gate_distance_is_the_distance_transform():
    rng = np.random.default_rng(0)
    masks = [np.ones(5, dtype=bool), np.eye(1, 9, 0, dtype=bool)[0], np.eye(1, 9, 8, dtype=bool)[0]]
    for _ in range(200):
        mask = rng.random(int(rng.integers(1, 300))) < rng.uniform(0.01, 0.5)
        if rng.random() < 0.3:
            mask[[0, -1]] = True  # holds at both ends
        if mask.any():
            masks.append(mask)
    for mask in masks:
        # a ramp as long as the mask keeps the gate below 1: it gives the distance back
        ramp = mask.size
        gate = np.clip(distance_transform_edt(~mask) / ramp, 0.0, 1.0)
        assert np.array_equal(_breath_gate(mask, ramp), 0.5 * (1.0 - np.cos(np.pi * gate)))
