import contextlib
import gc
import io
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import jcvitals
from jcvitals import pipeline
from jcvitals.channel import Scene, simulate_capture
from jcvitals.pipeline import ProcessingConfig, process_capture, process_with_subcarriers
from jcvitals.receiver import average_slow_time
from jcvitals.report import OK, compare_records
from jcvitals.vitals import spectral_correlation

from conftest import capture_of, make_target


class TestProcessCapture:
    def test_single_person_end_to_end(self, default_spec, default_symbol):
        target = make_target()
        capture = capture_of([target], default_spec, default_symbol, snr_db=20.0)
        result = process_capture(capture, symbol=default_symbol)
        assert len(result.targets) == 1
        tr = result.targets[0]
        assert abs(tr.detection.range_m - 2.0) <= result.profiles.bin_width_m
        assert tr.estimate.br_bpm == pytest.approx(16.0, abs=1.0)
        assert tr.estimate.hr_bpm == pytest.approx(73.0, abs=2.0)

    def test_two_persons_distinct_bins(self, default_spec, default_symbol):
        a = make_target(rest_range_m=1.6, rng_seed=1)
        b = make_target(rest_range_m=3.44, breathing_rate_hz=19 / 60,
                        heart_rate_hz=87 / 60, rng_seed=2)
        capture = capture_of([a, b], default_spec, default_symbol, snr_db=20.0)
        result = process_capture(capture, symbol=default_symbol)
        assert len(result.targets) == 2
        assert result.targets[0].detection.bin_index != result.targets[1].detection.bin_index
        assert result.targets[0].detection.range_m < result.targets[1].detection.range_m
        assert result.targets[0].estimate.br_bpm == pytest.approx(16.0, abs=1.0)
        assert result.targets[1].estimate.br_bpm == pytest.approx(19.0, abs=1.0)

    def test_empty_scene_zero_targets(self, default_spec, default_symbol):
        scene = Scene(targets=[])
        capture = simulate_capture(scene, default_symbol, default_spec, n_frames=800,
                                   frame_rate_hz=50.0)
        result = process_capture(capture, symbol=default_symbol)
        assert result.targets == []

    def test_record_serialization(self, default_spec, default_symbol):
        target = make_target()
        capture = capture_of([target], default_spec, default_symbol, snr_db=20.0)
        result = process_capture(capture, symbol=default_symbol)
        record = result.targets[0].to_record("sitting_still_2m")
        assert record["scenario_id"] == "sitting_still_2m"
        assert record["target_id"] == 0
        assert isinstance(record["br_bpm"], float)
        assert set(record) >= {"range_m", "hr_bpm", "br_confidence", "hr_confidence",
                               "harmonic_flag"}

    def test_averaging_factor_reduces_rate(self, default_spec, default_symbol):
        # the chain never averages: a caller composes average_slow_time before it
        target = make_target()
        capture = capture_of([target], default_spec, default_symbol, snr_db=20.0)
        result = process_capture(average_slow_time(capture, 2), symbol=default_symbol)
        assert result.targets[0].track.sample_rate_hz == pytest.approx(25.0)
        assert result.targets[0].estimate.br_bpm == pytest.approx(16.0, abs=1.0)

    @pytest.mark.parametrize("factor", [0, -3])
    def test_averaging_factor_below_one_is_rejected(self, small_spec, small_symbol, factor):
        # long enough to process, so only the factor can fail it; the step is the one
        # pipeline re-exports for callers to compose before the chain
        capture = capture_of([make_target(duration_s=16.0)], small_spec, small_symbol,
                             duration_s=16.0)
        assert pipeline.average_slow_time is average_slow_time
        with pytest.raises(ValueError, match="averaging factor must be >= 1"):
            process_capture(pipeline.average_slow_time(capture, factor), small_symbol)
        with pytest.raises(ValueError, match="averaging factor must be >= 1"):
            process_with_subcarriers(pipeline.average_slow_time(capture, factor), [10, 64],
                                     small_symbol)


class TestSubcarrierSweep:
    def test_rates_invariant_across_counts(self, default_spec, default_symbol):
        target = make_target()
        capture = capture_of([target], default_spec, default_symbol, snr_db=20.0)
        results = process_with_subcarriers(capture, [10, 40, 1024], symbol=default_symbol)
        brs = {c: r.targets[0].estimate.br_bpm for c, r in results.items()}
        hrs = {c: r.targets[0].estimate.hr_bpm for c, r in results.items()}
        bin_bpm = 60 * 50.0 / (4 * capture.n_frames)
        assert max(brs.values()) - min(brs.values()) <= bin_bpm
        assert max(hrs.values()) - min(hrs.values()) <= bin_bpm

    def test_spectral_correlation_across_counts(self, default_spec, default_symbol):
        target = make_target()
        capture = capture_of([target], default_spec, default_symbol, snr_db=20.0)
        results = process_with_subcarriers(capture, [10, 1024], symbol=default_symbol)
        corr = spectral_correlation(
            results[10].targets[0].estimate.br_spectrum,
            results[1024].targets[0].estimate.br_spectrum,
        )
        assert corr >= 0.95

    def test_three_targets_resolved_only_at_full_band(self, default_spec, default_symbol):
        targets = [
            make_target(rest_range_m=1.6, rng_seed=1),
            make_target(rest_range_m=2.5, breathing_rate_hz=14 / 60, rng_seed=2),
            make_target(rest_range_m=3.44, breathing_rate_hz=19 / 60, rng_seed=3),
        ]
        capture = capture_of(targets, default_spec, default_symbol, snr_db=20.0,
                             duration_s=20.0)
        results = process_with_subcarriers(capture, [10, 40, 1024], symbol=default_symbol,
                                           config=ProcessingConfig(max_targets=3))
        assert len(results[1024].detections) == 3
        assert len(results[40].detections) < 3
        assert len(results[10].detections) < 3


class TestResultLifetime:
    """A result holds arrays and numbers only: once the caller drops the
    capture, its frames, and the averaged frames made from them, are freed."""

    @pytest.mark.parametrize("factor, counts", [(1, None), (2, None), (1, [10, 64])])
    def test_kept_result_frees_the_frames(self, small_spec, small_symbol, factor, counts):
        capture = capture_of([make_target(duration_s=16.0)], small_spec, small_symbol,
                             duration_s=16.0)
        averaged = average_slow_time(capture, factor)
        refs = [weakref.ref(capture.frames), weakref.ref(averaged.frames)]
        if counts is None:
            kept = [process_capture(averaged, small_symbol)]
        else:
            kept = list(process_with_subcarriers(averaged, counts, small_symbol).values())
        del capture, averaged
        gc.collect()
        assert all(result.targets for result in kept)
        assert all(ref() is None for ref in refs)


def test_readme_library_example_prints_the_true_rates():
    """The README's "Library use" block, run as written, prints BR and HR within
    the report's tolerances of its person's 16 and 73 bpm."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Library use\n\n```python\n(.*?)```", readme, re.DOTALL).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    br, hr = map(float, out.getvalue().split())
    truth = {"scenario_id": "readme", "target_id": 0, "br_bpm": 16.0, "hr_bpm": 73.0}
    [row] = compare_records([{**truth, "br_bpm": br, "hr_bpm": hr}], [truth])
    assert (row.br_status, row.hr_status) == (OK, OK), (br, hr)


# one capture through the chain as the CLI runs it: simulated and written, then read and processed
_ROUNDS = """
import os, sys
from jcvitals import Scene, SceneTarget, simulate_capture
from jcvitals.capture_io import read_capture, write_capture
from jcvitals.physio import VitalParams, synthesize_displacement
from jcvitals.pipeline import process_capture
from jcvitals.waveform import WaveformSpec, build_waveform

spec = WaveformSpec()
symbol = build_waveform(spec)
path = os.path.join(sys.argv[1], "capture.jcv")
params = VitalParams(breathing_rate_hz=0.25, breathing_amplitude_m=5e-3, heart_rate_hz=1.2,
                     heart_amplitude_m=3e-4)


def chain(n_frames, rate):
    trace = synthesize_displacement(params, duration_s=n_frames / rate, frame_rate_hz=rate)
    scene = Scene(targets=[SceneTarget(rest_range_m=2.0, trace=trace)], snr_db=20.0)
    write_capture(path, simulate_capture(scene, symbol, spec, n_frames=n_frames, rng_seed=1))
    capture, _ = read_capture(path)
    assert len(process_capture(capture, symbol).targets) == 1


def resident_mib():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


chain(200, 12.5)  # a 3.8 MB capture: imports and caches, not a capture the heap could keep
levels = [resident_mib()]
for _ in range(2):
    for n_frames in (1000, 2000):  # 19 MiB, below glibc's 32 MiB cap on its mmap threshold, and 38
        chain(n_frames, 50.0)
    levels.append(resident_mib())
print(*levels)
"""


@pytest.mark.skipif(not Path("/proc/self/statm").exists(), reason="reads /proc/self/statm")
def test_resident_memory_returns_after_each_capture(tmp_path):
    """Frames have their own mappings, so a dropped capture is returned to the
    kernel: glibc's heap keeps none of them, whatever its mmap threshold has
    risen to. In a fresh interpreter, a 1,000- and a 2,000-frame capture, each
    simulated, written, read, processed and dropped, twice, leave the resident
    set within 8 MiB of its level after a first, short capture."""
    env = dict(os.environ, PYTHONPATH=str(Path(jcvitals.__file__).resolve().parent.parent))
    out = subprocess.run([sys.executable, "-c", _ROUNDS, str(tmp_path)], env=env,
                         capture_output=True, text=True, check=True)
    first, *rounds = map(float, out.stdout.split())
    assert max(rounds) - first <= 8.0, (first, rounds)
