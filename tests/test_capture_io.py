import io
import math
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jcvitals import capture_io
from jcvitals.capture_io import (
    _HEADER_FMT,
    _HEADER_SIZE,
    MAGIC,
    CaptureFormatError,
    read_capture,
    write_capture,
)
from jcvitals.channel import _CHUNK_FRAMES, Scene, SlowFastMatrix, simulate_capture
from jcvitals.physio import DisplacementTrace
from jcvitals.channel import SceneTarget
from jcvitals.waveform import WaveformSpec, build_waveform, select_subcarriers


def patch_header(path, field, value):
    raw = bytearray(path.read_bytes())
    header = list(struct.unpack_from(_HEADER_FMT, raw))
    header[field] = value
    struct.pack_into(_HEADER_FMT, raw, 0, *header)
    path.write_bytes(bytes(raw))


def small_capture(n=5, count=None, seed=2):
    spec = WaveformSpec(num_subcarriers=64, samples_per_pulse=160)
    if count:
        spec = select_subcarriers(spec, count)
    symbol = build_waveform(spec)
    trace = DisplacementTrace(sample_rate_hz=50.0, samples=np.zeros(n))
    scene = Scene(targets=[SceneTarget(2.0, trace)], snr_db=10.0)
    return simulate_capture(scene, symbol, spec, n_frames=n, rng_seed=seed)


class TestRoundTrip:
    def test_byte_exact_round_trip(self, tmp_path):
        capture = small_capture()
        first = tmp_path / "a.jcv"
        second = tmp_path / "b.jcv"
        write_capture(first, capture, averaging_factor=4, seed=99)
        loaded, meta = read_capture(first)
        write_capture(second, loaded, averaging_factor=meta.averaging_factor, seed=meta.seed)
        assert first.read_bytes() == second.read_bytes()
        assert meta.averaging_factor == 4
        assert meta.seed == 99

    def test_spec_reconstructed(self, tmp_path):
        capture = small_capture(count=10)
        path = tmp_path / "c.jcv"
        write_capture(path, capture)
        loaded, _ = read_capture(path)
        assert loaded.spec == capture.spec
        assert loaded.frame_rate_hz == capture.frame_rate_hz
        assert loaded.n_frames == capture.n_frames

    def test_values_match_at_float32(self, tmp_path):
        capture = small_capture()
        path = tmp_path / "d.jcv"
        write_capture(path, capture)
        loaded, _ = read_capture(path)
        assert np.allclose(loaded.frames, capture.frames, rtol=1e-6, atol=1e-9)

    @settings(max_examples=10, deadline=None)
    @given(n=st.integers(min_value=1, max_value=9), seed=st.integers(0, 1000))
    def test_round_trip_property(self, tmp_path_factory, n, seed):
        capture = small_capture(n=n, seed=seed)
        path = tmp_path_factory.mktemp("cap") / "x.jcv"
        write_capture(path, capture, seed=seed)
        loaded, meta = read_capture(path)
        assert meta.seed == seed
        assert loaded.frames.shape == capture.frames.shape
        assert np.allclose(loaded.frames, capture.frames, rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("n", [1, _CHUNK_FRAMES, 2 * _CHUNK_FRAMES + 3])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_payload_is_the_whole_array_in_row_order(self, tmp_path, n, order):
        # the payload's bytes are those of the whole capture converted to
        # complex64, row after row, whatever the layout
        capture = small_capture(n=n)
        capture.frames = np.asarray(capture.frames, order=order)
        path = tmp_path / "e.jcv"
        write_capture(path, capture)
        whole = np.ascontiguousarray(capture.frames, dtype=np.complex64).tobytes()
        assert path.read_bytes()[_HEADER_SIZE:] == whole


class TestErrors:
    @pytest.mark.parametrize("field, value", [
        ("seed", 2**63), ("seed", -2**63 - 1),
        ("averaging_factor", -1), ("averaging_factor", 2**32),
        ("seed", True), ("averaging_factor", False),
    ])
    def test_header_field_out_of_range_writes_no_file(self, tmp_path, field, value):
        # each used to escape from struct.pack as a struct.error naming no field;
        # a bool, an Integral, used to be written as 1 or 0
        path, capture = tmp_path / "out.jcv", small_capture()
        with pytest.raises(ValueError, match=rf"^{field} must be an integer in \["):
            write_capture(path, capture, **{field: value})
        assert not path.exists()

    def test_frames_of_more_than_two_dimensions_refused(self):
        # a (4, 160, 3) array used to pass as 4 frames, and be written as a
        # file that read_capture refuses for its trailing bytes
        spec = WaveformSpec(num_subcarriers=64, samples_per_pulse=160)
        with pytest.raises(ValueError, match=r"not \(4, 160, 3\)"):
            SlowFastMatrix(frames=np.zeros((4, 160, 3), np.complex64), frame_rate_hz=50.0, spec=spec)
        one = SlowFastMatrix(frames=np.zeros(160, np.complex64), frame_rate_hz=50.0, spec=spec)
        assert one.frames.shape == (1, 160)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.jcv"
        capture = small_capture()
        write_capture(path, capture)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(CaptureFormatError, match="magic"):
            read_capture(path)

    def test_version_mismatch_names_both(self, tmp_path):
        path = tmp_path / "ver.jcv"
        write_capture(path, small_capture())
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 7)
        path.write_bytes(bytes(raw))
        with pytest.raises(CaptureFormatError, match=r"7.*expected 1"):
            read_capture(path)

    def test_truncated_payload_names_offset(self, tmp_path):
        path = tmp_path / "trunc.jcv"
        write_capture(path, small_capture())
        raw = path.read_bytes()
        path.write_bytes(raw[:-13])
        with pytest.raises(CaptureFormatError, match=f"byte offset {len(raw) - 13}"):
            read_capture(path)

    def test_over_long_payload_names_trailing_bytes(self, tmp_path):
        path = tmp_path / "long.jcv"
        write_capture(path, small_capture())
        raw = path.read_bytes()
        path.write_bytes(raw + bytes(13))
        with pytest.raises(CaptureFormatError, match=f"13 trailing bytes.*{len(raw)} bytes total"):
            read_capture(path)

    def test_huge_frame_count_rejected_before_allocating(self, tmp_path, mapped):
        path = tmp_path / "huge.jcv"
        write_capture(path, small_capture())
        patch_header(path, 6, 2**31 - 1)  # frame count: ~2.7 TB of payload declared
        mapped.clear()  # the written capture's own frames
        tracemalloc.start()
        try:
            with pytest.raises(CaptureFormatError, match="truncated payload"):
                read_capture(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert mapped == []

    def test_short_read_is_truncation(self, tmp_path, monkeypatch):
        # the file is whole when its size is checked but shrinks before the
        # read ends: the read must not hand back the unfilled samples
        class ShortReader(io.BufferedReader):
            def readinto(self, buffer):
                return super().readinto(memoryview(buffer).cast("B")[:-8])

        path = tmp_path / "short.jcv"
        write_capture(path, small_capture())
        size = path.stat().st_size
        monkeypatch.setattr(capture_io, "open", lambda p, mode: ShortReader(io.FileIO(p, "r")),
                            raising=False)
        with pytest.raises(CaptureFormatError, match=f"byte offset {size - 8}:"):
            read_capture(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "hdr.jcv"
        path.write_bytes(MAGIC + b"\x01")
        with pytest.raises(CaptureFormatError, match="header"):
            read_capture(path)

    @pytest.mark.parametrize("field, value", [
        (8, 0),  # num_subcarriers
        (9, 1.3e6),  # subcarrier spacing off the pulse DFT grid
        (2, float("nan")),  # carrier
        (3, 0.0),  # sample rate
        (5, 0.0),  # frame rate
        (9, math.inf),  # subcarrier spacing
        (2, math.inf),  # carrier: a wavelength of 0
        (3, 1e-305),  # sample rate: the pulse duration P / rate times the spacing overflows
        (3, 1e-310),  # sample rate: the pulse duration P / rate overflows
        (5, math.inf),  # frame rate
    ])
    def test_header_that_is_not_a_valid_capture(self, tmp_path, field, value):
        path = tmp_path / "spec.jcv"
        write_capture(path, small_capture())
        patch_header(path, field, value)
        with pytest.raises(CaptureFormatError, match="^invalid capture: "):
            read_capture(path)

    def test_active_start_off_centre(self, tmp_path):
        path = tmp_path / "start.jcv"
        write_capture(path, small_capture(count=10))
        patch_header(path, 10, 64 // 2 - 10 // 2 - 1)  # active start, one below centre
        with pytest.raises(CaptureFormatError, match="centred start"):
            read_capture(path)

    @pytest.mark.parametrize("frame", [0, _CHUNK_FRAMES, 2 * _CHUNK_FRAMES + 2])
    def test_non_finite_sample_in_any_block(self, tmp_path, frame):
        path = tmp_path / "inf.jcv"
        write_capture(path, small_capture(n=2 * _CHUNK_FRAMES + 3))
        raw = bytearray(path.read_bytes())
        struct.pack_into("<f", raw, _HEADER_SIZE + 8 * (160 * frame + 3) + 4, float("inf"))
        path.write_bytes(bytes(raw))
        with pytest.raises(CaptureFormatError, match="non-finite"):
            read_capture(path)

    def test_truncation_reported_before_a_non_finite_sample(self, tmp_path):
        path = tmp_path / "both.jcv"
        write_capture(path, small_capture(n=2 * _CHUNK_FRAMES + 3))
        raw = bytearray(path.read_bytes())
        struct.pack_into("<f", raw, _HEADER_SIZE, float("nan"))
        path.write_bytes(bytes(raw[:-8]))
        with pytest.raises(CaptureFormatError, match="truncated payload"):
            read_capture(path)

    def test_non_finite_sample(self, tmp_path):
        path = tmp_path / "nan.jcv"
        write_capture(path, small_capture())
        raw = bytearray(path.read_bytes())
        struct.pack_into("<f", raw, _HEADER_SIZE + 8 * 17, float("nan"))
        path.write_bytes(bytes(raw))
        with pytest.raises(CaptureFormatError, match="non-finite"):
            read_capture(path)


def test_readme_states_the_header_size():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert f"a {_HEADER_SIZE}-byte header" in readme


def test_read_holds_the_payload_once(tmp_path, mapped):
    # the payload goes straight into the returned array: no bytes object of
    # the same size beside it
    spec = WaveformSpec()
    rng = np.random.default_rng(5)
    frames = rng.standard_normal((2000, 2 * spec.samples_per_pulse), np.float32).view(np.complex64)
    path = tmp_path / "big.jcv"
    write_capture(path, SlowFastMatrix(frames=frames, frame_rate_hz=50.0, spec=spec))
    tracemalloc.start()
    try:
        loaded, _ = read_capture(path)
        peak = tracemalloc.get_traced_memory()[1] + sum(mapped)
    finally:
        tracemalloc.stop()
    assert mapped == [loaded.frames.nbytes]
    assert loaded.frames.dtype == np.complex64
    assert loaded.frames.flags.c_contiguous
    assert np.array_equal(loaded.frames, frames)
    assert peak <= 1.02 * loaded.frames.nbytes


def test_write_holds_no_copy_of_the_payload(tmp_path):
    # complex64 C-ordered frames go to the file as they are: no converted or
    # contiguous copy of the payload, whole or in blocks, beside them
    spec = WaveformSpec()
    rng = np.random.default_rng(6)
    frames = rng.standard_normal((2000, 2 * spec.samples_per_pulse), np.float32).view(np.complex64)
    capture = SlowFastMatrix(frames=frames, frame_rate_hz=50.0, spec=spec)
    path = tmp_path / "big.jcv"
    tracemalloc.start()
    try:
        write_capture(path, capture)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.01 * frames.nbytes
    assert path.read_bytes()[_HEADER_SIZE:] == frames.tobytes()
