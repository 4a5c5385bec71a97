"""Binary IQ capture files.

Layout (little endian): a fixed header followed by the frames in row-major
slow-time order, each complex sample stored as interleaved float32 I/Q.

header: magic "JCV1" | format version u32 | carrier f64 | sample rate f64 |
        samples_per_pulse u32 | frame rate f64 | frame count u32 |
        averaging factor u32 | num_subcarriers u32 | subcarrier spacing f64 |
        active start u32 | active count u32 | seed i64

The averaging factor is metadata: ``jcvitals simulate`` writes 1, and
``process`` records the field in its manifest but never averages: the
receive chain processes the frames it is given.

``read_capture`` checks the file size and the rest of the header before it
allocates, then reads the payload once, with ``readinto``, into one complex64
array, ``_CHUNK_FRAMES`` rows at a time, each block checked for finite samples
while it is in cache. The array is the frames' own private anonymous mapping
(``channel._frames_array``), not a map of the file: the payload is copied, as
an ``np.memmap`` capture dies with SIGBUS once its file is truncated and
rewritten in place, as ``write_capture`` does.
"""
from __future__ import annotations

import numbers
import os
import struct
from dataclasses import dataclass

import numpy as np

from .channel import _CHUNK_FRAMES, SlowFastMatrix, _check_finite, _check_scalars, _frames_array
from .waveform import WaveformSpec

MAGIC = b"JCV1"
FORMAT_VERSION = 1
_HEADER_FMT = "<4sIddIdIIIdIIq"
_HEADER_SIZE = struct.calcsize(_HEADER_FMT)
_BYTES_PER_SAMPLE = 8  # float32 I + float32 Q


class CaptureFormatError(ValueError):
    """Raised for malformed, truncated or mismatched capture files."""


@dataclass
class CaptureMeta:
    averaging_factor: int
    seed: int


def write_capture(path, capture: SlowFastMatrix, averaging_factor: int = 1, seed: int = 0) -> None:
    """Write ``capture`` as JCV1, the payload in one write. C-contiguous complex64 frames
    (all that ``simulate_capture``, ``read_capture`` and ``average_slow_time`` return) are
    written as they are, with no copy; others, such as complex128 frames built by hand,
    are first rounded to a complex64 copy. An ``averaging_factor`` or ``seed`` that is a bool
    or outside its header field (u32, i64) is a ``ValueError``, raised before the file is opened."""
    for name, value, low, high in (("averaging_factor", averaging_factor, 0, 2**32 - 1),
                                   ("seed", seed, -2**63, 2**63 - 1)):
        if isinstance(value, bool) or not (isinstance(value, numbers.Integral) and low <= value <= high):
            raise ValueError(f"{name} must be an integer in [{low}, {high}], not {value!r}")
    spec = capture.spec
    idx = spec.active_indices
    header = struct.pack(
        _HEADER_FMT,
        MAGIC,
        FORMAT_VERSION,
        spec.carrier_frequency_hz,
        spec.sample_rate_hz,
        spec.samples_per_pulse,
        capture.frame_rate_hz,
        capture.n_frames,
        averaging_factor,
        spec.num_subcarriers,
        spec.subcarrier_spacing_hz,
        int(idx[0]),
        int(idx.size),
        seed,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(capture.frames, np.complex64))


def read_capture(path) -> tuple[SlowFastMatrix, CaptureMeta]:
    """Load a capture; ``CaptureFormatError`` for any file that does not form
    one (bad header, truncated or non-finite payload, off-centre band)."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER_SIZE)
        if len(header) < _HEADER_SIZE:
            raise CaptureFormatError(
                f"truncated header: got {len(header)} bytes, need {_HEADER_SIZE}"
            )
        (
            magic,
            version,
            carrier_hz,
            sample_rate_hz,
            samples_per_pulse,
            frame_rate_hz,
            frame_count,
            averaging_factor,
            num_subcarriers,
            spacing_hz,
            active_start,
            active_count,
            seed,
        ) = struct.unpack(_HEADER_FMT, header)
        if magic != MAGIC:
            raise CaptureFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
        if version != FORMAT_VERSION:
            raise CaptureFormatError(
                f"unsupported format version {version}, expected {FORMAT_VERSION}"
            )
        expected = frame_count * samples_per_pulse * _BYTES_PER_SAMPLE

        def truncated(size):
            return CaptureFormatError(f"truncated payload at byte offset {_HEADER_SIZE + size}: "
                                      f"expected {_HEADER_SIZE + expected} bytes total")

        size = os.fstat(fh.fileno()).st_size - _HEADER_SIZE
        if size > expected:
            raise CaptureFormatError(
                f"{size - expected} trailing bytes after the payload: "
                f"expected {_HEADER_SIZE + expected} bytes total"
            )
        if size < expected:
            raise truncated(size)
        try:
            spec = WaveformSpec(
                carrier_frequency_hz=carrier_hz,
                num_subcarriers=num_subcarriers,
                subcarrier_spacing_hz=spacing_hz,
                samples_per_pulse=samples_per_pulse,
                pulse_duration_s=samples_per_pulse / sample_rate_hz,
                active_count=active_count,
            )
            _check_scalars(frame_count, frame_rate_hz)
        except (ValueError, ZeroDivisionError) as exc:
            raise CaptureFormatError(f"invalid capture: {exc}") from exc
        if active_start != spec.active_indices[0]:
            raise CaptureFormatError(
                f"active start {active_start} is not the centred start "
                f"{spec.active_indices[0]} for {active_count} of {num_subcarriers} subcarriers"
            )

        frames = _frames_array(frame_count, samples_per_pulse)
        for start in range(0, frame_count, _CHUNK_FRAMES):
            block = frames[start : start + _CHUNK_FRAMES]
            got = fh.readinto(block)  # short if the file shrank since fstat
            if got < block.nbytes:
                raise truncated(start * samples_per_pulse * _BYTES_PER_SAMPLE + got)
            try:
                _check_finite(block)
            except ValueError as exc:
                raise CaptureFormatError(f"invalid capture: {exc}") from exc
    capture = SlowFastMatrix._checked(frames=frames, frame_rate_hz=frame_rate_hz, spec=spec)
    return capture, CaptureMeta(averaging_factor=averaging_factor, seed=seed)
